// herc_srv — the multi-project Hercules server.
//
//   herc_srv --unix /tmp/herc.sock                 # unix-domain listener
//   herc_srv --tcp 7421 [--host 0.0.0.0]           # tcp listener (0 = pick)
//   herc_srv --dir DATA                            # where shard files live
//   herc_srv --durable --window-us 200             # fsync'd group commit
//   herc_srv --open NAME=SEED[:shape:size] ...     # pre-open projects
//
// Each connection's requests run on that connection's own thread, in order.
// Runs until SIGINT/SIGTERM or a `shutdown` wire op, then answers every
// request already received and writes a final group commit + snapshot per
// project before exiting 0.  Prints the bound addresses on stdout once
// listening (port 0 resolves here), so scripts can parse them.
//
// Exit status: 0 clean shutdown, 1 startup failure, 2 usage.

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "srv/server.hpp"

namespace {

using namespace herc;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--unix PATH] [--tcp PORT] [--host HOST] [--dir DIR]\n"
               "          [--durable] [--window-us N] [--tool-minutes N]\n"
               "          [--open NAME=SEED[:shape:size]]...\n",
               argv0);
  return 2;
}

// Self-pipe: the handler only writes a byte; main polls it next to the
// server's own stop event.  Nothing non-async-signal-safe runs in here.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  char byte = 'q';
  [[maybe_unused]] auto n = ::write(g_signal_pipe[1], &byte, 1);
}

struct OpenSpec {
  std::string name;
  std::uint64_t seed = 1;
  std::string shape = "layered";
  std::size_t size = 3;
};

bool parse_open(const std::string& text, OpenSpec& out) {
  auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  out.name = text.substr(0, eq);
  std::string rest = text.substr(eq + 1);
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    auto colon = rest.find(':', start);
    parts.push_back(rest.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.empty() || parts[0].empty()) return false;
  out.seed = std::strtoull(parts[0].c_str(), nullptr, 10);
  if (parts.size() > 1 && !parts[1].empty()) out.shape = parts[1];
  if (parts.size() > 2 && !parts[2].empty()) {
    out.size = static_cast<std::size_t>(std::strtoull(parts[2].c_str(), nullptr, 10));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  srv::ServerConfig config;
  std::vector<OpenSpec> opens;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--unix") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      config.unix_path = v;
    } else if (arg == "--tcp") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      config.tcp_port = std::atoi(v);
    } else if (arg == "--host") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      config.tcp_host = v;
    } else if (arg == "--dir") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      config.shard.dir = v;
    } else if (arg == "--durable") {
      config.shard.durable = true;
    } else if (arg == "--window-us") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      config.shard.commit_window = std::chrono::microseconds(std::atoll(v));
    } else if (arg == "--tool-minutes") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      config.tool_minutes = std::atoll(v);
    } else if (arg == "--open") {
      const char* v = next();
      OpenSpec spec;
      if (!v || !parse_open(v, spec)) return usage(argv[0]);
      opens.push_back(spec);
    } else {
      return usage(argv[0]);
    }
  }
  if (config.unix_path.empty() && config.tcp_port < 0) return usage(argv[0]);

  auto server = srv::Server::start(std::move(config));
  if (!server.ok()) {
    std::fprintf(stderr, "herc_srv: %s\n", server.error().str().c_str());
    return 1;
  }

  for (const auto& spec : opens) {
    gen::ScenarioSpec sspec;
    sspec.seed = spec.seed;
    sspec.size = spec.size;
    auto shape = gen::parse_shape(spec.shape);
    if (!shape.ok()) {
      std::fprintf(stderr, "herc_srv: --open %s: %s\n", spec.name.c_str(),
                   shape.error().str().c_str());
      return 1;
    }
    sspec.shape = shape.value();
    auto shard = srv::ProjectShard::create(spec.name, gen::generate(sspec),
                                           server.value()->config_shard());
    if (!shard.ok()) {
      std::fprintf(stderr, "herc_srv: --open %s: %s\n", spec.name.c_str(),
                   shard.error().str().c_str());
      return 1;
    }
    server.value()->adopt_shard(std::move(shard).take());
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "herc_srv: pipe() failed\n");
    return 1;
  }
  struct sigaction action = {};
  action.sa_handler = on_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  if (!server.value()->unix_address().empty()) {
    std::printf("listening %s\n", server.value()->unix_address().c_str());
  }
  if (server.value()->tcp_port() >= 0) {
    std::printf("listening %s\n", server.value()->tcp_address().c_str());
  }
  std::fflush(stdout);

  // Block until a signal or a `shutdown` op, then drain and exit.
  pollfd fds[2] = {{g_signal_pipe[0], POLLIN, 0},
                   {server.value()->stop_event_fd(), POLLIN, 0}};
  while (!server.value()->stop_requested()) {
    int rc = ::poll(fds, 2, -1);
    if (rc > 0) break;
    if (rc < 0 && errno != EINTR) break;
  }
  server.value()->stop();
  std::printf("clean shutdown\n");
  return 0;
}
