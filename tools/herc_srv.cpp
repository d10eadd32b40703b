// herc_srv — the multi-project Hercules server.
//
//   herc_srv --unix /tmp/herc.sock                 # unix-domain listener
//   herc_srv --tcp 7421 [--host 0.0.0.0]           # tcp port 0-65535 (0 = pick)
//   herc_srv --dir DATA                            # where shard files live
//   herc_srv --durable                             # fsync'd group commit
//   herc_srv --open NAME=SEED[:shape:size] ...     # pre-open projects
//
// A project is opened from a generated scenario (--open, or the `open` op
// with `scenario` or `scenario_seed`), or recovered from its files in --dir
// (`open {recover: true}`).
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

#include "srv/client.hpp"
#include "srv/server.hpp"

namespace {

using namespace herc;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--unix PATH] [--tcp PORT] [--host HOST] [--dir DIR]\n"
               "          [--durable] [--open NAME=SEED[:shape:size]]...\n"
               "PORT is 0-65535 (0 = kernel-assigned).\n",
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

bool all_digits(const std::string& text) {
  return !text.empty() && text.find_first_not_of("0123456789") == std::string::npos;
}

/// A TCP port, 0-65535, in decimal digits only.
bool parse_port(const std::string& text, int& out) {
  if (!all_digits(text)) return false;
  const unsigned long port = std::strtoul(text.c_str(), nullptr, 10);
  if (port > 65535) return false;
  out = static_cast<int>(port);
  return true;
}

/// NAME=SEED[:shape:size] as the args of an `open` op.
bool parse_open(const std::string& text, util::JsonObject& out) {
  auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  std::string rest = text.substr(eq + 1);
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    auto colon = rest.find(':', start);
    parts.push_back(rest.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  const std::string shape = parts.size() > 1 && !parts[1].empty() ? parts[1] : "layered";
  const std::string size = parts.size() > 2 && !parts[2].empty() ? parts[2] : "3";
  if (!all_digits(parts[0]) || !all_digits(size)) return false;
  out.set("name", text.substr(0, eq));
  out.set("scenario_seed",
          util::Json(static_cast<std::uint64_t>(std::strtoull(parts[0].c_str(), nullptr, 10))));
  out.set("shape", shape);
  out.set("size", util::Json(static_cast<std::uint64_t>(std::strtoull(size.c_str(), nullptr, 10))));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  srv::ServerConfig config;
  std::vector<util::JsonObject> opens;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--unix") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      config.unix_path = v;
    } else if (arg == "--tcp") {
      const char* v = next();
      if (!v || !parse_port(v, config.tcp_port)) return usage(argv[0]);
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
    } else if (arg == "--open") {
      const char* v = next();
      util::JsonObject args;
      if (!v || !parse_open(v, args)) return usage(argv[0]);
      opens.push_back(std::move(args));
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

  // Each --open is sent as an `open` op to the server's own listener, so it
  // passes the same checks as a client's.
  if (!opens.empty()) {
    auto client = srv::Client::connect(server.value()->unix_address().empty()
                                           ? server.value()->tcp_address()
                                           : server.value()->unix_address());
    for (auto& args : opens) {
      const std::string name = args.at("name").as_string();
      auto opened = client.ok() ? client.value()->invoke("", "open", std::move(args))
                                : util::Result<util::Json>(client.error());
      if (!opened.ok()) {
        std::fprintf(stderr, "herc_srv: --open %s: %s\n", name.c_str(),
                     opened.error().str().c_str());
        return 1;
      }
    }
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
