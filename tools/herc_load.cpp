// herc_load — load driver for herc_srv: closed-loop designers, or with
// --read-mix closed-loop readers beside writers paced at --rate.
//
//   herc_load --addr unix:/tmp/herc.sock --projects 8 --designers 4
//             --duration 10 [--read-every 5 | --read-mix 90 --rate 10]
//   herc_load --spawn [--durable]  # in-process server
//   herc_load --bench-json FILE    # append BENCH_BASELINE-format records
//
// Reports runs/sec and request latency percentiles; with --bench-json it
// emits records the regression checker (tools/check_bench_regression.py)
// merges alongside the microbench baselines:
//
//   {"name": "srv/load_p50_us", "iters": <requests>, "ns_per_op": p50*1000}
//
// Exit status: 0 success, 1 driver/server failure, 2 usage.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include "srv/load.hpp"
#include "srv/server.hpp"

namespace {

using namespace herc;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--addr ADDR | --spawn) [--projects N] [--designers M]\n"
               "          [--duration SECS[s]] [--read-every K]\n"
               "          [--read-mix PCT [--rate R]] [--warmup N] [--seed N]\n"
               "          [--shape NAME] [--size N] [--durable]\n"
               "          [--dir DIR] [--bench-json FILE] [--quiet]\n"
               "counts are decimal digits (N, M >= 1, PCT 0-100); SECS and R are\n"
               "non-negative decimals\n",
               argv0);
  return 2;
}

/// A count in decimal digits only, within [min, max]; false for anything
/// else.
template <typename T>
bool parse_count(const char* text, unsigned long long min, unsigned long long max,
                 T& out) {
  const std::string s = text;
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) return false;
  errno = 0;
  const unsigned long long n = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE || n < min || n > max) return false;
  out = static_cast<T>(n);
  return true;
}

/// A non-negative decimal ("10", "2.5", ".5") below 1e15; false for anything
/// else.
bool parse_decimal(const std::string& s, double& out) {
  const auto dot = s.find('.');
  if (s.find_first_not_of("0123456789.") != std::string::npos ||
      s.find_first_of("0123456789") == std::string::npos ||
      (dot != std::string::npos && s.find('.', dot + 1) != std::string::npos))
    return false;
  out = std::strtod(s.c_str(), nullptr);
  return out < 1e15;
}

constexpr unsigned long long kMaxInt = std::numeric_limits<int>::max();
constexpr unsigned long long kMaxU64 = std::numeric_limits<std::uint64_t>::max();

}  // namespace

int main(int argc, char** argv) {
  srv::LoadOptions options;
  bool spawn = false;
  bool quiet = false;
  std::string bench_json;
  srv::ServerConfig config;
  config.shard.dir = "/tmp";
  config.unix_path = "/tmp/herc_load.sock";

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--addr" && (v = next())) {
      options.address = v;
    } else if (arg == "--spawn") {
      spawn = true;
    } else if (arg == "--projects" && (v = next())) {
      if (!parse_count(v, 1, kMaxInt, options.projects)) return usage(argv[0]);
    } else if (arg == "--designers" && (v = next())) {
      if (!parse_count(v, 1, kMaxInt, options.designers)) return usage(argv[0]);
    } else if (arg == "--duration" && (v = next())) {
      std::string text = v;
      if (!text.empty() && text.back() == 's') text.pop_back();
      double seconds = 0;
      if (!parse_decimal(text, seconds)) return usage(argv[0]);
      options.duration =
          std::chrono::milliseconds(static_cast<std::int64_t>(seconds * 1000));
    } else if (arg == "--rate" && (v = next())) {
      if (!parse_decimal(v, options.rate_per_designer)) return usage(argv[0]);
    } else if (arg == "--read-every" && (v = next())) {
      if (!parse_count(v, 0, kMaxInt, options.read_every)) return usage(argv[0]);
    } else if (arg == "--read-mix" && (v = next())) {
      if (!parse_count(v, 0, 100, options.read_mix)) return usage(argv[0]);
    } else if (arg == "--warmup" && (v = next())) {
      if (!parse_count(v, 0, kMaxInt, options.warmup_executes)) return usage(argv[0]);
    } else if (arg == "--seed" && (v = next())) {
      if (!parse_count(v, 0, kMaxU64, options.seed)) return usage(argv[0]);
    } else if (arg == "--shape" && (v = next())) {
      options.shape = v;
    } else if (arg == "--size" && (v = next())) {
      if (!parse_count(v, 0, kMaxU64, options.size)) return usage(argv[0]);
    } else if (arg == "--durable") {
      config.shard.durable = true;
    } else if (arg == "--dir" && (v = next())) {
      config.shard.dir = v;
    } else if (arg == "--bench-json" && (v = next())) {
      bench_json = v;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.address.empty() && !spawn) return usage(argv[0]);

  std::unique_ptr<srv::Server> server;
  if (spawn) {
    config.unix_path += "." + std::to_string(::getpid());
    auto started = srv::Server::start(config);
    if (!started.ok()) {
      std::fprintf(stderr, "herc_load: spawn: %s\n", started.error().str().c_str());
      return 1;
    }
    server = std::move(started).take();
    options.address = server->unix_address();
  }

  auto report = srv::run_load(options);
  if (!report.ok()) {
    std::fprintf(stderr, "herc_load: %s\n", report.error().str().c_str());
    return 1;
  }

  if (!quiet) {
    std::printf("%s\n", report.value().summary().c_str());
  }
  std::printf("%s\n", report.value().to_json().dump(-1).c_str());

  if (!bench_json.empty()) {
    // BENCH_BASELINE.json record shape; the checker merges files and ignores
    // records the current run lacks, so these coexist with the microbenches.
    util::JsonArray records;
    auto add = [&](const std::string& name, std::int64_t iters, double ns) {
      util::JsonObject r;
      r.set("name", name);
      r.set("iters", util::Json(iters));
      r.set("ns_per_op", util::Json(ns));
      records.push_back(util::Json(std::move(r)));
    };
    const auto& rep = report.value();
    auto iters = static_cast<std::int64_t>(rep.requests);
    add("srv/load_p50_us", iters, static_cast<double>(rep.p50_us) * 1000.0);
    add("srv/load_p99_us", iters, static_cast<double>(rep.p99_us) * 1000.0);
    if (rep.runs > 0) {
      add("srv/load_ns_per_run", static_cast<std::int64_t>(rep.runs),
          rep.elapsed_sec * 1e9 / static_cast<double>(rep.runs));
    }
    if (rep.reads > 0 && rep.writes > 0) {
      // The read-mix (MVCC snapshot-read) records: read service time, read
      // throughput, and the write tail under concurrent readers.
      add("srv/readmix_read_p50_us", static_cast<std::int64_t>(rep.reads),
          static_cast<double>(rep.read_p50_us) * 1000.0);
      add("srv/readmix_read_p99_us", static_cast<std::int64_t>(rep.reads),
          static_cast<double>(rep.read_p99_us) * 1000.0);
      add("srv/readmix_write_p99_us", static_cast<std::int64_t>(rep.writes),
          static_cast<double>(rep.write_p99_us) * 1000.0);
      add("srv/readmix_ns_per_read", static_cast<std::int64_t>(rep.reads),
          rep.elapsed_sec * 1e9 / static_cast<double>(rep.reads));
    }
    std::ofstream out(bench_json);
    out << util::Json(std::move(records)).dump(2) << "\n";
    if (!out) {
      std::fprintf(stderr, "herc_load: cannot write %s\n", bench_json.c_str());
      return 1;
    }
  }

  if (server) server->stop();
  return report.value().errors == 0 ? 0 : 1;
}
