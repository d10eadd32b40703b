// herc_load — closed-loop load driver for herc_srv.
//
//   herc_load --addr unix:/tmp/herc.sock --projects 8 --designers 4
//             --duration 10 [--open-arrival --rate 20] [--read-every 5]
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

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "srv/load.hpp"
#include "srv/server.hpp"

namespace {

using namespace herc;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--addr ADDR | --spawn) [--projects N] [--designers M]\n"
               "          [--duration SECS[s]] [--open-arrival] [--rate R]\n"
               "          [--read-every K] [--read-mix PCT] [--seed N]\n"
               "          [--shape NAME] [--size N] [--durable]\n"
               "          [--dir DIR] [--bench-json FILE] [--quiet]\n",
               argv0);
  return 2;
}

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
      options.projects = std::atoi(v);
    } else if (arg == "--designers" && (v = next())) {
      options.designers = std::atoi(v);
    } else if (arg == "--duration" && (v = next())) {
      options.duration = std::chrono::milliseconds(
          static_cast<std::int64_t>(std::atof(v) * 1000));
    } else if (arg == "--open-arrival") {
      options.arrival = srv::LoadOptions::Arrival::kOpen;
    } else if (arg == "--rate" && (v = next())) {
      options.rate_per_designer = std::atof(v);
    } else if (arg == "--read-every" && (v = next())) {
      options.read_every = std::atoi(v);
    } else if (arg == "--read-mix" && (v = next())) {
      options.read_mix = std::atoi(v);
    } else if (arg == "--warmup" && (v = next())) {
      options.warmup_executes = std::atoi(v);
    } else if (arg == "--seed" && (v = next())) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--shape" && (v = next())) {
      options.shape = v;
    } else if (arg == "--size" && (v = next())) {
      options.size = static_cast<std::size_t>(std::atoll(v));
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
