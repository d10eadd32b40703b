// herc_chaos — storage fault-injection sweep for the shard durability stack.
//
//   herc_chaos [--dir DIR] [--seed N] [--ops N] [--save-every K]
//              [--flow-size N] [--max-points N] [--random-trials N]
//              [--fail-prob P] [--quiet]
//
// Enumerates the workload's IO points, then replays it once per
// (IO point, fault kind) — EIO, ENOSPC, short write, torn write, crash —
// plus seeded probabilistic trials, recovering the project after each and
// checking acknowledged => recovered byte-identity, recovery determinism,
// and read-only shard degradation (see src/srv/chaos.hpp).
//
// Exit status: 0 all contracts held, 1 violations or harness failure, 2 usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "srv/chaos.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--dir DIR] [--seed N] [--ops N] [--save-every K]\n"
               "          [--flow-size N] [--max-points N] [--random-trials N]\n"
               "          [--fail-prob P] [--quiet]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  herc::srv::ChaosOptions options;
  options.dir = "/tmp/herc_chaos." + std::to_string(::getpid());
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--dir" && (v = next())) {
      options.dir = v;
    } else if (arg == "--seed" && (v = next())) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--ops" && (v = next())) {
      options.ops = std::atoi(v);
    } else if (arg == "--save-every" && (v = next())) {
      options.save_every = std::atoi(v);
    } else if (arg == "--flow-size" && (v = next())) {
      options.flow_size = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--max-points" && (v = next())) {
      options.max_points = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--random-trials" && (v = next())) {
      options.random_trials = std::atoi(v);
    } else if (arg == "--fail-prob" && (v = next())) {
      options.fail_prob = std::atof(v);
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }

  auto report = herc::srv::run_chaos(options);
  if (!report.ok()) {
    std::fprintf(stderr, "herc_chaos: %s\n", report.error().str().c_str());
    return 1;
  }
  if (!quiet) std::printf("%s\n", report.value().summary().c_str());
  std::printf("%s\n", report.value().to_json().dump(-1).c_str());
  return report.value().ok() ? 0 : 1;
}
