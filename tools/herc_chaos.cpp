// herc_chaos — storage fault-injection sweep for the shard durability stack.
//
//   herc_chaos [--dir DIR] [--seed N] [--ops N] [--quiet]
//
// Enumerates the workload's IO points, then replays it once per
// (IO point, fault kind) — EIO, ENOSPC, short write, torn write, crash —
// plus seeded probabilistic trials, recovering the project after each and
// checking acknowledged => recovered byte-identity, recovery determinism,
// and read-only shard degradation (see src/srv/chaos.hpp).
//
// The other sweep knobs (ChaosOptions) keep their defaults here; tests set
// them directly.  N is decimal digits only.
//
// Exit status: 0 all contracts held, 1 violations or harness failure, 2 usage.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "srv/chaos.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--dir DIR] [--seed N] [--ops N] [--quiet]\n"
               "N is decimal digits only.\n",
               argv0);
  return 2;
}

/// A count in decimal digits only, at most `max`; false for anything else.
bool parse_count(const char* text, unsigned long long max, unsigned long long& out) {
  const std::string s = text;
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) return false;
  errno = 0;
  out = std::strtoull(s.c_str(), nullptr, 10);
  return errno == 0 && out <= max;
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
      unsigned long long seed = 0;
      if (!parse_count(v, std::numeric_limits<std::uint64_t>::max(), seed))
        return usage(argv[0]);
      options.seed = seed;
    } else if (arg == "--ops" && (v = next())) {
      unsigned long long ops = 0;
      if (!parse_count(v, std::numeric_limits<int>::max(), ops)) return usage(argv[0]);
      options.ops = static_cast<int>(ops);
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
