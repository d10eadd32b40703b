#pragma once
// The benchmark's own arithmetic, kept free of the program's headers so the
// self-test (tests/arith_test.cpp) checks it in isolation.
//
//   percentile      nearest-rank, refused unless >= 10 samples lie beyond it
//   Failures        transport / hard / shed kept apart, summed only at the end
//   CpuWindow       process user+sys CPU across the timed phases, per request
//   self_times      a ladder rung's time minus the rung below, op by op

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kBeyond = 10;

/// 1-based nearest rank of the p-th percentile in n samples.
inline std::size_t nearest_rank(std::size_t n, double p) {
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile of `samples` (any order), or nullopt when fewer
/// than kBeyond samples lie beyond it — p90 needs >= 100 samples.
inline std::optional<double> percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::nullopt;
  const std::size_t rank = nearest_rank(samples.size(), p);
  if (samples.size() - rank < kBeyond) return std::nullopt;
  const auto at = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), at, samples.end());
  return *at;
}

/// Median without the ten-beyond rule (for small repeat sets like setup_s).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Unsuccessful requests by cause.  A transport error (connection lost,
/// torn frame), a hard `ok=false` and a retryable refusal (queue shed, a
/// read-only shard) are counted apart; each is a request that missed.
struct Failures {
  std::uint64_t transport = 0;
  std::uint64_t hard = 0;
  std::uint64_t shed = 0;

  [[nodiscard]] std::uint64_t total() const { return transport + hard + shed; }
  /// Share of `attempted` requests that failed for any cause.
  [[nodiscard]] double share(std::uint64_t attempted) const {
    return attempted ? static_cast<double>(total()) / static_cast<double>(attempted)
                     : 0.0;
  }
  Failures& operator+=(const Failures& o) {
    transport += o.transport;
    hard += o.hard;
    shed += o.shed;
    return *this;
  }
};

/// Process CPU time (all threads: the load threads and the in-process
/// server) in microseconds.
inline double process_cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

/// CPU spent inside open()/close() windows — one per timed phase — charged
/// to the requests completed in them.
struct CpuWindow {
  double opened_us = 0.0;
  double total_us = 0.0;

  void open(double now_us) { opened_us = now_us; }
  void close(double now_us) { total_us += now_us - opened_us; }
  void add(const CpuWindow& other) { total_us += other.total_us; }
  [[nodiscard]] double seconds() const { return total_us / 1e6; }
  [[nodiscard]] double us_per_op(std::uint64_t completed) const {
    return completed ? total_us / static_cast<double>(completed) : 0.0;
  }
};

/// Self time of one ladder rung: its duration for op i minus the duration
/// of the rung below for the same op.  Ops missing on either rung (negative
/// duration = not recorded) are skipped.
inline std::vector<double> self_times(const std::vector<double>& upper,
                                      const std::vector<double>& lower) {
  std::vector<double> out;
  const std::size_t n = std::min(upper.size(), lower.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (upper[i] >= 0 && lower[i] >= 0) out.push_back(upper[i] - lower[i]);
  return out;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench
