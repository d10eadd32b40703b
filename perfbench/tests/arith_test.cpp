// Self-test of the benchmark's own arithmetic (src/arith.hpp):
//   python3 perfbench/run.py --self-test

#include <cmath>
#include <cstdio>
#include <vector>

#include "arith.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentiles_follow_the_ten_beyond_rule() {
  using perfbench::percentile;
  // p90 of 100 samples is the 90th smallest, with exactly 10 beyond it.
  CHECK(percentile(one_to(100), 0.9).has_value());
  CHECK(near(*percentile(one_to(100), 0.9), 90));
  // One sample fewer leaves only 9 beyond: refused.
  CHECK(!percentile(one_to(99), 0.9).has_value());
  // p50 is nearest-rank: the 10th of 20, with 10 beyond.
  CHECK(near(*percentile(one_to(20), 0.5), 10));
  CHECK(!percentile(one_to(19), 0.5).has_value());
  // p99 needs 1000 samples.
  CHECK(!percentile(one_to(999), 0.99).has_value());
  CHECK(near(*percentile(one_to(1000), 0.99), 990));
  CHECK(!percentile({}, 0.5).has_value());
  CHECK(perfbench::nearest_rank(100, 0.9) == 90);
  CHECK(perfbench::nearest_rank(101, 0.9) == 91);
}

void medians() {
  CHECK(near(perfbench::median({3, 1, 2}), 2));
  CHECK(near(perfbench::median({4, 1, 3, 2}), 2.5));
  CHECK(near(perfbench::median({}), 0));
}

void failed_share_counts_every_cause() {
  perfbench::Failures f;
  f.transport = 1;
  f.hard = 2;
  f.shed = 3;
  CHECK(f.total() == 6);
  CHECK(near(f.share(12), 0.5));
  CHECK(near(f.share(0), 0));
  perfbench::Failures g;
  g.shed = 4;
  g += f;
  CHECK(g.transport == 1 && g.hard == 2 && g.shed == 7);
  CHECK(near(g.share(20), 0.5));
}

void cpu_window_charges_the_timed_phases() {
  perfbench::CpuWindow w;
  w.open(1000);
  w.close(5000);
  CHECK(near(w.us_per_op(4), 1000));
  // CPU between windows (set-up, checks) is not charged.
  w.open(9000);
  w.close(10000);
  CHECK(near(w.seconds(), 0.005));
  CHECK(near(w.us_per_op(5), 1000));
  CHECK(near(w.us_per_op(0), 0));
  perfbench::CpuWindow pooled;
  pooled.add(w);
  pooled.add(w);
  CHECK(near(pooled.us_per_op(10), 1000));
  // Busy work moves process CPU time forward.
  const double before = perfbench::process_cpu_us();
  volatile double sink = 0;
  for (int i = 0; i < 20000000; ++i) sink = sink + i;
  CHECK(perfbench::process_cpu_us() > before);
}

void self_time_subtracts_the_rung_below() {
  const auto s = perfbench::self_times({10, 20, -1, 40, 7}, {4, 5, 6, -1});
  // Ops 2 and 3 miss a rung; op 4 exists only on the upper rung.
  CHECK(s.size() == 2);
  CHECK(near(s[0], 6) && near(s[1], 15));
  CHECK(perfbench::self_times({}, {1}).empty());
  CHECK(near(perfbench::mean({6, 15}), 10.5));
}

}  // namespace

int main() {
  percentiles_follow_the_ten_beyond_rule();
  medians();
  failed_share_counts_every_cause();
  cpu_window_charges_the_timed_phases();
  self_time_subtracts_the_rung_below();
  if (failures) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("arith self-test: all checks passed\n");
  return 0;
}
