#pragma once
// The traced run's layer ladder.  A prefix of the workload's seeded ops is
// replayed serially on four rungs, one span per call, the op index as the
// shared span id:
//
//   1  over the wire: srv::Client -> in-process srv::Server
//   2  srv::ProjectShard::apply on a shard from ProjectShard::create
//   3  the hercules::WorkflowManager calls the shard makes, on
//      gen::make_manager with a srv::GroupCommitter journal sink
//   4  leaf calls, timed on rung 3's state at fixed op indexes
//
// A layer's self time is its rung's time minus the rung below, for the same
// op (arith.hpp self_times).

#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// One reported metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One recorded call; the spans of one op share `id` across rungs.
struct TraceSpan {
  std::string name;
  int rung = 0;  ///< 0: the traced workload over the wire; 1-3: ladder rungs
  std::uint32_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct LayerReport {
  std::vector<Metric> metrics;  ///< in BENCHMARK.json per_layer order
  std::vector<TraceSpan> spans;      ///< rungs 1-3, in memory until the end
  std::vector<std::string> mismatches;
};

/// `untraced` and `traced` are the same workload run without and with
/// client spans; their difference is the tracing overhead, and the traced
/// run's server counters feed the counter-based layer metrics.
[[nodiscard]] LayerReport run_ladder(const Options& options, const Plan& plan,
                                     const RunResult& untraced, const RunResult& traced);

}  // namespace perfbench
