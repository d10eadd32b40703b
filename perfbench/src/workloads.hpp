#pragma once
// The three server workloads.  Each is a fixed, seeded count of requests
// sent through srv::Client to an in-process srv::Server; the count scales
// with --seconds so one run measures for about that long on a 4-vCPU host.
//
//   flow-exec  4 connections (2 projects x 2 designers), closed loop,
//              `execute` on the 13-activity layered flow.
//   dashboard  1 mid-run project on the 65-activity flow: 2 closed-loop
//              reader connections over a fixed read mix beside 1 writer
//              connection issuing `execute` open-loop, one due per 80
//              completed reads (about 50/s).
//   replan     1 project on the 65-activity flow, 1 connection, closed-loop
//              plan-track cycles: execute, link, replan (ewma), status.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arith.hpp"
#include "gen/gen.hpp"
#include "util/json.hpp"

namespace perfbench {

enum class Workload { kFlowExec, kDashboard, kReplan };
[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);
[[nodiscard]] const char* workload_name(Workload w);

struct Options {
  Workload workload = Workload::kFlowExec;
  std::uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
};

/// One project request, as generated; the program only ever sees these.
struct Op {
  std::string op;
  herc::util::JsonObject args;
};

/// A string argument of `op`, or `fallback`.
[[nodiscard]] std::string arg_of(const Op& op, const char* key,
                                 const std::string& fallback = "");

/// The generated inputs of one workload run.  Built from the seed alone.
struct Plan {
  std::vector<std::string> projects;
  std::vector<herc::gen::Scenario> scenarios;  ///< one per project
  std::size_t runs_per_execute = 0;            ///< rules in the flow
  /// Set-up requests per project (plan, mid-run executes, links), sent
  /// before the warm-up.
  std::vector<std::vector<Op>> setup;
  /// Untimed warm-up requests per connection, sent after `setup`.
  std::vector<std::vector<Op>> warmup;
  /// Timed requests per connection; connection c drives project
  /// conn_project[c].
  std::vector<std::vector<Op>> timed;
  std::vector<std::size_t> conn_project;
  /// Read statements of the dashboard mix (panel first, then drill-downs).
  std::vector<std::string> statements;
};

/// Rounds per run: each sets up a fresh server and measures the same ops.
inline constexpr int kRounds = 6;

[[nodiscard]] Plan make_plan(const Options& options);

/// A client-side span of the traced run: one per timed request.
struct Span {
  std::uint32_t conn = 0;
  std::uint32_t op = 0;  ///< index into Plan::timed[conn]
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Server-side counters over the timed phases, summed over rounds and
/// shards (from the `stats` op and QueryEngine::stats()).
struct Counters {
  double journal_lines = 0;   ///< group-commit appends (one per run)
  double group_commits = 0;   ///< flushes
  double read_lane = 0;       ///< requests served by the shard read lane
  double shard_requests = 0;
  double epochs = 0;          ///< snapshots published
  double shed = 0;            ///< server-level srv_requests_shed
  double cache_hits = 0, cache_misses = 0, rows_scanned = 0;
};

/// Everything one run measured, pooled over its rounds.
struct RunResult {
  std::vector<double> exec_ms, read_ms, replan_ms;  ///< per request
  std::vector<double> lateness_ms;  ///< dashboard writer: send time - due time
  Failures failures;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t runs = 0;     ///< tool runs acknowledged in the measured windows
  std::uint64_t reads = 0;
  std::uint64_t cycles = 0;   ///< replan cycles
  double timed_s = 0.0;       ///< timed phases
  double read_span_s = 0.0;   ///< dashboard: until the last reader finished
  CpuWindow cpu;              ///< process CPU over the timed phases
  double steal_ticks = 0.0, cpu_ticks = 0.0;  ///< host /proc/stat deltas
  std::int64_t queue_depth_max = 0;
  std::vector<double> setup_s;    ///< one per round
  std::vector<double> round_steal;  ///< host steal share, per round
  std::vector<double> round_rate;   ///< requests/s, per round
  std::vector<double> round_batch;  ///< journal lines per group commit, per round
  std::vector<double> recover_s;  ///< one per recovery repetition
  std::vector<std::string> mismatches;

  // For the traced run.
  std::vector<Span> spans;
  Counters counters;
  double snapshot_bytes = 0.0;          ///< shard snapshot files, last round
  double recover_project_ms = 0.0;      ///< hercules::recover_project, all projects

  void mismatch(std::string what) { mismatches.push_back(std::move(what)); }
  [[nodiscard]] double steal() const {
    return cpu_ticks > 0 ? steal_ticks / cpu_ticks : 0.0;
  }
};

/// Runs one workload end to end: kRounds rounds of set-up, timed phase and
/// output checks, each on a fresh server, pooled; then the recovery step
/// over the last round's shard files.  With `traced`, also records client
/// spans.
[[nodiscard]] RunResult run_workload(const Options& options, const Plan& plan,
                                     bool traced);

/// The samples `p50_ms` and `p90_ms` report on a workload: execute, read or
/// replan latency.
[[nodiscard]] const std::vector<double>& headline_ms(Workload w, const RunResult& r);

/// Seconds between two steady-clock nanosecond stamps.
[[nodiscard]] inline double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

}  // namespace perfbench
