#pragma once
// Critical Path Method over an activity-on-node network.
//
// The paper adopts the constraint/network schedule model ("Constraint or
// network models predominate in project planning", Sec. III, citing PERT).
// This module is the numeric core: given activities with durations,
// precedence edges and optional release times, compute early/late dates,
// slack and the critical path.  It is deliberately independent of the
// schedule-space object model so the perf benches can drive it at
// 10k-activity scale and the planner/tracker can reuse it for both initial
// planning and slip propagation.
//
// All times are work minutes (see calendar/work_calendar.hpp); the caller
// maps to civil dates for display.

#include <cstdint>
#include <vector>

#include "util/result.hpp"

namespace herc::sched {

/// One activity of the network.  Index in the containing vector is its id.
struct CpmActivity {
  std::int64_t duration = 0;        ///< work minutes, >= 0
  std::vector<std::size_t> preds;   ///< finish-to-start predecessors
  std::int64_t release = 0;         ///< earliest allowed start (work minutes)
};

/// Full CPM solution.
struct CpmResult {
  std::vector<std::int64_t> early_start;
  std::vector<std::int64_t> early_finish;
  std::vector<std::int64_t> late_start;
  std::vector<std::int64_t> late_finish;
  std::vector<std::int64_t> total_slack;  ///< LS - ES
  std::vector<std::int64_t> free_slack;   ///< min(succ ES) - EF (makespan for sinks)
  /// total_slack == 0, one byte per activity (not vector<bool>: bytes are
  /// what the batched Monte Carlo lane kernel emits).
  std::vector<std::uint8_t> critical;
  std::int64_t makespan = 0;              ///< max early_finish (0 if empty)
  /// One longest (critical) path, source to sink, by activity index.
  std::vector<std::size_t> critical_path;
};

/// Computes the CPM solution.  Fails (kInvalid) on a precedence cycle, a
/// negative duration, or an out-of-range predecessor index.
///
/// The backward pass anchors every sink at the makespan, so project-level
/// slack is relative to the earliest possible completion.
///
/// This is a thin one-shot wrapper over CpmSolver (cpm_solver.hpp): callers
/// that re-solve the same network with different durations should compile a
/// solver once and use its incremental fast path instead.
[[nodiscard]] util::Result<CpmResult> compute_cpm(
    const std::vector<CpmActivity>& activities);

/// Critical-path drag per activity: how much the makespan shrinks if the
/// activity's duration drops to zero (everything else fixed).  Zero for
/// non-critical activities; for critical ones it is bounded by both the
/// activity's duration and the total slack of parallel paths — the right
/// number for prioritising crash/optimisation effort (compare
/// crash_to_deadline, which uses it implicitly via re-solving).
///
/// Computed by re-solving with each critical activity zeroed: O(critical *
/// n), fine at planning scale.  Same error conditions as compute_cpm.
[[nodiscard]] util::Result<std::vector<std::int64_t>> compute_drag(
    const std::vector<CpmActivity>& activities);

}  // namespace herc::sched
