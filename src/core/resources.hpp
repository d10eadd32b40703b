#pragma once
// Resource-constrained scheduling (serial leveling).
//
// The paper lists "optimize the resources associated with future projects"
// as a benefit of keeping schedule data in the flow manager; schedule
// instances carry "the resources needed".  This module implements the
// classic serial schedule-generation scheme: activities are placed in CPM
// early-start priority order at the earliest time where every required
// resource has spare capacity, never violating precedence.
//
// Like cpm.hpp this is independent of the schedule-space object model so it
// can be benchmarked standalone; the Planner adapts plans to/from it.

#include <cstdint>
#include <vector>

#include "core/cpm.hpp"
#include "util/result.hpp"

namespace herc::sched {

struct LevelingInput {
  std::vector<CpmActivity> activities;
  /// requirements[i] = indices of resources activity i occupies for its
  /// whole duration, one unit per entry (a repeated index takes another
  /// unit).  May be empty (no constraint).
  std::vector<std::vector<std::size_t>> requirements;
  /// capacities[r] = units of resource r available concurrently (>= 1).
  std::vector<int> capacities;
  /// blocked[r] = half-open [start, finish) windows when resource r is fully
  /// unavailable (vacations).  Optional; if non-empty it must have one entry
  /// per resource.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> blocked;
};

struct LevelingResult {
  std::vector<std::int64_t> start;   ///< leveled start per activity
  std::vector<std::int64_t> finish;  ///< start + duration
  std::int64_t makespan = 0;
};

/// Serial schedule-generation scheme.  Fails (kInvalid) on a precedence
/// cycle, an unknown resource index, a non-positive capacity, or an activity
/// needing more units of a resource than its capacity.
///
/// Guarantees: precedence respected; per-resource concurrent usage never
/// exceeds capacity; every start >= the activity's release and CPM early
/// start; result is deterministic (ties broken by activity index).
[[nodiscard]] util::Result<LevelingResult> level_serial(const LevelingInput& input);

}  // namespace herc::sched
