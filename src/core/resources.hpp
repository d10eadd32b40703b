#pragma once
// Resource-constrained scheduling (serial leveling) and the placement rule
// it shares with concurrent dispatch.
//
// The paper lists "optimize the resources associated with future projects"
// as a benefit of keeping schedule data in the flow manager; schedule
// instances carry "the resources needed".  This module implements the
// classic serial schedule-generation scheme: activities are placed in CPM
// early-start priority order at the earliest time where every required
// resource has spare capacity, never violating precedence.
//
// ResourceBookings::of is the one place where the database's capacities and
// time off become placement state, and ResourceBookings::earliest_fit is the
// placement rule.  Planning calls it through level_serial, over bookings
// from the plan's anchor; concurrent dispatch calls it run by run, over
// bookings from minute 0.  So an executed dispatch and a leveled plan of the
// same durations put every activity at the same start, multi-unit demands
// and time off included.
//
// level_serial is independent of the schedule-space object model so it can
// be benchmarked standalone; the Planner adapts plans to/from it.

#include <cstdint>
#include <utility>
#include <vector>

#include "calendar/work_calendar.hpp"
#include "core/cpm.hpp"
#include "metadata/database.hpp"
#include "util/result.hpp"

namespace herc::sched {

/// Units needed per distinct resource index, in first-appearance order.
using Demand = std::vector<std::pair<std::size_t, int>>;

/// The demand of a requirement list: resource indices, one unit per entry (a
/// repeated index takes another unit).  kInvalid for an index with no
/// capacity entry, or more units of a resource than its capacity: no instant
/// could fit that demand.
[[nodiscard]] util::Result<Demand> demand_of(const std::vector<std::size_t>& requirements,
                                             const std::vector<int>& capacities);

/// Booked units of every resource over time, in half-open [start, finish)
/// intervals: the serial scheme's placement state.
class ResourceBookings {
 public:
  /// capacities[r] = units of resource r available concurrently.
  explicit ResourceBookings(std::vector<int> capacities = {})
      : capacities_(std::move(capacities)), booked_(capacities_.size()) {}

  /// The database's resources in minutes after `origin`: resource r (id
  /// r + 1) at its capacity, blocked over its time off.  A window is clipped
  /// at the origin, and one over before it is left out.
  [[nodiscard]] static ResourceBookings of(const meta::Database& db,
                                           cal::WorkInstant origin);

  [[nodiscard]] const std::vector<int>& capacities() const { return capacities_; }

  /// The earliest start >= `earliest` at which every resource in `demand`
  /// (from demand_of) has its units spare for `duration`.  An empty demand
  /// fits at `earliest`.
  [[nodiscard]] std::int64_t earliest_fit(const Demand& demand, std::int64_t earliest,
                                          std::int64_t duration) const;

  /// Books `demand` over [start, finish).
  void book(const Demand& demand, std::int64_t start, std::int64_t finish);

  /// Makes resource r unavailable over [start, finish) (time off) by
  /// booking all of its capacity there.
  void block(std::size_t r, std::int64_t start, std::int64_t finish);

 private:
  struct Interval {
    std::int64_t start, finish;
    int units;
  };
  /// Units of resource r booked across instant t.
  [[nodiscard]] int usage_at(std::size_t r, std::int64_t t) const;
  /// True when `demand` has its units spare across [t, t + duration).
  [[nodiscard]] bool fits(const Demand& demand, std::int64_t t,
                          std::int64_t duration) const;

  std::vector<int> capacities_;
  std::vector<std::vector<Interval>> booked_;  ///< per resource, unsorted
};

struct LevelingInput {
  std::vector<CpmActivity> activities;
  /// requirements[i] = indices of resources activity i occupies for its
  /// whole duration, one unit per entry (a repeated index takes another
  /// unit).  May be empty (no constraint).
  std::vector<std::vector<std::size_t>> requirements;
  /// Every resource's capacity (>= 1) and time off, in the activities'
  /// minutes; leveling books the activities on a copy.
  ResourceBookings bookings;
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
