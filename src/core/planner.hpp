#pragma once
// Schedule planning = simulated flow execution (the paper's central idea).
//
// "One way to view the development of a design schedule is as a simulation
//  of the execution of a flow.  Just as Level 3 data is created when an
//  actual flow is executed, Level 3 data may also be created when the
//  execution of a flow is simulated." — paper, Sec. III
//
// The Planner performs the same post-order traversal of the task tree that
// the Executor performs, but instead of invoking tools it creates schedule
// instances (ScheduleNodes) carrying estimated durations and resource
// assignments, wires schedule dependencies mirroring the tree's data flow,
// and then solves the resulting activity network with CPM (optionally
// resource-leveled) to obtain planned dates.

#include <string>
#include <unordered_map>
#include <vector>

#include "core/estimate.hpp"
#include "core/resources.hpp"
#include "core/schedule_space.hpp"
#include "flow/task_tree.hpp"
#include "obs/event_bus.hpp"

namespace herc::sched {

struct PlanRequest {
  std::string name = "plan";
  cal::WorkInstant anchor;  ///< no activity may start before this
  EstimateStrategy strategy = EstimateStrategy::kIntuition;
  /// Resource assignment per activity name.  Activities without an entry get
  /// no resources (and are not resource-constrained).
  std::unordered_map<std::string, std::vector<util::ResourceId>> assignments;
  /// Apply serial resource leveling after CPM (requires assignments to refer
  /// to resources registered in the database, whose capacities are used).
  bool level_resources = false;
  /// Plan-evolution metadata: the plan this one refines (paper Fig. 5 shows
  /// several schedule-instance versions from successive plans).
  ScheduleRunId derived_from;
  /// Committed completion date; status reports show the margin against it
  /// and what-if/crash analysis can target it.
  std::optional<cal::WorkInstant> deadline;
  /// Inter-plan sequencing: this plan's anchor is raised to the latest
  /// projected finish among these plans (e.g. chip B starts when chip A
  /// ends).  Evaluated once at planning time — re-plan to pick up slips in a
  /// predecessor.
  std::vector<ScheduleRunId> predecessors;
};

class Planner {
 public:
  /// `space` receives the schedule instances; `db` supplies run history for
  /// the estimator and resource definitions for leveling.  `bus` (optional)
  /// receives schedule_planned / activity_planned events and timed scopes.
  Planner(ScheduleSpace& space, const meta::Database& db,
          const DurationEstimator& estimator, obs::EventBus* bus = nullptr)
      : space_(&space), db_(&db), estimator_(&estimator), bus_(bus) {}

  /// Simulates execution of `tree` and returns the new plan.  The tree does
  /// NOT need bound leaves — planning precedes binding in the paper's
  /// procedure ("a user prepares for schedule planning by extracting a task
  /// tree that covers the scope of the intended task").
  [[nodiscard]] util::Result<ScheduleRunId> plan(const flow::TaskTree& tree,
                                                 const PlanRequest& request);

  /// Convenience: re-plan an existing plan with a fresh request anchor and
  /// strategy, deriving from it (creates the SC2 generation of Fig. 5).
  [[nodiscard]] util::Result<ScheduleRunId> replan(const flow::TaskTree& tree,
                                                   ScheduleRunId previous,
                                                   PlanRequest request);

 private:
  ScheduleSpace* space_;
  const meta::Database* db_;
  const DurationEstimator* estimator_;
  obs::EventBus* bus_ = nullptr;
};

}  // namespace herc::sched
