#pragma once
// Tracking actual flow execution against a schedule plan.
//
// "Mechanisms were also created in Hercules to automatically update actual
//  schedule information as the process flow is executed.  For example, once
//  a data instance for the particular task is created, the actual start date
//  for the task is set.  Then when the task is completed ... the user can
//  link the final version of the task data to a schedule instance.  If any
//  slip in the schedule occurs, the schedule plan updates automatically to
//  reflect the new schedule." — paper, Sec. IV.C
//
// The tracker subscribes to the execution-space database: the first run of
// an activity stamps the watched plan's actual start; a completion *link*
// (designer's decision) stamps the actual finish; after every event the
// planned dates of incomplete activities are re-projected with CPM, using
// actual finishes of completed predecessors as releases — the automatic
// slip propagation.

#include <optional>
#include <string>

#include "core/cpm_solver.hpp"
#include "core/schedule_space.hpp"
#include "metadata/database.hpp"
#include "obs/event_bus.hpp"

namespace herc::sched {

class ScheduleTracker : public meta::DatabaseObserver {
 public:
  /// Subscribes to `db`; unsubscribes on destruction.
  ScheduleTracker(ScheduleSpace& space, meta::Database& db);
  ~ScheduleTracker() override;

  ScheduleTracker(const ScheduleTracker&) = delete;
  ScheduleTracker& operator=(const ScheduleTracker&) = delete;

  /// Observability: activity_linked and slip_propagated events go here.
  /// Null (the default) disables publication.
  void set_bus(obs::EventBus* bus) { bus_ = bus; }

  /// Selects the plan that execution is tracked against.  Runs of activities
  /// not in this plan are ignored.
  void watch_plan(ScheduleRunId plan);
  [[nodiscard]] std::optional<ScheduleRunId> watched_plan() const { return plan_; }

  /// Designer declares `instance` to be the final design data of `activity`:
  /// creates the Level-3 link, stamps the actual finish from the producing
  /// run, marks the schedule node complete, and re-projects the plan.
  util::Status link_completion(const std::string& activity,
                               meta::EntityInstanceId instance,
                               cal::WorkInstant linked_at);

  /// Re-projects planned dates of incomplete activities in the watched plan:
  ///   - completed nodes are fixed at their actuals;
  ///   - started nodes keep their actual start and may stretch to cover the
  ///     latest observed run finish;
  ///   - unstarted nodes may not start before `now` or before their
  ///     (re-projected) predecessors finish.
  /// Baselines never move; variance is read against them (herc::track).
  void project(cal::WorkInstant now);

  // --- DatabaseObserver -----------------------------------------------------
  void on_run_recorded(const meta::Run& run) override;

 private:
  /// Compiled network of the watched plan, kept across projections.  The
  /// plan's node and dep lists are append-only, so the cache is valid while
  /// the (plan id, node count, dep count) triple is unchanged; a recorded
  /// run then costs a durations/releases-only re-solve — no graph rebuild,
  /// no toposort, no allocation.
  struct PlanSolverCache {
    ScheduleRunId plan;
    std::size_t nodes = 0;
    std::size_t deps = 0;
    CpmSolver solver;
    CpmResult result;  ///< reused solve buffer
  };

  ScheduleSpace* space_;
  meta::Database* db_;
  std::optional<ScheduleRunId> plan_;
  obs::EventBus* bus_ = nullptr;
  std::optional<PlanSolverCache> cache_;
};

}  // namespace herc::sched
