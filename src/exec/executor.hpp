#pragma once
// Flow execution: the post-order traversal of a bound task tree that creates
// Level-3 entity instances and runs plus Level-4 data objects.
//
// "At each step in the execution, entity instances are created in the
//  Hercules database for each non-leaf node" — paper, Sec. IV.A.
//
// Execution happens on a virtual clock (SimClock) in work time.  Designers
// can advance the clock manually between runs to model think time, which is
// how the examples inject schedule slips.
//
// Serial execution, single-activity iterations and concurrent dispatch run
// one per-activity attempt loop.  It gathers the activity's inputs once;
// then each attempt invokes the tool, kills the run at the timeout budget,
// places it at the earliest start where its inputs exist and its assigned
// resources have room (sched::ResourceBookings, the rule resource leveling
// uses), records it, and publishes run_started / run_finished.  A failed
// attempt is retried from its finish plus the backoff.  A run whose finish,
// or a retry whose start, would fall past the calendar's last day is
// refused (invalid) before anything is recorded.  The modes differ only in
// the clock: serial execution moves it to each run's finish, dispatch moves
// it to the makespan when the sweep ends, errors included.

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "calendar/work_calendar.hpp"
#include "data/data_store.hpp"
#include "exec/tools.hpp"
#include "flow/task_tree.hpp"
#include "metadata/database.hpp"
#include "obs/event_bus.hpp"

namespace herc::exec {

/// Virtual project clock in work time.
class SimClock {
 public:
  [[nodiscard]] cal::WorkInstant now() const { return now_; }

  void advance(cal::WorkDuration d) {
    if (d.count_minutes() < 0) throw std::logic_error("SimClock: negative advance");
    now_ = now_ + d;
  }

  /// Moves the clock forward to `t`; never backwards.
  void advance_to(cal::WorkInstant t) {
    if (t > now_) now_ = t;
  }

 private:
  cal::WorkInstant now_;
};

/// Result of executing one activity (one recorded attempt).
struct ActivityRunResult {
  meta::RunId run;
  meta::EntityInstanceId output;  ///< invalid if the run failed
  bool success = true;
  int attempt = 1;          ///< 1-based attempt index within one retry loop
  bool timed_out = false;   ///< failed because it exceeded the timeout budget
};

/// Result of executing a whole task tree.
struct ExecutionResult {
  std::vector<ActivityRunResult> runs;  ///< every attempt, in execution order
  /// Instance of the root's type; explicitly the invalid sentinel whenever
  /// execution did not reach a successful root run (a real instance id is
  /// never 0, so `final_output.valid()` is the reliable check).
  meta::EntityInstanceId final_output = meta::EntityInstanceId::invalid();
  bool success = true;  ///< false if any run failed or was skipped
  /// Activities never attempted because an input's producer failed
  /// (FailurePolicy::kContinueIndependent only), in post order.
  std::vector<std::string> skipped;
};

/// How often and how long one activity run may be retried.
struct RetryPolicy {
  int max_attempts = 1;       ///< total attempts per activity; >= 1
  cal::WorkDuration backoff;  ///< work-time pause inserted before each retry
  /// Per-attempt work-time budget; a run whose simulated duration exceeds it
  /// is killed at the budget and recorded as a failed (timed-out) run.
  /// Zero means unlimited.
  cal::WorkDuration timeout;
};

/// What `execute` / `execute_concurrent` do when an activity run fails.
enum class FailurePolicy {
  kAbort,                ///< stop at the first failure, no retries (seed behavior)
  kRetryThenAbort,       ///< apply the retry policy, then stop if still failing
  kContinueIndependent,  ///< retry, then skip the failure's ancestors but keep
                         ///< dispatching independent subtrees (degraded result)
};

/// The policy's name in scenario files and snapshots: "abort",
/// "retry_then_abort" or "continue_independent".
[[nodiscard]] const char* failure_policy_name(FailurePolicy policy);
/// Inverse of failure_policy_name; kParse for any other name.
[[nodiscard]] util::Result<FailurePolicy> parse_failure_policy(const std::string& name);

/// Per-execution failure semantics.  Defaults reproduce the seed behavior
/// exactly: one attempt, no timeout, abort on first failure.
struct ExecutionOptions {
  FailurePolicy on_failure = FailurePolicy::kAbort;
  RetryPolicy retry;  ///< applies to every tool without an override
  /// Per-tool-instance overrides, keyed by binding name.
  std::unordered_map<std::string, RetryPolicy> tool_retry;

  [[nodiscard]] const RetryPolicy& policy_for(const std::string& tool_binding) const {
    auto it = tool_retry.find(tool_binding);
    return it == tool_retry.end() ? retry : it->second;
  }
};

class Executor {
 public:
  /// All dependencies are borrowed; the WorkflowManager owns them.  The
  /// calendar bounds every instant a run may reach.  `bus` (optional)
  /// receives run_started / run_finished events and wall-clock scopes; a
  /// null or subscriber-less bus costs one atomic load per event.
  Executor(meta::Database& db, data::DataStore& store, ToolRegistry& tools,
           SimClock& clock, const cal::WorkCalendar& calendar,
           obs::EventBus* bus = nullptr, ExecutionOptions options = {})
      : db_(&db), store_(&store), tools_(&tools), clock_(&clock), calendar_(&calendar),
        bus_(bus), options_(std::move(options)) {}

  /// Executes the whole bound tree in post-order.  With the default options
  /// it stops at the first failed run (the paper's designers fix and
  /// re-run); see FailurePolicy for retrying and graceful degradation.
  /// Every attempt is recorded as its own Level-3 run.  kUnbound if leaves
  /// are missing bindings.
  [[nodiscard]] util::Result<ExecutionResult> execute(const flow::TaskTree& tree,
                                                      const std::string& designer);

  /// Executes a single activity node of the tree (an *iteration*: "a given
  /// activity may need to be run several times before the design goals are
  /// achieved").  Inputs resolve to the latest instances in the database;
  /// kConflict if an input has no instance yet (upstream never ran).
  [[nodiscard]] util::Result<ActivityRunResult> execute_activity(
      const flow::TaskTree& tree, flow::TaskNodeId activity,
      const std::string& designer);

  /// Concurrent-dispatch options: which resources each activity occupies
  /// while it runs, one unit per entry (a repeated resource takes another
  /// unit).  Capacities and time off come from the database's resources.
  struct DispatchOptions {
    std::unordered_map<std::string, std::vector<meta::ResourceId>> assignments;
  };

  /// Executes the whole tree the way a team would: independent activities
  /// run in OVERLAPPING work time, each starting as soon as its inputs exist
  /// and its assigned resources have room outside their time off (the
  /// placement rule of resource leveling; activities are non-preemptible).
  /// Recorded run timestamps overlap accordingly and the clock advances to
  /// the dispatch makespan, also when the sweep stops on an error.
  /// Activities with no assignment entry are only input-limited; a demand
  /// above a resource's capacity is refused (invalid) before anything runs.
  /// Under the default kAbort policy, tool failures abort the remaining
  /// dispatch (partial result returned with success = false); under
  /// kContinueIndependent the failed activity's ancestor chain is skipped
  /// and independent subtrees keep dispatching.  A failed activity's
  /// resources are released at its recorded finish.
  [[nodiscard]] util::Result<ExecutionResult> execute_concurrent(
      const flow::TaskTree& tree, const std::string& designer,
      const DispatchOptions& options = {});

  /// Publishes the fault-counter deltas accumulated by the current execute
  /// call as one "exec.faults" kScope event (no-op when all are zero).
  /// Called automatically on exit from every execute call.
  void publish_fault_stats();

 private:
  /// Per-call state of one sweep over a tree (defined in executor.cpp).
  struct Sweep;

  /// The post-order traversal execute and execute_concurrent share: runs
  /// every activity through run_activity, skipping the ancestors of a
  /// failure under kContinueIndependent.
  util::Result<ExecutionResult> sweep(const flow::TaskTree& tree,
                                      const std::string& designer, Sweep& s);

  /// The per-activity attempt loop (see the file comment).  Appends every
  /// recorded attempt to `attempts`.
  util::Result<ActivityRunResult> run_activity(const flow::TaskTree& tree,
                                               flow::TaskNodeId activity,
                                               const std::string& designer, Sweep& s,
                                               std::vector<ActivityRunResult>& attempts);

  /// Ensures a primary-input binding has an entity instance, importing one
  /// (plus a synthetic Level-4 object) on first use.
  meta::EntityInstanceId import_input(const std::string& type_name,
                                      const std::string& data_name);

  /// Publishes kRunStarted (before the run is recorded) or kRunFinished.
  void publish_run(obs::EventKind kind, const meta::Run& run, int attempt,
                   bool timed_out);

  meta::Database* db_;
  data::DataStore* store_;
  ToolRegistry* tools_;
  SimClock* clock_;
  const cal::WorkCalendar* calendar_;
  obs::EventBus* bus_ = nullptr;
  ExecutionOptions options_;
  // Per-call fault counters, published as one exec.faults event.
  std::uint64_t retries_ = 0, timeouts_ = 0, degraded_ = 0;
};

}  // namespace herc::exec
