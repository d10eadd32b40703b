#pragma once
// The Hercules-style workflow manager: one object exposing the paper's full
// procedure —
//
//   define task schema  ->  initialize task database  ->  extract task tree
//   ->  bind tools/data  ->  plan schedule (simulated execution)  ->
//   execute (iterate)  ->  link completions  ->  examine status
//
// This facade owns every subsystem (calendar, Level-4 store, Level-3
// database in both spaces, tool registry, clock, estimator, tracker) and is
// what the examples and most integration tests drive.  Each subsystem stays
// independently usable; the facade only wires them.

#include <map>
#include <memory>
#include <string>
#include <unordered_set>

#include "calendar/work_calendar.hpp"
#include "core/planner.hpp"
#include "core/schedule_space.hpp"
#include "core/tracker.hpp"
#include "data/data_store.hpp"
#include "exec/executor.hpp"
#include "exec/tools.hpp"
#include "flow/task_tree.hpp"
#include "gantt/browser.hpp"
#include "metadata/database.hpp"
#include "obs/event_bus.hpp"
#include "query/query.hpp"
#include "track/status.hpp"

#include "hercules/group_commit.hpp"
#include "hercules/journal.hpp"
#include "hercules/read_view.hpp"

namespace herc::hercules {

class WorkflowManager {
 public:
  /// Builds a manager from schema DSL text.  The schema is parsed and
  /// validated; the task database is initialized from it.  A calendar
  /// config WorkCalendar rejects is kInvalid.
  [[nodiscard]] static util::Result<std::unique_ptr<WorkflowManager>> create(
      std::string_view schema_dsl, cal::WorkCalendar::Config calendar_config = {},
      std::uint64_t tool_seed = 1);

  WorkflowManager(const WorkflowManager&) = delete;
  WorkflowManager& operator=(const WorkflowManager&) = delete;
  ~WorkflowManager();

  // --- subsystem access ----------------------------------------------------
  [[nodiscard]] const schema::TaskSchema& schema() const { return *schema_; }
  [[nodiscard]] const cal::WorkCalendar& calendar() const { return calendar_; }
  [[nodiscard]] cal::WorkCalendar& calendar() { return calendar_; }
  [[nodiscard]] meta::Database& db() { return *db_; }
  [[nodiscard]] const meta::Database& db() const { return *db_; }
  [[nodiscard]] data::DataStore& store() { return *store_; }
  [[nodiscard]] const data::DataStore& store() const { return *store_; }
  [[nodiscard]] exec::ToolRegistry& tools() { return *tools_; }
  [[nodiscard]] exec::SimClock& clock() { return clock_; }
  [[nodiscard]] sched::ScheduleSpace& schedule_space() { return *space_; }
  [[nodiscard]] const sched::ScheduleSpace& schedule_space() const { return *space_; }
  [[nodiscard]] sched::DurationEstimator& estimator() { return estimator_; }
  [[nodiscard]] sched::ScheduleTracker& tracker() { return *tracker_; }
  /// The project's observability bus.  Every subsystem the manager drives
  /// publishes through it; attach an obs::MetricsRegistry or
  /// obs::ChromeTraceExporter to watch the project live.  With no
  /// subscribers attached publication is skipped at near-zero cost.
  [[nodiscard]] obs::EventBus& bus() { return bus_; }

  /// Moves the clock forward by a non-negative `step`.  A step that would
  /// move it past the calendar's last_day() is refused with invalid and
  /// leaves the clock unchanged.
  util::Status advance_clock(cal::WorkDuration step);

  // --- setup ----------------------------------------------------------------
  util::Status register_tool(exec::ToolSpec spec) { return tools_->add(std::move(spec)); }
  util::ResourceId add_resource(const std::string& name,
                                const std::string& kind = "person", int capacity = 1) {
    return db_->add_resource(name, kind, capacity);
  }

  // --- fault tolerance -------------------------------------------------------
  /// Failure semantics (retry/timeout/abort-vs-degrade) applied to every
  /// execution the manager drives.  Defaults reproduce the seed behavior.
  [[nodiscard]] const exec::ExecutionOptions& exec_options() const {
    return exec_options_;
  }
  void set_exec_options(exec::ExecutionOptions options) {
    exec_options_ = std::move(options);
  }

  /// Installs a deterministic fault injector over the tool registry (replaces
  /// any previous one).  The same seed + plan reproduces the same failure
  /// sequence bit-identically.
  void set_faults(std::uint64_t seed, exec::FaultPlan plan);
  void clear_faults();
  [[nodiscard]] const exec::FaultInjector* fault_injector() const {
    return faults_.get();
  }

  /// Starts crash-safe journaling: every recorded run appends one delta line
  /// to `path` (see journal.hpp) through a non-durable GroupCommitter the
  /// manager owns.  Take a snapshot (save_project_file) first — recovery
  /// replays the journal over it.  Replaces any active journal.  Each line
  /// is written to the OS before the run returns, not fsynced.
  util::Status enable_journal(const std::string& path);
  /// Journals through a caller-owned committer (a server shard's); it must
  /// outlive the journal (disable_journal before dropping it).
  util::Status enable_journal_sink(GroupCommitter& committer);
  void disable_journal();
  /// nullptr when journaling is off.
  [[nodiscard]] RunJournal* journal() { return journal_.get(); }

  // --- task trees ------------------------------------------------------------
  /// Extracts a task tree named `task_name` producing `target_type`.
  util::Status extract_task(const std::string& task_name, const std::string& target_type,
                            const std::unordered_set<std::string>& stop_at = {});
  [[nodiscard]] bool has_task(const std::string& task_name) const;
  [[nodiscard]] util::Result<flow::TaskTree*> task(const std::string& task_name);
  [[nodiscard]] std::vector<std::string> task_names() const;

  /// Binds every leaf of `type_name` in the task to an instance name.
  util::Status bind(const std::string& task_name, const std::string& type_name,
                    const std::string& instance_name);

  // --- scheduling -------------------------------------------------------------
  /// Plans the task (simulated execution) and starts tracking the new plan.
  [[nodiscard]] util::Result<sched::ScheduleRunId> plan_task(
      const std::string& task_name, sched::PlanRequest request);

  /// Re-plans, deriving from the task's current plan, and tracks the result.
  [[nodiscard]] util::Result<sched::ScheduleRunId> replan_task(
      const std::string& task_name, sched::PlanRequest request);

  /// The plan currently tracked for a task, if any.
  [[nodiscard]] std::optional<sched::ScheduleRunId> plan_of(
      const std::string& task_name) const;

  // --- execution ---------------------------------------------------------------
  [[nodiscard]] util::Result<exec::ExecutionResult> execute_task(
      const std::string& task_name, const std::string& designer);

  /// Concurrent-dispatch execution (see Executor::execute_concurrent):
  /// independent activities overlap in work time, constrained by the given
  /// resource assignments.
  [[nodiscard]] util::Result<exec::ExecutionResult> execute_task_concurrent(
      const std::string& task_name, const std::string& designer,
      const exec::Executor::DispatchOptions& options = {});

  /// One iteration of a single activity of the task.
  [[nodiscard]] util::Result<exec::ActivityRunResult> run_activity(
      const std::string& task_name, const std::string& activity,
      const std::string& designer);

  /// VOV-style selective re-execution: walks the task in post-order and
  /// re-runs every activity whose output is missing or *stale* (some input
  /// has a newer version than the one its producing run consumed), so
  /// downstream work picks up fresh upstream data with the minimum number
  /// of runs.  Returns the runs performed (possibly none).  Staleness is
  /// version-based; re-binding a leaf to a different data name does not by
  /// itself mark consumers stale.
  [[nodiscard]] util::Result<std::vector<exec::ActivityRunResult>> refresh_task(
      const std::string& task_name, const std::string& designer);

  /// Declares the latest instance produced by `activity` to be its final
  /// design data and links it into the tracked schedule.
  util::Status link_completion(const std::string& task_name,
                               const std::string& activity);

  // --- status ---------------------------------------------------------------
  [[nodiscard]] util::Result<std::string> gantt(const std::string& task_name) const;
  [[nodiscard]] util::Result<std::string> status_report(
      const std::string& task_name) const;
  [[nodiscard]] util::Result<std::string> query(std::string_view statement) const;
  /// `explain` for the query fast path: chosen access path and residual filter.
  [[nodiscard]] util::Result<std::string> explain(std::string_view statement) const;
  /// The manager's persistent query engine (the fast-path counters live
  /// here).
  [[nodiscard]] const query::QueryEngine& query_engine() const { return *query_engine_; }
  [[nodiscard]] query::QueryEngine& query_engine() { return *query_engine_; }
  [[nodiscard]] gantt::ScheduleBrowser browser() {
    return gantt::ScheduleBrowser(*space_, *db_, calendar_);
  }

  /// Both Level-3 spaces plus links — the paper's Figs. 5-7 database dumps.
  [[nodiscard]] std::string dump_database() const;

  // --- snapshot reads --------------------------------------------------------
  /// The current epoch snapshot.  Cheap when nothing changed since the last
  /// call (returns the cached view); otherwise publishes a fresh epoch via
  /// the spaces' copy-on-write tables.  Must be called serialized with
  /// mutators (the server calls it from the write lane); the RETURNED view
  /// is then safe to read from any thread for as long as it is held.
  [[nodiscard]] std::shared_ptr<const ReadView> read_view();

  /// Epoch of the most recently published view (0 = none published yet).
  [[nodiscard]] std::uint64_t snapshot_epoch() const { return view_epoch_; }
  /// Distinct epoch snapshots built so far.
  [[nodiscard]] std::uint64_t snapshots_published() const {
    return snapshot_stats_->published.load(std::memory_order_relaxed);
  }
  /// Snapshots not yet reclaimed (>= 1 once anything was published: the
  /// manager itself keeps the newest alive as its cache).
  [[nodiscard]] std::int64_t snapshots_live() const {
    return snapshot_stats_->live.load(std::memory_order_relaxed);
  }

 private:
  WorkflowManager(schema::TaskSchema parsed, cal::WorkCalendar::Config calendar_config,
                  std::uint64_t tool_seed);

  /// Forwards database mutations onto the event bus (instance_created).
  /// Same RAII pattern as the ScheduleTracker's subscription.
  class DatabaseEventBridge : public meta::DatabaseObserver {
   public:
    DatabaseEventBridge(meta::Database& db, obs::EventBus& bus) : db_(&db), bus_(&bus) {
      db_->add_observer(this);
    }
    ~DatabaseEventBridge() override { db_->remove_observer(this); }
    DatabaseEventBridge(const DatabaseEventBridge&) = delete;
    DatabaseEventBridge& operator=(const DatabaseEventBridge&) = delete;

    void on_instance_created(const meta::EntityInstance& instance) override;

   private:
    meta::Database* db_;
    obs::EventBus* bus_;
  };

  obs::EventBus bus_;
  std::unique_ptr<schema::TaskSchema> schema_;
  cal::WorkCalendar calendar_;
  std::unique_ptr<data::DataStore> store_;
  std::unique_ptr<meta::Database> db_;
  std::unique_ptr<exec::ToolRegistry> tools_;
  exec::SimClock clock_;
  std::unique_ptr<sched::ScheduleSpace> space_;
  sched::DurationEstimator estimator_;
  std::unique_ptr<sched::ScheduleTracker> tracker_;
  std::unique_ptr<DatabaseEventBridge> db_bridge_;
  std::unique_ptr<exec::FaultInjector> faults_;
  std::unique_ptr<GroupCommitter> owned_committer_;  // set by enable_journal(path)
  std::unique_ptr<RunJournal> journal_;  // destroyed before db_ and owned_committer_
  std::unique_ptr<query::QueryEngine> query_engine_;  // after db_/space_: views them
  exec::ExecutionOptions exec_options_;
  std::map<std::string, flow::TaskTree> tasks_;
  std::map<std::string, sched::ScheduleRunId> plan_by_task_;

  // Snapshot publication state (written only by read_view(), i.e. under the
  // caller's mutator serialization; the stats block itself is atomic because
  // view deleters run on reader threads).
  std::shared_ptr<SnapshotStats> snapshot_stats_ = std::make_shared<SnapshotStats>();
  std::shared_ptr<const ReadView> view_cache_;
  std::uint64_t view_epoch_ = 0;
  std::uint64_t view_db_version_ = 0;
  std::uint64_t view_space_version_ = 0;
  std::int64_t view_clock_minutes_ = -1;

  friend class Persistence;
};

}  // namespace herc::hercules
