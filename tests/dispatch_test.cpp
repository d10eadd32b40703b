// Tests for concurrent-dispatch execution: overlapping runs, resource
// serialization, and agreement with the leveling model.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "exec/fault.hpp"
#include "hercules/journal.hpp"
#include "hercules/persist.hpp"

namespace herc::exec {
namespace {

constexpr const char* kParSchema = R"(
schema par {
  data a, b, c;
  tool t;
  rule MakeA: a <- t();
  rule MakeB: b <- t();
  rule Join:  c <- t(a, b);
}
)";

std::unique_ptr<hercules::WorkflowManager> par_manager() {
  auto m = hercules::WorkflowManager::create(kParSchema).take();
  m->register_tool({.instance_name = "t1", .tool_type = "t",
                    .nominal = cal::WorkDuration::hours(4)})
      .expect("tool");
  m->extract_task("job", "c").expect("extract");
  m->bind("job", "t", "t1").expect("bind");
  return m;
}

TEST(Dispatch, IndependentActivitiesOverlap) {
  auto m = par_manager();
  auto result = m->execute_task_concurrent("job", "team");
  ASSERT_TRUE(result.ok()) << result.error().str();
  EXPECT_TRUE(result.value().success);

  const auto& a = m->db().run(m->db().runs_of_activity("MakeA").front());
  const auto& b = m->db().run(m->db().runs_of_activity("MakeB").front());
  const auto& join = m->db().run(m->db().runs_of_activity("Join").front());
  // MakeA and MakeB run in parallel...
  EXPECT_EQ(a.started_at.minutes_since_epoch(), 0);
  EXPECT_EQ(b.started_at.minutes_since_epoch(), 0);
  // ...and Join waits for both.
  EXPECT_EQ(join.started_at.minutes_since_epoch(), 4 * 60);
  // Makespan 8h, not the serial 12h; the clock lands on the makespan.
  EXPECT_EQ(m->clock().now().minutes_since_epoch(), 8 * 60);
}

TEST(Dispatch, SerialExecutionOfSameFlowIsSlower) {
  auto serial = par_manager();
  serial->execute_task("job", "solo").value();
  auto concurrent = par_manager();
  concurrent->execute_task_concurrent("job", "team").value();
  EXPECT_EQ(serial->clock().now().minutes_since_epoch(), 12 * 60);
  EXPECT_EQ(concurrent->clock().now().minutes_since_epoch(), 8 * 60);
}

TEST(Dispatch, SharedUnitResourceSerializes) {
  auto m = par_manager();
  auto alice = m->add_resource("alice");
  Executor::DispatchOptions opt;
  opt.assignments["MakeA"] = {alice};
  opt.assignments["MakeB"] = {alice};
  m->execute_task_concurrent("job", "alice", opt).value();
  const auto& a = m->db().run(m->db().runs_of_activity("MakeA").front());
  const auto& b = m->db().run(m->db().runs_of_activity("MakeB").front());
  bool overlap =
      a.started_at < b.finished_at && b.started_at < a.finished_at;
  EXPECT_FALSE(overlap);
  EXPECT_EQ(m->clock().now().minutes_since_epoch(), 12 * 60);  // back to serial
}

TEST(Dispatch, CapacityTwoKeepsParallelism) {
  auto m = par_manager();
  auto farm = m->add_resource("farm", "machine", 2);
  Executor::DispatchOptions opt;
  opt.assignments["MakeA"] = {farm};
  opt.assignments["MakeB"] = {farm};
  m->execute_task_concurrent("job", "team", opt).value();
  EXPECT_EQ(m->clock().now().minutes_since_epoch(), 8 * 60);
}

/// The latest planned finish of the task's leveled plan for `assignments`,
/// with every estimate equal to the tool's 4h run time.
cal::WorkInstant leveled_finish(
    hercules::WorkflowManager& m,
    const std::unordered_map<std::string, std::vector<meta::ResourceId>>& assignments) {
  m.estimator().set_fallback(cal::WorkDuration::hours(4));
  sched::PlanRequest req;
  req.anchor = m.clock().now();
  req.assignments = assignments;
  req.level_resources = true;
  auto plan = m.plan_task("job", req).value();
  const auto& space = m.schedule_space();
  cal::WorkInstant planned_finish;
  for (auto nid : space.plan(plan).nodes)
    planned_finish = std::max(planned_finish, space.node(nid).planned_finish);
  return planned_finish;
}

TEST(Dispatch, MakespanMatchesLeveledPlanShape) {
  // The dispatch rule is the leveling rule, so with identical durations the
  // executed makespan equals the leveled plan's.
  auto m = par_manager();
  auto alice = m->add_resource("alice");
  Executor::DispatchOptions opt;
  opt.assignments["MakeA"] = {alice};
  opt.assignments["MakeB"] = {alice};
  const cal::WorkInstant planned_finish = leveled_finish(*m, opt.assignments);
  ASSERT_TRUE(m->execute_task_concurrent("job", "alice", opt).ok());
  EXPECT_EQ(m->clock().now(), planned_finish);

  // Time off counts too: alice is away for the first workday, so both the
  // plan and the dispatch start her work at 480 and finish the Join at
  // 480 + 4h + 4h + 4h.
  auto away = par_manager();
  auto off = away->add_resource("alice");
  away->db()
      .add_time_off(off, cal::WorkInstant(0), cal::WorkInstant(480))
      .expect("time off");
  Executor::DispatchOptions vacation;
  vacation.assignments["MakeA"] = {off};
  vacation.assignments["MakeB"] = {off};
  const cal::WorkInstant vacation_finish = leveled_finish(*away, vacation.assignments);
  ASSERT_TRUE(away->execute_task_concurrent("job", "alice", vacation).ok());
  const auto& a = away->db().run(away->db().runs_of_activity("MakeA").front());
  EXPECT_EQ(a.started_at.minutes_since_epoch(), 480);
  EXPECT_EQ(away->clock().now().minutes_since_epoch(), 480 + 12 * 60);
  EXPECT_EQ(away->clock().now(), vacation_finish);
}

TEST(Dispatch, MultiUnitDemandPlacesRunsLikeTheLeveledPlan) {
  // MakeB takes both units of the farm, so it cannot start beside MakeA.
  auto m = par_manager();
  auto farm = m->add_resource("farm", "machine", 2);
  Executor::DispatchOptions opt;
  opt.assignments["MakeA"] = {farm};
  opt.assignments["MakeB"] = {farm, farm};
  const cal::WorkInstant planned_finish = leveled_finish(*m, opt.assignments);
  ASSERT_TRUE(m->execute_task_concurrent("job", "team", opt).ok());
  const auto& b = m->db().run(m->db().runs_of_activity("MakeB").front());
  EXPECT_EQ(b.started_at.minutes_since_epoch(), 240);
  EXPECT_EQ(m->clock().now(), planned_finish);
}

TEST(Dispatch, DemandAboveCapacityIsRefusedBeforeAnyRun) {
  auto m = par_manager();
  auto alice = m->add_resource("alice");
  Executor::DispatchOptions opt;
  opt.assignments["MakeB"] = {alice, alice};
  auto result = m->execute_task_concurrent("job", "team", opt);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, util::Error::Code::kInvalid);
  EXPECT_EQ(m->db().run_count(), 0u);
  EXPECT_EQ(m->db().instance_count(), 0u);
  EXPECT_EQ(m->clock().now().minutes_since_epoch(), 0);
}

/// Counts run_started and run_finished events.
struct RunEventCounter : obs::Subscriber {
  int started = 0, finished = 0;
  void on_event(const obs::Event& e) override {
    if (e.kind == obs::EventKind::kRunStarted) ++started;
    if (e.kind == obs::EventKind::kRunFinished) ++finished;
  }
};

TEST(Dispatch, PublishesRunStartedForEveryRun) {
  auto m = par_manager();
  FaultPlan plan;
  plan.tools["t1"] = {.fail_on = {1}};
  m->set_faults(1, std::move(plan));
  ExecutionOptions options;
  options.on_failure = FailurePolicy::kRetryThenAbort;
  options.retry.max_attempts = 2;
  m->set_exec_options(options);
  RunEventCounter counter;
  m->bus().subscribe(&counter);
  auto result = m->execute_task_concurrent("job", "team");
  m->bus().unsubscribe(&counter);
  ASSERT_TRUE(result.ok()) << result.error().str();
  EXPECT_EQ(counter.finished, 4);  // MakeA twice, MakeB, Join
  EXPECT_EQ(counter.started, counter.finished);
}

TEST(Dispatch, ErrorMidSweepLeavesTheClockWhereRecoveryPutsIt) {
  // MakeB's tool instance was never registered: the dispatch runs MakeA
  // (0..240), then stops with an error.  The journal holds MakeA's run, so a
  // recovery puts the clock at 240; the live manager must agree.
  constexpr const char* kTwoToolSchema = R"(
schema par {
  data a, b, c;
  tool t, u;
  rule MakeA: a <- t();
  rule MakeB: b <- u();
  rule Join:  c <- t(a, b);
}
)";
  const std::string wal = "/tmp/herc_dispatch_error.wal";
  std::remove(wal.c_str());
  auto m = hercules::WorkflowManager::create(kTwoToolSchema).take();
  m->register_tool({.instance_name = "t1", .tool_type = "t",
                    .nominal = cal::WorkDuration::hours(4)})
      .expect("tool");
  m->extract_task("job", "c").expect("extract");
  m->bind("job", "t", "t1").expect("bind");
  m->bind("job", "u", "ghost").expect("bind");
  ASSERT_TRUE(m->enable_journal(wal).ok());
  const std::string snapshot = hercules::save_to_json(*m);

  auto result = m->execute_task_concurrent("job", "team");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(m->db().run_count(), 1u);
  EXPECT_EQ(m->clock().now().minutes_since_epoch(), 240);

  m->disable_journal();
  std::ifstream in(wal, std::ios::binary);
  std::stringstream journal;
  journal << in.rdbuf();
  auto recovered = hercules::recover_from_json(snapshot, journal.str());
  ASSERT_TRUE(recovered.ok()) << recovered.error().str();
  EXPECT_EQ(recovered.value()->clock().now(), m->clock().now());
  std::remove(wal.c_str());
}

TEST(Dispatch, ValidationErrors) {
  auto m = par_manager();
  Executor::DispatchOptions bad_activity;
  bad_activity.assignments["NoSuch"] = {};
  EXPECT_FALSE(m->execute_task_concurrent("job", "x", bad_activity).ok());
  Executor::DispatchOptions bad_resource;
  bad_resource.assignments["MakeA"] = {meta::ResourceId{42}};
  EXPECT_FALSE(m->execute_task_concurrent("job", "x", bad_resource).ok());
  // Unbound tree rejected.
  auto unbound = hercules::WorkflowManager::create(kParSchema).take();
  unbound->extract_task("job", "c").expect("extract");
  EXPECT_FALSE(unbound->execute_task_concurrent("job", "x").ok());
}

TEST(Dispatch, FailureAbortsRemainingWork) {
  auto m = hercules::WorkflowManager::create(kParSchema).take();
  m->register_tool({.instance_name = "flaky", .tool_type = "t", .fail_rate = 1.0})
      .expect("tool");
  m->extract_task("job", "c").expect("extract");
  m->bind("job", "t", "flaky").expect("bind");
  auto result = m->execute_task_concurrent("job", "x");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().success);
  EXPECT_EQ(result.value().runs.size(), 1u);  // first activity failed, rest skipped
}

TEST(Dispatch, ContinueIndependentKeepsIndependentBranchRunning) {
  auto m = par_manager();
  FaultPlan plan;
  plan.tools["t1"] = {.fail_on = {1}};  // first invocation = MakeA
  m->set_faults(1, std::move(plan));
  ExecutionOptions options;
  options.on_failure = FailurePolicy::kContinueIndependent;
  m->set_exec_options(options);

  auto result = m->execute_task_concurrent("job", "team");
  ASSERT_TRUE(result.ok()) << result.error().str();
  EXPECT_FALSE(result.value().success);
  // MakeA failed, MakeB still dispatched, Join (needs both) skipped.
  ASSERT_EQ(result.value().runs.size(), 2u);
  EXPECT_EQ(result.value().skipped, (std::vector<std::string>{"Join"}));
  int ok_runs = 0;
  for (const auto& r : result.value().runs) ok_runs += r.success ? 1 : 0;
  EXPECT_EQ(ok_runs, 1);
  ASSERT_EQ(m->db().runs_of_activity("MakeB").size(), 1u);
  // The surviving branch still overlapped the failed one: makespan 4h.
  EXPECT_EQ(m->clock().now().minutes_since_epoch(), 4 * 60);
}

TEST(Dispatch, RetryReschedulesAfterBackoff) {
  auto m = par_manager();
  FaultPlan plan;
  plan.tools["t1"] = {.fail_on = {1}};
  m->set_faults(1, std::move(plan));
  ExecutionOptions options;
  options.on_failure = FailurePolicy::kRetryThenAbort;
  options.retry.max_attempts = 2;
  options.retry.backoff = cal::WorkDuration::minutes(30);
  m->set_exec_options(options);

  auto result = m->execute_task_concurrent("job", "team");
  ASSERT_TRUE(result.ok()) << result.error().str();
  EXPECT_TRUE(result.value().success);
  // MakeA: failed attempt + retry; MakeB: one run; Join: one run.
  EXPECT_EQ(result.value().runs.size(), 4u);
  auto make_a = m->db().runs_of_activity("MakeA");
  ASSERT_EQ(make_a.size(), 2u);
  const auto& failed = m->db().run(make_a[0]);
  const auto& retried = m->db().run(make_a[1]);
  EXPECT_EQ(failed.status, meta::RunStatus::kFailed);
  EXPECT_EQ(retried.status, meta::RunStatus::kCompleted);
  // The retry waits out the backoff in work time.
  EXPECT_EQ(retried.started_at.minutes_since_epoch(),
            failed.finished_at.minutes_since_epoch() + 30);
  // Join starts once the retried MakeA delivers (MakeB finished long ago).
  const auto& join = m->db().run(m->db().runs_of_activity("Join").front());
  EXPECT_EQ(join.started_at, retried.finished_at);
  EXPECT_EQ(m->clock().now(), join.finished_at);
}

TEST(Dispatch, TimeoutBudgetCapsDispatchedRun) {
  auto m = par_manager();  // nominal 4h
  ExecutionOptions options;
  options.on_failure = FailurePolicy::kRetryThenAbort;
  options.tool_retry["t1"] = {.max_attempts = 1,
                              .timeout = cal::WorkDuration::hours(2)};
  m->set_exec_options(options);
  auto result = m->execute_task_concurrent("job", "team");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().success);
  ASSERT_GE(result.value().runs.size(), 1u);
  EXPECT_TRUE(result.value().runs[0].timed_out);
  const auto& run = m->db().run(result.value().runs[0].run);
  EXPECT_EQ(run.finished_at.minutes_since_epoch() -
                run.started_at.minutes_since_epoch(),
            2 * 60);
}

TEST(Dispatch, SameFaultSeedReproducesDispatchBitIdentically) {
  auto run_once = [] {
    auto m = par_manager();
    FaultPlan plan;
    plan.tools["*"] = {.fail_prob = 0.5};
    m->set_faults(11, std::move(plan));
    ExecutionOptions options;
    options.on_failure = FailurePolicy::kContinueIndependent;
    options.retry.max_attempts = 2;
    m->set_exec_options(options);
    (void)m->execute_task_concurrent("job", "team").value();
    return hercules::save_to_json(*m);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Dispatch, TrackerSeesOverlappingActuals) {
  auto m = par_manager();
  m->estimator().set_fallback(cal::WorkDuration::hours(4));
  auto plan = m->plan_task("job", {.anchor = m->clock().now()}).value();
  m->execute_task_concurrent("job", "team").value();
  for (const char* a : {"MakeA", "MakeB", "Join"})
    m->link_completion("job", a).expect("link");
  const auto& space = m->schedule_space();
  auto ma = space.node(space.node_in_plan(plan, "MakeA").value());
  auto mb = space.node(space.node_in_plan(plan, "MakeB").value());
  EXPECT_EQ(*ma.actual_start, *mb.actual_start);  // genuinely parallel actuals
}

}  // namespace
}  // namespace herc::exec
