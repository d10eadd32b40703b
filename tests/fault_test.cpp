// Tests for deterministic fault injection and the executor's failure
// semantics: retry/timeout policies, abort vs. degrade, and the obs
// fault counters.

#include <gtest/gtest.h>

#include <limits>

#include "common.hpp"
#include "exec/executor.hpp"
#include "exec/fault.hpp"
#include "hercules/persist.hpp"
#include "obs/metrics.hpp"

namespace herc::exec {
namespace {

// --- FaultInjector ----------------------------------------------------------

TEST(FaultInjector, DecisionsArePure) {
  FaultPlan plan;
  plan.tools["sim"] = {.fail_prob = 0.5};
  FaultInjector inj(42, std::move(plan));
  for (std::uint64_t k = 1; k <= 32; ++k) {
    auto a = inj.decide("sim", k, k);
    auto b = inj.decide("sim", k, k);
    EXPECT_EQ(a.fail, b.fail) << k;
    EXPECT_EQ(a.crash, b.crash) << k;
    EXPECT_EQ(a.latency_factor, b.latency_factor) << k;
  }
}

TEST(FaultInjector, DecisionsIndependentOfOtherTools) {
  // The k-th decision for one instance must not depend on what else ran
  // (that is what makes failure sequences thread-count independent).
  FaultPlan plan;
  plan.tools["sim"] = {.fail_prob = 0.5};
  FaultInjector inj(42, plan);
  for (std::uint64_t k = 1; k <= 32; ++k) {
    EXPECT_EQ(inj.decide("sim", k, k).fail, inj.decide("sim", k, k + 1000).fail);
  }
}

TEST(FaultInjector, FailOnHitsExactIndices) {
  FaultPlan plan;
  plan.tools["sim"] = {.fail_on = {2, 5}};
  FaultInjector inj(1, std::move(plan));
  for (std::uint64_t k = 1; k <= 6; ++k) {
    EXPECT_EQ(inj.decide("sim", k, k).fail, k == 2 || k == 5) << k;
  }
}

TEST(FaultInjector, CrashOnAndCrashAfterTotal) {
  FaultPlan plan;
  plan.tools["sim"] = {.crash_on = {3}};
  plan.crash_after_total = 7;
  FaultInjector inj(1, std::move(plan));
  EXPECT_FALSE(inj.decide("sim", 2, 2).crash);
  EXPECT_TRUE(inj.decide("sim", 3, 3).crash);    // per-tool index
  EXPECT_TRUE(inj.decide("other", 1, 7).crash);  // plan-wide total
  EXPECT_FALSE(inj.decide("other", 1, 6).crash);
}

TEST(FaultInjector, WildcardAppliesToUnlistedTools) {
  FaultPlan plan;
  plan.tools["*"] = {.fail_on = {1}};
  plan.tools["immune"] = {};  // own entry: wildcard does not apply
  FaultInjector inj(1, std::move(plan));
  EXPECT_TRUE(inj.decide("anything", 1, 1).fail);
  EXPECT_FALSE(inj.decide("immune", 1, 1).fail);
}

TEST(FaultInjector, SeedChangesProbabilisticSequence) {
  FaultPlan plan;
  plan.tools["sim"] = {.fail_prob = 0.5};
  FaultInjector a(1, plan), b(1, plan), c(2, plan);
  bool identical_ab = true, identical_ac = true;
  int fails = 0;
  for (std::uint64_t k = 1; k <= 64; ++k) {
    identical_ab &= a.decide("sim", k, k).fail == b.decide("sim", k, k).fail;
    identical_ac &= a.decide("sim", k, k).fail == c.decide("sim", k, k).fail;
    fails += a.decide("sim", k, k).fail ? 1 : 0;
  }
  EXPECT_TRUE(identical_ab);   // same seed: bit-identical
  EXPECT_FALSE(identical_ac);  // different seed: different sequence
  EXPECT_GT(fails, 10);        // p=0.5 over 64 draws
  EXPECT_LT(fails, 54);
}

// --- ToolRegistry wiring ----------------------------------------------------

TEST(ToolRegistryFaults, InjectedFailureMarksOutcome) {
  ToolRegistry reg;
  reg.add({.instance_name = "sim", .tool_type = "simulator"}).expect("add");
  FaultPlan plan;
  plan.tools["sim"] = {.fail_on = {1}};
  FaultInjector inj(1, std::move(plan));
  reg.set_fault_injector(&inj);
  ToolInvocation inv{.activity = "Simulate", .output_type = "performance"};
  auto first = reg.invoke("sim", "simulator", inv).value();
  EXPECT_FALSE(first.success);
  EXPECT_TRUE(first.fault_injected);
  EXPECT_NE(first.log.find("FAULT INJECTED"), std::string::npos);
  auto second = reg.invoke("sim", "simulator", inv).value();
  EXPECT_TRUE(second.success);
  EXPECT_EQ(reg.invocations("sim"), 2u);
  EXPECT_EQ(reg.total_invocations(), 2u);
}

TEST(ToolRegistryFaults, CrashThrowsInjectedCrash) {
  ToolRegistry reg;
  reg.add({.instance_name = "sim", .tool_type = "simulator"}).expect("add");
  FaultPlan plan;
  plan.tools["sim"] = {.crash_on = {2}};
  FaultInjector inj(1, std::move(plan));
  reg.set_fault_injector(&inj);
  ToolInvocation inv{.activity = "Simulate", .output_type = "performance"};
  EXPECT_TRUE(reg.invoke("sim", "simulator", inv).value().success);
  try {
    (void)reg.invoke("sim", "simulator", inv);
    FAIL() << "expected InjectedCrash";
  } catch (const InjectedCrash& crash) {
    EXPECT_EQ(crash.tool(), "sim");
    EXPECT_EQ(crash.invocation(), 2u);
    EXPECT_NE(std::string(crash.what()).find("injected crash"), std::string::npos);
  }
}

TEST(ToolRegistryFaults, LatencyFactorStretchesDuration) {
  ToolRegistry reg;
  reg.add({.instance_name = "slow",
           .tool_type = "x",
           .nominal = cal::WorkDuration::minutes(100)})
      .expect("add");
  FaultPlan plan;
  plan.tools["slow"] = {.latency_factor = 3.0};
  FaultInjector inj(1, std::move(plan));
  reg.set_fault_injector(&inj);
  ToolInvocation inv{.activity = "A", .output_type = "o"};
  EXPECT_EQ(reg.invoke("slow", "x", inv).value().duration.count_minutes(), 300);
}

TEST(ToolRegistryFaults, DurationPastInt64Saturates) {
  // 9e18 minutes x 3 has no int64 value; the run lasts "forever", which the
  // executor then refuses as past the calendar.
  ToolRegistry reg;
  reg.add({.instance_name = "slow",
           .tool_type = "x",
           .nominal = cal::WorkDuration::minutes(9'000'000'000'000'000'000)})
      .expect("add");
  FaultPlan plan;
  plan.tools["slow"] = {.latency_factor = 3.0};
  FaultInjector inj(1, std::move(plan));
  reg.set_fault_injector(&inj);
  ToolInvocation inv{.activity = "A", .output_type = "o"};
  EXPECT_EQ(reg.invoke("slow", "x", inv).value().duration.count_minutes(),
            std::numeric_limits<std::int64_t>::max());
}

// --- Executor failure policies ---------------------------------------------

/// Circuit manager whose simulator fails on the given 1-based invocations.
std::unique_ptr<hercules::WorkflowManager> flaky_sim_manager(
    std::vector<int> fail_on, ExecutionOptions options) {
  auto m = test::make_circuit_manager();
  FaultPlan plan;
  plan.tools["spice@s1"] = {.fail_on = std::move(fail_on)};
  m->set_faults(1, std::move(plan));
  m->set_exec_options(std::move(options));
  return m;
}

TEST(ExecutorFaults, AbortPolicyIgnoresRetries) {
  // Seed behavior: even with a generous retry policy configured, kAbort
  // makes exactly one attempt and stops.
  ExecutionOptions options;
  options.retry.max_attempts = 5;
  auto m = flaky_sim_manager({1}, options);
  auto result = m->execute_task("adder", "alice");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().success);
  ASSERT_EQ(result.value().runs.size(), 2u);  // Create + one failed Simulate
  EXPECT_FALSE(result.value().final_output.valid());
}

TEST(ExecutorFaults, RetryThenAbortRecovers) {
  ExecutionOptions options;
  options.on_failure = FailurePolicy::kRetryThenAbort;
  options.retry.max_attempts = 2;
  auto m = flaky_sim_manager({1}, options);

  obs::MetricsRegistry metrics;
  metrics.attach(m->bus());

  auto result = m->execute_task("adder", "alice");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().success);
  EXPECT_TRUE(result.value().final_output.valid());
  // Create + failed Simulate + retried Simulate, every attempt recorded.
  ASSERT_EQ(result.value().runs.size(), 3u);
  EXPECT_FALSE(result.value().runs[1].success);
  EXPECT_EQ(result.value().runs[1].attempt, 1);
  EXPECT_TRUE(result.value().runs[2].success);
  EXPECT_EQ(result.value().runs[2].attempt, 2);
  EXPECT_EQ(m->db().run_count(), 3u);
  EXPECT_EQ(m->db().run(result.value().runs[1].run).status, meta::RunStatus::kFailed);
  EXPECT_EQ(metrics.counter("run_retries"), 1u);
}

TEST(ExecutorFaults, RetryExhaustionAborts) {
  ExecutionOptions options;
  options.on_failure = FailurePolicy::kRetryThenAbort;
  options.retry.max_attempts = 2;
  auto m = flaky_sim_manager({1, 2}, options);  // both attempts fail
  auto result = m->execute_task("adder", "alice");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().success);
  ASSERT_EQ(result.value().runs.size(), 3u);
  EXPECT_FALSE(result.value().runs[1].success);
  EXPECT_FALSE(result.value().runs[2].success);
  EXPECT_FALSE(result.value().final_output.valid());
}

TEST(ExecutorFaults, BackoffSeparatesAttempts) {
  ExecutionOptions options;
  options.on_failure = FailurePolicy::kRetryThenAbort;
  options.retry.max_attempts = 2;
  options.retry.backoff = cal::WorkDuration::hours(1);
  auto m = flaky_sim_manager({1}, options);
  auto result = m->execute_task("adder", "alice").value();
  const auto& failed = m->db().run(result.runs[1].run);
  const auto& retried = m->db().run(result.runs[2].run);
  EXPECT_EQ(retried.started_at.minutes_since_epoch(),
            failed.finished_at.minutes_since_epoch() + 60);
}

TEST(ExecutorFaults, PerToolPolicyOverridesDefault) {
  ExecutionOptions options;
  options.on_failure = FailurePolicy::kRetryThenAbort;
  options.retry.max_attempts = 1;  // default: no retries
  options.tool_retry["spice@s1"] = {.max_attempts = 2};
  auto m = flaky_sim_manager({1}, options);
  auto result = m->execute_task("adder", "alice").value();
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.runs.size(), 3u);
}

TEST(ExecutorFaults, TimeoutKillsRunAtBudget) {
  ExecutionOptions options;
  options.on_failure = FailurePolicy::kRetryThenAbort;
  options.retry.timeout = cal::WorkDuration::hours(4);
  auto m = test::make_circuit_manager();  // editor nominal 14h > 4h budget
  m->set_exec_options(options);

  obs::MetricsRegistry metrics;
  metrics.attach(m->bus());

  auto result = m->execute_task("adder", "alice");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().success);
  ASSERT_EQ(result.value().runs.size(), 1u);
  EXPECT_TRUE(result.value().runs[0].timed_out);
  const auto& run = m->db().run(result.value().runs[0].run);
  EXPECT_EQ(run.status, meta::RunStatus::kFailed);
  // Killed exactly at the budget, not at the tool's natural duration.
  EXPECT_EQ(run.finished_at.minutes_since_epoch() -
                run.started_at.minutes_since_epoch(),
            4 * 60);
  EXPECT_EQ(metrics.counter("run_timeouts"), 1u);
}

TEST(ExecutorFaults, ContinueIndependentSkipsDependents) {
  ExecutionOptions options;
  options.on_failure = FailurePolicy::kContinueIndependent;
  auto m = test::make_circuit_manager();
  FaultPlan plan;
  plan.tools["ned-2.1"] = {.fail_on = {1}};  // Create fails
  m->set_faults(1, std::move(plan));
  m->set_exec_options(options);

  obs::MetricsRegistry metrics;
  metrics.attach(m->bus());

  auto result = m->execute_task("adder", "alice");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().success);
  ASSERT_EQ(result.value().runs.size(), 1u);  // only the failed Create
  ASSERT_EQ(result.value().skipped, (std::vector<std::string>{"Simulate"}));
  EXPECT_FALSE(result.value().final_output.valid());
  EXPECT_EQ(metrics.counter("runs_degraded"), 1u);
}

TEST(ExecutorFaults, ContinueIndependentKeepsIndependentSubtrees) {
  // Diamond: Sch and Lay are independent; Merge consumes both.  When Sch
  // fails, Lay must still run and only Merge is skipped.
  auto m = hercules::WorkflowManager::create(R"(
    schema board {
      data sch, lay, out;
      tool drawer, router, merger;
      rule Sch:   sch <- drawer();
      rule Lay:   lay <- router();
      rule Merge: out <- merger(sch, lay);
    })")
               .take();
  m->register_tool({.instance_name = "d", .tool_type = "drawer"}).expect("tool");
  m->register_tool({.instance_name = "r", .tool_type = "router"}).expect("tool");
  m->register_tool({.instance_name = "g", .tool_type = "merger"}).expect("tool");
  m->extract_task("board", "out").expect("extract");
  m->bind("board", "drawer", "d").expect("bind");
  m->bind("board", "router", "r").expect("bind");
  m->bind("board", "merger", "g").expect("bind");

  ExecutionOptions options;
  options.on_failure = FailurePolicy::kContinueIndependent;
  FaultPlan plan;
  plan.tools["d"] = {.fail_on = {1}};
  m->set_faults(1, std::move(plan));
  m->set_exec_options(options);

  auto result = m->execute_task("board", "team").value();
  EXPECT_FALSE(result.success);
  ASSERT_EQ(result.runs.size(), 2u);  // failed Sch + successful Lay
  EXPECT_FALSE(result.runs[0].success);
  EXPECT_TRUE(result.runs[1].success);
  EXPECT_EQ(result.skipped, (std::vector<std::string>{"Merge"}));
  // The independent branch's output exists; the merged output does not.
  EXPECT_EQ(m->db().container("lay").size(), 1u);
  EXPECT_TRUE(m->db().container("out").empty());
}

TEST(ExecutorFaults, RootFailureSkipsNothing) {
  // ASIC chain with a failing router: Synthesize and Place still run and
  // the root simply fails (no dependents to skip).
  ExecutionOptions options;
  options.on_failure = FailurePolicy::kContinueIndependent;
  auto m = test::make_asic_manager();
  FaultPlan plan;
  plan.tools["rt"] = {.fail_on = {1}};
  m->set_faults(1, std::move(plan));
  m->set_exec_options(options);
  auto result = m->execute_task("chip", "carol").value();
  EXPECT_FALSE(result.success);
  ASSERT_EQ(result.runs.size(), 3u);  // Synthesize, Place ok; Route failed
  EXPECT_TRUE(result.runs[0].success);
  EXPECT_TRUE(result.runs[1].success);
  EXPECT_FALSE(result.runs[2].success);
  EXPECT_TRUE(result.skipped.empty());
}

// --- Reproducibility --------------------------------------------------------

TEST(ExecutorFaults, SameSeedReproducesIdenticalState) {
  auto run_scenario = [](std::uint64_t seed) {
    ExecutionOptions options;
    options.on_failure = FailurePolicy::kContinueIndependent;
    options.retry.max_attempts = 2;
    auto m = test::make_circuit_manager();
    FaultPlan plan;
    plan.tools["*"] = {.fail_prob = 0.4};
    m->set_faults(seed, std::move(plan));
    m->set_exec_options(options);
    (void)m->execute_task("adder", "alice").value();
    (void)m->execute_task("adder", "bob").value();
    return hercules::save_to_json(*m);
  };
  // Same seed: the whole persisted state (runs, statuses, timestamps) is
  // bit-identical.  Different seed: the failure sequence moves.
  EXPECT_EQ(run_scenario(7), run_scenario(7));
  EXPECT_NE(run_scenario(7), run_scenario(8));
}

TEST(ExecutorFaults, InjectorSurvivesInspection) {
  // The CLI reads back seed/plan to compose successive `faults` commands.
  auto m = test::make_circuit_manager();
  FaultPlan plan;
  plan.tools["spice@s1"] = {.fail_prob = 0.25, .latency_factor = 2.0};
  plan.crash_after_total = 9;
  m->set_faults(77, plan);
  ASSERT_NE(m->fault_injector(), nullptr);
  EXPECT_EQ(m->fault_injector()->seed(), 77u);
  EXPECT_EQ(m->fault_injector()->plan().crash_after_total, 9u);
  EXPECT_EQ(m->fault_injector()->plan().tools.at("spice@s1").latency_factor, 2.0);
  m->clear_faults();
  EXPECT_EQ(m->fault_injector(), nullptr);
}

}  // namespace
}  // namespace herc::exec
