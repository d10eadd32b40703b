// Integration tests for the WorkflowManager facade: the paper's full
// procedure and its error paths.

#include <gtest/gtest.h>

#include "common.hpp"

namespace herc::hercules {
namespace {

TEST(WorkflowManager, CreateRejectsBadSchema) {
  auto bad = WorkflowManager::create("schema x { data a; tool t; rule A: b <- t(); }");
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(WorkflowManager::create("not a schema at all").ok());
}

TEST(WorkflowManager, SchemaEstimatesSeedTheEstimator) {
  auto m = WorkflowManager::create(R"(
    schema est {
      data a, b;
      tool t;
      rule MakeA: a <- t() [est 2d 4h];
      rule MakeB: b <- t(a);
    }
  )").take();
  using sched::EstimateStrategy;
  EXPECT_EQ(m->estimator()
                .estimate(m->db(), "MakeA", EstimateStrategy::kIntuition)
                .count_minutes(),
            2 * 480 + 240);
  // Rules without [est] fall back to the default.
  EXPECT_EQ(m->estimator()
                .estimate(m->db(), "MakeB", EstimateStrategy::kIntuition)
                .count_minutes(),
            m->estimator().fallback().count_minutes());
}

TEST(WorkflowManager, BadSchemaEstimateRejected) {
  for (const char* estimate : {"2x", "99999999999999999999d"}) {
    auto bad = WorkflowManager::create(
        std::string("schema x { data a; tool t; rule A: a <- t() [est ") + estimate +
        "]; }");
    ASSERT_FALSE(bad.ok()) << estimate;
    EXPECT_EQ(bad.error().code, util::Error::Code::kParse) << estimate;
  }
}

TEST(WorkflowManager, InvalidCalendarIsRejected) {
  cal::WorkCalendar::Config no_minutes;
  no_minutes.minutes_per_day = 0;
  cal::WorkCalendar::Config no_workdays;
  for (bool& working : no_workdays.workweek) working = false;
  for (const auto& config : {no_minutes, no_workdays}) {
    auto bad = WorkflowManager::create(test::kCircuitSchema, config);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, util::Error::Code::kInvalid) << bad.error().str();
  }
}

TEST(WorkflowManager, TaskManagement) {
  auto m = test::make_circuit_manager();
  EXPECT_TRUE(m->has_task("adder"));
  EXPECT_FALSE(m->has_task("mult"));
  EXPECT_EQ(m->task_names(), (std::vector<std::string>{"adder"}));
  // Duplicate task names rejected.
  auto dup = m->extract_task("adder", "performance");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, util::Error::Code::kConflict);
  // Unknown task errors.
  EXPECT_FALSE(m->task("mult").ok());
  EXPECT_FALSE(m->bind("mult", "stimuli", "x").ok());
  EXPECT_FALSE(m->execute_task("mult", "alice").ok());
  EXPECT_FALSE(m->plan_task("mult", {}).ok());
}

TEST(WorkflowManager, StatusApisRequireAPlan) {
  auto m = test::make_circuit_manager();
  EXPECT_FALSE(m->gantt("adder").ok());
  EXPECT_FALSE(m->status_report("adder").ok());
  EXPECT_FALSE(m->plan_of("adder").has_value());
  m->plan_task("adder", {.anchor = m->clock().now()}).value();
  EXPECT_TRUE(m->gantt("adder").ok());
  EXPECT_TRUE(m->status_report("adder").ok());
}

TEST(WorkflowManager, RunActivityUnknownActivity) {
  auto m = test::make_circuit_manager();
  auto r = m->run_activity("adder", "NoSuch", "alice");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, util::Error::Code::kNotFound);
}

TEST(WorkflowManager, QueryFacadePropagatesErrors) {
  auto m = test::make_circuit_manager();
  EXPECT_TRUE(m->query("select runs").ok());
  EXPECT_FALSE(m->query("garbage").ok());
}

TEST(WorkflowManager, PaperProcedureEndToEnd) {
  // The complete Sec. IV.A walkthrough with database-state assertions that
  // mirror Figs. 5, 6 and 7.
  auto m = test::make_circuit_manager();

  // Fig. 5: after planning, schedule containers hold SC instances while
  // entity containers are empty.
  auto plan1 = m->plan_task("adder", {.anchor = m->clock().now()}).value();
  EXPECT_EQ(m->db().instance_count(), 0u);
  EXPECT_EQ(m->schedule_space().container("Create").size(), 1u);
  EXPECT_EQ(m->schedule_space().container("Simulate").size(), 1u);

  // Re-plan: SC2 generation appears (Fig. 5 shows multiple versions).
  auto plan2 = m->replan_task("adder", {.anchor = m->clock().now()}).value();
  EXPECT_EQ(m->schedule_space().container("Create").size(), 2u);
  EXPECT_EQ(m->schedule_space().lineage(plan2),
            (std::vector<sched::ScheduleRunId>{plan2, plan1}));

  // Fig. 6: after execution + an iteration, entity containers fill up;
  // the performance container holds multiple instances.
  m->execute_task("adder", "alice").value();
  m->run_activity("adder", "Simulate", "bob").value();
  EXPECT_EQ(m->db().container("netlist").size(), 1u);
  EXPECT_EQ(m->db().container("performance").size(), 2u);
  EXPECT_EQ(m->db().run_count(), 3u);

  // Fig. 7: linking connects the schedule instances to the final versions.
  m->link_completion("adder", "Create").expect("link");
  m->link_completion("adder", "Simulate").expect("link");
  EXPECT_EQ(m->schedule_space().links().size(), 2u);
  // The Simulate link points at performance v2 (the final iteration).
  auto sim_node = m->schedule_space().node_in_plan(plan2, "Simulate").value();
  auto link_id = m->schedule_space().link_of(sim_node).value();
  const auto& link = m->schedule_space().links()[link_id.value() - 1];
  EXPECT_EQ(m->db().instance(link.entity_instance).version, 2);

  // Status reflects completion.
  std::string report = m->status_report("adder").value();
  EXPECT_NE(report.find("2 complete"), std::string::npos);

  // The database dump contains all four figure ingredients.
  std::string dump = m->dump_database();
  EXPECT_NE(dump.find("Execution space"), std::string::npos);
  EXPECT_NE(dump.find("Schedule space"), std::string::npos);
  EXPECT_NE(dump.find("linked to"), std::string::npos);
}

TEST(WorkflowManager, TwoTasksTrackIndependently) {
  auto m = test::make_asic_manager();
  m->extract_task("front", "gates").expect("extract");
  m->bind("front", "rtl", "chip.rtl").expect("bind");
  m->bind("front", "constraints", "chip.sdc").expect("bind");
  m->bind("front", "synthesizer", "dc").expect("bind");

  auto chip_plan = m->plan_task("chip", {.anchor = m->clock().now()}).value();
  auto front_plan = m->plan_task("front", {.anchor = m->clock().now()}).value();
  EXPECT_NE(chip_plan, front_plan);
  EXPECT_EQ(m->plan_of("chip").value(), chip_plan);
  EXPECT_EQ(m->plan_of("front").value(), front_plan);
  // Planning "front" did not supersede "chip".
  EXPECT_EQ(m->schedule_space().plan(chip_plan).status, sched::PlanStatus::kActive);
}

TEST(WorkflowManager, DumpListsEmptyContainers) {
  auto m = test::make_circuit_manager();
  std::string dump = m->dump_database();
  EXPECT_NE(dump.find("[netlist] (empty)"), std::string::npos);
  EXPECT_NE(dump.find("[Create] (empty)"), std::string::npos);
}

}  // namespace
}  // namespace herc::hercules
