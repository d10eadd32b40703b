// Tests for JSON persistence: save -> load -> save fixed point, state
// equivalence after reload, and load-time validation.

#include <gtest/gtest.h>

#include "common.hpp"
#include "hercules/persist.hpp"
#include "util/json.hpp"

namespace herc::hercules {
namespace {

std::unique_ptr<WorkflowManager> full_scenario() {
  auto m = test::make_circuit_manager();
  m->calendar().add_holiday(cal::Date(1995, 7, 4));
  m->db()
      .add_time_off(m->db().find_resource("bob").value(), cal::WorkInstant(100),
                    cal::WorkInstant(500))
      .expect("time off");
  sched::PlanRequest first;
  first.anchor = m->clock().now();
  first.deadline = cal::WorkInstant(40 * 60);  // exercise deadline persistence
  m->plan_task("adder", first).value();
  m->execute_task("adder", "alice").value();
  m->run_activity("adder", "Simulate", "bob").value();
  m->link_completion("adder", "Create").expect("link");
  m->link_completion("adder", "Simulate").expect("link");
  m->replan_task("adder", {.anchor = m->clock().now()}).value();
  return m;
}

TEST(Persist, SaveLoadSaveIsFixedPoint) {
  auto m = full_scenario();
  std::string once = save_to_json(*m);
  auto loaded = load_from_json(once);
  ASSERT_TRUE(loaded.ok()) << loaded.error().str();
  std::string twice = save_to_json(*loaded.value());
  EXPECT_EQ(once, twice);
}

TEST(Persist, ReloadedStateIsEquivalent) {
  auto m = full_scenario();
  auto loaded = load_from_json(save_to_json(*m)).take();

  EXPECT_EQ(loaded->db().instance_count(), m->db().instance_count());
  EXPECT_EQ(loaded->db().run_count(), m->db().run_count());
  EXPECT_EQ(loaded->store().size(), m->store().size());
  EXPECT_EQ(loaded->schedule_space().plans().size(),
            m->schedule_space().plans().size());
  EXPECT_EQ(loaded->schedule_space().node_count(), m->schedule_space().node_count());
  EXPECT_EQ(loaded->schedule_space().links().size(),
            m->schedule_space().links().size());
  EXPECT_EQ(loaded->clock().now(), m->clock().now());
  EXPECT_EQ(loaded->calendar().holidays().size(), 1u);
  EXPECT_TRUE(loaded->calendar().is_holiday(cal::Date(1995, 7, 4)));
  // Resource time off survives.
  auto bob = loaded->db().find_resource("bob").value();
  ASSERT_EQ(loaded->db().resource(bob).time_off.size(), 1u);
  EXPECT_EQ(loaded->db().resource(bob).time_off[0].second.minutes_since_epoch(), 500);

  // Database dumps (both spaces) agree textually.
  EXPECT_EQ(loaded->dump_database(), m->dump_database());

  // The task tree survived with bindings and plan association.
  ASSERT_TRUE(loaded->has_task("adder"));
  EXPECT_TRUE(loaded->task("adder").value()->fully_bound().ok());
  EXPECT_EQ(loaded->plan_of("adder").value(), m->plan_of("adder").value());
  EXPECT_EQ(loaded->tracker().watched_plan(), m->tracker().watched_plan());
}

TEST(Persist, ReloadedManagerKeepsWorking) {
  auto m = full_scenario();
  auto loaded = load_from_json(save_to_json(*m)).take();
  // The snapshot carries the tool registry: execution needs no setup.
  auto iter = loaded->run_activity("adder", "Simulate", "carol");
  ASSERT_TRUE(iter.ok()) << iter.error().str();
  // Versions continue from the persisted state, not from 1.
  EXPECT_EQ(loaded->db().instance(iter.value().output).version, 3);
  // Queries and Gantt still work.
  EXPECT_TRUE(loaded->query("select runs where designer = \"carol\"").ok());
  EXPECT_TRUE(loaded->gantt("adder").ok());
}

TEST(Persist, StatusReportIdenticalAfterReload) {
  auto m = full_scenario();
  auto loaded = load_from_json(save_to_json(*m)).take();
  EXPECT_EQ(loaded->status_report("adder").value(), m->status_report("adder").value());
}

TEST(Persist, RejectsMalformedInput) {
  EXPECT_FALSE(load_from_json("not json").ok());
  EXPECT_FALSE(load_from_json("{}").ok());  // missing fields
  EXPECT_FALSE(load_from_json(R"({"format": "something-else"})").ok());
}

/// A manager whose configuration differs from every default: a tool with
/// noise and a fail rate, an intuition that overrides the schema's [est],
/// a fallback, a failure policy and per-tool retry.
std::unique_ptr<WorkflowManager> configured_scenario() {
  auto m = hercules::WorkflowManager::create(
                R"(schema circuit {
                     data netlist, stimuli, performance;
                     tool netlist_editor, simulator;
                     rule Create:   netlist     <- netlist_editor() [est 2d];
                     rule Simulate: performance <- simulator(netlist, stimuli) [est 3h];
                   })")
               .take();
  m->register_tool({.instance_name = "ned",
                    .tool_type = "netlist_editor",
                    .nominal = cal::WorkDuration::minutes(95)})
      .expect("tool");
  m->register_tool({.instance_name = "spice@s1",
                    .tool_type = "simulator",
                    .nominal = cal::WorkDuration::minutes(370),
                    .noise_frac = 0.3,
                    .fail_rate = 0.25})
      .expect("tool");
  m->estimator().set_intuition("Create", cal::WorkDuration::minutes(700));
  m->estimator().set_intuition("Extract", cal::WorkDuration::minutes(45));
  m->estimator().set_fallback(cal::WorkDuration::minutes(333));
  exec::ExecutionOptions opts;
  opts.on_failure = exec::FailurePolicy::kContinueIndependent;
  opts.retry = {.max_attempts = 2, .timeout = cal::WorkDuration::minutes(600)};
  opts.tool_retry["spice@s1"] = {.max_attempts = 4,
                                 .backoff = cal::WorkDuration::minutes(0),
                                 .timeout = cal::WorkDuration::minutes(500)};
  opts.tool_retry["ned"] = {.max_attempts = 3};
  m->set_exec_options(std::move(opts));
  return m;
}

TEST(Persist, ConfigurationSurvivesSaveLoadSave) {
  auto m = configured_scenario();
  const std::string once = save_to_json(*m);
  auto loaded = load_from_json(once);
  ASSERT_TRUE(loaded.ok()) << loaded.error().str();
  WorkflowManager& r = *loaded.value();
  EXPECT_EQ(save_to_json(r), once);

  ASSERT_EQ(r.tools().instances(), (std::vector<std::string>{"ned", "spice@s1"}));
  const exec::ToolSpec& spice = r.tools().spec("spice@s1");
  EXPECT_EQ(spice.tool_type, "simulator");
  EXPECT_EQ(spice.nominal.count_minutes(), 370);
  EXPECT_EQ(spice.noise_frac, 0.3);
  EXPECT_EQ(spice.fail_rate, 0.25);
  EXPECT_EQ(r.tools().spec("ned").nominal.count_minutes(), 95);

  // The saved intuition wins over the schema's [est 2d]; the schema-seeded
  // Simulate estimate and the intuition for an activity outside the schema
  // come back too.
  EXPECT_EQ(r.estimator().intuitions(), m->estimator().intuitions());
  EXPECT_EQ(r.estimator().intuitions().at("Create").count_minutes(), 700);
  EXPECT_EQ(r.estimator().intuitions().at("Simulate").count_minutes(), 180);
  EXPECT_EQ(r.estimator().fallback().count_minutes(), 333);

  const exec::ExecutionOptions& opts = r.exec_options();
  EXPECT_EQ(opts.on_failure, exec::FailurePolicy::kContinueIndependent);
  EXPECT_EQ(opts.retry.max_attempts, 2);
  EXPECT_EQ(opts.retry.timeout.count_minutes(), 600);
  ASSERT_EQ(opts.tool_retry.size(), 2u);
  EXPECT_EQ(opts.tool_retry.at("spice@s1").max_attempts, 4);
  EXPECT_EQ(opts.tool_retry.at("spice@s1").timeout.count_minutes(), 500);
  EXPECT_EQ(opts.tool_retry.at("ned").max_attempts, 3);
}

TEST(Persist, V1DocumentIsRefused) {
  // A v1 snapshot lacks the configuration a loaded project runs with.
  auto doc = util::Json::parse(save_to_json(*configured_scenario())).take();
  doc.as_object().set("format", "hercsched-db-v1");
  auto loaded = load_from_json(doc.dump(2));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, util::Error::Code::kInvalid);
  EXPECT_NE(loaded.error().message.find("unknown database format"), std::string::npos)
      << loaded.error().str();
}

TEST(Persist, RefusedToolEntriesFailTheLoad) {
  const std::string text = save_to_json(*configured_scenario());
  auto mutate = [&](auto&& fn) {
    auto doc = util::Json::parse(text).take();
    fn(doc.as_object().at("tools").as_array());
    return load_from_json(doc.dump(2));
  };
  auto zero_nominal = mutate([](util::JsonArray& tools) {
    tools[1].as_object().set("nominal", 0);
  });
  ASSERT_FALSE(zero_nominal.ok());
  EXPECT_EQ(zero_nominal.error().code, util::Error::Code::kInvalid);
  auto duplicate = mutate([](util::JsonArray& tools) {
    tools[1].as_object().set("instance", "ned");
  });
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.error().code, util::Error::Code::kConflict);
  auto bad_rate = mutate([](util::JsonArray& tools) {
    tools[1].as_object().set("fail_rate", 2.5);
  });
  ASSERT_FALSE(bad_rate.ok());
  EXPECT_EQ(bad_rate.error().code, util::Error::Code::kInvalid);
  auto wrong_type = mutate([](util::JsonArray& tools) {
    tools[0].as_object().set("nominal", "95m");
  });
  ASSERT_FALSE(wrong_type.ok());
  EXPECT_EQ(wrong_type.error().code, util::Error::Code::kParse);
}

TEST(Persist, ConfigurationOutOfRangeIsRefused) {
  const std::string text = save_to_json(*configured_scenario());
  auto mutate = [&](auto&& fn) {
    auto doc = util::Json::parse(text).take();
    fn(doc.as_object());
    return load_from_json(doc.dump(2));
  };
  auto negative_estimate = mutate([](util::JsonObject& doc) {
    doc.at("estimator").as_object().at("intuitions").as_object().set("Create", -5);
  });
  ASSERT_FALSE(negative_estimate.ok());
  EXPECT_EQ(negative_estimate.error().code, util::Error::Code::kInvalid);
  auto no_attempts = mutate([](util::JsonObject& doc) {
    doc.at("exec_options").as_object().at("retry").as_object().set("max_attempts", 0);
  });
  ASSERT_FALSE(no_attempts.ok());
  EXPECT_EQ(no_attempts.error().code, util::Error::Code::kInvalid);
  auto negative_backoff = mutate([](util::JsonObject& doc) {
    doc.at("exec_options").as_object().at("tool_retry").as_object().at("ned")
        .as_object().set("backoff", -1);
  });
  ASSERT_FALSE(negative_backoff.ok());
  EXPECT_EQ(negative_backoff.error().code, util::Error::Code::kInvalid);
  auto unknown_policy = mutate([](util::JsonObject& doc) {
    doc.at("exec_options").as_object().set("on_failure", "sometimes");
  });
  ASSERT_FALSE(unknown_policy.ok());
  EXPECT_EQ(unknown_policy.error().code, util::Error::Code::kParse);
}

TEST(Persist, RejectsTamperedIds) {
  auto m = full_scenario();
  std::string text = save_to_json(*m);
  // Corrupt an instance id: load must detect the id mismatch.
  auto doc = util::Json::parse(text).take();
  auto& instances = doc.as_object().at("instances").as_array();
  ASSERT_FALSE(instances.empty());
  instances[0].as_object().set("id", 999);
  auto loaded = load_from_json(doc.dump(2));
  EXPECT_FALSE(loaded.ok());
}

TEST(Persist, RejectsWrongFieldTypes) {
  auto m = full_scenario();
  auto doc = util::Json::parse(save_to_json(*m)).take();
  doc.as_object().set("clock", "noon");
  auto loaded = load_from_json(doc.dump(2));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, util::Error::Code::kParse);
}

TEST(Persist, TruncatedSnapshotsNeverCrash) {
  // A crash mid-write (before atomic saves existed) leaves a prefix of the
  // real document; every prefix must come back as a clean error.
  auto m = full_scenario();
  std::string text = save_to_json(*m);
  while (!text.empty() && (text.back() == '\n' || text.back() == '}'))
    text.pop_back();  // strip the closing brace so every prefix is torn
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, text.size() / 4,
                          text.size() / 2, text.size() - 2, text.size() - 1}) {
    auto loaded = load_from_json(text.substr(0, len));
    ASSERT_FALSE(loaded.ok()) << "prefix length " << len;
    EXPECT_TRUE(loaded.error().code == util::Error::Code::kParse ||
                loaded.error().code == util::Error::Code::kInvalid)
        << "prefix length " << len << ": " << loaded.error().str();
  }
}

TEST(Persist, MalformedDocumentCorpusRejectedCleanly) {
  // Structurally valid JSON with broken content: every case must produce a
  // kParse/kInvalid/kConflict error, never a crash or an UB read.
  const char* corpus[] = {
      R"({"format": "hercsched-db-v2"})",              // missing sections
      R"({"format": "hercsched-db-v2", "schema": 7})", // wrong type
      R"({"format": "hercsched-db-v2", "schema": "not a schema"})",
      "[1, 2, 3]",                                     // not an object
      "null",
      "\"hercsched-db-v2\"",
  };
  for (const char* text : corpus) {
    auto loaded = load_from_json(text);
    ASSERT_FALSE(loaded.ok()) << text;
    // Refused for its content, not for its format.
    EXPECT_EQ(loaded.error().message.find("unknown database format"), std::string::npos)
        << text;
  }
}

TEST(Persist, MalformedNestedRecordsRejectedCleanly) {
  auto m = full_scenario();
  std::string text = save_to_json(*m);
  // Each mutation breaks one nested record the loader must validate.
  auto mutate = [&](auto&& fn) {
    auto doc = util::Json::parse(text).take();
    fn(doc.as_object());
    return load_from_json(doc.dump(2));
  };
  // A run whose inputs are not numbers.
  auto bad_run_inputs = mutate([](util::JsonObject& doc) {
    doc.at("runs").as_array()[0].as_object().set(
        "inputs", util::Json::parse(R"(["x"])").take());
  });
  EXPECT_FALSE(bad_run_inputs.ok());
  // A resource time-off window with the wrong arity.
  auto bad_window = mutate([](util::JsonObject& doc) {
    auto& resources = doc.at("resources").as_array();
    for (auto& r : resources) {
      if (r.as_object().at("name").as_string() == "bob")
        r.as_object().set("time_off", util::Json::parse(R"([[100]])").take());
    }
  });
  ASSERT_FALSE(bad_window.ok());
  EXPECT_EQ(bad_window.error().code, util::Error::Code::kParse);
  // A plan dependency pair with one endpoint missing.
  auto bad_dep = mutate([](util::JsonObject& doc) {
    auto& plans = doc.at("plans").as_array();
    plans[0].as_object().set("deps", util::Json::parse(R"([[3]])").take());
  });
  ASSERT_FALSE(bad_dep.ok());
  EXPECT_EQ(bad_dep.error().code, util::Error::Code::kParse);
  // An instance of a type the schema does not define.
  auto bad_type = mutate([](util::JsonObject& doc) {
    doc.at("instances").as_array()[0].as_object().set("type", "nosuchtype");
  });
  EXPECT_FALSE(bad_type.ok());
}

TEST(Persist, OutOfRangeCapacityAndUnknownStatusesAreRefused) {
  const std::string text = save_to_json(*full_scenario());
  auto mutate = [&](auto&& fn) {
    auto doc = util::Json::parse(text).take();
    fn(doc.as_object());
    return load_from_json(doc.dump(2));
  };
  // A capacity must be 1..INT_MAX; a cast used to turn 2^32+1 into 1.
  const std::int64_t capacities[] = {0, -3, (std::int64_t{1} << 32) + 1};
  for (std::int64_t capacity : capacities) {
    auto loaded = mutate([&](util::JsonObject& doc) {
      doc.at("resources").as_array()[0].as_object().set("capacity", capacity);
    });
    ASSERT_FALSE(loaded.ok()) << capacity;
    EXPECT_EQ(loaded.error().code, util::Error::Code::kInvalid) << capacity;
  }
  // A status name the writer never writes used to read as failed or
  // superseded.
  auto bogus_run = mutate([](util::JsonObject& doc) {
    doc.at("runs").as_array()[0].as_object().set("status", "bogus");
  });
  ASSERT_FALSE(bogus_run.ok());
  EXPECT_EQ(bogus_run.error().code, util::Error::Code::kParse);
  auto bogus_plan = mutate([](util::JsonObject& doc) {
    doc.at("plans").as_array()[0].as_object().set("status", "bogus");
  });
  ASSERT_FALSE(bogus_plan.ok());
  EXPECT_EQ(bogus_plan.error().code, util::Error::Code::kParse);
}

TEST(Persist, InvalidCalendarLoadsAsAnError) {
  auto m = full_scenario();
  auto doc = util::Json::parse(save_to_json(*m)).take();
  doc.as_object().at("calendar").as_object().set("minutes_per_day", 0);
  auto loaded = load_from_json(doc.dump(2));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, util::Error::Code::kInvalid);
}

TEST(Persist, EmptyManagerRoundTrips) {
  auto m = hercules::WorkflowManager::create(test::kCircuitSchema).take();
  std::string once = save_to_json(*m);
  auto loaded = load_from_json(once);
  ASSERT_TRUE(loaded.ok()) << loaded.error().str();
  EXPECT_EQ(save_to_json(*loaded.value()), once);
  EXPECT_EQ(loaded.value()->db().instance_count(), 0u);
}

}  // namespace
}  // namespace herc::hercules
