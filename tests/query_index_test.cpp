// Tests for the query fast path: interned metadata, maintained secondary
// indexes and the compiled-predicate access-path planner.  The load-bearing
// property throughout: the index path and the full-scan path are
// byte-identical, and repeating a statement gives the same bytes again —
// including after snapshot + journal crash recovery.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "hercules/journal.hpp"
#include "hercules/persist.hpp"
#include "metadata/database.hpp"
#include "query/query.hpp"
#include "util/fsio.hpp"

namespace herc {
namespace {

using hercules::WorkflowManager;
using query::QueryEngine;

/// Circuit manager planned and executed once (two completed runs by alice).
std::unique_ptr<WorkflowManager> executed_circuit() {
  auto m = test::make_circuit_manager();
  EXPECT_TRUE(m->plan_task("adder", {.anchor = m->clock().now()}).ok());
  auto r = m->execute_task("adder", "alice");
  EXPECT_TRUE(r.ok() && r.value().success);
  return m;
}

/// Records a failed run of `activity` by `designer` (no output instance).
void record_failed_run(WorkflowManager& m, const std::string& activity,
                       const std::string& designer) {
  meta::Run r;
  r.activity = activity;
  r.tool_binding = "spice@s1";
  r.designer = designer;
  r.status = meta::RunStatus::kFailed;
  r.started_at = m.clock().now();
  r.finished_at = m.clock().now();
  ASSERT_TRUE(m.db().record_run(std::move(r)).ok());
}

std::string bytes(util::Result<query::QueryResult> r) {
  if (!r.ok()) return "error: " + r.error().message;
  return r.value().render();
}

// --- index maintenance -------------------------------------------------------

TEST(QueryIndex, RunIndexesTrackRecordedAndFailedRuns) {
  auto m = executed_circuit();
  const meta::Database& db = m->db();

  ASSERT_EQ(db.run_count(), 2u);
  EXPECT_EQ(db.runs_of_activity("Create").size(), 1u);
  EXPECT_EQ(db.runs_of_activity("Simulate").size(), 1u);
  EXPECT_EQ(db.runs_of_designer("alice").size(), 2u);
  EXPECT_EQ(db.runs_of_tool("spice@s1").size(), 1u);
  EXPECT_EQ(db.runs_with_status(meta::RunStatus::kCompleted).size(), 2u);
  EXPECT_TRUE(db.runs_with_status(meta::RunStatus::kFailed).empty());

  record_failed_run(*m, "Simulate", "bob");
  EXPECT_EQ(db.runs_of_activity("Simulate").size(), 2u);
  EXPECT_EQ(db.runs_of_designer("bob").size(), 1u);
  EXPECT_EQ(db.runs_with_status(meta::RunStatus::kFailed).size(), 1u);

  // Unknown keys return the shared empty vector, not a throw.
  EXPECT_TRUE(db.runs_of_activity("nope").empty());
  EXPECT_TRUE(db.runs_of_designer("nobody").empty());
  EXPECT_TRUE(db.runs_of_tool("hammer").empty());

  // The satellite bugfix: runs_of_activity returns a reference into the
  // index, so repeated calls alias the same storage instead of copying.
  EXPECT_EQ(&db.runs_of_activity("Create"), &db.runs_of_activity("Create"));

  // Indexes agree with a linear scan of the run table.
  for (const auto& run : db.runs()) {
    const auto& by_act = db.runs_of_activity(run.activity);
    EXPECT_NE(std::find(by_act.begin(), by_act.end(), run.id), by_act.end());
    const auto& by_des = db.runs_of_designer(run.designer);
    EXPECT_NE(std::find(by_des.begin(), by_des.end(), run.id), by_des.end());
  }
}

TEST(QueryIndex, InstanceIndexesTrackImportsAndOutputs) {
  auto m = executed_circuit();
  meta::Database& db = m->db();

  // Executed outputs land in their containers with a producing run.
  ASSERT_EQ(db.container("netlist").size(), 1u);
  ASSERT_EQ(db.container("performance").size(), 1u);
  auto out = db.container("performance").front();
  auto producer = db.producing_run(out);
  ASSERT_TRUE(producer.has_value());
  EXPECT_EQ(db.run(*producer).output, out);

  // The bound primary input was imported: indexed by name, no producer.
  const auto& named = db.instances_named("adder.stimuli");
  ASSERT_EQ(named.size(), 1u);
  EXPECT_FALSE(db.producing_run(named.front()).has_value());

  // A fresh import shows up in both instance indexes immediately.
  auto imported = db.create_instance("stimuli", "adder.stimuli", meta::RunId{},
                                     util::DataObjectId{}, m->clock().now());
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(db.instances_named("adder.stimuli").size(), 2u);
  EXPECT_EQ(db.container("stimuli").size(), 2u);
  EXPECT_TRUE(db.instances_named("no-such-data").empty());
}

TEST(QueryIndex, InterningDeduplicatesRepeatedNames) {
  auto m = executed_circuit();
  const std::size_t before = m->db().symbols().size();
  record_failed_run(*m, "Simulate", "alice");  // every name already interned
  EXPECT_EQ(m->db().symbols().size(), before);
  record_failed_run(*m, "Simulate", "carol");  // exactly one new symbol
  EXPECT_EQ(m->db().symbols().size(), before + 1);
}

// --- recovery ----------------------------------------------------------------

TEST(QueryIndex, IndexesAndInterningRebuildThroughSnapshotJournalRecovery) {
  auto m = test::make_circuit_manager();
  ASSERT_TRUE(m->plan_task("adder", {.anchor = m->clock().now()}).ok());

  std::string snapshot = hercules::save_to_json(*m);
  std::string path = "/tmp/herc_query_index_test_" +
                     std::to_string(::getpid()) + ".journal";
  ASSERT_TRUE(m->enable_journal(path).ok());
  ASSERT_TRUE(m->execute_task("adder", "alice").ok());
  auto read = util::read_file(path);
  ASSERT_TRUE(read.ok());
  std::string journal = std::move(read).take();
  std::remove(path.c_str());

  auto recovered = hercules::recover_from_json(snapshot, journal);
  ASSERT_TRUE(recovered.ok()) << recovered.error().str();
  WorkflowManager& r = *recovered.value();

  // Interning round-trip: the dumps (built from the original string fields)
  // are byte-identical.
  EXPECT_EQ(r.dump_database(), m->dump_database());

  // Replay went through record_run/create_instance, so the indexes are
  // rebuilt, not loaded: they agree with the original's.
  EXPECT_EQ(r.db().runs_of_activity("Create").size(),
            m->db().runs_of_activity("Create").size());
  EXPECT_EQ(r.db().runs_of_designer("alice").size(), 2u);
  EXPECT_EQ(r.db().container("performance").size(), 1u);
  EXPECT_GT(r.db().symbols().size(), 0u);

  // And both execution paths stay byte-identical on the recovered state.
  QueryEngine fast(r.db(), r.schedule_space());
  QueryEngine slow(r.db(), r.schedule_space());
  slow.set_options({.use_index = false});
  for (const char* stmt :
       {"select runs where designer = \"alice\"",
        "select runs where activity = \"Simulate\" and duration >= 0",
        "select instances where type = \"netlist\"",
        "select count from runs group by activity", "select schedule",
        "select plans", "select links"}) {
    std::string reference = bytes(slow.execute(stmt));
    EXPECT_EQ(bytes(fast.execute(stmt)), reference) << stmt;
    EXPECT_EQ(bytes(fast.execute(stmt)), reference) << stmt << " (repeat)";
  }
}

// --- byte-identical paths ----------------------------------------------------

TEST(QueryPaths, IndexAndScanAgreeByteForByte) {
  auto m = executed_circuit();
  record_failed_run(*m, "Simulate", "bob");
  ASSERT_TRUE(m->link_completion("adder", "Create").ok());  // links + linked column

  QueryEngine fast(m->db(), m->schedule_space());
  QueryEngine slow(m->db(), m->schedule_space());
  slow.set_options({.use_index = false});

  for (const char* stmt :
       {"select runs", "select runs where designer = \"alice\"",
        "select runs where activity = \"Simulate\" and status = \"failed\"",
        "select runs where status = \"completed\" order by finished desc limit 1",
        "select runs where designer = \"alice\" or designer = \"bob\"",
        "select runs where not designer = \"bob\"",
        "select avg(duration) from runs group by activity",
        "select instances where type = \"performance\"",
        "select instances where name contains \"adder\"",
        "select schedule where critical = true", "select plans",
        "select links"}) {
    std::string reference = bytes(slow.execute(stmt));
    EXPECT_EQ(bytes(fast.execute(stmt)), reference) << stmt;
    EXPECT_EQ(bytes(fast.execute(stmt)), reference) << stmt << " (repeat)";
  }

  // An equality literal that was never interned still matches nothing,
  // identically on both paths.
  EXPECT_EQ(bytes(fast.execute("select runs where designer = \"stranger\"")),
            bytes(slow.execute("select runs where designer = \"stranger\"")));
  EXPECT_EQ(bytes(fast.execute("select runs where not designer = \"stranger\"")),
            bytes(slow.execute("select runs where not designer = \"stranger\"")));
}

TEST(QueryPaths, ExplainReportsSeekAndScan) {
  auto m = executed_circuit();
  auto seek = m->explain("select runs where designer = \"alice\" and duration >= 0");
  ASSERT_TRUE(seek.ok());
  EXPECT_NE(seek.value().find("index seek runs.designer = \"alice\""),
            std::string::npos);
  EXPECT_NE(seek.value().find("residual filter on 1 condition(s)"),
            std::string::npos);

  auto scan = m->explain("select runs where duration >= 0");
  ASSERT_TRUE(scan.ok());
  EXPECT_NE(scan.value().find("full scan"), std::string::npos);

  // Explain validates without executing: bad fields fail the same way.
  EXPECT_FALSE(m->explain("select runs where nonsense = 1").ok());
}

// --- parser edge cases -------------------------------------------------------

TEST(QueryParser, UnknownColumnFailsIdenticallyOnBothPaths) {
  auto m = executed_circuit();
  QueryEngine fast(m->db(), m->schedule_space());
  QueryEngine slow(m->db(), m->schedule_space());
  slow.set_options({.use_index = false});

  for (const char* stmt :
       {"select runs where nonsense = 1", "select runs order by nonsense",
        "select avg(nonsense) from runs", "select count from runs group by bogus"}) {
    auto f = fast.execute(stmt);
    auto s = slow.execute(stmt);
    ASSERT_FALSE(f.ok()) << stmt;
    ASSERT_FALSE(s.ok()) << stmt;
    EXPECT_EQ(f.error().message, s.error().message) << stmt;
    EXPECT_NE(f.error().message.find("has no field"), std::string::npos) << stmt;
  }
}

TEST(QueryParser, EmptyGroupByIsAParseError) {
  auto q = query::parse_query("select count from runs group by");
  EXPECT_FALSE(q.ok());
  auto trailing = query::parse_query("select count from runs group by ");
  EXPECT_FALSE(trailing.ok());
  // A failed statement leaves the engine answering afterwards.
  auto m = executed_circuit();
  EXPECT_FALSE(m->query("select count from runs group by").ok());
  EXPECT_TRUE(m->query("select count from runs").ok());
}

}  // namespace
}  // namespace herc
