// Tests for the CLI session: the full paper procedure driven as command
// lines, plus argument validation of every command.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include <filesystem>

#include "cli/cli.hpp"
#include "common.hpp"
#include "srv/server.hpp"
#include "util/json.hpp"

namespace herc::cli {
namespace {

/// Runs a line that must succeed and returns its output.
std::string ok(CliSession& s, const std::string& line) {
  auto r = s.execute_line(line);
  EXPECT_TRUE(r.ok()) << line << " -> " << (r.ok() ? "" : r.error().str());
  return r.ok() ? r.value() : std::string{};
}

/// Runs a line that must fail and returns the error message.
std::string fail(CliSession& s, const std::string& line) {
  auto r = s.execute_line(line);
  EXPECT_FALSE(r.ok()) << line << " unexpectedly succeeded:\n"
                       << (r.ok() ? r.value() : "");
  return r.ok() ? std::string{} : r.error().str();
}

const std::string kInlineSchema =
    "schema circuit { data netlist, stimuli, performance; "
    "tool netlist_editor, simulator; "
    "rule Create: netlist <- netlist_editor(); "
    "rule Simulate: performance <- simulator(netlist, stimuli); }";

CliSession circuit_session() {
  CliSession s;
  ok(s, "schema " + kInlineSchema);
  ok(s, "tool ned netlist_editor 14h");
  ok(s, "tool spice simulator 6h");
  ok(s, "task adder performance");
  ok(s, "bind adder stimuli adder.stim");
  ok(s, "bind adder netlist_editor ned");
  ok(s, "bind adder simulator spice");
  ok(s, "estimate Create 2d");
  ok(s, "estimate Simulate 1d");
  return s;
}

TEST(Cli, BlankAndCommentLinesAreSilent) {
  CliSession s;
  EXPECT_EQ(ok(s, ""), "");
  EXPECT_EQ(ok(s, "   "), "");
  EXPECT_EQ(ok(s, "# a comment"), "");
}

TEST(Cli, HelpAndUnknown) {
  CliSession s;
  EXPECT_NE(ok(s, "help").find("commands:"), std::string::npos);
  EXPECT_NE(fail(s, "frobnicate"), "");
}

TEST(Cli, CommandsNeedAProject) {
  CliSession s;
  for (const char* line : {"show db", "tool a b 4h", "task t out", "plan t",
                           "status t", "query select runs", "browse", "now"})
    EXPECT_NE(fail(s, line).find("no project"), std::string::npos) << line;
}

TEST(Cli, InlineSchemaCreatesProject) {
  CliSession s;
  auto out = ok(s, "schema " + kInlineSchema);
  EXPECT_NE(out.find("circuit"), std::string::npos);
  EXPECT_NE(ok(s, "show schema").find("Simulate"), std::string::npos);
  EXPECT_TRUE(s.manager() != nullptr);
}

TEST(Cli, SchemaFromFileWithEpoch) {
  const char* path = "/tmp/herc_cli_schema.hsc";
  std::ofstream(path) << kInlineSchema;
  CliSession s;
  auto out = ok(s, std::string("new ") + path + " epoch 1995-06-12");
  EXPECT_NE(out.find("circuit"), std::string::npos);
  EXPECT_EQ(s.manager()->calendar().config().epoch, cal::Date(1995, 6, 12));
  fail(s, "new /no/such/file.hsc");
  fail(s, std::string("new ") + path + " epoch not-a-date");
  std::remove(path);
}

TEST(Cli, FullPaperProcedure) {
  CliSession s = circuit_session();
  auto plan_out = ok(s, "plan adder");
  EXPECT_NE(plan_out.find("Gantt"), std::string::npos);

  auto exec_out = ok(s, "execute adder alice");
  EXPECT_NE(exec_out.find("execution complete"), std::string::npos);
  EXPECT_NE(exec_out.find("[Create]"), std::string::npos);

  ok(s, "run adder Simulate bob");
  ok(s, "link adder Create");
  ok(s, "link adder Simulate");

  auto status = ok(s, "status adder");
  EXPECT_NE(status.find("2 complete"), std::string::npos);

  auto query = ok(s, "query select runs where designer = \"bob\"");
  EXPECT_NE(query.find("(1 row)"), std::string::npos);

  auto dump = ok(s, "show db");
  EXPECT_NE(dump.find("linked to"), std::string::npos);
}

TEST(Cli, TaskShowAndStops) {
  CliSession s = circuit_session();
  auto tree = ok(s, "show task adder");
  EXPECT_NE(tree.find("[Simulate] -> performance"), std::string::npos);
  ok(s, "task simonly performance stop netlist");
  auto tree2 = ok(s, "show task simonly");
  EXPECT_EQ(tree2.find("[Create]"), std::string::npos);
  fail(s, "show task nope");
  fail(s, "show bogus");
}

TEST(Cli, ToolOptionsAndValidation) {
  CliSession s;
  ok(s, "schema " + kInlineSchema);
  ok(s, "tool flaky simulator 2h noise 0.2 fail 0.1");
  fail(s, "tool missingargs simulator");
  fail(s, "tool bad simulator 2h noise abc");
  fail(s, "tool bad2 simulator notaduration");
  fail(s, "tool flaky simulator 2h");  // duplicate
}

TEST(Cli, ResourceCommand) {
  CliSession s;
  ok(s, "schema " + kInlineSchema);
  EXPECT_NE(ok(s, "resource alice").find("added"), std::string::npos);
  ok(s, "resource farm machine 4");
  fail(s, "resource farm machine notanumber");
  fail(s, "resource");
}

TEST(Cli, VacationCommand) {
  CliSession s = circuit_session();
  ok(s, "resource alice");
  auto out = ok(s, "vacation alice 1970-01-05 3");
  EXPECT_NE(out.find("alice off"), std::string::npos);
  fail(s, "vacation nobody 1970-01-05 3");
  fail(s, "vacation alice notadate 3");
  fail(s, "vacation alice 1970-01-05 zero");
  fail(s, "vacation alice 1970-01-05 0");
  fail(s, "vacation alice");
}

TEST(Cli, EstimateValidation) {
  CliSession s;
  ok(s, "schema " + kInlineSchema);
  ok(s, "estimate fallback 4h");
  ok(s, "estimate Create 1d 4h");
  fail(s, "estimate NoSuchActivity 2h");
  fail(s, "estimate Create xyz");
  fail(s, "estimate Create");
}

TEST(Cli, PlanWithDeadline) {
  CliSession s = circuit_session();
  ok(s, "plan adder deadline 2d");
  auto status = ok(s, "status adder");
  EXPECT_NE(status.find("deadline:"), std::string::npos);
  // 2d deadline vs 3d projection: miss is flagged.
  EXPECT_NE(status.find("MISSING BY"), std::string::npos);
  fail(s, "plan adder deadline notaduration");
}

TEST(Cli, PlanOptionsAndReplan) {
  CliSession s = circuit_session();
  ok(s, "plan adder strategy intuition");
  ok(s, "replan adder strategy mean");
  auto lineage = ok(s, "lineage adder");
  EXPECT_NE(lineage.find("superseded"), std::string::npos);
  fail(s, "plan adder strategy nope");
  fail(s, "plan adder bogus");
  fail(s, "replan neverplanned");
}

TEST(Cli, ClockCommands) {
  CliSession s = circuit_session();
  auto before = ok(s, "now");
  ok(s, "advance 1d 2h");
  auto after = ok(s, "now");
  EXPECT_NE(before, after);
  fail(s, "advance xyz");
  // Past 9999-12-31 the clock cannot go; the refusal leaves it unchanged.
  fail(s, "advance 4611686018427387904m");
  EXPECT_EQ(ok(s, "now"), after);
}

TEST(Cli, WhatIfDelayAndCrash) {
  CliSession s = circuit_session();
  ok(s, "plan adder");
  auto delay = ok(s, "whatif delay adder Create 1d");
  EXPECT_NE(delay.find("completion moves"), std::string::npos);
  auto crash = ok(s, "whatif crash adder 2d");
  EXPECT_NE(crash.find("shorten"), std::string::npos);
  fail(s, "whatif delay adder NoSuch 1d");
  fail(s, "whatif");
  fail(s, "whatif delay neverplanned Create 1d");
}

TEST(Cli, BrowserWorkflow) {
  CliSession s = circuit_session();
  ok(s, "plan adder");
  auto listing = ok(s, "browse");
  EXPECT_NE(listing.find("SC1"), std::string::npos);
  fail(s, "display");  // nothing selected
  ok(s, "select 1");
  EXPECT_NE(ok(s, "display").find("Schedule instance"), std::string::npos);
  ok(s, "delete");
  fail(s, "select 1");  // deleted
  fail(s, "select notanumber");
}

TEST(Cli, SvgCommand) {
  CliSession s = circuit_session();
  ok(s, "plan adder");
  auto svg = ok(s, "svg adder");
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  fail(s, "svg neverplanned");
}

TEST(Cli, ReportRiskAndUtilizationCommands) {
  CliSession s = circuit_session();
  ok(s, "resource alice");
  ok(s, "plan adder");
  auto report = ok(s, "report adder");
  EXPECT_EQ(report.rfind("<!DOCTYPE html>", 0), 0u);
  auto risk = ok(s, "risk adder");
  EXPECT_NE(risk.find("P90"), std::string::npos);
  auto util_out = ok(s, "utilization adder");
  EXPECT_NE(util_out.find("alice"), std::string::npos);
  fail(s, "report neverplanned");
  fail(s, "risk neverplanned");
  fail(s, "utilization neverplanned");
}

TEST(Cli, RiskCommandAcceptsSamplesSeedThreads) {
  CliSession s = circuit_session();
  ok(s, "plan adder");
  auto out = ok(s, "risk adder 50 7 2");
  EXPECT_NE(out.find("50 samples"), std::string::npos);
  // Thread count must not change the report (determinism is user-visible).
  EXPECT_EQ(ok(s, "risk adder 50 7 4"), out);
  EXPECT_EQ(ok(s, "risk adder 50 7"), out);
  fail(s, "risk adder fifty");
  fail(s, "risk adder 50 7 2 9");  // too many arguments
  EXPECT_NE(ok(s, "help").find("risk <task> [samples] [seed] [threads]"),
            std::string::npos);
}

TEST(Cli, ShowSchemaIncludesLintWarnings) {
  CliSession s;
  ok(s, "schema schema smelly { data a, orphan; tool t; rule A: a <- t(); }");
  auto out = ok(s, "show schema");
  EXPECT_NE(out.find("warning:"), std::string::npos);
  EXPECT_NE(out.find("orphan"), std::string::npos);
}

TEST(Cli, DiffCommand) {
  CliSession s = circuit_session();
  ok(s, "plan adder");
  fail(s, "diff adder");  // single generation: nothing to diff
  ok(s, "estimate Simulate 2d");
  ok(s, "replan adder");
  auto out = ok(s, "diff adder");
  EXPECT_NE(out.find("Simulate"), std::string::npos);
  EXPECT_NE(out.find("+1d"), std::string::npos);  // 1d -> 2d estimate
  fail(s, "diff neverplanned");
}

TEST(Cli, DispatchCommand) {
  CliSession s = circuit_session();
  ok(s, "plan adder");
  auto out = ok(s, "dispatch adder team");
  EXPECT_NE(out.find("dispatch complete"), std::string::npos);
  EXPECT_NE(out.find("[Create]"), std::string::npos);
  EXPECT_NE(out.find("[Simulate]"), std::string::npos);
  fail(s, "dispatch adder");       // missing designer
  fail(s, "dispatch nosuch team");
}

TEST(Cli, PortfolioCommand) {
  CliSession s = circuit_session();
  ok(s, "plan adder");
  ok(s, "task simonly performance stop netlist");
  ok(s, "plan simonly");
  auto g = ok(s, "portfolio adder simonly");
  EXPECT_NE(g.find("Portfolio Gantt"), std::string::npos);
  EXPECT_NE(g.find("-- plan 'adder'"), std::string::npos);
  EXPECT_NE(g.find("-- plan 'simonly'"), std::string::npos);
  fail(s, "portfolio");
  fail(s, "portfolio neverplanned");
}

TEST(Cli, RefreshStaleAndDragCommands) {
  CliSession s = circuit_session();
  ok(s, "plan adder");
  // First refresh builds everything.
  auto first = ok(s, "refresh adder alice");
  EXPECT_NE(first.find("[Create]"), std::string::npos);
  EXPECT_NE(first.find("[Simulate]"), std::string::npos);
  // Nothing stale now.
  EXPECT_NE(ok(s, "stale").find("no stale design data"), std::string::npos);
  EXPECT_NE(ok(s, "refresh adder alice").find("up to date"), std::string::npos);
  // Re-create the netlist: Simulate's output becomes stale.
  ok(s, "run adder Create alice");
  EXPECT_NE(ok(s, "stale").find("performance"), std::string::npos);
  auto second = ok(s, "refresh adder alice");
  EXPECT_NE(second.find("[Simulate]"), std::string::npos);
  EXPECT_EQ(second.find("[Create]"), std::string::npos);  // Create was fresh
  // Drag table renders for the plan.
  auto drag = ok(s, "drag adder");
  EXPECT_NE(drag.find("Create"), std::string::npos);
  fail(s, "drag neverplanned");
  fail(s, "refresh adder");  // missing designer
}

TEST(Cli, SaveAndOpenRoundTrip) {
  const char* path = "/tmp/herc_cli_db.json";
  {
    CliSession s = circuit_session();
    ok(s, "plan adder");
    ok(s, "execute adder alice");
    ok(s, "link adder Create");
    ok(s, std::string("save ") + path);
  }
  CliSession s2;
  auto out = ok(s2, std::string("open ") + path);
  EXPECT_NE(out.find("loaded"), std::string::npos);
  // The reloaded project answers status queries.
  EXPECT_NE(ok(s2, "status adder").find("Create"), std::string::npos);
  fail(s2, "open /no/such/file.json");
  std::remove(path);
}

TEST(Cli, RetryAndOnfailConfigureExecution) {
  CliSession s = circuit_session();
  // A retry policy under the default abort policy earns a hint.
  auto out = ok(s, "retry 3 backoff 30m");
  EXPECT_NE(out.find("3 attempt(s)"), std::string::npos);
  EXPECT_NE(out.find("onfail"), std::string::npos);
  ok(s, "onfail retry");
  EXPECT_EQ(s.manager()->exec_options().on_failure,
            exec::FailurePolicy::kRetryThenAbort);
  EXPECT_EQ(s.manager()->exec_options().retry.max_attempts, 3);
  EXPECT_EQ(s.manager()->exec_options().retry.backoff.count_minutes(), 30);
  ok(s, "retry 2 timeout 4h tool spice");
  EXPECT_EQ(s.manager()->exec_options().tool_retry.at("spice").timeout.count_minutes(),
            4 * 60);
  ok(s, "onfail continue");
  ok(s, "onfail abort");
  fail(s, "retry");
  fail(s, "retry zero");
  fail(s, "retry 0");
  fail(s, "retry 2 backoff notaduration");
  fail(s, "retry 2 bogus 1h");
  fail(s, "onfail sometimes");
  fail(s, "onfail");
}

TEST(Cli, FaultsCommandComposesAndShows) {
  CliSession s = circuit_session();
  ok(s, "faults seed 42");
  ok(s, "faults tool spice fail 0.5 latency 2.0 failon 1 3 crashon 9");
  ok(s, "faults crashafter 12");
  auto shown = ok(s, "faults show");
  EXPECT_NE(shown.find("seed 42"), std::string::npos);
  EXPECT_NE(shown.find("spice"), std::string::npos);
  EXPECT_NE(shown.find("failon 1 3"), std::string::npos);
  EXPECT_NE(shown.find("crash after 12"), std::string::npos);
  ASSERT_NE(s.manager()->fault_injector(), nullptr);
  EXPECT_EQ(s.manager()->fault_injector()->seed(), 42u);
  EXPECT_EQ(s.manager()->fault_injector()->plan().tools.at("spice").fail_prob, 0.5);
  ok(s, "faults off");
  EXPECT_EQ(s.manager()->fault_injector(), nullptr);
  EXPECT_NE(ok(s, "faults show").find("off"), std::string::npos);
  fail(s, "faults");
  fail(s, "faults seed notanumber");
  fail(s, "faults tool spice failon");
  fail(s, "faults tool spice bogus 1");
  fail(s, "faults bogus");
}

TEST(Cli, InjectedFailuresDriveRetriesEndToEnd) {
  CliSession s = circuit_session();
  ok(s, "faults tool spice failon 1");
  ok(s, "onfail retry");
  ok(s, "retry 2");
  auto out = ok(s, "execute adder alice");
  EXPECT_NE(out.find("execution complete"), std::string::npos);
  EXPECT_EQ(s.manager()->db().run_count(), 3u);  // Create + failed + retried
}

TEST(Cli, DegradedExecutionReportsSkippedActivities) {
  CliSession s = circuit_session();
  ok(s, "faults tool ned failon 1");
  ok(s, "onfail continue");
  auto out = ok(s, "execute adder alice");
  EXPECT_NE(out.find("DEGRADED"), std::string::npos);
  EXPECT_NE(out.find("Simulate"), std::string::npos);
}

TEST(Cli, InjectedCrashSurfacesAsSimulatedCrashError) {
  CliSession s = circuit_session();
  ok(s, "faults crashafter 1");
  auto err = fail(s, "execute adder alice");
  EXPECT_NE(err.find("simulated crash"), std::string::npos);
  EXPECT_NE(err.find("injected crash"), std::string::npos);
}

TEST(Cli, JournalAndRecoverRebuildAfterCrash) {
  const char* snap = "/tmp/herc_cli_snap.json";
  const char* wal = "/tmp/herc_cli_run.wal";
  {
    CliSession s = circuit_session();
    ok(s, std::string("journal on ") + wal);
    ok(s, std::string("save ") + snap);
    ok(s, "faults crashafter 3");  // Create, Simulate OK; next run crashes
    ok(s, "execute adder alice");
    fail(s, "run adder Simulate bob");  // the simulated process death
  }
  CliSession s2;
  auto out = ok(s2, std::string("recover ") + snap + " " + wal);
  EXPECT_NE(out.find("2 runs"), std::string::npos);
  EXPECT_NE(ok(s2, "show db"), "");
  // Journal misuse errors.
  CliSession s3 = circuit_session();
  fail(s3, "journal off");  // not on
  fail(s3, "journal");
  fail(s3, "journal on");
  ok(s3, std::string("journal on ") + wal);
  ok(s3, "journal off");
  fail(s3, "recover /no/such/snap.json /no/such/run.wal");
  fail(s3, "recover " + std::string(snap));
  std::remove(snap);
  std::remove(wal);
}

TEST(Cli, QuitSetsFlag) {
  CliSession s;
  EXPECT_FALSE(s.quit_requested());
  ok(s, "quit");
  EXPECT_TRUE(s.quit_requested());
}

TEST(Cli, AdoptExistingManager) {
  CliSession s;
  s.adopt(test::make_circuit_manager());
  EXPECT_NE(ok(s, "show schema").find("circuit"), std::string::npos);
}

TEST(Cli, TraceCapturesSessionToAParseableFile) {
  const char* path = "/tmp/herc_cli_trace.json";
  CliSession s = circuit_session();
  ok(s, std::string("trace on ") + path);
  fail(s, std::string("trace on ") + path);  // already tracing
  ok(s, "plan adder");
  ok(s, "execute adder alice");
  auto off = ok(s, "trace off");
  EXPECT_NE(off.find(path), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = util::Json::parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.error().str();
  const auto& events = parsed.value().as_object().at("traceEvents").as_array();
  EXPECT_GT(events.size(), 0u);
  std::remove(path);

  fail(s, "trace off");      // no longer tracing
  fail(s, "trace");          // usage
  fail(s, "trace on");       // missing file
}

TEST(Cli, FailedTraceWriteDoesNotLeaveSessionStuck) {
  CliSession s = circuit_session();
  ok(s, "trace on /no/such/dir/herc.json");
  auto err = fail(s, "trace off");
  EXPECT_NE(err.find("discarded"), std::string::npos);
  // The failed write ended the capture: a new trace can start.
  ok(s, "trace on /tmp/herc_cli_trace2.json");
  ok(s, "trace off");
  std::remove("/tmp/herc_cli_trace2.json");
}

TEST(Cli, TraceOnNeedsAProject) {
  CliSession s;
  EXPECT_NE(fail(s, "trace on /tmp/x.json").find("no project"), std::string::npos);
}

TEST(Cli, StatsCountsPlansAndRuns) {
  CliSession s = circuit_session();
  ok(s, "plan adder");
  ok(s, "execute adder alice");

  auto text = ok(s, "stats");
  EXPECT_NE(text.find("plans_computed"), std::string::npos);
  EXPECT_NE(text.find("runs_executed"), std::string::npos);
  EXPECT_NE(text.find("snapshots:"), std::string::npos);

  auto parsed = util::Json::parse(ok(s, "stats json"));
  ASSERT_TRUE(parsed.ok()) << parsed.error().str();
  const auto& counters = parsed.value().as_object().at("counters").as_object();
  EXPECT_GE(counters.at("plans_computed").as_int(), 1);
  EXPECT_GE(counters.at("runs_executed").as_int(), 2);
  const auto& snapshots =
      parsed.value().as_object().at("snapshots").as_object();
  EXPECT_GE(snapshots.at("epoch").as_int(), 0);
  EXPECT_GE(snapshots.at("live").as_int(), 0);
  EXPECT_EQ(snapshots.at("retired_unreclaimed").as_int(), 0);

  fail(s, "stats verbose");  // usage
}

TEST(Cli, ExplainShowsAccessPath) {
  CliSession s = circuit_session();
  ok(s, "plan adder");
  ok(s, "execute adder alice");

  // Indexed equality seeks.
  auto seek = ok(s, "explain select runs where designer = \"alice\"");
  EXPECT_NE(seek.find("index seek runs.designer = \"alice\""), std::string::npos);

  // Non-equality predicates cannot use an index.
  auto scan = ok(s, "explain select runs where duration >= 0");
  EXPECT_NE(scan.find("full scan"), std::string::npos);

  EXPECT_NE(fail(s, "explain"), "");                // missing statement
  EXPECT_NE(fail(s, "explain select runs where nonsense = 1"), "");  // bad field
}

TEST(Cli, ExplainNeedsAProject) {
  CliSession s;
  EXPECT_NE(fail(s, "explain select runs").find("no project"), std::string::npos);
}

TEST(Cli, StatsCountsQueryFastPath) {
  CliSession s = circuit_session();
  ok(s, "plan adder");
  ok(s, "execute adder alice");
  ok(s, "query select runs where designer = \"alice\"");
  ok(s, "query select runs where designer = \"alice\"");

  auto parsed = util::Json::parse(ok(s, "stats json"));
  ASSERT_TRUE(parsed.ok()) << parsed.error().str();
  const auto& counters = parsed.value().as_object().at("counters").as_object();
  EXPECT_GE(counters.at("queries_executed").as_int(), 2);
  EXPECT_GE(counters.at("index_seeks").as_int(), 1);
  EXPECT_GE(counters.at("rows_scanned").as_int(), 1);
}

TEST(Cli, StatsFollowsTheProjectAcrossAdopt) {
  CliSession s = circuit_session();
  ok(s, "plan adder");
  // A new project resets nothing, but events keep flowing from the new bus.
  s.adopt(test::make_circuit_manager());
  ok(s, "plan adder");
  auto parsed = util::Json::parse(ok(s, "stats json"));
  ASSERT_TRUE(parsed.ok());
  EXPECT_GE(parsed.value().as_object().at("counters").as_object()
                .at("plans_computed").as_int(), 2);
}

TEST(Cli, RemoteCommandsDriveAServer) {
  namespace fs = std::filesystem;
  const fs::path tmp =
      fs::temp_directory_path() /
      ("herc_cli_remote." + std::to_string(::getpid()));
  fs::create_directories(tmp);
  srv::ServerConfig config;
  config.unix_path = (tmp / "srv.sock").string();
  config.shard.dir = tmp.string();
  config.workers = 2;
  auto server = srv::Server::start(config);
  ASSERT_TRUE(server.ok()) << server.error().str();

  CliSession s;
  EXPECT_NE(fail(s, "remote ping").find("not connected"), std::string::npos);
  ok(s, "remote connect " + server.value()->unix_address());
  EXPECT_NE(ok(s, "remote ping").find("pong"), std::string::npos);

  // Open a generated project, drive it, and read it back — the CLI is a
  // full wire client here; the project lives server-side.
  ok(s, "remote open demo seed=7 shape=layered size=2");
  EXPECT_NE(fail(s, "remote open demo seed=7").find("already open"),
            std::string::npos);
  ok(s, "remote demo plan");
  auto executed = ok(s, "remote demo execute designer=alice");
  EXPECT_NE(executed.find("runs"), std::string::npos);
  EXPECT_NE(ok(s, "remote demo status").find("job"), std::string::npos);
  EXPECT_NE(ok(s, "remote demo query select runs where designer = \"alice\"")
                .find("alice"),
            std::string::npos);
  EXPECT_NE(ok(s, "remote projects").find("demo"), std::string::npos);

  auto stats = util::Json::parse(ok(s, "remote stats"));
  ASSERT_TRUE(stats.ok()) << stats.error().str();
  EXPECT_GE(stats.value().as_object().at("totals").as_object()
                .at("shards").as_int(), 1);

  EXPECT_NE(fail(s, "remote demo bogus_op"), "");
  EXPECT_NE(fail(s, "remote demo execute not-a-pair"), "");
  ok(s, "remote close demo");
  ok(s, "remote disconnect");
  EXPECT_NE(fail(s, "remote ping").find("not connected"), std::string::npos);

  // A local project coexists with (and survives) the remote session.
  s.adopt(test::make_circuit_manager());
  ok(s, "plan adder");

  server.value()->stop();
  fs::remove_all(tmp);
}

}  // namespace
}  // namespace herc::cli
