#include "gen/fuzz.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/cpm_solver.hpp"
#include "core/risk.hpp"
#include "gen/conformance.hpp"
#include "hercules/journal.hpp"
#include "hercules/persist.hpp"
#include "query/query.hpp"
#include "schema/schema.hpp"
#include "util/fsio.hpp"

namespace herc::gen {

namespace {

using hercules::WorkflowManager;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Unique scratch path for a journal file; parallel test processes are
/// disambiguated by pid, in-process callers by an atomic counter.
std::string scratch_journal_path(const std::string& dir) {
  static std::atomic<std::uint64_t> counter{0};
  return dir + "/herc_fuzz_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".journal";
}

struct Failures {
  std::vector<OracleFailure>* out;
  void add(unsigned family, std::string check, std::string detail) {
    out->push_back({family, std::move(check), std::move(detail)});
  }
};

bool has_crash_faults(const exec::FaultPlan& plan) {
  if (plan.crash_after_total > 0) return true;
  for (const auto& [name, f] : plan.tools)
    if (!f.crash_on.empty()) return true;
  return false;
}

// --- cpm oracle --------------------------------------------------------------

bool same_cpm(const sched::CpmResult& a, const sched::CpmResult& b) {
  return a.early_start == b.early_start && a.early_finish == b.early_finish &&
         a.late_start == b.late_start && a.late_finish == b.late_finish &&
         a.total_slack == b.total_slack && a.free_slack == b.free_slack &&
         a.critical == b.critical && a.makespan == b.makespan;
}

/// A critical path must be a connected chain of critical activities ending
/// at the makespan; the reference cannot predict which of several longest
/// paths the solver reports, so the path is checked structurally.
bool valid_critical_path(const std::vector<sched::CpmActivity>& net,
                         const sched::CpmResult& r) {
  if (net.empty()) return r.critical_path.empty();
  if (r.critical_path.empty()) return r.makespan == 0;
  for (std::size_t i = 0; i < r.critical_path.size(); ++i) {
    std::size_t a = r.critical_path[i];
    if (a >= net.size() || !r.critical[a]) return false;
    if (i == 0) continue;
    std::size_t prev = r.critical_path[i - 1];
    const auto& preds = net[a].preds;
    if (std::find(preds.begin(), preds.end(), prev) == preds.end()) return false;
  }
  return r.early_finish[r.critical_path.back()] == r.makespan;
}

void check_cpm(const Scenario& scenario, Mutation mutation, Failures& fail) {
  auto net = cpm_network(scenario);
  // The planted bug: the network handed to the system under test is off by
  // one minute on its first activity; the reference sees the true network.
  auto buggy = net;
  if (mutation == Mutation::kCpmOffByOne && !buggy.empty()) buggy[0].duration += 1;

  auto full = sched::compute_cpm(buggy);
  auto ref = reference_cpm(net);
  if (!full.ok() || !ref.ok()) {
    if (full.ok() != ref.ok())
      fail.add(kOracleCpm, "cpm.validity",
               "compute_cpm and reference disagree on network validity");
    return;
  }
  if (!same_cpm(full.value(), ref.value()))
    fail.add(kOracleCpm, "cpm.reference",
             "compute_cpm disagrees with naive fixpoint reference");
  if (!valid_critical_path(buggy, full.value()))
    fail.add(kOracleCpm, "cpm.path", "reported critical path is not a valid chain");

  // Incremental: compile once, perturb every duration and restore it, then
  // re-solve; the final incremental solution must match the one-shot solve.
  auto compiled = sched::CpmSolver::compile(buggy);
  if (!compiled.ok()) {
    fail.add(kOracleCpm, "cpm.compile", compiled.error().message);
    return;
  }
  sched::CpmSolver solver = std::move(compiled).take();
  sched::CpmResult incremental;
  solver.solve(incremental);
  for (std::size_t i = 0; i < buggy.size(); ++i) {
    solver.set_duration(i, buggy[i].duration + 17);
    (void)solver.solve_makespan();
    solver.set_duration(i, buggy[i].duration);
  }
  solver.solve(incremental);
  if (!same_cpm(incremental, full.value()) ||
      incremental.critical_path != full.value().critical_path)
    fail.add(kOracleCpm, "cpm.incremental",
             "incrementally re-solved CpmSolver diverged from compute_cpm");

  // Batched leg: identical durations in every lane must reproduce the
  // serial makespan and criticality per lane.
  if (const std::size_t n = buggy.size(); n > 0) {
    constexpr std::size_t kLanes = 3;
    std::vector<std::int64_t> durs(n * kLanes);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t l = 0; l < kLanes; ++l)
        durs[i * kLanes + l] = buggy[i].duration;
    std::vector<std::int64_t> makespans(kLanes);
    std::vector<std::uint8_t> crit(n * kLanes);
    solver.solve_batch(durs.data(), kLanes, makespans.data(), crit.data());
    bool ok = true;
    for (std::size_t l = 0; l < kLanes; ++l) {
      ok = ok && makespans[l] == full.value().makespan;
      for (std::size_t i = 0; i < n; ++i)
        ok = ok && crit[i * kLanes + l] == full.value().critical[i];
    }
    if (!ok)
      fail.add(kOracleCpm, "cpm.batch",
               "batched lanes diverged from the serial solver");
  }
}

// --- mirror oracle -----------------------------------------------------------

/// First completed run of each activity, in completion-record order.
std::vector<const meta::Run*> completed_in_order(const WorkflowManager& m) {
  std::vector<const meta::Run*> done;
  std::unordered_set<std::string> seen;
  for (const auto& run : m.db().runs())
    if (run.status == meta::RunStatus::kCompleted && seen.insert(run.activity).second)
      done.push_back(&run);
  return done;
}

void check_mirror(const Scenario& scenario, WorkflowManager& m,
                  sched::ScheduleRunId plan_id, Mutation mutation, Failures& fail) {
  const auto& space = m.schedule_space();
  const auto& plan = space.plan(plan_id);
  std::vector<std::string> planned;
  std::unordered_map<std::string, schema::RuleId> planned_rule;
  for (auto nid : plan.nodes) {
    planned.push_back(space.node(nid).activity);
    planned_rule[space.node(nid).activity] = space.node(nid).rule;
  }

  bool crashed = false, success = false;
  try {
    util::Result<exec::ExecutionResult> result =
        scenario.mode == ExecMode::kConcurrent ? m.execute_task_concurrent("job", "fuzz")
                                               : m.execute_task("job", "fuzz");
    if (!result.ok()) {
      fail.add(kOracleMirror, "mirror.execute", result.error().message);
      return;
    }
    success = result.value().success;
  } catch (const exec::InjectedCrash&) {
    crashed = true;  // state up to the crash is still checkable
  }

  auto done = completed_in_order(m);
  if (mutation == Mutation::kMirrorDropRun && !done.empty()) done.pop_back();

  // Every completed activity was planned, with the same construction rule —
  // the node-for-node isomorphism between the two Level-3 spaces.
  for (const auto* run : done) {
    auto it = planned_rule.find(run->activity);
    if (it == planned_rule.end()) {
      fail.add(kOracleMirror, "mirror.unplanned",
               "executed activity '" + run->activity + "' has no schedule node");
      return;
    }
    if (it->second != run->rule)
      fail.add(kOracleMirror, "mirror.rule",
               "rule mismatch between plan and run for '" + run->activity + "'");
  }

  if (scenario.mode == ExecMode::kSerial) {
    // Completion order must be an order-preserving subsequence of the plan
    // (a strict prefix under abort policies; kContinueIndependent may skip).
    std::size_t pi = 0;
    for (const auto* run : done) {
      while (pi < planned.size() && planned[pi] != run->activity) ++pi;
      if (pi == planned.size()) {
        fail.add(kOracleMirror, "mirror.order",
                 "completion order is not a subsequence of the planned order");
        break;
      }
      ++pi;
    }
  }

  // Dependency edges are temporal facts: a completed successor can only
  // start after its completed predecessor finished.
  std::unordered_map<std::string, const meta::Run*> first_run;
  for (const auto* run : done) first_run[run->activity] = run;
  for (const auto& dep : plan.deps) {
    auto from = first_run.find(space.node(dep.from).activity);
    auto to = first_run.find(space.node(dep.to).activity);
    if (from == first_run.end() || to == first_run.end()) continue;
    if (to->second->started_at < from->second->finished_at)
      fail.add(kOracleMirror, "mirror.deps",
               "'" + to->second->activity + "' started before its predecessor '" +
                   from->second->activity + "' finished");
  }

  if (!crashed && success) {
    if (done.size() != planned.size())
      fail.add(kOracleMirror, "mirror.complete",
               "successful execution completed " + std::to_string(done.size()) +
                   " of " + std::to_string(planned.size()) + " planned activities");
    // Link the target's completion and confirm the tracker mirrors it back
    // into schedule space.
    if (!planned.empty() && done.size() == planned.size()) {
      const std::string& last = planned.back();
      auto st = m.link_completion("job", last);
      if (!st.ok()) {
        fail.add(kOracleMirror, "mirror.link", st.error().message);
      } else {
        auto node = space.node_in_plan(plan_id, last);
        if (!node || !space.node(*node).completed)
          fail.add(kOracleMirror, "mirror.track",
                   "linked activity '" + last + "' not marked completed in plan");
      }
      if (!m.query("select runs").ok())
        fail.add(kOracleMirror, "mirror.query", "'select runs' failed after execution");
    }
  }
}

// --- recovery oracle ---------------------------------------------------------

std::string join_lines(const std::vector<std::string_view>& lines, std::size_t begin,
                       std::size_t end) {
  std::string text;
  for (std::size_t i = begin; i < end && i < lines.size(); ++i) {
    text.append(lines[i]);
    text.push_back('\n');
  }
  return text;
}

/// Executes the scenario on a journaled manager (no plan: the journal does
/// not capture schedule space) and returns false if setup failed.
bool journaled_execute(const Scenario& scenario, WorkflowManager& m, bool* crashed) {
  *crashed = false;
  try {
    util::Result<exec::ExecutionResult> result =
        scenario.mode == ExecMode::kConcurrent ? m.execute_task_concurrent("job", "fuzz")
                                               : m.execute_task("job", "fuzz");
    return result.ok();
  } catch (const exec::InjectedCrash&) {
    *crashed = true;
    return true;
  }
}

/// What a crash mid-append can leave of `framed` at the journal's end: the
/// line cut inside its magic, its length, its checksum and its payload.
std::vector<std::string> torn_frames(std::string_view framed) {
  if (framed.empty()) return {};
  const std::size_t crc_at = framed.find(' ', 3) + 1;
  return {std::string(framed.substr(0, 2)), std::string(framed.substr(0, 4)),
          std::string(framed.substr(0, crc_at + 4)),
          std::string(framed.substr(0, framed.size() - 1))};
}

void check_recovery(const Scenario& scenario, Mutation mutation,
                    const std::string& scratch_dir, Failures& fail) {
  auto made = make_manager(scenario);
  if (!made.ok()) {
    fail.add(kOracleRecovery, "recovery.setup", made.error().message);
    return;
  }
  std::unique_ptr<WorkflowManager> m = std::move(made).take();
  std::string path = scratch_journal_path(scratch_dir);
  std::string snapshot = hercules::save_to_json(*m);
  if (!m->enable_journal(path).ok()) {
    fail.add(kOracleRecovery, "recovery.journal", "cannot open scratch journal");
    return;
  }

  bool crashed = false;
  if (!journaled_execute(scenario, *m, &crashed)) {
    fail.add(kOracleRecovery, "recovery.execute", "execution errored structurally");
    std::remove(path.c_str());
    return;
  }
  std::string journal;
  if (auto read = util::read_file(path); read.ok()) journal = std::move(read).take();
  std::remove(path.c_str());

  auto lines = hercules::journal_lines(journal);
  if (mutation == Mutation::kRecoveryDropLine && !lines.empty()) {
    journal = join_lines(lines, 0, lines.size() - 1);
    lines = hercules::journal_lines(journal);
  }

  auto recover_save = [&](std::string_view snap,
                          std::string_view log) -> std::optional<std::string> {
    auto rec = hercules::recover_from_json(snap, log);
    if (!rec.ok()) {
      fail.add(kOracleRecovery, "recovery.replay", rec.error().message);
      return std::nullopt;
    }
    return hercules::save_to_json(*rec.value());
  };

  if (crashed || has_crash_faults(scenario.faults)) {
    // The in-memory post-crash state includes un-journaled imports, so the
    // only ground truth is the journal itself: recovery must succeed and
    // contain exactly the journaled runs.
    auto rec = hercules::recover_from_json(snapshot, journal);
    if (!rec.ok()) {
      fail.add(kOracleRecovery, "recovery.crash_replay", rec.error().message);
      return;
    }
    if (rec.value()->db().run_count() != lines.size())
      fail.add(kOracleRecovery, "recovery.crash_runs",
               "recovered run count != journal line count");
    return;
  }

  // (c1) Uninterrupted: snapshot + full journal == the final save, bytes.
  std::string final_save = hercules::save_to_json(*m);
  auto recovered = recover_save(snapshot, journal);
  if (!recovered) return;
  if (*recovered != final_save) {
    fail.add(kOracleRecovery, "recovery.identity",
             "snapshot+journal replay differs from uninterrupted save");
    return;
  }

  // (c2) Composition across crash points: recovering a prefix, snapshotting,
  // then replaying the remainder lands on the same final state; the next
  // line torn after the prefix changes nothing.
  for (std::size_t p : {std::size_t{0}, lines.size() / 2, lines.size()}) {
    std::string prefix = join_lines(lines, 0, p);
    auto at_p = recover_save(snapshot, prefix);
    if (!at_p) return;
    const std::string_view next =
        p < lines.size() ? lines[p] : lines.empty() ? std::string_view{} : lines.back();
    for (const std::string& tail : torn_frames(next)) {
      auto torn = recover_save(snapshot, prefix + tail);
      if (!torn) return;
      if (*torn != *at_p) {
        fail.add(kOracleRecovery, "recovery.torn",
                 "torn trailing line changed the recovered state");
        return;
      }
    }
    auto resumed = recover_save(*at_p, join_lines(lines, p, lines.size()));
    if (!resumed) return;
    if (*resumed != final_save) {
      fail.add(kOracleRecovery, "recovery.compose",
               "prefix recovery at line " + std::to_string(p) +
                   " does not compose to the final state");
      return;
    }
  }

  // (c3) A real injected crash: same scenario with crash_after_total = k.
  // The run sequence up to the crash is identical (fault decisions are pure
  // hashes), so the crashed journal must be a byte-prefix of the full one.
  std::uint64_t total = m->tools().total_invocations();
  if (total == 0) return;
  util::Rng pick(scenario.spec.seed ^ 0xC4A5C4A5ull);
  std::uint64_t k = static_cast<std::uint64_t>(
      pick.uniform_int(1, static_cast<std::int64_t>(total)));

  auto crash_scenario = scenario;
  crash_scenario.fault_seed = scenario.fault_seed ? scenario.fault_seed : 1;
  crash_scenario.faults.crash_after_total = k;
  auto made3 = make_manager(crash_scenario);
  if (!made3.ok()) {
    fail.add(kOracleRecovery, "recovery.crash_setup", made3.error().message);
    return;
  }
  std::unique_ptr<WorkflowManager> m3 = std::move(made3).take();
  std::string path3 = scratch_journal_path(scratch_dir);
  std::string snapshot3 = hercules::save_to_json(*m3);
  if (snapshot3 != snapshot)
    fail.add(kOracleRecovery, "recovery.crash_snapshot",
             "pre-execution snapshot not reproducible");
  if (!m3->enable_journal(path3).ok()) {
    fail.add(kOracleRecovery, "recovery.journal", "cannot open scratch journal");
    return;
  }
  bool crashed3 = false;
  (void)journaled_execute(crash_scenario, *m3, &crashed3);
  if (!crashed3)
    fail.add(kOracleRecovery, "recovery.crash_missing",
             "crash_after_total=" + std::to_string(k) + " did not crash");
  std::string journal3;
  if (auto read = util::read_file(path3); read.ok()) journal3 = std::move(read).take();
  std::remove(path3.c_str());

  if (journal.compare(0, journal3.size(), journal3) != 0) {
    fail.add(kOracleRecovery, "recovery.crash_prefix",
             "crashed journal is not a prefix of the uninterrupted journal");
    return;
  }
  auto rec3 = hercules::recover_from_json(snapshot, journal3);
  if (!rec3.ok()) {
    fail.add(kOracleRecovery, "recovery.crash_replay", rec3.error().message);
    return;
  }
  if (rec3.value()->db().run_count() != hercules::journal_lines(journal3).size())
    fail.add(kOracleRecovery, "recovery.crash_runs",
             "recovered run count != crashed journal line count");
}

// --- risk oracle -------------------------------------------------------------

bool same_risk(const sched::RiskReport& a, const sched::RiskReport& b) {
  if (a.samples != b.samples || a.deterministic_finish != b.deterministic_finish ||
      a.mean_finish != b.mean_finish || a.p50_finish != b.p50_finish ||
      a.p90_finish != b.p90_finish || a.on_time_probability != b.on_time_probability ||
      a.activities.size() != b.activities.size())
    return false;
  for (std::size_t i = 0; i < a.activities.size(); ++i) {
    if (a.activities[i].activity != b.activities[i].activity ||
        a.activities[i].criticality != b.activities[i].criticality ||
        a.activities[i].mean_duration != b.activities[i].mean_duration)
      return false;
  }
  return true;
}

void check_risk(const Scenario& scenario, WorkflowManager& m,
                sched::ScheduleRunId plan_id, Mutation mutation, Failures& fail) {
  sched::RiskOptions base{.samples = 200,
                          .seed = scenario.spec.seed ? scenario.spec.seed : 1,
                          .threads = 1};
  auto one = sched::analyze_risk(m.schedule_space(), m.db(), plan_id, base);
  if (!one.ok()) {
    fail.add(kOracleRisk, "risk.analyze", one.error().message);
    return;
  }
  for (int threads : {2, 5}) {
    sched::RiskOptions opts = base;
    opts.threads = threads;
    if (mutation == Mutation::kRiskSeedSkew) opts.seed = base.seed + 1;
    auto many = sched::analyze_risk(m.schedule_space(), m.db(), plan_id, opts);
    if (!many.ok()) {
      fail.add(kOracleRisk, "risk.analyze", many.error().message);
      return;
    }
    if (!same_risk(one.value(), many.value())) {
      fail.add(kOracleRisk, "risk.threads",
               "risk report differs between 1 and " + std::to_string(threads) +
                   " threads");
      return;
    }
  }
}

// --- metamorphic oracle ------------------------------------------------------

/// Rule-permuted, renamed copy of the flow: every name prefixed with "x_"
/// and the rule list reversed.  Semantically the identical network.
Scenario relabeled(const Scenario& scenario) {
  Scenario t = scenario;
  t.graph.schema_name = "x_" + t.graph.schema_name;
  for (auto& d : t.graph.data_types) d = "x_" + d;
  for (auto& r : t.graph.rules) {
    r.name = "x_" + r.name;
    r.output = "x_" + r.output;
    for (auto& in : r.inputs) in = "x_" + in;
  }
  t.graph.target = "x_" + t.graph.target;
  std::reverse(t.graph.rules.begin(), t.graph.rules.end());
  return t;
}

std::optional<std::int64_t> planned_makespan(const Scenario& scenario, Failures& fail) {
  auto made = make_manager(scenario);
  if (!made.ok()) {
    fail.add(kOracleMetamorphic, "metamorphic.setup", made.error().message);
    return std::nullopt;
  }
  auto& m = *made.value();
  auto plan = m.plan_task("job", {.anchor = m.clock().now()});
  if (!plan.ok()) {
    fail.add(kOracleMetamorphic, "metamorphic.plan", plan.error().message);
    return std::nullopt;
  }
  std::int64_t finish = 0;
  const auto& space = m.schedule_space();
  for (auto nid : space.plan(plan.value()).nodes)
    finish = std::max(finish, space.node(nid).planned_finish.minutes_since_epoch());
  return finish;
}

void check_metamorphic(const Scenario& scenario, std::int64_t base_planned_finish,
                       Mutation mutation, Failures& fail) {
  // (a) Relabeling + rule permutation is a no-op on the network, so both the
  // raw CPM makespan and the planner's makespan are invariant.
  Scenario t = relabeled(scenario);
  if (mutation == Mutation::kMetamorphicScale)
    for (auto& r : t.graph.rules) r.est_minutes *= 2;

  auto base = sched::compute_cpm(cpm_network(scenario));
  auto perm = sched::compute_cpm(cpm_network(t));
  if (!base.ok() || !perm.ok()) {
    fail.add(kOracleMetamorphic, "metamorphic.cpm", "CPM failed on a valid network");
    return;
  }
  if (base.value().makespan != perm.value().makespan) {
    fail.add(kOracleMetamorphic, "metamorphic.relabel",
             "relabeled network changed CPM makespan");
    return;
  }
  auto relabeled_finish = planned_makespan(t, fail);
  if (!relabeled_finish) return;
  if (*relabeled_finish != base_planned_finish)
    fail.add(kOracleMetamorphic, "metamorphic.plan_relabel",
             "relabeled flow changed the planned completion date");

  // (b) Growing a duration by no more than its total slack cannot move the
  // completion date; growing any duration can never shrink it.
  const auto& r = base.value();
  std::size_t victim = scenario.graph.rules.size();
  for (std::size_t i = 0; i < scenario.graph.rules.size(); ++i)
    if (r.total_slack[i] > 0) victim = i;
  Scenario grown = scenario;
  std::int64_t delta;
  bool slack_only = victim < scenario.graph.rules.size();
  if (slack_only) {
    delta = r.total_slack[victim];
  } else {
    victim = scenario.graph.rules.size() - 1;
    delta = 90;
  }
  grown.graph.rules[victim].est_minutes += delta;
  auto after = sched::compute_cpm(cpm_network(grown));
  if (!after.ok()) {
    fail.add(kOracleMetamorphic, "metamorphic.cpm", "CPM failed on grown network");
    return;
  }
  if (slack_only && after.value().makespan != r.makespan)
    fail.add(kOracleMetamorphic, "metamorphic.slack",
             "slack-covered duration growth moved the makespan");
  if (after.value().makespan < r.makespan)
    fail.add(kOracleMetamorphic, "metamorphic.monotone",
             "adding duration shrank the makespan");
  if (after.value().makespan > r.makespan + delta)
    fail.add(kOracleMetamorphic, "metamorphic.bound",
             "makespan grew by more than the added duration");
}

// --- query oracle ------------------------------------------------------------

/// A result and its error render to the same bytes on every path, so the
/// differential compares failures exactly like row sets.
std::string query_bytes(util::Result<query::QueryResult> r) {
  if (!r.ok()) return "error: " + r.error().message;
  return r.value().render();
}

/// A memoized view response renders its failure like query_bytes does.
std::string memo_bytes(const util::Result<std::string>& r) {
  return r.ok() ? r.value() : "error: " + r.error().message;
}

/// Differential check over the query fast path.  One manager is planned and
/// executed, then every statement is run three ways — full scan (reference),
/// index path, and twice through the manager's current ReadView (a memo
/// miss, then a memo hit) — and the bytes must agree.  Interleaved mutations
/// (an import, a failed run, a replan) must publish a fresh view; the
/// planted kQueryStaleView mutation answers the view leg from the view
/// published before the mutation, and the oracle must notice.
void check_query(const Scenario& scenario, Mutation mutation, Failures& fail) {
  auto made = make_manager(scenario);
  if (!made.ok()) {
    fail.add(kOracleQuery, "query.setup", made.error().message);
    return;
  }
  std::unique_ptr<WorkflowManager> m = std::move(made).take();
  auto plan = m->plan_task("job", {.anchor = m->clock().now()});
  if (!plan.ok()) {
    fail.add(kOracleQuery, "query.plan", plan.error().message);
    return;
  }
  try {
    util::Result<exec::ExecutionResult> result =
        scenario.mode == ExecMode::kConcurrent ? m->execute_task_concurrent("job", "fuzz")
                                               : m->execute_task("job", "fuzz");
    (void)result;  // failed executions still leave queryable state
  } catch (const exec::InjectedCrash&) {
    // State up to the crash is still queryable.
  }

  // Fast engine: indexes (the system under test).  Slow engine: always full
  // scan (the reference).
  query::QueryEngine fast(m->db(), m->schedule_space());
  query::QueryEngine slow(m->db(), m->schedule_space());
  slow.set_options({.use_index = false});
  // The view published at the previous stage.  The planted mutation is the
  // deliberate bug: answer the view leg from it instead of the current one.
  std::shared_ptr<const hercules::ReadView> prior = m->read_view();

  const std::string& act = scenario.graph.rules.front().name;
  const std::vector<std::string> statements = {
      "select runs",
      "select runs where activity = \"" + act + "\"",
      "select runs where designer = \"fuzz\" and duration >= 0",
      "select runs where status = \"failed\" order by started desc",
      "select count from runs group by activity",
      "select instances",
      "select instances where type = \"" + scenario.graph.target + "\" limit 5",
      "select schedule where critical = true",
      "select plans",
      "select links",
  };

  auto compare_all = [&](const char* stage) {
    std::shared_ptr<const hercules::ReadView> current = m->read_view();
    std::shared_ptr<const hercules::ReadView> before = std::exchange(prior, current);
    const auto& view = mutation == Mutation::kQueryStaleView ? before : current;
    for (const auto& s : statements) {
      auto scan = slow.execute(s);
      std::string want = query_bytes(scan);
      std::string rendered = scan.ok() ? scan.value().render(&m->calendar()) : want;
      if (query_bytes(fast.execute(s)) != want) {
        fail.add(kOracleQuery, "query.path",
                 std::string(stage) + ": index path differs from scan path for '" +
                     s + "'");
        return false;
      }
      std::string memo1 = memo_bytes(view->query(s));
      std::string memo2 = memo_bytes(view->query(s));  // the memo hit
      if (memo1 != rendered || memo2 != rendered) {
        fail.add(kOracleQuery, "query.memo",
                 std::string(stage) + ": view memo differs from scan for '" + s +
                     "'");
        return false;
      }
    }
    return true;
  };

  if (!compare_all("initial")) return;

  // Invalid statements must fail identically on both paths.
  if (query_bytes(fast.execute("select runs where nonsense = 1")) !=
      query_bytes(slow.execute("select runs where nonsense = 1"))) {
    fail.add(kOracleQuery, "query.error",
             "index and scan paths disagree on an invalid statement");
    return;
  }

  // Mutation 1: an imported primary input appears in the instance container.
  (void)m->db().create_instance(scenario.graph.target, "planted.in", meta::RunId{},
                                util::DataObjectId{}, m->clock().now());
  if (!compare_all("after-import")) return;

  // Mutation 2: a failed run lands in every run index.
  meta::Run r;
  r.activity = act;
  r.tool_binding = "t1";
  r.designer = "fuzz";
  r.status = meta::RunStatus::kFailed;
  r.started_at = m->clock().now();
  r.finished_at = m->clock().now();
  (void)m->db().record_run(std::move(r));
  if (!compare_all("after-failed-run")) return;

  // Mutation 3: a replan mutates schedule space (new plan + nodes + links).
  (void)m->replan_task("job", {.anchor = m->clock().now()});
  if (!compare_all("after-replan")) return;

  // --- threaded phase: a real mutator racing real readers -------------------
  //
  // The single-threaded checks above prove the paths agree on quiescent
  // state.  This phase proves the MVCC contract: while one thread mutates
  // the manager and publishes epoch snapshots (the shard's write lane),
  // reader threads pin whatever view is current and re-run the differential
  // per epoch — scan, index, and memoized paths must render
  // byte-identical results AGAINST THE PINNED EPOCH no matter what the
  // mutator is doing meanwhile.  Epochs observed by one reader must be
  // monotonic.  Run under TSan this also proves the lanes share no
  // unsynchronized state (COW snapshots, the engine's atomic counters).
  hercules::ViewSlot published;
  published.store(m->read_view());
  std::atomic<bool> mutating{true};
  const std::vector<std::string> hot = {
      "select runs where status = \"failed\" order by started desc",
      "select instances where type = \"" + scenario.graph.target + "\" limit 5",
      "select schedule where critical = true",
      "select plans",
  };

  auto reader = [&](std::vector<std::string>& errors) {
    query::QueryEngine scan_engine(m->db(), m->schedule_space());
    scan_engine.set_options({.use_index = false});
    query::QueryEngine index_engine(m->db(), m->schedule_space());
    std::uint64_t last_epoch = 0;
    do {
      std::shared_ptr<const hercules::ReadView> view = published.load();
      if (!view) continue;
      if (view->epoch() < last_epoch) {
        errors.push_back("epoch went backwards: " +
                         std::to_string(view->epoch()) + " after " +
                         std::to_string(last_epoch));
        return;
      }
      last_epoch = view->epoch();
      for (const auto& s : hot) {
        auto scan = scan_engine.execute(s, view->db(), view->space());
        auto indexed = index_engine.execute(s, view->db(), view->space());
        std::string cached1 = memo_bytes(view->query(s));
        std::string cached2 = memo_bytes(view->query(s));  // memo hit, same bytes
        std::string want = query_bytes(scan);
        std::string rendered = want;
        if (scan.ok()) rendered = scan.value().render(&m->calendar());
        if (query_bytes(indexed) != want) {
          errors.push_back("epoch " + std::to_string(view->epoch()) +
                           ": index differs from scan for '" + s + "'");
          return;
        }
        if (cached1 != rendered || cached2 != rendered) {
          errors.push_back("epoch " + std::to_string(view->epoch()) +
                           ": view memo differs from scan for '" + s + "'");
          return;
        }
      }
    } while (mutating.load(std::memory_order_acquire));
  };

  std::vector<std::string> errors_a, errors_b;
  std::thread reader_a([&] { reader(errors_a); });
  std::thread reader_b([&] { reader(errors_b); });

  // The mutator: the same mutation kinds the single-threaded phase used,
  // applied in a burst, each followed by an epoch publish (write-lane shape).
  for (int i = 0; i < 24; ++i) {
    switch (i % 3) {
      case 0: {
        meta::Run burst;
        burst.activity = act;
        burst.tool_binding = "t1";
        burst.designer = "fuzz";
        burst.status = meta::RunStatus::kFailed;
        burst.started_at = m->clock().now();
        burst.finished_at = m->clock().now();
        (void)m->db().record_run(std::move(burst));
        break;
      }
      case 1:
        (void)m->db().create_instance(scenario.graph.target,
                                      "burst.in" + std::to_string(i),
                                      meta::RunId{}, util::DataObjectId{},
                                      m->clock().now());
        break;
      default:
        (void)m->replan_task("job", {.anchor = m->clock().now()});
        break;
    }
    published.store(m->read_view());
  }
  mutating.store(false, std::memory_order_release);
  reader_a.join();
  reader_b.join();
  for (const auto& e : errors_a)
    fail.add(kOracleQuery, "query.threaded", e);
  for (const auto& e : errors_b)
    fail.add(kOracleQuery, "query.threaded", e);
}

// --- adapter oracle ----------------------------------------------------------

/// Cross-adapter conformance plus, when the scenario carries an adversarial
/// plan, the production-shaped storm driver.  Both report through the
/// conformance module's own check ids ("adapter.*" / "adversarial.*").
void check_adapter(const Scenario& scenario, Mutation mutation,
                   const std::string& scratch_dir, Failures& fail) {
  ConformanceOptions options;
  options.mutate_drop_firing = mutation == Mutation::kAdapterDropFiring;
  for (auto& f : check_conformance(scenario, options))
    fail.add(kOracleAdapter, std::move(f.check), std::move(f.detail));
  if (!scenario.adversarial.empty())
    for (auto& f : run_adversarial(scenario, scratch_dir))
      fail.add(kOracleAdapter, std::move(f.check), std::move(f.detail));
}

}  // namespace

// --- public: names and parsing -----------------------------------------------

const char* oracle_name(unsigned family) {
  switch (family) {
    case kOracleCpm: return "cpm";
    case kOracleMirror: return "mirror";
    case kOracleRecovery: return "recovery";
    case kOracleRisk: return "risk";
    case kOracleMetamorphic: return "metamorphic";
    case kOracleStructure: return "structure";
    case kOracleQuery: return "query";
    case kOracleAdapter: return "adapter";
  }
  return "unknown";
}

util::Result<unsigned> parse_oracles(const std::string& csv) {
  if (csv == "all" || csv.empty()) return kOracleAll;
  unsigned mask = 0;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    std::string name = csv.substr(pos, comma - pos);
    if (name == "cpm") mask |= kOracleCpm;
    else if (name == "mirror") mask |= kOracleMirror;
    else if (name == "recovery") mask |= kOracleRecovery;
    else if (name == "risk") mask |= kOracleRisk;
    else if (name == "metamorphic") mask |= kOracleMetamorphic;
    else if (name == "query") mask |= kOracleQuery;
    else if (name == "adapter") mask |= kOracleAdapter;
    else if (name == "all") mask |= kOracleAll;
    else return util::parse_error("unknown oracle family '" + name + "'");
    pos = comma + 1;
  }
  return mask;
}

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kNone: return "none";
    case Mutation::kMirrorDropRun: return "mirror-drop-run";
    case Mutation::kCpmOffByOne: return "cpm-off-by-one";
    case Mutation::kRecoveryDropLine: return "recovery-drop-line";
    case Mutation::kRiskSeedSkew: return "risk-seed-skew";
    case Mutation::kMetamorphicScale: return "metamorphic-scale";
    case Mutation::kQueryStaleView: return "query-stale-view";
    case Mutation::kAdapterDropFiring: return "adapter-drop-firing";
  }
  return "none";
}

util::Result<Mutation> parse_mutation(const std::string& name) {
  for (Mutation m : {Mutation::kNone, Mutation::kMirrorDropRun, Mutation::kCpmOffByOne,
                     Mutation::kRecoveryDropLine, Mutation::kRiskSeedSkew,
                     Mutation::kMetamorphicScale, Mutation::kQueryStaleView,
                     Mutation::kAdapterDropFiring})
    if (name == mutation_name(m)) return m;
  return util::parse_error("unknown mutation '" + name + "'");
}

// --- public: reference CPM ---------------------------------------------------

util::Result<sched::CpmResult> reference_cpm(
    const std::vector<sched::CpmActivity>& activities) {
  const std::size_t n = activities.size();
  for (const auto& a : activities) {
    if (a.duration < 0 || a.release < 0)
      return util::invalid("reference: negative duration or release");
    for (auto p : a.preds)
      if (p >= n) return util::invalid("reference: predecessor out of range");
  }
  sched::CpmResult r;
  r.early_start.assign(n, 0);
  r.early_finish.assign(n, 0);
  r.late_start.assign(n, 0);
  r.late_finish.assign(n, 0);
  r.total_slack.assign(n, 0);
  r.free_slack.assign(n, 0);
  r.critical.assign(n, false);
  r.makespan = 0;
  r.critical_path.clear();
  if (n == 0) return r;

  // Forward fixpoint: relax until stable; more than n passes means a cycle.
  for (std::size_t i = 0; i < n; ++i) r.early_start[i] = activities[i].release;
  bool changed = true;
  std::size_t passes = 0;
  while (changed) {
    if (++passes > n + 1) return util::invalid("reference: precedence cycle");
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::int64_t es = activities[i].release;
      for (auto p : activities[i].preds)
        es = std::max(es, r.early_start[p] + activities[p].duration);
      if (es != r.early_start[i]) {
        r.early_start[i] = es;
        changed = true;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    r.early_finish[i] = r.early_start[i] + activities[i].duration;
    r.makespan = std::max(r.makespan, r.early_finish[i]);
  }

  // Backward fixpoint from the makespan.
  for (std::size_t i = 0; i < n; ++i) r.late_finish[i] = r.makespan;
  changed = true;
  passes = 0;
  while (changed) {
    if (++passes > n + 1) return util::invalid("reference: precedence cycle");
    changed = false;
    for (std::size_t i = 0; i < n; ++i)
      for (auto p : activities[i].preds) {
        std::int64_t lf = r.late_finish[i] - activities[i].duration;
        if (lf < r.late_finish[p]) {
          r.late_finish[p] = lf;
          changed = true;
        }
      }
  }
  for (std::size_t i = 0; i < n; ++i) {
    r.late_start[i] = r.late_finish[i] - activities[i].duration;
    r.total_slack[i] = r.late_start[i] - r.early_start[i];
    r.critical[i] = r.total_slack[i] == 0;
  }

  // Free slack: min successor ES - EF; sinks measure against the makespan.
  std::vector<std::int64_t> min_succ_es(n, -1);
  for (std::size_t i = 0; i < n; ++i)
    for (auto p : activities[i].preds)
      min_succ_es[p] = min_succ_es[p] < 0 ? r.early_start[i]
                                          : std::min(min_succ_es[p], r.early_start[i]);
  for (std::size_t i = 0; i < n; ++i)
    r.free_slack[i] =
        (min_succ_es[i] < 0 ? r.makespan : min_succ_es[i]) - r.early_finish[i];
  return r;
}

// --- public: scenario sampling -----------------------------------------------

Scenario sample_scenario(util::Rng& rng) {
  ScenarioSpec spec;
  spec.seed = rng.next_u64();
  std::int64_t roll = rng.uniform_int(0, 9);
  if (roll < 2) {
    spec.shape = Shape::kChain;
    spec.size = static_cast<std::size_t>(rng.uniform_int(1, 20));
  } else if (roll < 4) {
    spec.shape = Shape::kFanin;
    spec.size = static_cast<std::size_t>(rng.uniform_int(1, 12));
  } else if (roll < 6) {
    spec.shape = Shape::kLayered;
    spec.size = static_cast<std::size_t>(rng.uniform_int(1, 4));
    spec.width = static_cast<std::size_t>(rng.uniform_int(2, 4));
  } else {
    spec.shape = Shape::kRandom;
    spec.inputs = static_cast<std::size_t>(rng.uniform_int(1, 3));
    spec.size = static_cast<std::size_t>(rng.uniform_int(2, 16));
  }
  spec.resources = static_cast<int>(rng.uniform_int(1, 3));
  if (rng.chance(0.3)) spec.mode = ExecMode::kConcurrent;
  if (rng.chance(0.4)) {
    spec.fault_seed = rng.next_u64() | 1;
    spec.fail_prob = rng.uniform(0.0, 0.35);
    if (rng.chance(0.3)) spec.fail_on = static_cast<int>(rng.uniform_int(1, 5));
    if (rng.chance(0.3)) spec.latency_factor = rng.uniform(1.0, 3.0);
    std::int64_t policy = rng.uniform_int(0, 2);
    spec.policy = policy == 0   ? exec::FailurePolicy::kAbort
                  : policy == 1 ? exec::FailurePolicy::kRetryThenAbort
                                : exec::FailurePolicy::kContinueIndependent;
    if (spec.policy != exec::FailurePolicy::kAbort)
      spec.max_attempts = static_cast<int>(rng.uniform_int(1, 3));
    if (rng.chance(0.2)) spec.timeout_minutes = rng.uniform_int(30, 600);
    if (rng.chance(0.15)) {
      // Fault storm: near-certain failures with heavy latency inflation, the
      // worst production day the recovery and adversarial drivers must ride.
      spec.fail_prob = rng.uniform(0.5, 0.95);
      spec.latency_factor = rng.uniform(2.0, 8.0);
      spec.policy = exec::FailurePolicy::kRetryThenAbort;
      spec.max_attempts = static_cast<int>(rng.uniform_int(2, 4));
    }
    if (spec.policy != exec::FailurePolicy::kAbort && spec.max_attempts > 1)
      spec.backoff_minutes = rng.uniform_int(15, 60);
  }
  // Heavy-tailed duration draws: a lognormal or Pareto minority models the
  // few activities that dominate real makespans.
  if (rng.chance(0.2)) {
    if (rng.chance(0.5)) {
      spec.duration_dist = DurationDist::kLognormal;
      spec.dist_sigma = rng.uniform(0.5, 2.0);
    } else {
      spec.duration_dist = DurationDist::kPareto;
      spec.dist_alpha = rng.uniform(0.8, 2.5);
    }
  }
  // Adversarial plans: mid-flight replans, conflicting edits and input
  // revisions ride along on a quarter of the scenarios.
  if (rng.chance(0.25)) spec.adversity = rng.uniform(0.2, 1.0);
  return generate(spec);
}

// --- public: single-scenario harness -----------------------------------------

std::vector<OracleFailure> run_scenario(const Scenario& scenario,
                                        const RunOptions& options) {
  std::vector<OracleFailure> failures;
  Failures fail{&failures};

  // Structural oracle (always on): the DSL parses, the parsed schema is
  // acyclic, and the generator's promised facts hold.
  auto parsed = schema::parse_schema(scenario.dsl());
  if (!parsed.ok()) {
    fail.add(kOracleStructure, "structure.parse", parsed.error().message);
    return failures;
  }
  StructuralFacts f = facts(scenario);
  if (parsed.value().rules().size() != f.n_rules ||
      parsed.value().primary_inputs().size() != f.n_primary_inputs ||
      !parsed.value().find_type(f.target)) {
    fail.add(kOracleStructure, "structure.facts",
             "parsed schema disagrees with generator facts");
    return failures;
  }
  if (scenario.graph.rules.empty()) {
    fail.add(kOracleStructure, "structure.empty", "scenario has no rules");
    return failures;
  }

  if (options.oracles & kOracleCpm) check_cpm(scenario, options.mutation, fail);

  // Mirror / risk / metamorphic share one planned manager.
  std::unique_ptr<WorkflowManager> m1;
  sched::ScheduleRunId plan_id{};
  std::int64_t base_planned_finish = 0;
  if (options.oracles & (kOracleMirror | kOracleRisk | kOracleMetamorphic)) {
    auto made = make_manager(scenario);
    if (!made.ok()) {
      fail.add(kOracleMirror, "mirror.setup", made.error().message);
      return failures;
    }
    m1 = std::move(made).take();
    auto plan = m1->plan_task("job", {.anchor = m1->clock().now()});
    if (!plan.ok()) {
      fail.add(kOracleMirror, "mirror.plan", plan.error().message);
      return failures;
    }
    plan_id = plan.value();
    const auto& space = m1->schedule_space();
    for (auto nid : space.plan(plan_id).nodes)
      base_planned_finish = std::max(
          base_planned_finish, space.node(nid).planned_finish.minutes_since_epoch());
  }

  // Risk and metamorphic run on the un-executed plan (completed activities
  // would be fixed at their actuals, degenerating both oracles).
  if (options.oracles & kOracleRisk)
    check_risk(scenario, *m1, plan_id, options.mutation, fail);
  if (options.oracles & kOracleMetamorphic)
    check_metamorphic(scenario, base_planned_finish, options.mutation, fail);
  if (options.oracles & kOracleMirror)
    check_mirror(scenario, *m1, plan_id, options.mutation, fail);
  if (options.oracles & kOracleRecovery)
    check_recovery(scenario, options.mutation, options.scratch_dir, fail);
  if (options.oracles & kOracleQuery)
    check_query(scenario, options.mutation, fail);
  if (options.oracles & kOracleAdapter)
    check_adapter(scenario, options.mutation, options.scratch_dir, fail);
  return failures;
}

// --- public: shrinking -------------------------------------------------------

namespace {

/// Drops unreferenced data types and re-targets after rules were removed,
/// keeping the graph parseable by construction.
FlowGraph repaired(FlowGraph g) {
  bool produced = false;
  for (const auto& r : g.rules) produced |= r.output == g.target;
  if (!produced && !g.rules.empty()) g.target = g.rules.back().output;
  std::unordered_set<std::string> keep{g.target};
  for (const auto& r : g.rules) {
    keep.insert(r.output);
    for (const auto& in : r.inputs) keep.insert(in);
  }
  std::vector<std::string> data;
  for (auto& d : g.data_types)
    if (keep.count(d)) data.push_back(std::move(d));
  g.data_types = std::move(data);
  return g;
}

}  // namespace

ShrinkResult shrink(const Scenario& failing, const ShrinkOptions& options) {
  ShrinkResult result;
  result.scenario = failing;

  RunOptions run{.oracles = options.oracles,
                 .mutation = options.mutation,
                 .scratch_dir = options.scratch_dir};
  auto still_fails = [&](const Scenario& candidate) {
    if (result.candidates >= options.max_candidates) return false;
    ++result.candidates;
    if (options.on_candidate) options.on_candidate(candidate);
    if (!schema::parse_schema(candidate.dsl()).ok()) return false;
    auto failures = run_scenario(candidate, run);
    for (const auto& f : failures)
      if (f.family != kOracleStructure) return true;
    return false;
  };
  auto accept = [&](Scenario candidate) {
    result.scenario = std::move(candidate);
    ++result.improvements;
  };

  bool progress = true;
  while (progress && result.candidates < options.max_candidates) {
    progress = false;

    // 1. Faults and the adversarial plan gone entirely, then execution
    // semantics to their simplest.
    if (result.scenario.fault_seed != 0 || !result.scenario.faults.empty()) {
      Scenario c = result.scenario;
      c.fault_seed = 0;
      c.faults = {};
      if (still_fails(c)) {
        accept(std::move(c));
        progress = true;
      }
    }
    if (!result.scenario.adversarial.empty()) {
      Scenario c = result.scenario;
      c.adversarial = {};
      if (still_fails(c)) {
        accept(std::move(c));
        progress = true;
      }
    }
    if (result.scenario.mode != ExecMode::kSerial ||
        result.scenario.policy != exec::FailurePolicy::kAbort ||
        result.scenario.max_attempts != 1 || result.scenario.timeout_minutes != 0) {
      Scenario c = result.scenario;
      c.mode = ExecMode::kSerial;
      c.policy = exec::FailurePolicy::kAbort;
      c.max_attempts = 1;
      c.timeout_minutes = 0;
      if (still_fails(c)) {
        accept(std::move(c));
        progress = true;
      }
    }

    // 2. ddmin over rules: remove windows, halving the window size.
    for (std::size_t window = std::max<std::size_t>(result.scenario.graph.rules.size() / 2, 1);
         window >= 1; window /= 2) {
      bool removed = true;
      while (removed && result.scenario.graph.rules.size() > 1) {
        removed = false;
        const std::size_t n = result.scenario.graph.rules.size();
        if (window >= n) break;
        for (std::size_t start = 0; start + window <= n; ++start) {
          Scenario c = result.scenario;
          c.graph.rules.erase(c.graph.rules.begin() + static_cast<std::ptrdiff_t>(start),
                              c.graph.rules.begin() +
                                  static_cast<std::ptrdiff_t>(start + window));
          c.graph = repaired(std::move(c.graph));
          if (still_fails(c)) {
            accept(std::move(c));
            progress = removed = true;
            break;
          }
        }
      }
      if (window == 1) break;
    }

    // 3. Durations: each estimate straight to 1, else halved; then the tool
    // nominal and the estimator fallback.
    for (std::size_t i = 0; i < result.scenario.graph.rules.size(); ++i) {
      while (result.scenario.graph.rules[i].est_minutes > 1) {
        Scenario c = result.scenario;
        std::int64_t cur = c.graph.rules[i].est_minutes;
        c.graph.rules[i].est_minutes = cur > 2 ? cur / 2 : 1;
        if (!still_fails(c)) break;
        accept(std::move(c));
        progress = true;
      }
    }
    for (auto field : {&Scenario::tool_minutes, &Scenario::fallback_minutes}) {
      while (result.scenario.*field > 1) {
        Scenario c = result.scenario;
        std::int64_t cur = c.*field;
        c.*field = cur > 2 ? cur / 2 : 1;
        if (!still_fails(c)) break;
        accept(std::move(c));
        progress = true;
      }
    }
    if (result.scenario.resources > 1) {
      Scenario c = result.scenario;
      c.resources = 1;
      if (still_fails(c)) {
        accept(std::move(c));
        progress = true;
      }
    }
  }

  result.failures = run_scenario(result.scenario, run);
  return result;
}

// --- public: fuzz loop -------------------------------------------------------

FuzzReport fuzz(const FuzzOptions& options) {
  FuzzReport report;
  util::Rng rng(options.seed);
  RunOptions run{.oracles = options.oracles,
                 .mutation = options.mutation,
                 .scratch_dir = options.scratch_dir};
  const std::int64_t start = now_ms();
  const std::size_t default_cap =
      options.max_scenarios == 0 && options.budget_ms == 0 ? 100 : 0;

  while (true) {
    if (options.max_scenarios && report.scenarios >= options.max_scenarios) break;
    if (default_cap && report.scenarios >= default_cap) break;
    if (options.budget_ms && now_ms() - start >= options.budget_ms) break;

    Scenario scenario = sample_scenario(rng);
    auto failures = run_scenario(scenario, run);
    ++report.scenarios;
    if (options.on_progress) options.on_progress(report.scenarios);
    if (!failures.empty()) {
      report.failures = std::move(failures);
      report.failing = scenario;
      if (options.shrink_failures) {
        auto shrunk = shrink(scenario, {.oracles = options.oracles,
                                        .mutation = options.mutation,
                                        .scratch_dir = options.scratch_dir});
        report.shrunk = std::move(shrunk.scenario);
        report.shrink_candidates = shrunk.candidates;
      }
      break;
    }
  }
  report.elapsed_ms = std::max<std::int64_t>(now_ms() - start, 1);
  report.scenarios_per_sec =
      static_cast<double>(report.scenarios) * 1000.0 /
      static_cast<double>(report.elapsed_ms);
  return report;
}

// --- public: corpus ----------------------------------------------------------

util::Status write_corpus_file(const Scenario& scenario, const std::string& path) {
  return util::write_file(path, scenario_to_json(scenario).dump(2) + "\n");
}

util::Result<Scenario> read_corpus_file(const std::string& path) {
  auto text = util::read_file(path);
  if (!text.ok()) return text.error();
  auto json = util::Json::parse(text.value());
  if (!json.ok()) return json.error();
  return scenario_from_json(json.value());
}

}  // namespace herc::gen
