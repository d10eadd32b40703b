#include "gen/conformance.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "adapters/petri.hpp"
#include "adapters/trace.hpp"
#include "core/cpm.hpp"
#include "hercules/journal.hpp"
#include "hercules/persist.hpp"
#include "query/query.hpp"
#include "util/fsio.hpp"

namespace herc::gen {

namespace {

using hercules::WorkflowManager;

std::string scratch_journal_path(const std::string& dir) {
  static std::atomic<std::uint64_t> counter{0};
  return dir + "/herc_conf_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".journal";
}

struct Fails {
  std::vector<ConformanceFailure>* out;
  void add(std::string check, std::string detail) {
    out->push_back({std::move(check), std::move(detail)});
  }
};

/// The rules reachable from the graph's target by following producer edges —
/// exactly the activities a task tree extracted for the target covers.  A
/// shrunk graph may keep rules outside this closure; they never execute, so
/// every cross-path check restricts itself to the closure.  Indices are in
/// graph (declaration) order.
std::vector<std::size_t> reachable_rules(const FlowGraph& graph) {
  std::unordered_map<std::string, std::size_t> producer;
  for (std::size_t i = 0; i < graph.rules.size(); ++i)
    producer[graph.rules[i].output] = i;
  std::unordered_set<std::size_t> seen;
  std::vector<std::string> frontier{graph.target};
  while (!frontier.empty()) {
    std::string type = std::move(frontier.back());
    frontier.pop_back();
    auto it = producer.find(type);
    if (it == producer.end() || !seen.insert(it->second).second) continue;
    for (const auto& in : graph.rules[it->second].inputs) frontier.push_back(in);
  }
  std::vector<std::size_t> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Producer activity names per reachable rule: rule name -> the names of the
/// reachable rules producing its inputs (the static partial order every
/// execution path must respect).
std::unordered_map<std::string, std::set<std::string>> producer_sets(
    const FlowGraph& graph, const std::vector<std::size_t>& reachable) {
  std::unordered_map<std::string, std::size_t> producer;
  std::unordered_set<std::size_t> in_closure(reachable.begin(), reachable.end());
  for (std::size_t i : reachable) producer[graph.rules[i].output] = i;
  std::unordered_map<std::string, std::set<std::string>> out;
  for (std::size_t i : reachable) {
    auto& preds = out[graph.rules[i].name];
    for (const auto& in : graph.rules[i].inputs) {
      auto it = producer.find(in);
      if (it != producer.end() && in_closure.count(it->second))
        preds.insert(graph.rules[it->second].name);
    }
  }
  return out;
}

/// Fault-free serial projection: the three replay paths necessarily invoke
/// tools in different orders, and fault decisions hash the invocation index,
/// so equivalence is only defined with the injector off and retries,
/// timeouts and concurrency normalized away.
Scenario conformance_projection(const Scenario& scenario) {
  Scenario p = scenario;
  p.fault_seed = 0;
  p.faults = {};
  p.mode = ExecMode::kSerial;
  p.policy = exec::FailurePolicy::kAbort;
  p.max_attempts = 1;
  p.timeout_minutes = 0;
  return p;
}

std::string triple(const meta::Database& db, meta::EntityInstanceId id) {
  const auto& inst = db.instance(id);
  return inst.type_name + ":" + inst.name + ":" + std::to_string(inst.version);
}

util::Result<std::unique_ptr<WorkflowManager>> planned_manager(
    const Scenario& scenario) {
  auto made = make_manager(scenario);
  if (!made.ok()) return made;
  auto plan = made.value()->plan_task("job", {.anchor = made.value()->clock().now()});
  if (!plan.ok()) return plan.error();
  return made;
}

/// Sorted interned-string population of the execution space.
std::vector<std::string> symbol_set(const WorkflowManager& m) {
  const auto& pool = m.db().symbols();
  std::vector<std::string> out;
  out.reserve(pool.size());
  for (std::size_t i = 1; i <= pool.size(); ++i)
    out.push_back(pool.str(util::SymbolId{i}));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string canonical_level3(const WorkflowManager& m) {
  // Plans.  Baselines are the comparable dates: they are fixed when the plan
  // is first computed (identical across paths planning the same flow at the
  // same anchor), whereas planned_* get re-projected from actuals after every
  // run and therefore depend on the execution order.
  const auto& space = m.schedule_space();
  std::vector<std::string> plans;
  for (const auto& plan : space.plans()) {
    std::string line = "plan " + plan.name + " status=" +
                       (plan.status == sched::PlanStatus::kActive ? "active"
                                                                  : "superseded");
    std::vector<std::string> nodes, deps;
    for (auto nid : plan.nodes) {
      const auto& n = space.node(nid);
      nodes.push_back(n.activity + "@" +
                      std::to_string(n.baseline_start.minutes_since_epoch()) + "-" +
                      std::to_string(n.baseline_finish.minutes_since_epoch()) +
                      (n.completed ? "*" : ""));
    }
    for (const auto& d : plan.deps)
      deps.push_back(space.node(d.from).activity + "->" + space.node(d.to).activity);
    std::sort(nodes.begin(), nodes.end());
    std::sort(deps.begin(), deps.end());
    for (const auto& n : nodes) line += " n:" + n;
    for (const auto& d : deps) line += " d:" + d;
    plans.push_back(std::move(line));
  }
  std::sort(plans.begin(), plans.end());

  // Runs: identity by content, never by id or wall time.
  const auto& db = m.db();
  std::vector<std::string> runs;
  for (const auto& run : db.runs()) {
    std::string line = "run " + run.activity + " rule=" + run.rule.str() +
                       " tool=" + run.tool_binding + " designer=" + run.designer +
                       " status=" + meta::run_status_name(run.status);
    std::vector<std::string> ins;
    for (auto in : run.inputs) ins.push_back(triple(db, in));
    std::sort(ins.begin(), ins.end());
    for (const auto& in : ins) line += " in:" + in;
    line += " out:" + (run.output.valid() ? triple(db, run.output) : "(failed)");
    runs.push_back(std::move(line));
  }
  std::sort(runs.begin(), runs.end());

  std::vector<std::string> instances;
  for (const auto& inst : db.instances()) {
    std::string by = inst.produced_by.valid()
                         ? db.run(inst.produced_by).activity
                         : std::string("import");
    instances.push_back("instance " + inst.type_name + ":" + inst.name + ":" +
                        std::to_string(inst.version) + " by=" + by);
  }
  std::sort(instances.begin(), instances.end());

  std::string out = "schema " + m.schema().name() + "\n";
  for (const auto& p : plans) out += p + "\n";
  for (const auto& r : runs) out += r + "\n";
  for (const auto& i : instances) out += i + "\n";
  return out;
}

std::vector<ConformanceFailure> check_conformance(const Scenario& scenario,
                                                  const ConformanceOptions& options) {
  std::vector<ConformanceFailure> failures;
  Fails fail{&failures};
  if (scenario.graph.rules.empty()) return failures;

  Scenario proj = conformance_projection(scenario);
  auto reachable = reachable_rules(proj.graph);
  if (reachable.empty()) return failures;
  auto preds = producer_sets(proj.graph, reachable);
  std::unordered_map<std::string, std::int64_t> durations;
  for (std::size_t i : reachable)
    durations[proj.graph.rules[i].name] = proj.graph.rules[i].est_minutes;

  // --- leg 1: native serial execution ---------------------------------------
  auto made = planned_manager(proj);
  if (!made.ok()) {
    fail.add("adapter.setup", made.error().message);
    return failures;
  }
  std::unique_ptr<WorkflowManager> native = std::move(made).take();
  auto exec = native->execute_task("job", "conform");
  if (!exec.ok() || !exec.value().success) {
    fail.add("adapter.native",
             "fault-free native execution failed: " +
                 (exec.ok() ? "unsuccessful run" : exec.error().message));
    return failures;
  }
  std::string want = canonical_level3(*native);

  // --- leg 2: timed Petri token game, then replay the firing sequence -------
  auto made2 = planned_manager(proj);
  if (!made2.ok()) {
    fail.add("adapter.setup", made2.error().message);
    return failures;
  }
  std::unique_ptr<WorkflowManager> petri_m = std::move(made2).take();
  auto tree = petri_m->task("job");
  if (!tree.ok()) {
    fail.add("adapter.setup", tree.error().message);
    return failures;
  }
  adapters::PetriBuildOptions build;
  build.durations = &durations;
  auto conv = adapters::petri_from_task_tree(*tree.value(), build);
  if (!conv.ok()) {
    fail.add("adapter.petri_build", conv.error().message);
    return failures;
  }
  adapters::PetriConversion pc = std::move(conv).take();
  auto firings = pc.net.run_timed_to_quiescence();

  // Structural validity of the firing log: every reachable activity fires
  // exactly once, no firing precedes its producers (neither in sequence nor
  // in time), and the final marking is the expected one (ready places
  // drained, tools returned, target produced).
  std::unordered_map<std::string, std::int64_t> finish_of;
  bool petri_ok = true;
  if (firings.size() != reachable.size()) {
    fail.add("adapter.petri_firings",
             "timed run fired " + std::to_string(firings.size()) + " of " +
                 std::to_string(reachable.size()) + " reachable activities");
    petri_ok = false;
  }
  for (const auto& f : firings) {
    const std::string& act = pc.activity_of_transition[f.transition];
    if (!finish_of.emplace(act, f.finish).second) {
      fail.add("adapter.petri_once", "activity '" + act + "' fired twice");
      petri_ok = false;
      break;
    }
    auto it = preds.find(act);
    if (it == preds.end()) {
      fail.add("adapter.petri_unknown", "fired unknown activity '" + act + "'");
      petri_ok = false;
      break;
    }
    for (const auto& p : it->second) {
      auto done = finish_of.find(p);
      if (done == finish_of.end()) {
        fail.add("adapter.petri_order",
                 "'" + act + "' fired before its producer '" + p + "'");
        petri_ok = false;
      } else if (f.start < done->second) {
        fail.add("adapter.petri_time",
                 "'" + act + "' started before its producer '" + p + "' finished");
        petri_ok = false;
      }
    }
    if (!petri_ok) break;
  }
  if (petri_ok) {
    for (auto p : pc.ready_places)
      if (pc.net.marking(p) != 0) {
        fail.add("adapter.petri_marking",
                 "ready place '" + pc.net.place_name(p) + "' not drained");
        petri_ok = false;
      }
    for (auto p : pc.tool_places)
      if (pc.net.marking(p) != 1) {
        fail.add("adapter.petri_marking",
                 "tool place '" + pc.net.place_name(p) + "' not returned");
        petri_ok = false;
      }
    if (pc.net.marking(pc.target_place) < 1) {
      fail.add("adapter.petri_marking", "target place empty after quiescence");
      petri_ok = false;
    }
  }

  if (petri_ok) {
    // The planted divergence: the replay silently skips the last firing, so
    // one run is missing from this leg's metadata.
    auto replay = firings;
    if (options.mutate_drop_firing && !replay.empty()) replay.pop_back();
    for (const auto& f : replay) {
      const std::string& act = pc.activity_of_transition[f.transition];
      auto r = petri_m->run_activity("job", act, "conform");
      if (!r.ok() || !r.value().success) {
        fail.add("adapter.petri_replay",
                 "replaying '" + act + "' failed: " +
                     (r.ok() ? "unsuccessful run" : r.error().message));
        petri_ok = false;
        break;
      }
    }
    if (petri_ok && canonical_level3(*petri_m) != want)
      fail.add("adapter.petri_replay",
               "Petri firing replay produced different Level-3 metadata than "
               "native execution");
  }

  // --- timed-makespan differential: unshared tools == CPM --------------------
  adapters::PetriBuildOptions unshared;
  unshared.shared_tools = false;
  unshared.durations = &durations;
  auto conv2 = adapters::petri_from_task_tree(*tree.value(), unshared);
  if (!conv2.ok()) {
    fail.add("adapter.petri_build", conv2.error().message);
  } else {
    auto timed = conv2.value().net.run_timed_to_quiescence();
    std::int64_t petri_makespan = 0;
    for (const auto& f : timed) petri_makespan = std::max(petri_makespan, f.finish);
    std::vector<sched::CpmActivity> net(reachable.size());
    std::unordered_map<std::string, std::size_t> dense;
    for (std::size_t i = 0; i < reachable.size(); ++i)
      dense[proj.graph.rules[reachable[i]].name] = i;
    for (std::size_t i = 0; i < reachable.size(); ++i) {
      net[i].duration = proj.graph.rules[reachable[i]].est_minutes;
      for (const auto& p : preds[proj.graph.rules[reachable[i]].name])
        net[i].preds.push_back(dense[p]);
    }
    auto cpm = sched::compute_cpm(net);
    if (!cpm.ok()) {
      fail.add("adapter.petri_makespan", cpm.error().message);
    } else if (timed.size() != reachable.size() ||
               petri_makespan != cpm.value().makespan) {
      fail.add("adapter.petri_makespan",
               "unshared-tool timed Petri makespan " +
                   std::to_string(petri_makespan) + " != CPM makespan " +
                   std::to_string(cpm.value().makespan));
    }
  }

  // --- leg 3: VOV trace replay ----------------------------------------------
  auto trace = adapters::TraceGraph::capture(native->db());
  if (trace.transaction_count() != reachable.size())
    fail.add("adapter.trace_count",
             "trace captured " + std::to_string(trace.transaction_count()) +
                 " transactions for " + std::to_string(reachable.size()) +
                 " reachable activities");
  for (const auto& derived : trace.derive_flow()) {
    std::set<std::string> observed(derived.predecessors.begin(),
                                   derived.predecessors.end());
    auto it = preds.find(derived.activity);
    if (it == preds.end() || observed != it->second) {
      fail.add("adapter.trace_flow",
               "derived flow for '" + derived.activity +
                   "' disagrees with the generator graph");
      break;
    }
  }
  auto made3 = planned_manager(proj);
  if (!made3.ok()) {
    fail.add("adapter.setup", made3.error().message);
    return failures;
  }
  std::unique_ptr<WorkflowManager> trace_m = std::move(made3).take();
  bool trace_ok = true;
  for (const auto& act : trace.replay_order()) {
    auto r = trace_m->run_activity("job", act, "conform");
    if (!r.ok() || !r.value().success) {
      fail.add("adapter.trace_replay",
               "replaying '" + act + "' failed: " +
                   (r.ok() ? "unsuccessful run" : r.error().message));
      trace_ok = false;
      break;
    }
  }
  if (trace_ok && canonical_level3(*trace_m) != want)
    fail.add("adapter.trace_replay",
             "VOV trace replay produced different Level-3 metadata than native "
             "execution");

  // --- leg 4: concurrent dispatch -------------------------------------------
  auto made4 = planned_manager(proj);
  if (!made4.ok()) {
    fail.add("adapter.setup", made4.error().message);
    return failures;
  }
  std::unique_ptr<WorkflowManager> conc_m = std::move(made4).take();
  auto cexec = conc_m->execute_task_concurrent("job", "conform");
  if (!cexec.ok() || !cexec.value().success) {
    fail.add("adapter.concurrent",
             "fault-free concurrent execution failed: " +
                 (cexec.ok() ? "unsuccessful run" : cexec.error().message));
  } else if (canonical_level3(*conc_m) != want) {
    fail.add("adapter.concurrent",
             "concurrent execution produced different Level-3 metadata than "
             "serial execution");
  }

  // --- cross-path query + symbol differential --------------------------------
  const std::vector<std::string> statements = {
      "select count from runs group by activity",
      "select count from instances group by type",
      "select count from runs group by designer",
  };
  const WorkflowManager* legs[] = {petri_m.get(), trace_m.get(), conc_m.get()};
  const char* leg_names[] = {"petri", "trace", "concurrent"};
  for (const auto& s : statements) {
    auto base = native->query(s);
    std::string want_rows = base.ok() ? base.value() : "error";
    for (std::size_t i = 0; i < 3; ++i) {
      auto got = legs[i]->query(s);
      if ((got.ok() ? got.value() : "error") != want_rows) {
        fail.add("adapter.query", std::string(leg_names[i]) +
                                      " leg renders different rows for '" + s + "'");
      }
    }
  }
  auto want_symbols = symbol_set(*native);
  for (std::size_t i = 0; i < 3; ++i)
    if (symbol_set(*legs[i]) != want_symbols)
      fail.add("adapter.symbols", std::string(leg_names[i]) +
                                      " leg interned a different symbol set");

  // --- retrace: VOV's prediction vs refresh_task (mutates `native`; last) ----
  std::set<std::string> primary;
  for (std::size_t i : reachable)
    for (const auto& in : proj.graph.rules[i].inputs) {
      bool produced = false;
      for (std::size_t j : reachable) produced |= proj.graph.rules[j].output == in;
      if (!produced) primary.insert(in);  // imported as "<in>.in"
    }
  if (!primary.empty()) {
    const std::string& type = *primary.begin();
    auto inst = native->db().latest_named(type, type + ".in");
    if (!inst) {
      fail.add("adapter.retrace", "imported input '" + type + ".in' not found");
    } else {
      auto predicted = trace.retrace_activities({*inst});
      (void)native->db().create_instance(type, type + ".in", meta::RunId{},
                                         util::DataObjectId{},
                                         native->clock().now());
      auto refreshed = native->refresh_task("job", "conform");
      if (!refreshed.ok()) {
        fail.add("adapter.retrace", refreshed.error().message);
      } else {
        std::set<std::string> want_set(predicted.begin(), predicted.end());
        std::set<std::string> got_set;
        for (const auto& r : refreshed.value())
          got_set.insert(native->db().run(r.run).activity);
        if (want_set != got_set)
          fail.add("adapter.retrace",
                   "trace retrace prediction (" + std::to_string(want_set.size()) +
                       " activities) != refresh_task re-runs (" +
                       std::to_string(got_set.size()) + ")");
      }
    }
  }
  return failures;
}

std::vector<ConformanceFailure> run_adversarial(const Scenario& scenario,
                                                const std::string& scratch_dir) {
  std::vector<ConformanceFailure> failures;
  Fails fail{&failures};
  if (scenario.graph.rules.empty()) return failures;
  const AdversarialPlan& plan = scenario.adversarial;
  auto reachable = reachable_rules(scenario.graph);
  if (reachable.empty()) return failures;
  std::unordered_set<std::string> in_tree;
  for (std::size_t i : reachable) in_tree.insert(scenario.graph.rules[i].name);
  auto preds = producer_sets(scenario.graph, reachable);

  std::vector<std::string> post_order;
  for (std::size_t i : reachable) post_order.push_back(scenario.graph.rules[i].name);
  // Declaration order is a valid topological order (generators only consume
  // earlier types), so driving in graph order is a legal post-order sweep.

  // --- (a) planned manager: mid-flight replans under the fault plan ---------
  auto made = planned_manager(scenario);
  if (!made.ok()) {
    fail.add("adversarial.setup", made.error().message);
    return failures;
  }
  std::unique_ptr<WorkflowManager> m1 = std::move(made).take();
  std::vector<int> replans = plan.replans;
  std::sort(replans.begin(), replans.end());
  std::size_t next_replan = 0, replans_done = 0;
  sched::ScheduleRunId current_plan = m1->plan_of("job").value();
  int completed = 0;
  bool crashed1 = false;
  for (const auto& act : post_order) {
    try {
      auto r = m1->run_activity("job", act, "adv");
      if (!r.ok()) break;  // abort semantics: stop at the first structural error
      if (!r.value().success) break;
    } catch (const exec::InjectedCrash&) {
      crashed1 = true;
      break;
    }
    ++completed;
    while (next_replan < replans.size() && replans[next_replan] <= completed) {
      ++next_replan;
      auto rp = m1->replan_task("job", {.anchor = m1->clock().now()});
      if (!rp.ok()) {
        fail.add("adversarial.replan", rp.error().message);
        continue;
      }
      const auto& p = m1->schedule_space().plan(rp.value());
      if (p.derived_from != current_plan)
        fail.add("adversarial.replan",
                 "replanned plan does not derive from the previous plan");
      if (m1->plan_of("job") != std::optional<sched::ScheduleRunId>(rp.value()))
        fail.add("adversarial.replan", "replan did not become the tracked plan");
      current_plan = rp.value();
      ++replans_done;
    }
  }
  if (!crashed1) {
    // Plan lineage after the storm: one ancestor per successful replan, the
    // head active and every ancestor superseded.
    auto lineage = m1->schedule_space().lineage(current_plan);
    if (lineage.size() != replans_done + 1) {
      fail.add("adversarial.lineage",
               "plan lineage depth " + std::to_string(lineage.size()) + " != " +
                   std::to_string(replans_done + 1));
    } else {
      const auto& space = m1->schedule_space();
      for (std::size_t i = 0; i < lineage.size(); ++i) {
        auto status = space.plan(lineage[i]).status;
        if ((i == 0) != (status == sched::PlanStatus::kActive)) {
          fail.add("adversarial.lineage",
                   "plan lineage statuses are not head-active/rest-superseded");
          break;
        }
      }
    }
  }

  // --- (b) journaled, UNPLANNED manager: edit storm + recovery ---------------
  // The journal records execution space only, so this manager never plans
  // (a plan would appear in the final save but not in the recovered one).
  auto made2 = make_manager(scenario);
  if (!made2.ok()) {
    fail.add("adversarial.setup", made2.error().message);
    return failures;
  }
  std::unique_ptr<WorkflowManager> m2 = std::move(made2).take();
  std::string path = scratch_journal_path(scratch_dir);
  std::string snapshot = hercules::save_to_json(*m2);
  if (!m2->enable_journal(path).ok()) {
    fail.add("adversarial.journal", "cannot open scratch journal");
    return failures;
  }

  bool crashed = false;
  auto drive = [&](const std::string& act, const std::string& designer) {
    try {
      auto r = m2->run_activity("job", act, designer);
      return r.ok() && r.value().success;
    } catch (const exec::InjectedCrash&) {
      crashed = true;
      return false;
    }
  };
  for (const auto& act : post_order) {
    if (!drive(act, "adv") ) break;
  }
  if (!crashed) {
    // Input revisions first, conflicting edits and the refresh after: the
    // journal captures bare imports with the NEXT recorded run, so a run
    // must always follow the revisions for the recovery identity to hold.
    auto primaries = scenario.graph.primary_inputs();
    for (std::size_t idx : plan.input_revisions) {
      if (primaries.empty()) break;
      const std::string& type = primaries[idx % primaries.size()];
      (void)m2->db().create_instance(type, type + ".in", meta::RunId{},
                                     util::DataObjectId{}, m2->clock().now());
    }
    for (const auto& edit : plan.edits) {
      if (crashed) break;
      const auto& rule =
          scenario.graph.rules[edit.rule % scenario.graph.rules.size()];
      if (!in_tree.count(rule.name)) continue;
      (void)drive(rule.name, edit.designer);
    }
    if (!crashed) {
      auto refreshed = ([&]() -> util::Result<std::vector<exec::ActivityRunResult>> {
        try {
          return m2->refresh_task("job", "adv");
        } catch (const exec::InjectedCrash&) {
          crashed = true;
          return std::vector<exec::ActivityRunResult>{};
        }
      })();
      if (!crashed && !refreshed.ok()) {
        fail.add("adversarial.refresh", refreshed.error().message);
        std::remove(path.c_str());
        return failures;
      }
    }
  }

  std::string journal;
  if (auto read = util::read_file(path); read.ok()) journal = std::move(read).take();
  std::remove(path.c_str());

  if (crashed) {
    auto rec = hercules::recover_from_json(snapshot, journal);
    if (!rec.ok())
      fail.add("adversarial.recover_crash", rec.error().message);
    else if (rec.value()->db().run_count() != hercules::journal_lines(journal).size())
      fail.add("adversarial.recover_crash",
               "recovered run count != journal line count after a crash storm");
  } else {
    std::string final_save = hercules::save_to_json(*m2);
    auto rec = hercules::recover_from_json(snapshot, journal);
    if (!rec.ok()) {
      fail.add("adversarial.recover_identity", rec.error().message);
    } else if (hercules::save_to_json(*rec.value()) != final_save) {
      fail.add("adversarial.recover_identity",
               "snapshot+journal replay differs from the post-storm save");
    }
  }

  // Query fast path stays coherent over the stormed state.
  query::QueryEngine fast(m2->db(), m2->schedule_space());
  query::QueryEngine slow(m2->db(), m2->schedule_space());
  slow.set_options({.use_index = false});
  for (const char* s : {"select count from runs group by activity",
                        "select count from runs group by designer",
                        "select count from instances group by type"}) {
    auto a = fast.execute(s);
    auto b = slow.execute(s);
    std::string fa = a.ok() ? a.value().render() : "error: " + a.error().message;
    std::string fb = b.ok() ? b.value().render() : "error: " + b.error().message;
    if (fa != fb)
      fail.add("adversarial.query",
               std::string("index path differs from scan path for '") + s + "'");
  }

  // Trace edges stay sound under multi-designer edits and revisions: every
  // observed predecessor must be a static producer of that activity.
  auto trace = adapters::TraceGraph::capture(m2->db());
  for (const auto& derived : trace.derive_flow()) {
    auto it = preds.find(derived.activity);
    if (it == preds.end()) {
      fail.add("adversarial.trace_edges",
               "trace observed unknown activity '" + derived.activity + "'");
      break;
    }
    for (const auto& p : derived.predecessors)
      if (!it->second.count(p)) {
        fail.add("adversarial.trace_edges",
                 "trace edge " + p + " -> " + derived.activity +
                     " is not in the generator graph");
        break;
      }
  }
  return failures;
}

}  // namespace herc::gen
