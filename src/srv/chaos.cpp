#include "srv/chaos.hpp"

#include <filesystem>
#include <map>
#include <sstream>

#include "gen/gen.hpp"
#include "hercules/persist.hpp"
#include "srv/shard.hpp"
#include "util/faultfs.hpp"

namespace herc::srv {

namespace {

namespace fs = std::filesystem;

using util::Json;
using util::JsonObject;

/// What one faulted workload run left behind.
struct TrialOutcome {
  /// run_count -> serialized state at each ACKNOWLEDGED op (last wins; ops
  /// that do not add runs, like `save`, overwrite the same key with equal
  /// bytes).
  std::map<std::uint64_t, std::string> acked_states;
  std::uint64_t last_acked_runs = 0;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  bool read_only = false;
  std::string probe_violation;  ///< degradation-contract break, if any
};

wire::Request make_request(std::uint64_t id, std::string op,
                           JsonObject args = {}) {
  wire::Request r;
  r.id = id;
  r.project = "chaos";
  r.op = std::move(op);
  r.args = std::move(args);
  return r;
}

/// Drives the fixed workload against a fresh shard in `dir`.  A FaultFs (or
/// none, for the counting pass) must already be installed by the caller.
util::Result<TrialOutcome> drive(const gen::Scenario& scenario,
                                 const std::string& dir,
                                 const ChaosOptions& options) {
  ShardOptions sopts;
  sopts.dir = dir;
  sopts.durable = true;
  auto created = ProjectShard::create("chaos", scenario, sopts);
  if (!created.ok()) return created.error();
  std::unique_ptr<ProjectShard> shard = std::move(created).take();

  TrialOutcome out;
  std::uint64_t id = 0;
  auto record_if_acked = [&](const wire::Response& response) {
    if (response.ok) {
      ++out.acked;
      out.last_acked_runs = shard->manager_for_test().db().run_count();
      out.acked_states[out.last_acked_runs] =
          hercules::save_to_json(shard->manager_for_test());
    } else {
      ++out.failed;
    }
  };

  {
    JsonObject args;
    args.set("name", std::string("p"));
    record_if_acked(shard->apply(make_request(++id, "plan", std::move(args))));
  }
  for (int n = 1; n <= options.ops; ++n) {
    JsonObject args;
    args.set("designer", std::string("d"));
    record_if_acked(
        shard->apply(make_request(++id, "execute", std::move(args))));
    if (options.save_every > 0 && n % options.save_every == 0)
      record_if_acked(shard->apply(make_request(++id, "save")));
  }

  out.read_only = shard->read_only();
  if (out.read_only) {
    // Contract 5: a degraded shard keeps answering reads and stats but
    // rejects mutations with a retryable error.
    auto read = shard->apply(make_request(++id, "status"));
    if (!read.ok)
      out.probe_violation = "read-only shard refused a read: " +
                            read.error.str();
    auto stats = shard->apply(make_request(++id, "stats"));
    if (out.probe_violation.empty() && !stats.ok)
      out.probe_violation = "read-only shard refused stats: " +
                            stats.error.str();
    JsonObject args;
    args.set("designer", std::string("d"));
    auto write = shard->apply(make_request(++id, "execute", std::move(args)));
    if (out.probe_violation.empty() && write.ok)
      out.probe_violation = "read-only shard acknowledged a mutation";
    if (out.probe_violation.empty() && !write.error.retryable())
      out.probe_violation =
          "read-only shard rejected a mutation with a non-retryable error: " +
          write.error.str();
  } else if (out.failed > 0) {
    out.probe_violation =
        "an op failed on a storage fault but the shard did not degrade";
  }
  // Plain destruction, no final snapshot: only bytes already in `dir`
  // survive, exactly like a process death.
  return out;
}

/// Recovers the trial directory and checks contracts 1-4 against what the
/// faulted run acknowledged.  Appends violations to `violations`.
void verify_recovery(const std::string& label, const std::string& dir,
                     const TrialOutcome& outcome, ChaosReport& report) {
  ShardOptions sopts;
  sopts.dir = dir;
  sopts.durable = true;

  auto recovered = ProjectShard::recover("chaos", sopts);
  if (!recovered.ok()) {
    report.violations.push_back(label + ": recovery failed: " +
                                recovered.error().str());
    return;
  }
  ++report.recoveries;
  const std::uint64_t runs = recovered.value()->manager_for_test().db().run_count();
  const std::string state =
      hercules::save_to_json(recovered.value()->manager_for_test());

  if (runs < outcome.last_acked_runs) {
    report.violations.push_back(
        label + ": acknowledged work lost (recovered " + std::to_string(runs) +
        " runs, last ack had " + std::to_string(outcome.last_acked_runs) + ")");
    return;
  }
  auto it = outcome.acked_states.find(runs);
  if (it != outcome.acked_states.end() && state != it->second) {
    report.violations.push_back(
        label + ": recovered state diverged from the state at ack (" +
        std::to_string(runs) + " runs)");
    return;
  }
  // Contract 4: recover() re-snapshotted the directory; recovering again
  // from that must reproduce the same bytes.
  recovered.value().reset();
  auto again = ProjectShard::recover("chaos", sopts);
  if (!again.ok()) {
    report.violations.push_back(label + ": second recovery failed: " +
                                again.error().str());
    return;
  }
  if (hercules::save_to_json(again.value()->manager_for_test()) != state)
    report.violations.push_back(label +
                                ": recovery is not a fixed point "
                                "(re-recovering changed the state)");
}

/// One faulted trial end to end: fresh dir, drive under the plan, recover,
/// verify.
void run_trial(const std::string& label, const gen::Scenario& scenario,
               const fs::path& dir, std::uint64_t fault_seed,
               const util::FsFaultPlan& plan, const ChaosOptions& options,
               ChaosReport& report) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  ++report.trials;

  util::Result<TrialOutcome> outcome = util::invalid("trial did not run");
  {
    util::ScopedFaultFs faults(fault_seed, plan);
    outcome = drive(scenario, dir.string(), options);
    report.faults_injected += faults.fs().injected();
  }
  if (!outcome.ok()) {
    // Shard construction itself failed — possible when the fault lands in
    // the very first snapshot.  Nothing was acknowledged, so there is
    // nothing to verify; the directory may not even have a snapshot.
    return;
  }
  report.acked_ops += outcome.value().acked;
  report.failed_ops += outcome.value().failed;
  if (outcome.value().read_only) ++report.read_only_trials;
  if (!outcome.value().probe_violation.empty())
    report.violations.push_back(label + ": " +
                                outcome.value().probe_violation);
  verify_recovery(label, dir.string(), outcome.value(), report);
  fs::remove_all(dir, ec);
}

}  // namespace

Json ChaosReport::to_json() const {
  JsonObject o;
  o.set("io_points", static_cast<std::int64_t>(io_points));
  o.set("trials", static_cast<std::int64_t>(trials));
  o.set("faults_injected", static_cast<std::int64_t>(faults_injected));
  o.set("acked_ops", static_cast<std::int64_t>(acked_ops));
  o.set("failed_ops", static_cast<std::int64_t>(failed_ops));
  o.set("read_only_trials", static_cast<std::int64_t>(read_only_trials));
  o.set("recoveries", static_cast<std::int64_t>(recoveries));
  util::JsonArray v;
  for (const auto& violation : violations) v.emplace_back(violation);
  o.set("violations", std::move(v));
  return Json(std::move(o));
}

std::string ChaosReport::summary() const {
  std::ostringstream out;
  out << trials << " trials over " << io_points << " IO points, "
      << faults_injected << " faults injected, " << acked_ops << " acked / "
      << failed_ops << " failed ops, " << read_only_trials
      << " read-only degradations, " << recoveries << " recoveries, "
      << violations.size() << " violations";
  for (const auto& violation : violations) out << "\n  VIOLATION: " << violation;
  return out.str();
}

util::Result<ChaosReport> run_chaos(const ChaosOptions& options) {
  const fs::path root(options.dir);
  std::error_code ec;
  fs::create_directories(root, ec);
  if (!fs::is_directory(root))
    return util::invalid("chaos: cannot create scratch dir '" + options.dir +
                         "'");

  gen::ScenarioSpec spec;
  spec.seed = options.seed;
  auto shape = gen::parse_shape("layered");
  if (shape.ok()) spec.shape = shape.value();
  spec.size = options.flow_size;
  const gen::Scenario scenario = gen::generate(spec);

  ChaosReport report;

  // Counting pass: an installed-but-empty FaultFs tallies the workload's IO
  // points (scoped to this trial's directory) without injecting anything.
  {
    const fs::path dir = root / "clean";
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    util::FsFaultPlan count_plan;
    count_plan.path_filter = dir.string();
    util::ScopedFaultFs counter(options.seed, count_plan);
    auto outcome = drive(scenario, dir.string(), options);
    if (!outcome.ok()) return outcome.error();
    if (outcome.value().failed != 0)
      return util::invalid("chaos: clean pass had failing ops");
    report.io_points = counter.fs().ops();
    fs::remove_all(dir, ec);
  }

  std::uint64_t points = report.io_points;
  if (options.max_points != 0 && points > options.max_points)
    points = options.max_points;

  // The deterministic sweep: every IO point x every fault kind.
  struct Kind {
    const char* name;
    void (*arm)(util::FsFaultPlan&, std::uint64_t);
  };
  static const Kind kKinds[] = {
      {"eio", [](util::FsFaultPlan& p, std::uint64_t k) { p.eio_on = {k}; }},
      {"enospc",
       [](util::FsFaultPlan& p, std::uint64_t k) { p.enospc_on = {k}; }},
      {"short",
       [](util::FsFaultPlan& p, std::uint64_t k) { p.short_write_on = {k}; }},
      {"torn",
       [](util::FsFaultPlan& p, std::uint64_t k) { p.torn_write_on = {k}; }},
      {"crash", [](util::FsFaultPlan& p, std::uint64_t k) { p.crash_at = k; }},
  };
  for (std::uint64_t k = 1; k <= points; ++k) {
    for (const Kind& kind : kKinds) {
      const fs::path dir =
          root / (std::string(kind.name) + "_" + std::to_string(k));
      util::FsFaultPlan plan;
      plan.path_filter = dir.string();
      kind.arm(plan, k);
      run_trial(std::string(kind.name) + "@" + std::to_string(k), scenario,
                dir, options.seed, plan, options, report);
    }
  }

  // Probabilistic trials: several faults per run, hash-placed from the seed.
  for (int t = 0; t < options.random_trials; ++t) {
    const fs::path dir = root / ("prob_" + std::to_string(t));
    util::FsFaultPlan plan;
    plan.path_filter = dir.string();
    plan.fail_prob = options.fail_prob;
    run_trial("prob@" + std::to_string(t), scenario, dir,
              options.seed + static_cast<std::uint64_t>(t) + 1, plan, options,
              report);
  }

  fs::remove_all(root, ec);
  return report;
}

}  // namespace herc::srv
