#include "exec/executor.hpp"

#include <algorithm>

#include "core/resources.hpp"

namespace herc::exec {

const char* failure_policy_name(FailurePolicy policy) {
  switch (policy) {
    case FailurePolicy::kAbort: return "abort";
    case FailurePolicy::kRetryThenAbort: return "retry_then_abort";
    case FailurePolicy::kContinueIndependent: return "continue_independent";
  }
  return "abort";
}

util::Result<FailurePolicy> parse_failure_policy(const std::string& name) {
  if (name == "abort") return FailurePolicy::kAbort;
  if (name == "retry_then_abort") return FailurePolicy::kRetryThenAbort;
  if (name == "continue_independent") return FailurePolicy::kContinueIndependent;
  return util::parse_error("unknown failure policy '" + name + "'");
}

struct Executor::Sweep {
  bool dispatch = false;         ///< runs overlap; the clock moves at the end
  bool resolve_from_db = false;  ///< unrun inputs resolve to the latest instances
  std::unordered_map<std::string, sched::Demand> demands;  ///< by activity
  sched::ResourceBookings bookings;
  /// Per node: the output this call produced and the minute it exists.
  std::vector<meta::EntityInstanceId> produced;
  std::vector<cal::WorkInstant> ready;
  cal::WorkInstant makespan;  ///< latest recorded finish, from the call's start

  Sweep(const flow::TaskTree& tree, cal::WorkInstant now)
      : produced(tree.nodes().size() + 1, meta::EntityInstanceId::invalid()),
        ready(tree.nodes().size() + 1),
        makespan(now) {}
};

namespace {

/// Publishes the per-call fault counters on scope exit, so they reach the
/// bus on every return path (including error returns).
struct FaultStatsGuard {
  explicit FaultStatsGuard(Executor& executor) : e_(&executor) {}
  ~FaultStatsGuard() { e_->publish_fault_stats(); }
  FaultStatsGuard(const FaultStatsGuard&) = delete;
  FaultStatsGuard& operator=(const FaultStatsGuard&) = delete;
  Executor* e_;
};

}  // namespace

util::Result<ExecutionResult> Executor::execute(const flow::TaskTree& tree,
                                                const std::string& designer) {
  obs::ScopedTimer timer(bus_, "execute", "exec");
  auto bound = tree.fully_bound();
  if (!bound.ok()) return bound.error();
  Sweep s(tree, clock_->now());
  return sweep(tree, designer, s);
}

util::Result<ActivityRunResult> Executor::execute_activity(const flow::TaskTree& tree,
                                                           flow::TaskNodeId activity,
                                                           const std::string& designer) {
  const flow::TaskNode& n = tree.node(activity);
  if (n.kind != flow::NodeKind::kActivity)
    return util::invalid("execute_activity: node " + activity.str() + " is a leaf");
  obs::ScopedTimer timer(bus_, "iterate", "exec");
  retries_ = timeouts_ = degraded_ = 0;
  FaultStatsGuard stats(*this);
  Sweep s(tree, clock_->now());
  s.resolve_from_db = true;
  std::vector<ActivityRunResult> attempts;
  return run_activity(tree, activity, designer, s, attempts);
}

util::Result<ExecutionResult> Executor::execute_concurrent(
    const flow::TaskTree& tree, const std::string& designer,
    const DispatchOptions& options) {
  obs::ScopedTimer timer(bus_, "dispatch", "exec");
  auto bound = tree.fully_bound();
  if (!bound.ok()) return bound.error();

  Sweep s(tree, clock_->now());
  s.dispatch = true;
  s.bookings = sched::ResourceBookings::of(*db_, cal::WorkInstant());
  const std::vector<int>& capacities = s.bookings.capacities();
  for (const auto& [activity, assigned] : options.assignments) {
    if (!tree.schema().find_rule_by_activity(activity))
      return util::not_found("dispatch: assignment for unknown activity '" + activity +
                             "'");
    std::vector<std::size_t> requirements;
    for (meta::ResourceId r : assigned) {
      if (!r.valid() || r.value() > capacities.size())
        return util::not_found("dispatch: unknown resource " + r.str());
      requirements.push_back(r.value() - 1);
    }
    auto demand = sched::demand_of(requirements, capacities);
    if (!demand.ok())
      return util::invalid("dispatch: activity '" + activity + "' " +
                           demand.error().message);
    s.demands.emplace(activity, std::move(demand).take());
  }

  auto result = sweep(tree, designer, s);
  clock_->advance_to(s.makespan);
  return result;
}

util::Result<ExecutionResult> Executor::sweep(const flow::TaskTree& tree,
                                              const std::string& designer, Sweep& s) {
  retries_ = timeouts_ = degraded_ = 0;
  FaultStatsGuard stats(*this);
  // kOk until a run fails (kFailed) or an ancestor of a failure is reached
  // (kSkipped, kContinueIndependent only).
  enum class NodeState : char { kOk, kFailed, kSkipped };
  std::vector<NodeState> state(tree.nodes().size() + 1, NodeState::kOk);
  const bool degrade = options_.on_failure == FailurePolicy::kContinueIndependent;

  ExecutionResult result;
  for (flow::TaskNodeId act : tree.activities_post_order()) {
    // Decide the skip before gathering inputs: a skipped activity must leave
    // no trace in the execution space.  An import created here would belong
    // to no run, so no journal line would ever cover it and snapshot+journal
    // recovery could not reproduce the state.
    bool input_lost = false;
    for (flow::TaskNodeId cid : tree.node(act).children)
      if (tree.node(cid).kind == flow::NodeKind::kActivity &&
          state[cid.value()] != NodeState::kOk)
        input_lost = true;
    if (input_lost) {  // degrade mode only: a failure stops the sweep otherwise
      state[act.value()] = NodeState::kSkipped;
      result.skipped.push_back(tree.activity_name(act));
      result.success = false;
      ++degraded_;
      continue;
    }
    auto one = run_activity(tree, act, designer, s, result.runs);
    if (!one.ok()) return one.error();
    if (!one.value().success) {
      result.success = false;
      if (!degrade) return result;  // designer must fix and re-run (iteration)
      state[act.value()] = NodeState::kFailed;
    }
  }
  result.final_output = s.produced[tree.root().value()];
  return result;
}

meta::EntityInstanceId Executor::import_input(const std::string& type_name,
                                              const std::string& data_name) {
  if (auto existing = db_->latest_named(type_name, data_name)) return *existing;
  // First use of an external input: synthesize its Level-4 data and register
  // a Level-3 instance with no producing run (an import).
  std::string content = "# imported " + type_name + " '" + data_name + "'\n";
  auto data_id = store_->create(data_name, type_name, std::move(content), clock_->now());
  auto inst = db_->create_instance(type_name, data_name, meta::RunId::invalid(), data_id,
                                   clock_->now());
  // create_instance only fails on unknown/tool types; the tree guarantees a
  // valid data type here.
  return inst.value();
}

util::Result<ActivityRunResult> Executor::run_activity(
    const flow::TaskTree& tree, flow::TaskNodeId activity, const std::string& designer,
    Sweep& s, std::vector<ActivityRunResult>& attempts) {
  const flow::TaskNode& node = tree.node(activity);
  const auto& schema = tree.schema();
  const auto& rule = schema.rule(node.rule);
  const std::string& output_type = schema.type(node.type).name;

  // Gather input instances from the node's children (tool leaf is last),
  // once for every attempt.  The run can start when the clock has reached
  // the call's position and every child activity's output exists.
  std::vector<meta::EntityInstanceId> inputs;
  std::string tool_binding;
  cal::WorkInstant ready = clock_->now();
  for (flow::TaskNodeId child_id : node.children) {
    const flow::TaskNode& child = tree.node(child_id);
    switch (child.kind) {
      case flow::NodeKind::kToolLeaf:
        tool_binding = child.binding;
        break;
      case flow::NodeKind::kDataLeaf: {
        if (child.binding.empty())
          return util::unbound("data leaf '" + schema.type(child.type).name +
                               "' is unbound");
        inputs.push_back(import_input(schema.type(child.type).name, child.binding));
        break;
      }
      case flow::NodeKind::kActivity: {
        meta::EntityInstanceId inst = s.produced[child_id.value()];
        if (!inst.valid() && s.resolve_from_db) {
          const std::string& child_type = schema.type(child.type).name;
          auto latest = db_->latest_in_container(child_type);
          if (!latest)
            return util::conflict("iteration of '" + rule.activity + "': input type '" +
                                  child_type + "' has no instance yet; run '" +
                                  tree.activity_name(child_id) + "' first");
          inst = *latest;
        }
        if (!inst.valid())
          return util::conflict("internal: child activity '" +
                                tree.activity_name(child_id) + "' produced no output");
        inputs.push_back(inst);
        ready = std::max(ready, s.ready[child_id.value()]);
        break;
      }
    }
  }
  if (tool_binding.empty())
    return util::unbound("activity '" + rule.activity + "' has no bound tool");

  const RetryPolicy& policy = options_.policy_for(tool_binding);
  const int max_attempts = options_.on_failure == FailurePolicy::kAbort
                               ? 1  // seed behavior
                               : std::max(1, policy.max_attempts);
  static const sched::Demand kNoDemand;
  auto assigned = s.demands.find(rule.activity);
  const sched::Demand& demand =
      assigned == s.demands.end() ? kNoDemand : assigned->second;

  for (int attempt = 1;; ++attempt) {
    // Build the invocation from the inputs' Level-4 content.
    ToolInvocation inv;
    inv.activity = rule.activity;
    inv.output_type = output_type;
    inv.attempt = static_cast<int>(db_->runs_of_activity(rule.activity).size()) + 1;
    for (meta::EntityInstanceId in : inputs) {
      const auto& e = db_->instance(in);
      inv.input_names.push_back(e.name + " v" + std::to_string(e.version));
      inv.input_contents.push_back(e.data.valid() ? store_->get(e.data).content : "");
    }
    auto outcome = tools_->invoke(tool_binding, schema.type(rule.tool).name, inv);
    if (!outcome.ok()) return outcome.error();
    const ToolOutcome& oc = outcome.value();

    // Timeout budget: a run whose simulated duration exceeds it is killed at
    // the budget — the designer gets a failed run after `timeout` work time,
    // not a success after however long the tool would have taken.
    cal::WorkDuration duration = oc.duration;
    const bool timed_out =
        policy.timeout.count_minutes() > 0 && duration > policy.timeout;
    if (timed_out) duration = policy.timeout;

    const cal::WorkInstant start(s.bookings.earliest_fit(
        demand, ready.minutes_since_epoch(), duration.count_minutes()));
    auto finished = calendar_->checked_add(start, duration);
    if (!finished.ok())
      return util::invalid("run of '" + rule.activity + "': " + finished.error().message);
    const cal::WorkInstant finish = finished.value();
    s.bookings.book(demand, start.minutes_since_epoch(), finish.minutes_since_epoch());
    if (!s.dispatch) clock_->advance_to(finish);

    meta::Run run;
    run.activity = rule.activity;
    run.rule = rule.id;
    run.tool_binding = tool_binding;
    run.designer = designer;
    run.inputs = inputs;
    run.started_at = start;
    run.finished_at = finish;
    publish_run(obs::EventKind::kRunStarted, run, attempt, timed_out);

    ActivityRunResult one;
    one.attempt = attempt;
    one.timed_out = timed_out;
    one.success = oc.success && !timed_out;
    if (one.success) {
      auto data_id = store_->create(output_type, output_type, oc.content, finish);
      auto inst = db_->create_instance(output_type, output_type, meta::RunId::invalid(),
                                       data_id, finish);
      if (!inst.ok()) return inst.error();
      run.output = inst.value();
      run.status = meta::RunStatus::kCompleted;
      one.output = inst.value();
    } else {
      run.status = meta::RunStatus::kFailed;
    }
    auto run_id = db_->record_run(std::move(run));
    if (!run_id.ok()) return run_id.error();
    one.run = run_id.value();
    s.makespan = std::max(s.makespan, finish);
    publish_run(obs::EventKind::kRunFinished, db_->run(one.run), attempt, timed_out);
    attempts.push_back(one);
    if (timed_out) ++timeouts_;

    if (one.success) {
      s.produced[activity.value()] = one.output;
      s.ready[activity.value()] = finish;
      return one;
    }
    if (attempt >= max_attempts) return one;
    // Re-attempt after the policy's work-time backoff (think time while the
    // designer or the farm recovers the tool).
    auto retry_at = calendar_->checked_add(finish, policy.backoff);
    if (!retry_at.ok())
      return util::invalid("retry of '" + rule.activity + "': " +
                           retry_at.error().message);
    ready = retry_at.value();
    ++retries_;
  }
}

void Executor::publish_run(obs::EventKind kind, const meta::Run& run, int attempt,
                           bool timed_out) {
  if (!obs::on(bus_)) return;
  obs::Event e;
  e.kind = kind;
  e.name = run.activity;
  e.category = "exec";
  e.work_start = run.started_at;
  e.args = {{"designer", run.designer}, {"tool", run.tool_binding}};
  if (attempt > 1) e.args.emplace_back("attempt", std::to_string(attempt));
  if (kind == obs::EventKind::kRunFinished) {
    e.id = run.id.value();
    e.work_finish = run.finished_at;
    e.failed = run.status == meta::RunStatus::kFailed;
    if (timed_out) e.args.emplace_back("timed_out", "1");
  }
  bus_->publish(std::move(e));
}

void Executor::publish_fault_stats() {
  if (retries_ == 0 && timeouts_ == 0 && degraded_ == 0) return;
  if (!obs::on(bus_)) return;
  // Counter-delta carrier, same idiom as cpm.solver: the MetricsRegistry
  // folds these into run_retries / run_timeouts / runs_degraded.
  obs::Event e;
  e.kind = obs::EventKind::kScope;
  e.name = "exec.faults";
  e.category = "exec";
  if (retries_ > 0) e.args.emplace_back("retries", std::to_string(retries_));
  if (timeouts_ > 0) e.args.emplace_back("timeouts", std::to_string(timeouts_));
  if (degraded_ > 0) e.args.emplace_back("degraded", std::to_string(degraded_));
  bus_->publish(std::move(e));
}

}  // namespace herc::exec
