#include "exec/executor.hpp"

#include <algorithm>
#include <stdexcept>

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

int Executor::attempts_allowed(const std::string& tool_binding) const {
  if (options_.on_failure == FailurePolicy::kAbort) return 1;  // seed behavior
  return std::max(1, options_.policy_for(tool_binding).max_attempts);
}

util::Result<ActivityRunResult> Executor::run_with_retry(
    const flow::TaskTree& tree, flow::TaskNodeId activity,
    const std::string& designer, bool resolve_from_db,
    std::vector<ActivityRunResult>& all_attempts) {
  std::string binding;
  for (flow::TaskNodeId cid : tree.node(activity).children)
    if (tree.node(cid).kind == flow::NodeKind::kToolLeaf)
      binding = tree.node(cid).binding;
  const int max_attempts = attempts_allowed(binding);
  const RetryPolicy& policy = options_.policy_for(binding);

  for (int attempt = 1;; ++attempt) {
    auto one = run_one(tree, activity, designer, resolve_from_db, attempt);
    if (!one.ok()) return one;  // structural error (unbound, conflict): not retryable
    all_attempts.push_back(one.value());
    if (one.value().timed_out) ++timeouts_;
    if (one.value().success || attempt >= max_attempts) return one;
    // Re-attempt after the policy's work-time backoff (think time while the
    // designer or the farm recovers the tool).
    clock_->advance(policy.backoff);
    ++retries_;
  }
}

util::Result<ExecutionResult> Executor::execute(const flow::TaskTree& tree,
                                                const std::string& designer) {
  obs::ScopedTimer timer(bus_, "execute", "exec");
  retries_ = timeouts_ = degraded_ = 0;
  FaultStatsGuard stats(*this);
  auto bound = tree.fully_bound();
  if (!bound.ok()) return bound.error();

  produced_.assign(tree.nodes().size() + 1, meta::EntityInstanceId::invalid());
  // kOk until a run fails (kFailed) or an ancestor of a failure is reached
  // (kSkipped, kContinueIndependent only).
  enum class NodeState : char { kOk, kFailed, kSkipped };
  std::vector<NodeState> state(tree.nodes().size() + 1, NodeState::kOk);
  const bool degrade = options_.on_failure == FailurePolicy::kContinueIndependent;

  ExecutionResult result;
  for (flow::TaskNodeId act : tree.activities_post_order()) {
    if (degrade) {
      bool input_lost = false;
      for (flow::TaskNodeId cid : tree.node(act).children) {
        if (tree.node(cid).kind != flow::NodeKind::kActivity) continue;
        if (state[cid.value()] != NodeState::kOk) input_lost = true;
      }
      if (input_lost) {
        state[act.value()] = NodeState::kSkipped;
        result.skipped.push_back(tree.activity_name(act));
        result.success = false;
        ++degraded_;
        continue;
      }
    }
    auto one = run_with_retry(tree, act, designer, /*resolve_from_db=*/false,
                              result.runs);
    if (!one.ok()) return one.error();
    if (!one.value().success) {
      result.success = false;
      if (!degrade) return result;  // designer must fix and re-run (iteration)
      state[act.value()] = NodeState::kFailed;
      continue;
    }
    produced_[act.value()] = one.value().output;
  }
  result.final_output = produced_[tree.root().value()];
  return result;
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
  produced_.assign(tree.nodes().size() + 1, meta::EntityInstanceId::invalid());
  std::vector<ActivityRunResult> attempts;
  return run_with_retry(tree, activity, designer, /*resolve_from_db=*/true, attempts);
}

util::Result<ExecutionResult> Executor::execute_concurrent(
    const flow::TaskTree& tree, const std::string& designer,
    const DispatchOptions& options) {
  obs::ScopedTimer timer(bus_, "dispatch", "exec");
  retries_ = timeouts_ = degraded_ = 0;
  FaultStatsGuard stats(*this);
  auto bound = tree.fully_bound();
  if (!bound.ok()) return bound.error();
  const auto& schema = tree.schema();
  for (const auto& [activity, resources] : options.assignments) {
    if (!schema.find_rule_by_activity(activity))
      return util::not_found("dispatch: assignment for unknown activity '" + activity +
                             "'");
    for (meta::ResourceId r : resources)
      if (!r.valid() || r.value() > db_->resources().size())
        return util::not_found("dispatch: unknown resource " + r.str());
  }

  produced_.assign(tree.nodes().size() + 1, meta::EntityInstanceId::invalid());
  enum class NodeState : char { kOk, kFailed, kSkipped };
  std::vector<NodeState> state(tree.nodes().size() + 1, NodeState::kOk);
  const bool degrade = options_.on_failure == FailurePolicy::kContinueIndependent;

  // Per-resource booked intervals (same serial-dispatch rule as leveling).
  // A failed run's booking still ends at its recorded finish, so resources
  // held by a failed activity are released for everything dispatched later.
  struct Interval {
    std::int64_t start, finish;
  };
  std::vector<std::vector<Interval>> booked(db_->resources().size());
  auto usage_at = [&](std::size_t r, std::int64_t t) {
    int n = 0;
    for (const auto& iv : booked[r])
      if (iv.start <= t && t < iv.finish) ++n;
    return n;
  };

  std::vector<std::int64_t> node_finish(tree.nodes().size() + 1, 0);
  const std::int64_t base = clock_->now().minutes_since_epoch();
  std::int64_t makespan_abs = base;

  ExecutionResult result;
  for (flow::TaskNodeId act : tree.activities_post_order()) {
    const flow::TaskNode& node = tree.node(act);
    const auto& rule = schema.rule(node.rule);
    const std::string& output_type = schema.type(node.type).name;

    // Decide skip BEFORE importing (like the serial sweep): a skipped
    // activity must leave no trace in the execution space — an import
    // created here would belong to no run, so no journal line would ever
    // cover it and snapshot+journal recovery could not reproduce the state.
    bool input_lost = false;
    for (flow::TaskNodeId child_id : node.children) {
      const flow::TaskNode& child = tree.node(child_id);
      if (child.kind == flow::NodeKind::kActivity &&
          state[child_id.value()] != NodeState::kOk)
        input_lost = true;
    }
    if (input_lost) {  // degrade mode only: failures stop the sweep otherwise
      state[act.value()] = NodeState::kSkipped;
      result.skipped.push_back(rule.activity);
      result.success = false;
      ++degraded_;
      continue;
    }

    // Inputs: imports materialize at `base`; activity children at their
    // dispatch finish.
    std::vector<meta::EntityInstanceId> inputs;
    std::string tool_binding;
    std::int64_t ready = base;
    for (flow::TaskNodeId child_id : node.children) {
      const flow::TaskNode& child = tree.node(child_id);
      if (child.kind == flow::NodeKind::kToolLeaf) {
        tool_binding = child.binding;
      } else if (child.kind == flow::NodeKind::kDataLeaf) {
        inputs.push_back(import_input(schema.type(child.type).name, child.binding));
      } else {
        inputs.push_back(produced_[child_id.value()]);
        ready = std::max(ready, node_finish[child_id.value()]);
      }
    }

    const RetryPolicy& policy = options_.policy_for(tool_binding);
    const int max_attempts = attempts_allowed(tool_binding);

    // Resources this activity occupies while running (capacity bookings).
    std::vector<std::size_t> required;
    if (auto it = options.assignments.find(rule.activity);
        it != options.assignments.end())
      for (meta::ResourceId r : it->second) required.push_back(r.value() - 1);

    ActivityRunResult one;
    std::int64_t finish = ready;
    for (int attempt = 1;; ++attempt) {
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
      std::int64_t duration = oc.duration.count_minutes();
      bool timed_out = false;
      if (policy.timeout.count_minutes() > 0 &&
          duration > policy.timeout.count_minutes()) {
        duration = policy.timeout.count_minutes();  // killed at the budget
        timed_out = true;
      }

      // Earliest feasible start: `ready`, or a booked-interval end after it
      // on a required resource (capacity only frees up there).
      std::int64_t start = ready;
      {
        std::vector<std::int64_t> candidates{ready};
        for (std::size_t r : required)
          for (const auto& iv : booked[r])
            if (iv.finish > ready) candidates.push_back(iv.finish);
        std::sort(candidates.begin(), candidates.end());
        for (std::int64_t t : candidates) {
          bool feasible = true;
          for (std::size_t r : required) {
            int cap = db_->resources()[r].capacity;
            if (usage_at(r, t) >= cap) feasible = false;
            for (const auto& iv : booked[r])
              if (iv.start > t && iv.start < t + duration && usage_at(r, iv.start) >= cap)
                feasible = false;
            if (!feasible) break;
          }
          if (feasible) {
            start = t;
            break;
          }
        }
      }
      finish = start + duration;
      for (std::size_t r : required) booked[r].push_back({start, finish});

      meta::Run run;
      run.activity = rule.activity;
      run.rule = rule.id;
      run.tool_binding = tool_binding;
      run.designer = designer;
      run.inputs = inputs;
      run.started_at = cal::WorkInstant(start);
      run.finished_at = cal::WorkInstant(finish);

      one = ActivityRunResult{};
      one.attempt = attempt;
      one.timed_out = timed_out;
      const bool run_ok = oc.success && !timed_out;
      if (run_ok) {
        auto data_id = store_->create(output_type, output_type, oc.content,
                                      cal::WorkInstant(finish));
        auto inst = db_->create_instance(output_type, output_type, meta::RunId::invalid(),
                                         data_id, cal::WorkInstant(finish));
        if (!inst.ok()) return inst.error();
        run.output = inst.value();
        run.status = meta::RunStatus::kCompleted;
        one.output = inst.value();
        one.success = true;
      } else {
        run.status = meta::RunStatus::kFailed;
        one.success = false;
        if (timed_out) ++timeouts_;
      }
      auto run_id = db_->record_run(std::move(run));
      if (!run_id.ok()) return run_id.error();
      one.run = run_id.value();
      publish_run(db_->run(one.run), attempt, timed_out);
      result.runs.push_back(one);
      makespan_abs = std::max(makespan_abs, finish);

      if (one.success || attempt >= max_attempts) break;
      ready = finish + policy.backoff.count_minutes();
      ++retries_;
    }

    if (!one.success) {
      result.success = false;
      if (!degrade) {
        clock_->advance_to(cal::WorkInstant(makespan_abs));
        return result;
      }
      state[act.value()] = NodeState::kFailed;
      continue;
    }
    produced_[act.value()] = one.output;
    node_finish[act.value()] = finish;
  }

  result.final_output = produced_[tree.root().value()];
  clock_->advance_to(cal::WorkInstant(makespan_abs));
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

util::Result<ActivityRunResult> Executor::run_one(const flow::TaskTree& tree,
                                                  flow::TaskNodeId activity,
                                                  const std::string& designer,
                                                  bool resolve_from_db, int attempt) {
  const flow::TaskNode& node = tree.node(activity);
  const auto& schema = tree.schema();
  const auto& rule = schema.rule(node.rule);
  const std::string& output_type = schema.type(node.type).name;

  // Gather input instances from the node's children (tool leaf is last).
  std::vector<meta::EntityInstanceId> inputs;
  std::string tool_binding;
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
        meta::EntityInstanceId inst = produced_[child_id.value()];
        if (!inst.valid() && resolve_from_db) {
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
        break;
      }
    }
  }
  if (tool_binding.empty())
    return util::unbound("activity '" + rule.activity + "' has no bound tool");

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

  if (obs::on(bus_)) {
    obs::Event e;
    e.kind = obs::EventKind::kRunStarted;
    e.name = rule.activity;
    e.category = "exec";
    e.work_start = clock_->now();
    e.args = {{"designer", designer}, {"tool", tool_binding}};
    if (attempt > 1) e.args.emplace_back("attempt", std::to_string(attempt));
    bus_->publish(std::move(e));
  }

  auto outcome = tools_->invoke(tool_binding, schema.type(rule.tool).name, inv);
  if (!outcome.ok()) return outcome.error();
  const ToolOutcome& oc = outcome.value();

  // Timeout budget: a run whose simulated duration exceeds it is killed at
  // the budget — the designer gets a failed run after `timeout` work time,
  // not a success after however long the tool would have taken.
  const RetryPolicy& policy = options_.policy_for(tool_binding);
  cal::WorkDuration duration = oc.duration;
  bool timed_out = false;
  if (policy.timeout.count_minutes() > 0 && duration > policy.timeout) {
    duration = policy.timeout;
    timed_out = true;
  }

  cal::WorkInstant started = clock_->now();
  clock_->advance(duration);
  cal::WorkInstant finished = clock_->now();

  meta::Run run;
  run.activity = rule.activity;
  run.rule = rule.id;
  run.tool_binding = tool_binding;
  run.designer = designer;
  run.inputs = inputs;
  run.started_at = started;
  run.finished_at = finished;

  ActivityRunResult result;
  result.attempt = attempt;
  result.timed_out = timed_out;
  if (oc.success && !timed_out) {
    auto data_id = store_->create(output_type, output_type, oc.content, finished);
    auto inst = db_->create_instance(output_type, output_type, meta::RunId::invalid(),
                                     data_id, finished);
    if (!inst.ok()) return inst.error();
    run.output = inst.value();
    run.status = meta::RunStatus::kCompleted;
    result.output = inst.value();
    result.success = true;
  } else {
    run.status = meta::RunStatus::kFailed;
    result.success = false;
  }

  auto run_id = db_->record_run(std::move(run));
  if (!run_id.ok()) return run_id.error();
  result.run = run_id.value();
  publish_run(db_->run(result.run), attempt, timed_out);
  return result;
}

void Executor::publish_run(const meta::Run& run, int attempt, bool timed_out) {
  if (!obs::on(bus_)) return;
  obs::Event e;
  e.kind = obs::EventKind::kRunFinished;
  e.name = run.activity;
  e.category = "exec";
  e.id = run.id.value();
  e.work_start = run.started_at;
  e.work_finish = run.finished_at;
  e.failed = run.status == meta::RunStatus::kFailed;
  e.args = {{"designer", run.designer}, {"tool", run.tool_binding}};
  if (attempt > 1) e.args.emplace_back("attempt", std::to_string(attempt));
  if (timed_out) e.args.emplace_back("timed_out", "1");
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
