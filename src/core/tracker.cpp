#include "core/tracker.hpp"

#include <algorithm>

namespace herc::sched {

ScheduleTracker::ScheduleTracker(ScheduleSpace& space, meta::Database& db)
    : space_(&space), db_(&db) {
  db_->add_observer(this);
}

ScheduleTracker::~ScheduleTracker() { db_->remove_observer(this); }

void ScheduleTracker::watch_plan(ScheduleRunId plan) { plan_ = plan; }

void ScheduleTracker::on_run_recorded(const meta::Run& run) {
  if (!plan_) return;
  auto nid = space_->node_in_plan(*plan_, run.activity);
  if (!nid) return;
  ScheduleNode& node = space_->node_mut(*nid);
  // "Once a data instance for the particular task is created, the actual
  // start date for the task is set."
  if (!node.actual_start) node.actual_start = run.started_at;
  project(run.finished_at);
}

util::Status ScheduleTracker::link_completion(const std::string& activity,
                                              meta::EntityInstanceId instance,
                                              cal::WorkInstant linked_at) {
  if (!plan_) return util::invalid("link_completion: no plan is being watched");
  auto nid = space_->node_in_plan(*plan_, activity);
  if (!nid)
    return util::not_found("link_completion: activity '" + activity +
                           "' is not in the watched plan");
  const meta::EntityInstance& e = db_->instance(instance);

  auto linked = space_->add_link(*nid, instance, linked_at);
  if (!linked.ok()) return linked.error();

  ScheduleNode& node = space_->node_mut(*nid);
  node.completed = true;
  // Actuals come from the producing run's metadata; an imported instance
  // (no run) falls back to its creation time.
  if (e.produced_by.valid()) {
    const meta::Run& run = db_->run(e.produced_by);
    if (!node.actual_start) node.actual_start = run.started_at;
    node.actual_finish = run.finished_at;
  } else {
    if (!node.actual_start) node.actual_start = e.created_at;
    node.actual_finish = e.created_at;
  }
  if (obs::on(bus_)) {
    obs::Event ev;
    ev.kind = obs::EventKind::kActivityLinked;
    ev.name = activity;
    ev.category = "track";
    ev.id = nid->value();
    ev.work_start = linked_at;
    ev.args = {{"instance", instance.str()}, {"plan", plan_->str()}};
    bus_->publish(std::move(ev));
  }
  project(linked_at);
  return util::Status::ok_status();
}

void ScheduleTracker::project(cal::WorkInstant now) {
  if (!plan_) return;
  const std::int64_t t0 = obs::on(bus_) ? obs::EventBus::wall_now_ns() : 0;
  const ScheduleRun& plan = space_->plan(*plan_);
  const auto& node_ids = plan.nodes;
  if (node_ids.empty()) return;

  const std::int64_t now_rel = minutes_after(plan.anchor, now);

  // Node i in the plan network as tracking reads it: work not yet finished
  // still needs its estimate and cannot finish before `now`; unstarted work
  // cannot start before `now`.
  auto span_now = [&](std::size_t i) {
    const ScheduleNode& n = space_->node(node_ids[i]);
    if (pinned(n)) return node_span(n, plan.anchor);
    const std::int64_t estimate = n.est_duration.count_minutes();
    if (!n.actual_start) return NodeSpan{now_rel, estimate};
    const std::int64_t start = node_span(n, plan.anchor).release;
    return NodeSpan{start, std::max(start + estimate, now_rel) - start};
  };

  // The plan's node/dep lists are append-only, so count equality means the
  // cached compiled network is still this network.
  const bool reuse = cache_ && cache_->plan == *plan_ &&
                     cache_->nodes == node_ids.size() &&
                     cache_->deps == plan.deps.size();
  if (!reuse) {
    std::vector<CpmActivity> acts = plan_network(*space_, plan);
    for (std::size_t i = 0; i < acts.size(); ++i) {
      const NodeSpan span = span_now(i);
      acts[i].release = span.release;
      acts[i].duration = span.duration;
    }
    auto compiled = CpmSolver::compile(acts);
    if (!compiled.ok()) {
      // Plan deps come from a tree, so this "cannot happen" — but a silent
      // return would leave stale projections with no trace.  Surface it.
      cache_.reset();
      if (obs::on(bus_)) {
        obs::Event ev;
        ev.kind = obs::EventKind::kSlipPropagated;
        ev.name = plan.name;
        ev.category = "track";
        ev.id = plan_->value();
        ev.work_start = now;
        ev.failed = true;
        ev.args = {{"error", compiled.error().message}};
        bus_->publish(std::move(ev));
      }
      return;
    }
    cache_.emplace(PlanSolverCache{*plan_, node_ids.size(), plan.deps.size(),
                                   std::move(compiled.value()), {}});
  } else {
    // Structure unchanged: durations/releases-only incremental re-solve.
    for (std::size_t i = 0; i < node_ids.size(); ++i) {
      const NodeSpan span = span_now(i);
      cache_->solver.set_release(i, span.release);
      cache_->solver.set_duration(i, span.duration);
    }
  }
  cache_->solver.solve(cache_->result);
  const CpmResult& solved = cache_->result;

  std::size_t moved = 0;
  for (std::size_t i = 0; i < node_ids.size(); ++i) {
    ScheduleNode& n = space_->node_mut(node_ids[i]);
    if (n.completed) continue;  // planned dates of history stay as planned
    cal::WorkInstant new_start =
        plan.anchor + cal::WorkDuration::minutes(solved.early_start[i]);
    if (new_start != n.planned_start) ++moved;
    n.planned_start = new_start;
    n.planned_finish = plan.anchor + cal::WorkDuration::minutes(solved.early_finish[i]);
    n.total_slack = cal::WorkDuration::minutes(solved.total_slack[i]);
    n.free_slack = cal::WorkDuration::minutes(solved.free_slack[i]);
    n.critical = solved.critical[i];
  }

  if (obs::on(bus_)) {
    obs::Event ev;
    ev.kind = obs::EventKind::kSlipPropagated;
    ev.name = plan.name;
    ev.category = "track";
    ev.id = plan_->value();
    ev.work_start = now;
    if (t0 != 0) ev.duration_ns = obs::EventBus::wall_now_ns() - t0;
    ev.args = {{"nodes_moved", std::to_string(moved)}};
    bus_->publish(std::move(ev));
    publish_solver_stats(bus_, "track", cache_->solver.take_stats());
  }
}

}  // namespace herc::sched
