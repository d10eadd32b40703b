#include "core/planner.hpp"

#include <unordered_map>

#include "core/cpm_solver.hpp"
#include "core/resources.hpp"

namespace herc::sched {

util::Result<ScheduleRunId> Planner::plan(const flow::TaskTree& tree,
                                          const PlanRequest& request_in) {
  obs::ScopedTimer timer(bus_, "plan", "plan");
  PlanRequest request = request_in;
  // Inter-plan sequencing: start no earlier than every predecessor's
  // projected finish.
  for (ScheduleRunId pred : request.predecessors) {
    if (!pred.valid() || pred.value() > space_->plans().size())
      return util::not_found("plan: unknown predecessor plan " + pred.str());
    for (ScheduleNodeId nid : space_->plan(pred).nodes) {
      const ScheduleNode& n = space_->node(nid);
      cal::WorkInstant finish = n.actual_finish ? *n.actual_finish : n.planned_finish;
      if (finish > request.anchor) request.anchor = finish;
    }
  }

  // Validate resource assignments up front.
  for (const auto& [activity, resources] : request.assignments) {
    if (!tree.schema().find_rule_by_activity(activity))
      return util::not_found("plan: assignment for unknown activity '" + activity + "'");
    for (util::ResourceId r : resources)
      if (!r.valid() || r.value() > db_->resources().size())
        return util::not_found("plan: unknown resource " + r.str() +
                               " assigned to '" + activity + "'");
  }

  ScheduleRunId plan_id =
      space_->create_plan(request.name, request.anchor, request.derived_from);
  space_->plan_mut(plan_id).anchor = request.anchor;
  space_->plan_mut(plan_id).deadline = request.deadline;

  // Simulated execution: the same post-order traversal the Executor makes,
  // creating one schedule instance per activity.
  auto order = tree.activities_post_order();
  std::unordered_map<std::uint64_t, ScheduleNodeId> node_for_tree_node;
  std::vector<ScheduleNodeId> created;
  created.reserve(order.size());

  for (flow::TaskNodeId tid : order) {
    const auto& tree_node = tree.node(tid);
    const std::string& activity = tree.activity_name(tid);
    ScheduleNodeId sid = space_->create_node(plan_id, activity, tree_node.rule);
    node_for_tree_node[tid.value()] = sid;
    created.push_back(sid);

    ScheduleNode& node = space_->node_mut(sid);
    node.est_duration = estimator_->estimate(*db_, activity, request.strategy);
    if (auto it = request.assignments.find(activity); it != request.assignments.end())
      node.resources = it->second;

    // Schedule dependencies mirror the tree's data flow: each child activity
    // must finish before this one starts.
    for (flow::TaskNodeId child : tree_node.children) {
      if (tree.node(child).kind == flow::NodeKind::kActivity)
        space_->add_dep(plan_id, node_for_tree_node.at(child.value()), sid);
    }
  }

  // Solve the plan's network, timed by the estimates.
  std::vector<CpmActivity> acts = plan_network(*space_, space_->plan(plan_id));
  for (std::size_t i = 0; i < created.size(); ++i)
    acts[i].duration = space_->node(created[i]).est_duration.count_minutes();

  CpmResult solved;
  {
    obs::ScopedTimer cpm_timer(bus_, "cpm", "plan");
    auto solver = CpmSolver::compile(acts);
    if (!solver.ok()) return solver.error();
    solver.value().solve(solved);
    publish_solver_stats(bus_, "plan", solver.value().take_stats());
  }

  std::vector<std::int64_t> start(created.size()), finish(created.size());
  for (std::size_t i = 0; i < created.size(); ++i) {
    start[i] = solved.early_start[i];
    finish[i] = solved.early_finish[i];
  }

  if (request.level_resources) {
    LevelingInput lvl;
    lvl.activities = acts;
    lvl.requirements.resize(created.size());
    lvl.bookings = ResourceBookings::of(*db_, request.anchor);
    for (std::size_t i = 0; i < created.size(); ++i)
      for (util::ResourceId r : space_->node(created[i]).resources)
        lvl.requirements[i].push_back(r.value() - 1);
    auto leveled = level_serial(lvl);
    if (!leveled.ok()) return leveled.error();
    start = leveled.value().start;
    finish = leveled.value().finish;
  }

  for (std::size_t i = 0; i < created.size(); ++i) {
    ScheduleNode& node = space_->node_mut(created[i]);
    node.planned_start = request.anchor + cal::WorkDuration::minutes(start[i]);
    node.planned_finish = request.anchor + cal::WorkDuration::minutes(finish[i]);
    node.baseline_start = node.planned_start;
    node.baseline_finish = node.planned_finish;
    node.total_slack = cal::WorkDuration::minutes(solved.total_slack[i]);
    node.free_slack = cal::WorkDuration::minutes(solved.free_slack[i]);
    node.critical = solved.critical[i];
  }

  if (obs::on(bus_)) {
    for (ScheduleNodeId sid : created) {
      const ScheduleNode& node = space_->node(sid);
      obs::Event e;
      e.kind = obs::EventKind::kActivityPlanned;
      e.name = node.activity;
      e.category = "plan";
      e.id = plan_id.value();
      e.work_start = node.planned_start;
      e.work_finish = node.planned_finish;
      e.args = {{"plan", request.name},
                {"node", std::to_string(sid.value())},
                {"critical", node.critical ? "true" : "false"}};
      bus_->publish(std::move(e));
    }
    obs::Event e;
    e.kind = obs::EventKind::kSchedulePlanned;
    e.name = request.name;
    e.category = "plan";
    e.id = plan_id.value();
    e.work_start = request.anchor;
    e.args = {{"nodes", std::to_string(created.size())}};
    if (request.derived_from.valid())
      e.args.emplace_back("derived_from", request.derived_from.str());
    bus_->publish(std::move(e));
  }

  return plan_id;
}

util::Result<ScheduleRunId> Planner::replan(const flow::TaskTree& tree,
                                            ScheduleRunId previous, PlanRequest request) {
  request.derived_from = previous;
  if (request.name == "plan") request.name = space_->plan(previous).name;
  return plan(tree, request);
}

}  // namespace herc::sched
