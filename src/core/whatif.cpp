#include "core/whatif.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/cpm_solver.hpp"

namespace herc::sched {

namespace {

enum class NetworkMode {
  kPinned,  ///< releases pin every activity at its current projection —
            ///< right for delay analysis (nothing may move earlier)
  kFree,    ///< releases only encode hard constraints (actuals, "now") —
            ///< right for crash analysis (shortening may pull work earlier)
};

/// The plan's network with unstarted work released as `mode` says.
std::vector<CpmActivity> build_network(const ScheduleSpace& space,
                                       const ScheduleRun& plan, NetworkMode mode) {
  std::vector<CpmActivity> acts = plan_network(space, plan);
  // "Now" proxy for kFree: the earliest instant any incomplete activity is
  // currently projected to start (the tracker maintains planned_start >= now).
  std::int64_t now_rel = 0;
  bool any_incomplete = false;
  for (ScheduleNodeId nid : plan.nodes) {
    const ScheduleNode& n = space.node(nid);
    if (n.completed) continue;
    const std::int64_t start = minutes_after(plan.anchor, n.planned_start);
    now_rel = any_incomplete ? std::min(now_rel, start) : start;
    any_incomplete = true;
  }
  for (std::size_t i = 0; i < acts.size(); ++i) {
    const ScheduleNode& n = space.node(plan.nodes[i]);
    if (pinned(n) || n.actual_start) continue;
    acts[i].release = mode == NetworkMode::kPinned
                          ? minutes_after(plan.anchor, n.planned_start)
                          : now_rel;
  }
  return acts;
}

}  // namespace

util::Result<SlipImpact> simulate_delay(const ScheduleSpace& space, ScheduleRunId plan_id,
                                        const std::string& activity,
                                        cal::WorkDuration delay) {
  if (delay.count_minutes() < 0) return util::invalid("simulate_delay: negative delay");
  auto nid = space.node_in_plan(plan_id, activity);
  if (!nid)
    return util::not_found("simulate_delay: plan has no activity '" + activity + "'");
  if (space.node(*nid).completed)
    return util::conflict("simulate_delay: '" + activity +
                          "' is complete; its dates are history");

  const ScheduleRun& plan = space.plan(plan_id);
  const std::vector<CpmActivity> acts = build_network(space, plan, NetworkMode::kPinned);
  auto solver = CpmSolver::compile(acts);
  if (!solver.ok()) return solver.error();
  CpmResult base;
  solver.value().solve(base);

  const auto target = static_cast<std::size_t>(
      std::find(plan.nodes.begin(), plan.nodes.end(), *nid) - plan.nodes.begin());
  solver.value().set_duration(target, acts[target].duration + delay.count_minutes());
  CpmResult delayed;
  solver.value().solve(delayed);

  SlipImpact impact;
  impact.activity = activity;
  impact.delay = delay;
  impact.old_finish = plan.anchor + cal::WorkDuration::minutes(base.makespan);
  impact.new_finish = plan.anchor + cal::WorkDuration::minutes(delayed.makespan);
  impact.project_slip = impact.new_finish - impact.old_finish;
  impact.absorbed = impact.project_slip.count_minutes() == 0;
  for (std::size_t i = 0; i < acts.size(); ++i) {
    if (i == target) continue;
    if (delayed.early_start[i] != base.early_start[i])
      impact.shifted_activities.push_back(space.node(plan.nodes[i]).activity);
  }
  return impact;
}

util::Result<CrashPlan> crash_to_deadline(const ScheduleSpace& space,
                                          ScheduleRunId plan_id,
                                          cal::WorkInstant deadline,
                                          cal::WorkDuration floor) {
  if (floor.count_minutes() < 1)
    return util::invalid("crash_to_deadline: floor must be at least a minute");

  const ScheduleRun& plan = space.plan(plan_id);
  const std::vector<CpmActivity> acts = build_network(space, plan, NetworkMode::kFree);
  const std::int64_t deadline_rel = (deadline - plan.anchor).count_minutes();

  // One compiled network for the whole greedy search: each round is a
  // durations-only incremental re-solve (up to 10k of them).
  auto solver = CpmSolver::compile(acts).take();  // plan deps are acyclic
  CpmResult solved;

  CrashPlan result;
  result.deadline = deadline;
  solver.solve(solved);
  result.projected_finish = plan.anchor + cal::WorkDuration::minutes(solved.makespan);
  result.shortfall = result.projected_finish - deadline;
  if (result.shortfall.count_minutes() <= 0) return result;  // already met

  // Accumulate reductions per activity index.
  std::unordered_map<std::size_t, std::int64_t> cut;

  // Greedy: each round, shorten the longest critical incomplete activity.
  for (int rounds = 0; rounds < 10000; ++rounds) {
    solver.solve(solved);
    std::int64_t over = solved.makespan - deadline_rel;
    if (over <= 0) break;

    std::size_t best = acts.size();
    std::int64_t best_len = floor.count_minutes();
    for (std::size_t i = 0; i < acts.size(); ++i) {
      if (space.node(plan.nodes[i]).completed) continue;
      if (!solved.critical[i]) continue;
      if (solver.duration(i) > best_len) {
        best_len = solver.duration(i);
        best = i;
      }
    }
    if (best == acts.size()) {
      result.feasible = false;  // everything critical is already at the floor
      break;
    }
    std::int64_t reducible = solver.duration(best) - floor.count_minutes();
    std::int64_t take = std::min(reducible, over);
    solver.set_duration(best, solver.duration(best) - take);
    cut[best] += take;
  }

  for (const auto& [i, minutes] : cut) {
    result.steps.push_back(CrashStep{space.node(plan.nodes[i]).activity,
                                     cal::WorkDuration::minutes(acts[i].duration),
                                     cal::WorkDuration::minutes(minutes)});
  }
  std::sort(result.steps.begin(), result.steps.end(),
            [](const CrashStep& a, const CrashStep& b) {
              return a.reduction.count_minutes() > b.reduction.count_minutes();
            });
  return result;
}

std::vector<ActivityDrag> plan_drag(const ScheduleSpace& space, ScheduleRunId plan_id) {
  const ScheduleRun& plan = space.plan(plan_id);
  // Plan deps are acyclic.
  auto drags = compute_drag(build_network(space, plan, NetworkMode::kFree)).value();
  std::vector<ActivityDrag> out;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const ScheduleNode& n = space.node(plan.nodes[i]);
    if (n.completed) continue;  // history has no drag
    out.push_back(ActivityDrag{n.activity, cal::WorkDuration::minutes(drags[i])});
  }
  std::sort(out.begin(), out.end(), [](const ActivityDrag& a, const ActivityDrag& b) {
    return a.drag.count_minutes() > b.drag.count_minutes();
  });
  return out;
}

std::vector<DeadlineSlack> deadline_slack(const ScheduleSpace& space,
                                          ScheduleRunId plan_id,
                                          cal::WorkInstant deadline) {
  const ScheduleRun& plan = space.plan(plan_id);
  auto solved = compute_cpm(build_network(space, plan, NetworkMode::kPinned)).value();
  const std::int64_t margin = (deadline - plan.anchor).count_minutes() - solved.makespan;
  std::vector<DeadlineSlack> out;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const ScheduleNode& n = space.node(plan.nodes[i]);
    if (n.completed) continue;
    out.push_back(DeadlineSlack{
        n.activity, cal::WorkDuration::minutes(solved.total_slack[i] + margin)});
  }
  return out;
}

}  // namespace herc::sched
