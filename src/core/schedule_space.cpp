#include "core/schedule_space.hpp"

#include <stdexcept>

namespace herc::sched {

std::string ScheduleNode::str() const {
  std::string out = "SC" + std::to_string(version) + " [" + activity + "] " + id.str();
  if (completed) out += " (done)";
  return out;
}

std::string ScheduleRun::str() const {
  std::string out = "plan '" + name + "' " + id.str();
  if (derived_from.valid()) out += " derived-from " + derived_from.str();
  if (status == PlanStatus::kSuperseded) out += " (superseded)";
  return out;
}

ScheduleRunId ScheduleSpace::create_plan(const std::string& name, cal::WorkInstant at,
                                         ScheduleRunId derived_from) {
  // A fresh plan supersedes the plan it derives from; other plans (e.g. for
  // other task trees) stay active.
  if (derived_from.valid()) plan_mut(derived_from).status = PlanStatus::kSuperseded;
  ScheduleRun p;
  p.id = ScheduleRunId{plans_.size() + 1};
  p.name = name;
  p.created_at = at;
  p.derived_from = derived_from;
  plans_.push_back(std::move(p));
  ++version_;
  return plans_.back().id;
}

const ScheduleRun& ScheduleSpace::plan(ScheduleRunId id) const {
  if (!id.valid() || id.value() > plans_.size())
    throw std::out_of_range("ScheduleSpace::plan: unknown id " + id.str());
  return plans_[id.value() - 1];
}

ScheduleRun& ScheduleSpace::plan_mut(ScheduleRunId id) {
  if (!id.valid() || id.value() > plans_.size())
    throw std::out_of_range("ScheduleSpace::plan: unknown id " + id.str());
  ++version_;  // conservative: handing out a mutable ref counts as a mutation
  return plans_.mutate(id.value() - 1);
}

std::optional<ScheduleRunId> ScheduleSpace::active_plan() const {
  for (auto it = plans_.rbegin(); it != plans_.rend(); ++it)
    if (it->status == PlanStatus::kActive) return it->id;
  return std::nullopt;
}

std::vector<ScheduleRunId> ScheduleSpace::lineage(ScheduleRunId id) const {
  std::vector<ScheduleRunId> out;
  while (id.valid()) {
    out.push_back(id);
    id = plan(id).derived_from;
  }
  return out;
}

ScheduleNodeId ScheduleSpace::create_node(ScheduleRunId plan_id,
                                          const std::string& activity,
                                          schema::RuleId rule) {
  ScheduleNode n;
  n.id = ScheduleNodeId{nodes_.size() + 1};
  n.plan = plan_id;
  n.activity = activity;
  n.activity_sym = symbols_.intern(activity);
  n.rule = rule;
  auto& container = containers_[n.activity_sym];
  n.version = static_cast<int>(container.size()) + 1;
  container.push_back(n.id);
  plan_mut(plan_id).nodes.push_back(n.id);
  nodes_.push_back(std::move(n));
  ++version_;
  return nodes_.back().id;
}

const ScheduleNode& ScheduleSpace::node(ScheduleNodeId id) const {
  if (!id.valid() || id.value() > nodes_.size())
    throw std::out_of_range("ScheduleSpace::node: unknown id " + id.str());
  return nodes_[id.value() - 1];
}

ScheduleNode& ScheduleSpace::node_mut(ScheduleNodeId id) {
  if (!id.valid() || id.value() > nodes_.size())
    throw std::out_of_range("ScheduleSpace::node: unknown id " + id.str());
  ++version_;  // conservative, see plan_mut
  return nodes_.mutate(id.value() - 1);
}

void ScheduleSpace::add_dep(ScheduleRunId plan_id, ScheduleNodeId from,
                            ScheduleNodeId to) {
  if (node(from).plan != plan_id || node(to).plan != plan_id)
    throw std::logic_error("ScheduleSpace::add_dep: nodes belong to another plan");
  plan_mut(plan_id).deps.push_back(ScheduleDep{from, to});
}

const util::CowVec<ScheduleNodeId>& ScheduleSpace::container(
    const std::string& activity) const {
  static const util::CowVec<ScheduleNodeId> kEmpty;
  util::SymbolId sym = symbols_.find(activity);
  if (!sym.valid()) return kEmpty;
  auto it = containers_.find(sym);
  return it == containers_.end() ? kEmpty : it->second;
}

std::optional<ScheduleNodeId> ScheduleSpace::node_in_plan(
    ScheduleRunId plan_id, const std::string& activity) const {
  for (ScheduleNodeId nid : plan(plan_id).nodes)
    if (node(nid).activity == activity) return nid;
  return std::nullopt;
}

util::Result<LinkId> ScheduleSpace::add_link(ScheduleNodeId node_id,
                                             meta::EntityInstanceId instance,
                                             cal::WorkInstant at) {
  if (!node_id.valid() || node_id.value() > nodes_.size())
    return util::not_found("add_link: unknown schedule node " + node_id.str());
  if (!instance.valid()) return util::invalid("add_link: invalid entity instance");
  if (link_of(node_id))
    return util::conflict("schedule node " + node_id.str() + " is already linked");
  Link l;
  l.id = LinkId{links_.size() + 1};
  l.schedule_node = node_id;
  l.entity_instance = instance;
  l.linked_at = at;
  links_.push_back(l);
  ++version_;
  return links_.back().id;
}

std::optional<LinkId> ScheduleSpace::link_of(ScheduleNodeId node_id) const {
  for (const auto& l : links_)
    if (l.schedule_node == node_id) return l.id;
  return std::nullopt;
}

std::string ScheduleSpace::dump_containers(const meta::Database& db) const {
  std::string out = "Schedule space (" + std::to_string(plans_.size()) + " plans, " +
                    std::to_string(nodes_.size()) + " schedule instances, " +
                    std::to_string(links_.size()) + " links)\n";
  for (const auto& r : db.schema().rules()) {
    out += "  [" + r.activity + "]";
    const auto& ids = container(r.activity);
    if (ids.empty()) {
      out += " (empty)\n";
      continue;
    }
    out += "\n";
    for (ScheduleNodeId nid : ids) {
      const ScheduleNode& n = node(nid);
      out += "    o " + n.str() + " of " + plan(n.plan).str();
      if (auto lid = link_of(nid)) {
        const Link& l = links_[lid->value() - 1];
        out += "  == linked to " + db.instance(l.entity_instance).str();
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace herc::sched
