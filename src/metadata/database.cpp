#include "metadata/database.hpp"

#include <algorithm>
#include <stdexcept>

namespace herc::meta {

std::string EntityInstance::str() const {
  return type_name + ":" + name + " v" + std::to_string(version) + " " + id.str();
}

const char* run_status_name(RunStatus s) {
  return s == RunStatus::kCompleted ? "completed" : "failed";
}

std::string Run::str() const {
  return "run " + id.str() + " [" + activity + "] tool=" + tool_binding + " by " +
         (designer.empty() ? "?" : designer) + " (" + run_status_name(status) + ")";
}

Database::Database(const schema::TaskSchema& schema) : schema_(&schema) {
  // Initialize one (empty) container per Level-1 type, as Hercules does when
  // parsing the task schema into the task database.
  for (const auto& t : schema.types()) containers_[t.name];
}

Database::Database(const Database& other)
    : schema_(other.schema_),
      instances_(other.instances_),
      runs_(other.runs_),
      resources_(other.resources_),
      containers_(other.containers_),
      version_counters_(other.version_counters_),
      // observers_ deliberately empty: a snapshot never notifies anyone.
      symbols_(other.symbols_),
      runs_by_activity_(other.runs_by_activity_),
      runs_by_designer_(other.runs_by_designer_),
      runs_by_tool_(other.runs_by_tool_),
      runs_by_status_(other.runs_by_status_),
      instances_by_name_(other.instances_by_name_),
      version_(other.version_) {}

void Database::remove_observer(DatabaseObserver* obs) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), obs),
                   observers_.end());
}

ResourceId Database::add_resource(const std::string& name, const std::string& kind,
                                  int capacity) {
  ++version_;
  Resource r;
  r.id = ResourceId{resources_.size() + 1};
  r.name = name;
  r.kind = kind;
  r.capacity = capacity;
  resources_.push_back(std::move(r));
  return resources_.back().id;
}

util::Status Database::add_time_off(ResourceId id, cal::WorkInstant from,
                                    cal::WorkInstant to) {
  if (!id.valid() || id.value() > resources_.size())
    return util::not_found("add_time_off: unknown resource " + id.str());
  if (to <= from) return util::invalid("add_time_off: window is empty or reversed");
  auto& windows = resources_.mutate(id.value() - 1).time_off;
  windows.emplace_back(from, to);
  std::sort(windows.begin(), windows.end());
  ++version_;
  return util::Status::ok_status();
}

std::optional<ResourceId> Database::find_resource(const std::string& name) const {
  for (const auto& r : resources_)
    if (r.name == name) return r.id;
  return std::nullopt;
}

const Resource& Database::resource(ResourceId id) const {
  if (!id.valid() || id.value() > resources_.size())
    throw std::out_of_range("Database::resource: unknown id " + id.str());
  return resources_[id.value() - 1];
}

util::Result<EntityInstanceId> Database::create_instance(const std::string& type_name,
                                                         const std::string& name,
                                                         RunId produced_by,
                                                         util::DataObjectId data,
                                                         cal::WorkInstant at) {
  auto type = schema_->find_type(type_name);
  if (!type) return util::not_found("create_instance: unknown type '" + type_name + "'");
  if (schema_->type(*type).kind != schema::EntityKind::kData)
    return util::invalid("create_instance: '" + type_name + "' is a tool type");

  EntityInstance e;
  e.id = EntityInstanceId{instances_.size() + 1};
  e.type = *type;
  e.type_name = type_name;
  e.name = name;
  e.version = ++version_counters_[type_name + "|" + name];
  e.produced_by = produced_by;
  e.data = data;
  e.created_at = at;
  e.type_sym = symbols_.intern(type_name);
  e.name_sym = symbols_.intern(name);
  containers_[type_name].push_back(e.id);
  instances_by_name_[e.name_sym].push_back(e.id);
  instances_.push_back(e);
  ++version_;
  notify_instance(instances_.back());
  return instances_.back().id;
}

const EntityInstance& Database::instance(EntityInstanceId id) const {
  if (!id.valid() || id.value() > instances_.size())
    throw std::out_of_range("Database::instance: unknown id " + id.str());
  return instances_[id.value() - 1];
}

namespace {
const util::CowVec<EntityInstanceId>& empty_instances() {
  static const util::CowVec<EntityInstanceId> kEmpty;
  return kEmpty;
}
const util::CowVec<RunId>& empty_runs() {
  static const util::CowVec<RunId> kEmpty;
  return kEmpty;
}
}  // namespace

const util::CowVec<EntityInstanceId>& Database::container(
    const std::string& type_name) const {
  auto it = containers_.find(type_name);
  return it == containers_.end() ? empty_instances() : it->second;
}

const util::CowVec<EntityInstanceId>& Database::instances_named(
    const std::string& name) const {
  util::SymbolId sym = symbols_.find(name);
  if (!sym.valid()) return empty_instances();
  auto it = instances_by_name_.find(sym);
  return it == instances_by_name_.end() ? empty_instances() : it->second;
}

std::optional<RunId> Database::producing_run(EntityInstanceId id) const {
  if (!id.valid() || id.value() > instances_.size()) return std::nullopt;
  const EntityInstance& e = instances_[id.value() - 1];
  if (!e.produced_by.valid()) return std::nullopt;
  return e.produced_by;
}

std::optional<EntityInstanceId> Database::latest_in_container(
    const std::string& type_name) const {
  auto it = containers_.find(type_name);
  if (it == containers_.end() || it->second.empty()) return std::nullopt;
  return it->second.back();
}

std::optional<EntityInstanceId> Database::latest_named(const std::string& type_name,
                                                       const std::string& name) const {
  auto it = containers_.find(type_name);
  if (it == containers_.end()) return std::nullopt;
  for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit)
    if (instance(*rit).name == name) return *rit;
  return std::nullopt;
}

std::vector<EntityInstanceId> Database::dependencies_of(EntityInstanceId id) const {
  const EntityInstance& e = instance(id);
  if (!e.produced_by.valid()) return {};
  return run(e.produced_by).inputs;
}

util::Result<RunId> Database::record_run(Run r) {
  if (r.activity.empty()) return util::invalid("record_run: empty activity");
  if (r.status == RunStatus::kCompleted) {
    if (!r.output.valid())
      return util::invalid("record_run: completed run must have an output instance");
    if (r.output.value() > instances_.size())
      return util::not_found("record_run: output instance " + r.output.str() +
                             " does not exist");
  }
  for (EntityInstanceId in : r.inputs)
    if (!in.valid() || in.value() > instances_.size())
      return util::not_found("record_run: input instance " + in.str() +
                             " does not exist");
  if (r.finished_at < r.started_at)
    return util::invalid("record_run: finish precedes start");

  r.id = RunId{runs_.size() + 1};
  r.activity_sym = symbols_.intern(r.activity);
  r.tool_sym = symbols_.intern(r.tool_binding);
  r.designer_sym = symbols_.intern(r.designer);
  runs_by_activity_[r.activity_sym].push_back(r.id);
  runs_by_designer_[r.designer_sym].push_back(r.id);
  runs_by_tool_[r.tool_sym].push_back(r.id);
  runs_by_status_[static_cast<std::size_t>(r.status)].push_back(r.id);

  // Back-link: the output instance's producer is this run.  create_instance
  // may have been called with an invalid RunId when the run id was not yet
  // known; patch it now.
  if (r.output.valid() && !instances_[r.output.value() - 1].produced_by.valid())
    instances_.mutate(r.output.value() - 1).produced_by = r.id;

  runs_.push_back(std::move(r));
  ++version_;
  notify_run(runs_.back());
  return runs_.back().id;
}

const Run& Database::run(RunId id) const {
  if (!id.valid() || id.value() > runs_.size())
    throw std::out_of_range("Database::run: unknown id " + id.str());
  return runs_[id.value() - 1];
}

const util::CowVec<RunId>& Database::runs_of_activity(const std::string& activity) const {
  util::SymbolId sym = symbols_.find(activity);
  if (!sym.valid()) return empty_runs();
  auto it = runs_by_activity_.find(sym);
  return it == runs_by_activity_.end() ? empty_runs() : it->second;
}

const util::CowVec<RunId>& Database::runs_of_designer(const std::string& designer) const {
  util::SymbolId sym = symbols_.find(designer);
  if (!sym.valid()) return empty_runs();
  auto it = runs_by_designer_.find(sym);
  return it == runs_by_designer_.end() ? empty_runs() : it->second;
}

const util::CowVec<RunId>& Database::runs_of_tool(const std::string& tool) const {
  util::SymbolId sym = symbols_.find(tool);
  if (!sym.valid()) return empty_runs();
  auto it = runs_by_tool_.find(sym);
  return it == runs_by_tool_.end() ? empty_runs() : it->second;
}

const util::CowVec<RunId>& Database::runs_with_status(RunStatus status) const {
  return runs_by_status_[static_cast<std::size_t>(status)];
}

std::optional<RunId> Database::last_completed_run(const std::string& activity) const {
  const auto& ids = runs_of_activity(activity);
  for (auto rit = ids.rbegin(); rit != ids.rend(); ++rit)
    if (run(*rit).status == RunStatus::kCompleted) return *rit;
  return std::nullopt;
}

std::string Database::dump_containers() const {
  std::string out = "Execution space (" + std::to_string(instances_.size()) +
                    " instances, " + std::to_string(runs_.size()) + " runs)\n";
  for (const auto& t : schema_->types()) {
    if (t.kind != schema::EntityKind::kData) continue;
    out += "  [" + t.name + "]";
    auto it = containers_.find(t.name);
    if (it == containers_.end() || it->second.empty()) {
      out += " (empty)\n";
      continue;
    }
    out += "\n";
    for (EntityInstanceId id : it->second) {
      const EntityInstance& e = instance(id);
      out += "    o " + e.str();
      if (e.produced_by.valid()) out += "  <- " + run(e.produced_by).str();
      out += "\n";
    }
  }
  return out;
}

void Database::notify_instance(const EntityInstance& e) {
  for (auto* obs : observers_) obs->on_instance_created(e);
}

void Database::notify_run(const Run& r) {
  for (auto* obs : observers_) obs->on_run_recorded(r);
}

}  // namespace herc::meta
