#include "hercules/workflow_manager.hpp"

#include <stdexcept>

#include "gantt/gantt.hpp"
#include "hercules/journal.hpp"

namespace herc::hercules {

// Out of line: ~unique_ptr<RunJournal> needs the complete type.
WorkflowManager::~WorkflowManager() = default;

void WorkflowManager::set_faults(std::uint64_t seed, exec::FaultPlan plan) {
  faults_ = std::make_unique<exec::FaultInjector>(seed, std::move(plan));
  tools_->set_fault_injector(faults_.get());
}

void WorkflowManager::clear_faults() {
  tools_->set_fault_injector(nullptr);
  faults_.reset();
}

util::Status WorkflowManager::enable_journal(const std::string& path) {
  disable_journal();  // detach any previous journal before opening the new one
  auto opened = GroupCommitter::open(path, {});
  if (!opened.ok()) return opened.error();
  owned_committer_ = std::move(opened).take();
  journal_ = RunJournal::open(*db_, *store_, clock_, *owned_committer_);
  return util::Status::ok_status();
}

util::Status WorkflowManager::enable_journal_sink(GroupCommitter& committer) {
  disable_journal();
  journal_ = RunJournal::open(*db_, *store_, clock_, committer);
  return util::Status::ok_status();
}

void WorkflowManager::disable_journal() {
  journal_.reset();  // first: it writes through the committer
  owned_committer_.reset();
}

util::Status WorkflowManager::advance_clock(cal::WorkDuration step) {
  auto to = calendar_.checked_add(clock_.now(), step);
  if (!to.ok()) return util::invalid("advance: " + to.error().message);
  clock_.advance(step);
  return util::Status::ok_status();
}

util::Result<std::unique_ptr<WorkflowManager>> WorkflowManager::create(
    std::string_view schema_dsl, cal::WorkCalendar::Config calendar_config,
    std::uint64_t tool_seed) {
  auto parsed = schema::parse_schema(schema_dsl);
  if (!parsed.ok()) return parsed.error();
  // Not make_unique: the constructor is private.  WorkCalendar is the one
  // place that knows which calendar configs are valid; it throws on a bad one.
  std::unique_ptr<WorkflowManager> manager;
  try {
    manager.reset(
        new WorkflowManager(std::move(parsed).take(), calendar_config, tool_seed));
  } catch (const std::invalid_argument& e) {
    return util::invalid(e.what());
  }
  // Seed designer intuition from the schema's [est ...] attributes.
  for (const auto& rule : manager->schema().rules()) {
    if (rule.default_estimate.empty()) continue;
    auto d = manager->calendar().parse_duration(rule.default_estimate);
    if (!d.ok())
      return util::parse_error("rule '" + rule.activity + "': bad [est " +
                               rule.default_estimate + "]: " + d.error().message);
    manager->estimator_.set_intuition(rule.activity, d.value());
  }
  return manager;
}

void WorkflowManager::DatabaseEventBridge::on_instance_created(
    const meta::EntityInstance& instance) {
  if (!obs::on(bus_)) return;
  obs::Event e;
  e.kind = obs::EventKind::kInstanceCreated;
  e.name = instance.type_name + "/" + instance.name;
  e.category = "meta";
  e.id = instance.id.value();
  e.work_start = instance.created_at;
  e.args = {{"version", std::to_string(instance.version)}};
  bus_->publish(std::move(e));
}

WorkflowManager::WorkflowManager(schema::TaskSchema parsed,
                                 cal::WorkCalendar::Config calendar_config,
                                 std::uint64_t tool_seed)
    : schema_(std::make_unique<schema::TaskSchema>(std::move(parsed))),
      calendar_(calendar_config),
      store_(std::make_unique<data::DataStore>()),
      db_(std::make_unique<meta::Database>(*schema_)),
      tools_(std::make_unique<exec::ToolRegistry>(tool_seed)),
      space_(std::make_unique<sched::ScheduleSpace>()),
      tracker_(std::make_unique<sched::ScheduleTracker>(*space_, *db_)),
      db_bridge_(std::make_unique<DatabaseEventBridge>(*db_, bus_)),
      query_engine_(std::make_unique<query::QueryEngine>(*db_, *space_, &bus_)) {
  bus_.set_project(schema_->name());
  tracker_->set_bus(&bus_);
}

util::Status WorkflowManager::extract_task(const std::string& task_name,
                                           const std::string& target_type,
                                           const std::unordered_set<std::string>& stop_at) {
  if (tasks_.count(task_name))
    return util::conflict("task '" + task_name + "' already exists");
  auto tree = flow::TaskTree::extract(*schema_, target_type, stop_at);
  if (!tree.ok()) return tree.error();
  tasks_.emplace(task_name, std::move(tree).take());
  return util::Status::ok_status();
}

bool WorkflowManager::has_task(const std::string& task_name) const {
  return tasks_.count(task_name) > 0;
}

util::Result<flow::TaskTree*> WorkflowManager::task(const std::string& task_name) {
  auto it = tasks_.find(task_name);
  if (it == tasks_.end()) return util::not_found("no task '" + task_name + "'");
  return &it->second;
}

std::vector<std::string> WorkflowManager::task_names() const {
  std::vector<std::string> out;
  out.reserve(tasks_.size());
  for (const auto& [name, tree] : tasks_) out.push_back(name);
  return out;
}

util::Status WorkflowManager::bind(const std::string& task_name,
                                   const std::string& type_name,
                                   const std::string& instance_name) {
  auto t = task(task_name);
  if (!t.ok()) return t.error();
  return t.value()->bind_type(type_name, instance_name);
}

util::Result<sched::ScheduleRunId> WorkflowManager::plan_task(
    const std::string& task_name, sched::PlanRequest request) {
  auto t = task(task_name);
  if (!t.ok()) return t.error();
  if (request.name == "plan") request.name = task_name;
  sched::Planner planner(*space_, *db_, estimator_, &bus_);
  auto plan = planner.plan(*t.value(), request);
  if (!plan.ok()) return plan;
  plan_by_task_[task_name] = plan.value();
  tracker_->watch_plan(plan.value());
  return plan;
}

util::Result<sched::ScheduleRunId> WorkflowManager::replan_task(
    const std::string& task_name, sched::PlanRequest request) {
  auto current = plan_of(task_name);
  if (!current)
    return util::conflict("replan: task '" + task_name + "' has no plan yet");
  request.derived_from = *current;
  return plan_task(task_name, std::move(request));
}

std::optional<sched::ScheduleRunId> WorkflowManager::plan_of(
    const std::string& task_name) const {
  auto it = plan_by_task_.find(task_name);
  if (it == plan_by_task_.end()) return std::nullopt;
  return it->second;
}

util::Result<exec::ExecutionResult> WorkflowManager::execute_task(
    const std::string& task_name, const std::string& designer) {
  auto t = task(task_name);
  if (!t.ok()) return t.error();
  // Runs must stamp THIS task's plan (several tasks may share activity
  // names when they instantiate the same schema).
  if (auto plan = plan_of(task_name)) tracker_->watch_plan(*plan);
  exec::Executor executor(*db_, *store_, *tools_, clock_, calendar_, &bus_,
                          exec_options_);
  return executor.execute(*t.value(), designer);
}

util::Result<exec::ExecutionResult> WorkflowManager::execute_task_concurrent(
    const std::string& task_name, const std::string& designer,
    const exec::Executor::DispatchOptions& options) {
  auto t = task(task_name);
  if (!t.ok()) return t.error();
  if (auto plan = plan_of(task_name)) tracker_->watch_plan(*plan);
  exec::Executor executor(*db_, *store_, *tools_, clock_, calendar_, &bus_,
                          exec_options_);
  return executor.execute_concurrent(*t.value(), designer, options);
}

util::Result<exec::ActivityRunResult> WorkflowManager::run_activity(
    const std::string& task_name, const std::string& activity,
    const std::string& designer) {
  auto t = task(task_name);
  if (!t.ok()) return t.error();
  const flow::TaskTree& tree = *t.value();
  for (flow::TaskNodeId id : tree.activities_post_order()) {
    if (tree.activity_name(id) == activity) {
      if (auto plan = plan_of(task_name)) tracker_->watch_plan(*plan);
      exec::Executor executor(*db_, *store_, *tools_, clock_, calendar_, &bus_,
                              exec_options_);
      return executor.execute_activity(tree, id, designer);
    }
  }
  return util::not_found("task '" + task_name + "' has no activity '" + activity + "'");
}

util::Result<std::vector<exec::ActivityRunResult>> WorkflowManager::refresh_task(
    const std::string& task_name, const std::string& designer) {
  auto t = task(task_name);
  if (!t.ok()) return t.error();
  const flow::TaskTree& tree = *t.value();
  if (auto plan = plan_of(task_name)) tracker_->watch_plan(*plan);

  // An activity needs a run when its latest output is missing, or when some
  // input of the run that produced it has since gained a newer version.
  auto needs_rerun = [&](flow::TaskNodeId act) {
    const std::string& output_type = schema_->type(tree.node(act).type).name;
    auto latest = db_->latest_named(output_type, output_type);
    if (!latest) return true;
    const auto& inst = db_->instance(*latest);
    if (!inst.produced_by.valid()) return true;  // shouldn't happen for outputs
    for (meta::EntityInstanceId in : db_->run(inst.produced_by).inputs) {
      const auto& input = db_->instance(in);
      auto newest = db_->latest_named(input.type_name, input.name);
      if (newest && *newest != in) return true;
    }
    return false;
  };

  std::vector<exec::ActivityRunResult> performed;
  exec::Executor executor(*db_, *store_, *tools_, clock_, calendar_, &bus_,
                          exec_options_);
  for (flow::TaskNodeId act : tree.activities_post_order()) {
    if (!needs_rerun(act)) continue;
    auto one = executor.execute_activity(tree, act, designer);
    if (!one.ok()) return one.error();
    performed.push_back(one.value());
    if (!one.value().success) break;  // designer must intervene
  }
  return performed;
}

util::Status WorkflowManager::link_completion(const std::string& task_name,
                                              const std::string& activity) {
  auto plan = plan_of(task_name);
  if (!plan) return util::conflict("link: task '" + task_name + "' has no plan");
  auto last = db_->last_completed_run(activity);
  if (!last)
    return util::conflict("link: activity '" + activity + "' has no completed run");
  const meta::Run& run = db_->run(*last);
  tracker_->watch_plan(*plan);
  return tracker_->link_completion(activity, run.output, clock_.now());
}

util::Result<std::string> WorkflowManager::gantt(const std::string& task_name) const {
  auto plan = plan_of(task_name);
  if (!plan) return util::conflict("gantt: task '" + task_name + "' has no plan");
  return herc::gantt::render_gantt(*space_, calendar_, *plan, clock_.now());
}

util::Result<std::string> WorkflowManager::status_report(
    const std::string& task_name) const {
  auto plan = plan_of(task_name);
  if (!plan) return util::conflict("status: task '" + task_name + "' has no plan");
  return track::render_status_report(*space_, *db_, calendar_, *plan, clock_.now());
}

util::Result<std::string> WorkflowManager::query(std::string_view statement) const {
  auto result = query_engine_->execute(statement);
  if (!result.ok()) return result.error();
  return result.value().render(&calendar_);
}

util::Result<std::string> WorkflowManager::explain(std::string_view statement) const {
  return query_engine_->explain(statement);
}

std::shared_ptr<const ReadView> WorkflowManager::read_view() {
  const std::uint64_t dbv = db_->version();
  const std::uint64_t spv = space_->version();
  const std::int64_t now_min = clock_.now().minutes_since_epoch();
  if (view_cache_ && view_db_version_ == dbv && view_space_version_ == spv &&
      view_clock_minutes_ == now_min) {
    return view_cache_;
  }
  auto stats = snapshot_stats_;
  auto* view = new ReadView(++view_epoch_, *db_, *space_, clock_.now(),
                            plan_by_task_, &calendar_, query_engine_.get());
  stats->published.fetch_add(1, std::memory_order_relaxed);
  stats->live.fetch_add(1, std::memory_order_relaxed);
  // The deleter may run on any reader thread — it touches only the shared
  // atomic stats block, which it keeps alive by value capture.
  view_cache_ = std::shared_ptr<const ReadView>(
      view, [stats](const ReadView* v) {
        stats->live.fetch_sub(1, std::memory_order_relaxed);
        delete v;
      });
  view_db_version_ = dbv;
  view_space_version_ = spv;
  view_clock_minutes_ = now_min;
  return view_cache_;
}

std::string WorkflowManager::dump_database() const {
  std::string out = "=== Hercules database (" + schema_->name() + ") at " +
                    calendar_.format(clock_.now()) + " ===\n";
  out += db_->dump_containers();
  out += space_->dump_containers(*db_);
  return out;
}

}  // namespace herc::hercules
