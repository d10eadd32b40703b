#include "hercules/read_view.hpp"

#include "gantt/gantt.hpp"
#include "track/status.hpp"

namespace herc::hercules {

std::optional<sched::ScheduleRunId> ReadView::plan_of(
    const std::string& task) const {
  auto it = plan_by_task_.find(task);
  if (it == plan_by_task_.end()) return std::nullopt;
  return it->second;
}

util::Result<std::string> ResponseMemo::get(
    std::string key, const std::function<util::Result<std::string>()>& compute) {
  Cell* cell = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cell = &cells_.try_emplace(std::move(key)).first->second;
  }
  std::call_once(cell->once, [&] { cell->value = compute(); });
  return *cell->value;
}

util::Result<std::string> ReadView::gantt(const std::string& task) const {
  return memo_.get("gantt\n" + task, [&]() -> util::Result<std::string> {
    auto plan = plan_of(task);
    if (!plan) return util::conflict("gantt: task '" + task + "' has no plan");
    return herc::gantt::render_gantt(space_, *calendar_, *plan, now_);
  });
}

util::Result<std::string> ReadView::status_report(const std::string& task) const {
  return memo_.get("status\n" + task, [&]() -> util::Result<std::string> {
    auto plan = plan_of(task);
    if (!plan) return util::conflict("status: task '" + task + "' has no plan");
    return track::render_status_report(space_, db_, *calendar_, *plan, now_);
  });
}

util::Result<std::string> ReadView::query(std::string_view statement) const {
  return memo_.get("query\n" + std::string(statement),
                   [&]() -> util::Result<std::string> {
                     auto result = engine_->execute(statement, db_, space_);
                     if (!result.ok()) return result.error();
                     return result.value().render(calendar_);
                   });
}

util::Result<std::string> ReadView::explain(std::string_view statement) const {
  return memo_.get("explain\n" + std::string(statement),
                   [&]() -> util::Result<std::string> {
                     return engine_->explain(statement, db_, space_);
                   });
}

}  // namespace herc::hercules
