#include "core/estimate.hpp"

#include <algorithm>

namespace herc::sched {

const char* estimate_strategy_name(EstimateStrategy s) {
  switch (s) {
    case EstimateStrategy::kIntuition: return "intuition";
    case EstimateStrategy::kLast: return "last";
    case EstimateStrategy::kMean: return "mean";
    case EstimateStrategy::kEwma: return "ewma";
    case EstimateStrategy::kPert: return "pert";
  }
  return "?";
}

util::Result<EstimateStrategy> parse_estimate_strategy(std::string_view name) {
  for (auto s : {EstimateStrategy::kIntuition, EstimateStrategy::kLast,
                 EstimateStrategy::kMean, EstimateStrategy::kEwma,
                 EstimateStrategy::kPert})
    if (name == estimate_strategy_name(s)) return s;
  return util::invalid("unknown estimate strategy '" + std::string(name) +
                       "' (intuition|last|mean|ewma|pert)");
}

std::vector<cal::WorkDuration> DurationEstimator::history(const meta::Database& db,
                                                          const std::string& activity) {
  std::vector<cal::WorkDuration> out;
  for (meta::RunId rid : db.runs_of_activity(activity)) {
    const meta::Run& r = db.run(rid);
    if (r.status == meta::RunStatus::kCompleted)
      out.push_back(r.finished_at - r.started_at);
  }
  return out;
}

cal::WorkDuration DurationEstimator::intuition_or_fallback(
    const std::string& activity) const {
  auto it = intuition_.find(activity);
  return it == intuition_.end() ? fallback_ : it->second;
}

cal::WorkDuration DurationEstimator::estimate(const meta::Database& db,
                                              const std::string& activity,
                                              EstimateStrategy strategy) const {
  if (strategy == EstimateStrategy::kIntuition) return intuition_or_fallback(activity);
  auto h = history(db, activity);
  if (h.empty()) return intuition_or_fallback(activity);
  return estimate_from(h, strategy);
}

cal::WorkDuration DurationEstimator::estimate_from(
    const std::vector<cal::WorkDuration>& history, EstimateStrategy strategy) const {
  if (history.empty()) return fallback_;
  switch (strategy) {
    case EstimateStrategy::kIntuition:
      return fallback_;
    case EstimateStrategy::kLast:
      return history.back();
    case EstimateStrategy::kMean: {
      std::int64_t sum = 0;
      for (auto d : history) sum += d.count_minutes();
      return cal::WorkDuration::minutes(sum / static_cast<std::int64_t>(history.size()));
    }
    case EstimateStrategy::kEwma: {
      double acc = static_cast<double>(history.front().count_minutes());
      for (std::size_t i = 1; i < history.size(); ++i)
        acc = kEwmaAlpha * static_cast<double>(history[i].count_minutes()) +
              (1.0 - kEwmaAlpha) * acc;
      return cal::WorkDuration::minutes(static_cast<std::int64_t>(acc));
    }
    case EstimateStrategy::kPert: {
      // Three-point estimate: optimistic = min, pessimistic = max, most
      // likely = median of the observed durations.
      std::vector<std::int64_t> mins;
      mins.reserve(history.size());
      for (auto d : history) mins.push_back(d.count_minutes());
      std::sort(mins.begin(), mins.end());
      std::int64_t opt = mins.front();
      std::int64_t pess = mins.back();
      std::int64_t likely = mins[mins.size() / 2];
      return cal::WorkDuration::minutes((opt + 4 * likely + pess) / 6);
    }
  }
  return fallback_;
}

}  // namespace herc::sched
