#pragma once
// Activity-duration estimation.
//
// "The duration of an activity can be based either on the designer's
//  intuition or on the measured results of similar tasks." — paper, Sec. III
//
// The estimator combines a designer-supplied intuition table with
// history-based predictors over the execution-space metadata (completed runs
// of the same activity).  The paper leaves automatic prediction to future
// work ("instances of tools and data that are bound to tasks may serve as
// inputs to such a prediction model"); we implement the four standard
// predictors the project-scheduling literature it cites (PERT) suggests, and
// bench/ablation_predictor compares them on synthetic noisy histories.

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "calendar/work_calendar.hpp"
#include "metadata/database.hpp"
#include "util/result.hpp"

namespace herc::sched {

enum class EstimateStrategy {
  kIntuition,  ///< designer table, falling back to the default duration
  kLast,       ///< duration of the most recent completed run
  kMean,       ///< arithmetic mean over all completed runs
  kEwma,       ///< exponentially weighted moving average (newest weighted most)
  kPert,       ///< three-point (optimistic + 4*likely + pessimistic) / 6
};

[[nodiscard]] const char* estimate_strategy_name(EstimateStrategy s);
/// Inverse of estimate_strategy_name; kInvalid for any other name.
[[nodiscard]] util::Result<EstimateStrategy> parse_estimate_strategy(
    std::string_view name);

class DurationEstimator {
 public:
  /// EWMA smoothing factor: the weight of the newest observation.
  static constexpr double kEwmaAlpha = 0.5;

  explicit DurationEstimator(cal::WorkDuration fallback = cal::WorkDuration::hours(8))
      : fallback_(fallback) {}

  /// Designer intuition for one activity.
  void set_intuition(const std::string& activity, cal::WorkDuration d) {
    intuition_[activity] = d;
  }

  /// Every designer intuition, keyed by activity.
  [[nodiscard]] const std::unordered_map<std::string, cal::WorkDuration>& intuitions()
      const {
    return intuition_;
  }

  void set_fallback(cal::WorkDuration d) { fallback_ = d; }
  [[nodiscard]] cal::WorkDuration fallback() const { return fallback_; }

  /// Completed-run durations of `activity`, oldest first.
  [[nodiscard]] static std::vector<cal::WorkDuration> history(
      const meta::Database& db, const std::string& activity);

  /// Estimates the next duration of `activity`.  History strategies fall
  /// back to intuition (then the default) when no completed run exists.
  [[nodiscard]] cal::WorkDuration estimate(const meta::Database& db,
                                           const std::string& activity,
                                           EstimateStrategy strategy) const;

  /// Pure function over an explicit history; used by the ablation bench.
  [[nodiscard]] cal::WorkDuration estimate_from(
      const std::vector<cal::WorkDuration>& history, EstimateStrategy strategy) const;

 private:
  [[nodiscard]] cal::WorkDuration intuition_or_fallback(
      const std::string& activity) const;

  std::unordered_map<std::string, cal::WorkDuration> intuition_;
  cal::WorkDuration fallback_;
};

}  // namespace herc::sched
