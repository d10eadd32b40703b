// Unit tests for the duration estimator and its history strategies.

#include <gtest/gtest.h>

#include "common.hpp"
#include "core/estimate.hpp"

namespace herc::sched {
namespace {

std::vector<cal::WorkDuration> durations(std::initializer_list<int> minutes) {
  std::vector<cal::WorkDuration> out;
  for (int m : minutes) out.push_back(cal::WorkDuration::minutes(m));
  return out;
}

TEST(Estimator, IntuitionAndFallback) {
  DurationEstimator est(cal::WorkDuration::hours(8));
  est.set_intuition("Create", cal::WorkDuration::hours(2));
  EXPECT_EQ(est.estimate_from({}, EstimateStrategy::kLast).count_minutes(), 480);
  EXPECT_EQ(est.fallback().count_minutes(), 480);
  est.set_fallback(cal::WorkDuration::hours(1));
  EXPECT_EQ(est.fallback().count_minutes(), 60);
}

TEST(Estimator, LastTakesNewest) {
  DurationEstimator est;
  EXPECT_EQ(est.estimate_from(durations({100, 200, 300}), EstimateStrategy::kLast)
                .count_minutes(),
            300);
}

TEST(Estimator, MeanAverages) {
  DurationEstimator est;
  EXPECT_EQ(est.estimate_from(durations({100, 200, 300}), EstimateStrategy::kMean)
                .count_minutes(),
            200);
}

TEST(Estimator, EwmaWeightsNewest) {
  DurationEstimator est;
  // 100 -> 0.5*200+0.5*100 = 150 -> 0.5*400+0.5*150 = 275
  EXPECT_EQ(est.estimate_from(durations({100, 200, 400}), EstimateStrategy::kEwma)
                .count_minutes(),
            275);
}

TEST(Estimator, PertThreePoint) {
  DurationEstimator est;
  // sorted: 60, 120, 600 -> (60 + 4*120 + 600) / 6 = 190
  EXPECT_EQ(est.estimate_from(durations({120, 600, 60}), EstimateStrategy::kPert)
                .count_minutes(),
            190);
}

TEST(Estimator, SingleObservationAllStrategiesAgree) {
  DurationEstimator est;
  auto h = durations({240});
  for (auto s : {EstimateStrategy::kLast, EstimateStrategy::kMean,
                 EstimateStrategy::kEwma, EstimateStrategy::kPert})
    EXPECT_EQ(est.estimate_from(h, s).count_minutes(), 240)
        << estimate_strategy_name(s);
}

TEST(Estimator, HistoryReadsCompletedRunsOnly) {
  auto m = test::make_circuit_manager();
  m->execute_task("adder", "alice").value();
  m->run_activity("adder", "Simulate", "bob").value();
  auto h = DurationEstimator::history(m->db(), "Simulate");
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].count_minutes(), 6 * 60);  // spice nominal
  EXPECT_EQ(h[1].count_minutes(), 6 * 60);
  EXPECT_TRUE(DurationEstimator::history(m->db(), "NoSuch").empty());
}

TEST(Estimator, EstimateFallsBackWithoutHistory) {
  auto m = test::make_circuit_manager();
  // intuition set in the fixture: Create 16h.
  EXPECT_EQ(
      m->estimator().estimate(m->db(), "Create", EstimateStrategy::kMean).count_minutes(),
      16 * 60);
  // unknown activity -> fallback (default 8h)
  EXPECT_EQ(m->estimator()
                .estimate(m->db(), "Unknown", EstimateStrategy::kIntuition)
                .count_minutes(),
            8 * 60);
}

TEST(Estimator, EstimateUsesHistoryOnceAvailable) {
  auto m = test::make_circuit_manager();
  m->execute_task("adder", "alice").value();
  // Create ran 14h; intuition said 16h. History should win for kLast.
  EXPECT_EQ(
      m->estimator().estimate(m->db(), "Create", EstimateStrategy::kLast).count_minutes(),
      14 * 60);
  EXPECT_EQ(m->estimator()
                .estimate(m->db(), "Create", EstimateStrategy::kIntuition)
                .count_minutes(),
            16 * 60);
}

TEST(Estimator, StrategyNames) {
  EXPECT_STREQ(estimate_strategy_name(EstimateStrategy::kIntuition), "intuition");
  EXPECT_STREQ(estimate_strategy_name(EstimateStrategy::kPert), "pert");
}

TEST(Estimator, ParseInvertsStrategyNames) {
  for (auto s : {EstimateStrategy::kIntuition, EstimateStrategy::kLast,
                 EstimateStrategy::kMean, EstimateStrategy::kEwma,
                 EstimateStrategy::kPert}) {
    auto parsed = parse_estimate_strategy(estimate_strategy_name(s));
    ASSERT_TRUE(parsed.ok()) << estimate_strategy_name(s);
    EXPECT_EQ(parsed.value(), s);
  }
  auto unknown = parse_estimate_strategy("median");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, util::Error::Code::kInvalid);
}

}  // namespace
}  // namespace herc::sched
