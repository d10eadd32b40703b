// Unit + property tests for serial resource leveling and the placement rule
// it shares with concurrent dispatch.

#include <gtest/gtest.h>

#include <map>

#include "core/resources.hpp"
#include "schema/schema.hpp"
#include "util/rng.hpp"

namespace herc::sched {
namespace {

TEST(Leveling, NoResourcesEqualsCpm) {
  LevelingInput in;
  in.activities = {{.duration = 10, .preds = {}},
                   {.duration = 20, .preds = {0}},
                   {.duration = 5, .preds = {0}}};
  in.requirements = {{}, {}, {}};
  auto r = level_serial(in).take();
  auto cpm = compute_cpm(in.activities).take();
  EXPECT_EQ(r.start[0], cpm.early_start[0]);
  EXPECT_EQ(r.start[1], cpm.early_start[1]);
  EXPECT_EQ(r.start[2], cpm.early_start[2]);
  EXPECT_EQ(r.makespan, cpm.makespan);
}

TEST(Leveling, SingleResourceSerializesParallelWork) {
  // Two independent activities competing for one unit-capacity person.
  LevelingInput in;
  in.activities = {{.duration = 10, .preds = {}}, {.duration = 20, .preds = {}}};
  in.requirements = {{0}, {0}};
  in.bookings = ResourceBookings({1});
  auto r = level_serial(in).take();
  // They cannot overlap.
  bool overlap = r.start[0] < r.finish[1] && r.start[1] < r.finish[0];
  EXPECT_FALSE(overlap);
  EXPECT_EQ(r.makespan, 30);
}

TEST(Leveling, CapacityTwoAllowsOverlap) {
  LevelingInput in;
  in.activities = {{.duration = 10, .preds = {}}, {.duration = 20, .preds = {}}};
  in.requirements = {{0}, {0}};
  in.bookings = ResourceBookings({2});
  auto r = level_serial(in).take();
  EXPECT_EQ(r.makespan, 20);  // both start at 0
  EXPECT_EQ(r.start[0], 0);
  EXPECT_EQ(r.start[1], 0);
}

TEST(Leveling, PriorityFollowsEarlyStartThenIndex) {
  // Three unit jobs on one resource: tie on ES -> index order.
  LevelingInput in;
  in.activities = {{.duration = 5, .preds = {}},
                   {.duration = 5, .preds = {}},
                   {.duration = 5, .preds = {}}};
  in.requirements = {{0}, {0}, {0}};
  in.bookings = ResourceBookings({1});
  auto r = level_serial(in).take();
  EXPECT_EQ(r.start[0], 0);
  EXPECT_EQ(r.start[1], 5);
  EXPECT_EQ(r.start[2], 10);
}

TEST(Leveling, PrecedenceStillRespectedUnderContention) {
  LevelingInput in;
  in.activities = {{.duration = 10, .preds = {}},
                   {.duration = 10, .preds = {0}},
                   {.duration = 25, .preds = {}}};
  in.requirements = {{0}, {0}, {0}};
  in.bookings = ResourceBookings({1});
  auto r = level_serial(in).take();
  EXPECT_GE(r.start[1], r.finish[0]);
  // No overlap anywhere on the single resource.
  std::vector<std::pair<std::int64_t, std::int64_t>> spans;
  for (std::size_t i = 0; i < 3; ++i) spans.emplace_back(r.start[i], r.finish[i]);
  std::sort(spans.begin(), spans.end());
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_GE(spans[i].first, spans[i - 1].second);
}

TEST(Leveling, MultiResourceActivityNeedsAll) {
  // Activity 1 needs both resources; 0 and 2 hold one each.
  LevelingInput in;
  in.activities = {{.duration = 10, .preds = {}},
                   {.duration = 10, .preds = {}},
                   {.duration = 10, .preds = {}}};
  in.requirements = {{0}, {0, 1}, {1}};
  in.bookings = ResourceBookings({1, 1});
  auto r = level_serial(in).take();
  // 0 and 2 run in parallel at t=0 (different resources); 1 must wait for both.
  EXPECT_EQ(r.start[0], 0);
  EXPECT_EQ(r.start[2], 0);
  EXPECT_GE(r.start[1], 10);
}

TEST(Leveling, ReleaseTimesHonoured) {
  LevelingInput in;
  in.activities = {{.duration = 10, .preds = {}, .release = 42}};
  in.requirements = {{}};
  auto r = level_serial(in).take();
  EXPECT_EQ(r.start[0], 42);
}

TEST(Leveling, BlockedWindowsDelayWork) {
  // One job on one resource that is away for [5, 25).
  LevelingInput in;
  in.activities = {{.duration = 10, .preds = {}}};
  in.requirements = {{0}};
  in.bookings = ResourceBookings({1});
  in.bookings.block(0, 5, 25);
  auto r = level_serial(in).take();
  // Cannot start at 0 (would span the window) nor inside it: starts at 25.
  EXPECT_EQ(r.start[0], 25);
}

TEST(Leveling, WorkFitsBeforeBlockedWindow) {
  LevelingInput in;
  in.activities = {{.duration = 5, .preds = {}}};
  in.requirements = {{0}};
  in.bookings = ResourceBookings({1});
  in.bookings.block(0, 5, 25);
  auto r = level_serial(in).take();
  EXPECT_EQ(r.start[0], 0);  // finishes exactly as the vacation begins
}

TEST(Leveling, BlockedSaturatesAllCapacity) {
  // Capacity 2: a vacation must still block both units.
  LevelingInput in;
  in.activities = {{.duration = 10, .preds = {}}, {.duration = 10, .preds = {}}};
  in.requirements = {{0}, {0}};
  in.bookings = ResourceBookings({2});
  in.bookings.block(0, 0, 20);
  auto r = level_serial(in).take();
  EXPECT_EQ(r.start[0], 20);
  EXPECT_EQ(r.start[1], 20);  // both units free again at 20
}

TEST(Leveling, ValidationErrors) {
  LevelingInput bad_req;
  bad_req.activities = {{.duration = 1, .preds = {}}};
  bad_req.requirements = {{5}};
  bad_req.bookings = ResourceBookings({1});
  EXPECT_FALSE(level_serial(bad_req).ok());

  LevelingInput bad_cap;
  bad_cap.activities = {{.duration = 1, .preds = {}}};
  bad_cap.requirements = {{0}};
  bad_cap.bookings = ResourceBookings({0});
  EXPECT_FALSE(level_serial(bad_cap).ok());

  LevelingInput mismatch;
  mismatch.activities = {{.duration = 1, .preds = {}}};
  EXPECT_FALSE(level_serial(mismatch).ok());

  LevelingInput cycle;
  cycle.activities = {{.duration = 1, .preds = {1}}, {.duration = 1, .preds = {0}}};
  cycle.requirements = {{}, {}};
  EXPECT_FALSE(level_serial(cycle).ok());
}

TEST(Leveling, RepeatedRequirementConsumesMultipleUnits) {
  // Activity 1 takes both units of the pool, so it must wait for activity 0
  // even though one of its requirement entries would fit beside it.
  LevelingInput in;
  in.activities = {{.duration = 10, .preds = {}}, {.duration = 10, .preds = {}}};
  in.requirements = {{0}, {0, 0}};
  in.bookings = ResourceBookings({2});
  auto r = level_serial(in).take();
  bool overlap = r.start[0] < r.finish[1] && r.start[1] < r.finish[0];
  EXPECT_FALSE(overlap);
}

TEST(Leveling, RejectsDemandAboveCapacity) {
  LevelingInput in;
  in.activities = {{.duration = 10, .preds = {}}};
  in.requirements = {{0, 0, 0}};
  in.bookings = ResourceBookings({2});
  auto r = level_serial(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, util::Error::Code::kInvalid);
  EXPECT_NE(r.error().message.find("capacity"), std::string::npos);
}

// --- the placement rule ---------------------------------------------------------

TEST(ResourceBookings, DemandCountsUnitsAndRefusesAboveCapacity) {
  EXPECT_EQ(demand_of({1, 0, 1}, {1, 2}).value(), (Demand{{1, 2}, {0, 1}}));
  EXPECT_TRUE(demand_of({}, {}).value().empty());
  EXPECT_EQ(demand_of({0, 0}, {1}).error().code, util::Error::Code::kInvalid);
  EXPECT_EQ(demand_of({3}, {1}).error().code, util::Error::Code::kInvalid);
}

TEST(ResourceBookings, EarliestFitWaitsForUnitsAndTimeOff) {
  ResourceBookings bookings({2});
  const Demand one = demand_of({0}, {2}).value();
  const Demand both = demand_of({0, 0}, {2}).value();
  EXPECT_EQ(bookings.earliest_fit({}, 5, 10), 5);  // no demand: no wait
  bookings.book(one, 0, 10);
  EXPECT_EQ(bookings.earliest_fit(one, 0, 10), 0);    // the second unit is free
  EXPECT_EQ(bookings.earliest_fit(both, 0, 10), 10);  // both only once it ends
  bookings.block(0, 12, 20);
  // [5, 15) would run into the time off, as would [10, 20); [2, 12) fits.
  EXPECT_EQ(bookings.earliest_fit(one, 5, 10), 20);
  EXPECT_EQ(bookings.earliest_fit(one, 2, 10), 2);
}

TEST(ResourceBookings, OfTheDatabaseCountsMinutesFromTheOrigin) {
  const schema::TaskSchema schema =
      schema::parse_schema("schema s { data d; tool t; rule Make: d <- t(); }").take();
  meta::Database db(schema);
  const auto alice = db.add_resource("alice");
  const auto farm = db.add_resource("farm", "machine", 2);
  ASSERT_TRUE(db.add_time_off(alice, cal::WorkInstant(100), cal::WorkInstant(200)).ok());
  ASSERT_TRUE(db.add_time_off(alice, cal::WorkInstant(300), cal::WorkInstant(400)).ok());
  ASSERT_TRUE(db.add_time_off(farm, cal::WorkInstant(0), cal::WorkInstant(50)).ok());

  const ResourceBookings bookings = ResourceBookings::of(db, cal::WorkInstant(150));
  EXPECT_EQ(bookings.capacities(), (std::vector<int>{1, 2}));
  const Demand person = demand_of({0}, bookings.capacities()).value();
  const Demand machines = demand_of({1, 1}, bookings.capacities()).value();
  // alice is away until minute 50 after the origin and again over [150, 250).
  EXPECT_EQ(bookings.earliest_fit(person, 0, 10), 50);
  EXPECT_EQ(bookings.earliest_fit(person, 0, 120), 250);
  // farm's time off ended before the origin.
  EXPECT_EQ(bookings.earliest_fit(machines, 0, 10), 0);
}

// --- property: random contention never violates capacity or precedence -------

class LevelingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LevelingProperty, CapacityAndPrecedenceInvariants) {
  util::Rng rng(GetParam());
  const std::size_t n = 40;
  LevelingInput in;
  in.activities.resize(n);
  in.requirements.resize(n);
  const std::vector<int> capacities = {1, 2, 3};
  in.bookings = ResourceBookings(capacities);
  for (std::size_t i = 0; i < n; ++i) {
    in.activities[i].duration = rng.uniform_int(1, 60);
    for (std::size_t j = 0; j < i; ++j)
      if (rng.chance(0.06)) in.activities[i].preds.push_back(j);
    for (std::size_t r = 0; r < capacities.size(); ++r) {
      if (!rng.chance(0.4)) continue;
      in.requirements[i].push_back(r);
      // A repeated entry takes a second unit of the wider pools.
      if (capacities[r] > 1 && rng.chance(0.25)) in.requirements[i].push_back(r);
    }
  }
  auto result = level_serial(in).take();
  auto cpm = compute_cpm(in.activities).take();

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(result.finish[i], result.start[i] + in.activities[i].duration);
    EXPECT_GE(result.start[i], cpm.early_start[i]);  // leveling only delays
    for (std::size_t p : in.activities[i].preds)
      EXPECT_GE(result.start[i], result.finish[p]);
  }
  EXPECT_GE(result.makespan, cpm.makespan);

  // Capacity check at every activity start instant.
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t t = result.start[i];
    std::map<std::size_t, int> usage;
    for (std::size_t j = 0; j < n; ++j) {
      if (result.start[j] <= t && t < result.finish[j])
        for (std::size_t r : in.requirements[j]) ++usage[r];
    }
    for (const auto& [r, u] : usage) EXPECT_LE(u, capacities[r]) << "resource " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevelingProperty,
                         ::testing::Values(1, 2, 3, 7, 11, 13, 17, 19));

}  // namespace
}  // namespace herc::sched
