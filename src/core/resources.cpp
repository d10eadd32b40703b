#include "core/resources.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "core/schedule_space.hpp"

namespace herc::sched {

util::Result<Demand> demand_of(const std::vector<std::size_t>& requirements,
                               const std::vector<int>& capacities) {
  Demand out;
  for (std::size_t r : requirements) {
    if (r >= capacities.size())
      return util::invalid("unknown resource index " + std::to_string(r));
    auto it = std::find_if(out.begin(), out.end(),
                           [r](const auto& d) { return d.first == r; });
    if (it == out.end()) out.emplace_back(r, 1);
    else ++it->second;
  }
  for (auto [r, units] : out)
    if (units > capacities[r])
      return util::invalid("requires " + std::to_string(units) + " units of resource " +
                           std::to_string(r) + " but its capacity is " +
                           std::to_string(capacities[r]));
  return out;
}

int ResourceBookings::usage_at(std::size_t r, std::int64_t t) const {
  int n = 0;
  for (const auto& iv : booked_[r])
    if (iv.start <= t && t < iv.finish) n += iv.units;
  return n;
}

bool ResourceBookings::fits(const Demand& demand, std::int64_t t,
                            std::int64_t duration) const {
  // Usage only changes at booked-interval starts, so check t and each booked
  // start inside the window.  `iv.start - t < duration` rather than
  // `iv.start < t + duration`: a duration the caller has not yet bounded
  // must not overflow here.
  for (auto [r, units] : demand) {
    const int room = capacities_[r] - units;
    if (usage_at(r, t) > room) return false;
    for (const auto& iv : booked_[r])
      if (iv.start > t && iv.start - t < duration && usage_at(r, iv.start) > room)
        return false;
  }
  return true;
}

std::int64_t ResourceBookings::earliest_fit(const Demand& demand, std::int64_t earliest,
                                            std::int64_t duration) const {
  if (demand.empty()) return earliest;
  // Candidate starts: `earliest` plus every booked-interval finish after it
  // on a required resource (capacity can only free up there).
  std::vector<std::int64_t> candidates{earliest};
  for (auto [r, units] : demand)
    for (const auto& iv : booked_[r])
      if (iv.finish > earliest) candidates.push_back(iv.finish);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
  // The last candidate always fits: every booking on a required resource
  // has ended by then, and demand_of refused demand above capacity.
  for (std::int64_t t : candidates)
    if (fits(demand, t, duration)) return t;
  return candidates.back();
}

void ResourceBookings::book(const Demand& demand, std::int64_t start,
                            std::int64_t finish) {
  for (auto [r, units] : demand) booked_[r].push_back({start, finish, units});
}

ResourceBookings ResourceBookings::of(const meta::Database& db,
                                      cal::WorkInstant origin) {
  std::vector<int> capacities;
  capacities.reserve(db.resources().size());
  for (const auto& r : db.resources()) capacities.push_back(r.capacity);
  ResourceBookings bookings(std::move(capacities));
  for (std::size_t r = 0; r < db.resources().size(); ++r)
    for (auto [from, to] : db.resources()[r].time_off)
      if (to > origin)
        bookings.block(r, minutes_after(origin, from), minutes_after(origin, to));
  return bookings;
}

void ResourceBookings::block(std::size_t r, std::int64_t start, std::int64_t finish) {
  booked_[r].push_back({start, finish, capacities_[r]});
}

util::Result<LevelingResult> level_serial(const LevelingInput& input) {
  const std::size_t n = input.activities.size();
  if (input.requirements.size() != n)
    return util::invalid("leveling: requirements size mismatch");
  for (int c : input.bookings.capacities())
    if (c <= 0) return util::invalid("leveling: capacities must be positive");
  std::vector<Demand> demands(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto demand = demand_of(input.requirements[i], input.bookings.capacities());
    if (!demand.ok())
      return util::invalid("leveling: activity " + std::to_string(i) + " " +
                           demand.error().message);
    demands[i] = std::move(demand).take();
  }

  auto cpm = compute_cpm(input.activities);
  if (!cpm.ok()) return cpm.error();

  // Serial scheme: priority order by (CPM early start, index).
  std::vector<std::size_t> priority(n);
  std::iota(priority.begin(), priority.end(), 0);
  std::sort(priority.begin(), priority.end(), [&](std::size_t a, std::size_t b) {
    if (cpm.value().early_start[a] != cpm.value().early_start[b])
      return cpm.value().early_start[a] < cpm.value().early_start[b];
    return a < b;
  });

  LevelingResult out;
  out.start.assign(n, 0);
  out.finish.assign(n, 0);
  std::vector<bool> placed(n, false);
  ResourceBookings bookings = input.bookings;

  // The CPM priority order is NOT necessarily a topological order once
  // releases differ, so we repeatedly sweep for the first unplaced activity
  // whose predecessors are all placed.  Each sweep places one activity:
  // O(n^2) sweeps worst case, fine for planning-sized inputs and still fast
  // at the bench's 10k activities because sweeps usually hit immediately.
  for (std::size_t placed_count = 0; placed_count < n; ++placed_count) {
    std::size_t chosen = n;
    for (std::size_t cand : priority) {
      if (placed[cand]) continue;
      bool ready = true;
      for (std::size_t p : input.activities[cand].preds)
        if (!placed[p]) {
          ready = false;
          break;
        }
      if (ready) {
        chosen = cand;
        break;
      }
    }
    if (chosen == n) return util::invalid("leveling: precedence cycle");

    const CpmActivity& act = input.activities[chosen];
    std::int64_t earliest = act.release;
    for (std::size_t p : act.preds) earliest = std::max(earliest, out.finish[p]);
    const std::int64_t start =
        bookings.earliest_fit(demands[chosen], earliest, act.duration);

    out.start[chosen] = start;
    out.finish[chosen] = start + act.duration;
    out.makespan = std::max(out.makespan, out.finish[chosen]);
    bookings.book(demands[chosen], start, out.finish[chosen]);
    placed[chosen] = true;
  }

  return out;
}

}  // namespace herc::sched
