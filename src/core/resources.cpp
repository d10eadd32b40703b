#include "core/resources.hpp"

#include <algorithm>
#include <numeric>
#include <set>

namespace herc::sched {

namespace {

/// Booked intervals of one resource, kept unsorted; usage queries scan.
struct ResourceTimeline {
  struct Interval {
    std::int64_t start, finish;
    int units;
  };
  std::vector<Interval> booked;

  /// Units booked across instant t (intervals are half-open).
  [[nodiscard]] int usage_at(std::int64_t t) const {
    int n = 0;
    for (const auto& iv : booked)
      if (iv.start <= t && t < iv.finish) n += iv.units;
    return n;
  }
};

/// Units per distinct resource in one requirement list, in first-appearance
/// order: a repeated entry is another unit of the same resource.
void count_units(const std::vector<std::size_t>& reqs,
                 std::vector<std::pair<std::size_t, int>>& out) {
  out.clear();
  for (std::size_t r : reqs) {
    auto it = std::find_if(out.begin(), out.end(),
                           [r](const auto& d) { return d.first == r; });
    if (it == out.end()) out.emplace_back(r, 1);
    else ++it->second;
  }
}

}  // namespace

util::Result<LevelingResult> level_serial(const LevelingInput& input) {
  const std::size_t n = input.activities.size();
  if (input.requirements.size() != n)
    return util::invalid("leveling: requirements size mismatch");
  for (int c : input.capacities)
    if (c <= 0) return util::invalid("leveling: capacities must be positive");
  std::vector<std::pair<std::size_t, int>> need;  // (resource, units), reused
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r : input.requirements[i])
      if (r >= input.capacities.size())
        return util::invalid("leveling: unknown resource index " + std::to_string(r));
    // No instant can fit demand above capacity; placing it would over-book.
    count_units(input.requirements[i], need);
    for (auto [r, units] : need)
      if (units > input.capacities[r])
        return util::invalid("leveling: activity " + std::to_string(i) + " requires " +
                             std::to_string(units) + " units of resource " +
                             std::to_string(r) + " but its capacity is " +
                             std::to_string(input.capacities[r]));
  }
  if (!input.blocked.empty() && input.blocked.size() != input.capacities.size())
    return util::invalid("leveling: blocked windows must cover every resource");

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
  std::vector<ResourceTimeline> timelines(input.capacities.size());
  // Time-off windows saturate the resource: book all of its capacity so no
  // activity can be placed across them.
  if (!input.blocked.empty()) {
    for (std::size_t r = 0; r < timelines.size(); ++r)
      for (auto [s, e] : input.blocked[r]) {
        if (e <= s) return util::invalid("leveling: empty blocked window");
        timelines[r].booked.push_back({s, e, input.capacities[r]});
      }
  }

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
    count_units(input.requirements[chosen], need);
    std::int64_t earliest = act.release;
    for (std::size_t p : act.preds) earliest = std::max(earliest, out.finish[p]);

    // Candidate start times: `earliest` plus every booked-interval finish
    // after it on a required resource (capacity can only free up there).
    std::set<std::int64_t> candidates{earliest};
    for (auto [r, units] : need)
      for (const auto& iv : timelines[r].booked)
        if (iv.finish > earliest) candidates.insert(iv.finish);

    std::int64_t start = earliest;
    for (std::int64_t t : candidates) {
      // Feasible iff every required resource has `units` spare across
      // [t, t+dur).  Usage only changes at booked-interval starts, so check
      // t and each booked start inside the window.
      bool feasible = true;
      for (auto [r, units] : need) {
        const auto& tl = timelines[r];
        const int room = input.capacities[r] - units;
        if (tl.usage_at(t) > room) {
          feasible = false;
          break;
        }
        for (const auto& iv : tl.booked) {
          if (iv.start > t && iv.start < t + act.duration &&
              tl.usage_at(iv.start) > room) {
            feasible = false;
            break;
          }
        }
        if (!feasible) break;
      }
      if (feasible) {
        start = t;
        break;
      }
      start = t;  // if no candidate is feasible the last (latest) one is:
                  // all conflicting bookings have finished by then
    }

    out.start[chosen] = start;
    out.finish[chosen] = start + act.duration;
    out.makespan = std::max(out.makespan, out.finish[chosen]);
    for (auto [r, units] : need)
      timelines[r].booked.push_back({start, out.finish[chosen], units});
    placed[chosen] = true;
  }

  return out;
}

}  // namespace herc::sched
