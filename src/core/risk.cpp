#include "core/risk.hpp"

#include <algorithm>

#include "core/cpm_solver.hpp"
#include "core/estimate.hpp"
#include "core/worker_pool.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace herc::sched {

namespace {

/// Independent per-sample RNG stream: a splitmix64-style finalizer over
/// (seed, sample) keeps streams decorrelated — consecutive seeds would
/// otherwise be shifted copies of one another — and makes sample s draw the
/// same values no matter which thread runs it.
std::uint64_t sample_stream_seed(std::uint64_t seed, int sample) {
  std::uint64_t z =
      seed + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(sample) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Per-worker accumulators.  Everything is integral, so combining worker
/// results is order-independent and the report stays bit-identical across
/// thread counts.
struct WorkerAccum {
  std::int64_t finish_sum = 0;
  int on_time = 0;
  std::vector<int> critical_count;
  std::vector<std::int64_t> duration_sum;
  CpmSolver::Stats stats;
};

}  // namespace

util::Result<RiskReport> analyze_risk(const ScheduleSpace& space,
                                      const meta::Database& db, ScheduleRunId plan_id,
                                      const RiskOptions& options) {
  if (options.samples < 1) return util::invalid("risk: samples must be >= 1");
  const ScheduleRun& plan = space.plan(plan_id);
  if (plan.nodes.empty()) return util::invalid("risk: plan has no activities");

  const std::int64_t anchor = plan.anchor.minutes_since_epoch();

  // Static structure shared by all samples: the plan network, whose pinned
  // activities keep their actuals while the others sample durations.
  const std::size_t n = plan.nodes.size();
  const std::vector<CpmActivity> base = plan_network(space, plan);
  std::vector<std::vector<cal::WorkDuration>> histories(n);
  std::vector<bool> fixed(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const ScheduleNode& node = space.node(plan.nodes[i]);
    fixed[i] = pinned(node);
    if (!fixed[i]) histories[i] = DurationEstimator::history(db, node.activity);
  }

  // Compile once; fixed durations and releases are baked in, only the
  // uncertain durations change per sample.
  auto compiled = CpmSolver::compile(base);
  if (!compiled.ok()) return compiled.error();
  CpmSolver& base_solver = compiled.value();
  CpmResult deterministic;
  base_solver.solve(deterministic);
  const std::int64_t det_makespan = deterministic.makespan;
  CpmSolver::Stats base_stats = base_solver.take_stats();

  RiskReport report;
  report.samples = options.samples;
  report.deterministic_finish = cal::WorkInstant(anchor + det_makespan);

  // Each worker block simulates a contiguous range of samples on its own
  // solver copy, in lane batches of kLanes: the batch's duration matrix is
  // filled sample-by-sample from the per-sample RNG streams (the draw
  // sequence of each sample is exactly the PR 2 per-sample path, so every
  // duration is bit-identical), then one solve_batch sweep produces all
  // makespans and criticality flags.  Finishes land at their sample index,
  // accumulators merge after the pool drains, and everything accumulated is
  // integral — so the report is bit-identical for any thread count and any
  // batch width.
  constexpr std::size_t kLanes = 8;
  std::vector<std::int64_t> finishes(static_cast<std::size_t>(options.samples));
  auto run_block = [&](int lo, int hi, CpmSolver solver, WorkerAccum& acc) {
    acc.critical_count.assign(n, 0);
    acc.duration_sum.assign(n, 0);
    std::vector<std::int64_t> durations(n * kLanes);
    std::vector<std::uint8_t> critical(n * kLanes);
    std::int64_t makespans[kLanes];
    for (int s0 = lo; s0 < hi; s0 += static_cast<int>(kLanes)) {
      const std::size_t lanes =
          std::min<std::size_t>(kLanes, static_cast<std::size_t>(hi - s0));
      for (std::size_t l = 0; l < lanes; ++l) {
        const int s = s0 + static_cast<int>(l);
        util::Rng rng(sample_stream_seed(options.seed, s));
        for (std::size_t i = 0; i < n; ++i) {
          if (fixed[i]) {  // actuals are the same in every lane
            durations[i * lanes + l] = base[i].duration;
            continue;
          }
          std::int64_t d;
          if (histories[i].size() >= 2) {
            // Bootstrap from measured runs.
            const auto& h = histories[i];
            d = h[static_cast<std::size_t>(
                      rng.uniform_int(0, static_cast<std::int64_t>(h.size()) - 1))]
                    .count_minutes();
          } else {
            double f = rng.uniform(1.0 - options.default_spread,
                                   1.0 + options.default_spread);
            d = std::max<std::int64_t>(
                1,
                static_cast<std::int64_t>(static_cast<double>(base[i].duration) * f));
          }
          durations[i * lanes + l] = d;
          acc.duration_sum[i] += d;
        }
      }
      solver.solve_batch(durations.data(), lanes, makespans, critical.data());
      for (std::size_t l = 0; l < lanes; ++l) {
        const int s = s0 + static_cast<int>(l);
        finishes[static_cast<std::size_t>(s)] = makespans[l];
        acc.finish_sum += makespans[l];
        if (makespans[l] <= det_makespan) ++acc.on_time;
        for (std::size_t i = 0; i < n; ++i)
          if (!fixed[i] && critical[i * lanes + l]) ++acc.critical_count[i];
      }
    }
    acc.stats = solver.take_stats();
  };

  // Blocks are sharded across the shared worker pool — no thread spawn per
  // call.  The block partition depends only on options.threads, and block b
  // computes the same values whichever pool lane runs it.
  const int threads = std::clamp(options.threads, 1, options.samples);
  std::vector<WorkerAccum> accums(static_cast<std::size_t>(threads));
  if (threads == 1) {
    run_block(0, options.samples, std::move(base_solver), accums[0]);
  } else {
    const int per = options.samples / threads;
    const int extra = options.samples % threads;
    std::vector<std::pair<int, int>> blocks;
    blocks.reserve(static_cast<std::size_t>(threads));
    int lo = 0;
    for (int t = 0; t < threads; ++t) {
      int hi = lo + per + (t < extra ? 1 : 0);
      blocks.emplace_back(lo, hi);
      lo = hi;
    }
    WorkerPool::shared().run(threads, [&](int t) {
      run_block(blocks[static_cast<std::size_t>(t)].first,
                blocks[static_cast<std::size_t>(t)].second, base_solver,
                accums[static_cast<std::size_t>(t)]);
    });
  }

  std::int64_t finish_sum = 0;
  std::vector<int> critical_count(n, 0);
  std::vector<std::int64_t> duration_sum(n, 0);
  int on_time = 0;
  CpmSolver::Stats stats = base_stats;
  for (const WorkerAccum& acc : accums) {
    finish_sum += acc.finish_sum;
    on_time += acc.on_time;
    for (std::size_t i = 0; i < n; ++i) {
      critical_count[i] += acc.critical_count[i];
      duration_sum[i] += acc.duration_sum[i];
    }
    stats.compiles += acc.stats.compiles;
    stats.solves += acc.stats.solves;
    stats.incremental_solves += acc.stats.incremental_solves;
    stats.batched_lanes += acc.stats.batched_lanes;
  }
  publish_solver_stats(options.bus, "risk", stats);

  std::sort(finishes.begin(), finishes.end());
  auto pct = [&](double p) {
    auto idx = static_cast<std::size_t>(p * static_cast<double>(finishes.size() - 1));
    return finishes[idx];
  };
  report.mean_finish = cal::WorkInstant(anchor + finish_sum / options.samples);
  report.p50_finish = cal::WorkInstant(anchor + pct(0.5));
  report.p90_finish = cal::WorkInstant(anchor + pct(0.9));
  report.on_time_probability =
      static_cast<double>(on_time) / static_cast<double>(options.samples);

  for (std::size_t i = 0; i < n; ++i) {
    const ScheduleNode& node = space.node(plan.nodes[i]);
    ActivityRisk ar;
    ar.activity = node.activity;
    ar.criticality = fixed[i] ? 0.0
                              : static_cast<double>(critical_count[i]) /
                                    static_cast<double>(options.samples);
    // Fixed activities never sample: their mean is exactly the actual.
    ar.mean_duration = cal::WorkDuration::minutes(
        fixed[i] ? base[i].duration : duration_sum[i] / options.samples);
    report.activities.push_back(std::move(ar));
  }
  return report;
}

std::string RiskReport::render(const cal::WorkCalendar& calendar) const {
  using util::pad_right;
  std::string out = "Schedule risk (" + std::to_string(samples) + " samples)\n";
  out += "  deterministic finish: " + calendar.format_date(deterministic_finish) +
         "  (met in " + util::format_double(100 * on_time_probability, 1) +
         "% of scenarios)\n";
  out += "  mean: " + calendar.format_date(mean_finish) +
         "   P50: " + calendar.format_date(p50_finish) +
         "   P90: " + calendar.format_date(p90_finish) + "\n";
  out += "  " + pad_right("activity", 16) + pad_right("criticality", 13) +
         "mean duration\n";
  out += "  " + util::repeat('-', 44) + "\n";
  const std::int64_t mpd = calendar.minutes_per_day();
  for (const auto& a : activities) {
    out += "  " + pad_right(a.activity, 16) +
           pad_right(util::format_double(100 * a.criticality, 1) + "%", 13) +
           a.mean_duration.str(mpd) + "\n";
  }
  return out;
}

}  // namespace herc::sched
