// Unit + property tests for the reusable CSR scheduling kernel.  The
// invariant under test throughout: a compiled solver, after any sequence of
// set_duration/set_release mutations, produces exactly the result a fresh
// compute_cpm would on the mutated network.

#include <gtest/gtest.h>

#include <numeric>

#include "core/cpm_solver.hpp"
#include "gen/gen.hpp"
#include "util/rng.hpp"

namespace herc::sched {
namespace {

/// Every field except the critical path.
void expect_same_dates(const CpmResult& got, const CpmResult& want) {
  EXPECT_EQ(got.early_start, want.early_start);
  EXPECT_EQ(got.early_finish, want.early_finish);
  EXPECT_EQ(got.late_start, want.late_start);
  EXPECT_EQ(got.late_finish, want.late_finish);
  EXPECT_EQ(got.total_slack, want.total_slack);
  EXPECT_EQ(got.free_slack, want.free_slack);
  EXPECT_EQ(got.critical, want.critical);
  EXPECT_EQ(got.makespan, want.makespan);
}

void expect_same_result(const CpmResult& got, const CpmResult& want) {
  expect_same_dates(got, want);
  EXPECT_EQ(got.critical_path, want.critical_path);
}

TEST(CpmSolver, EmptyNetwork) {
  auto solver = CpmSolver::compile({}).take();
  EXPECT_EQ(solver.size(), 0u);
  CpmResult r;
  r.makespan = 99;                 // stale caller buffer must be overwritten
  r.critical_path = {1, 2, 3};
  solver.solve(r);
  EXPECT_EQ(r.makespan, 0);
  EXPECT_TRUE(r.critical_path.empty());
  EXPECT_TRUE(r.early_start.empty());
}

TEST(CpmSolver, SingleActivity) {
  auto solver = CpmSolver::compile({{.duration = 100, .preds = {}, .release = 0}}).take();
  CpmResult r;
  solver.solve(r);
  EXPECT_EQ(r.makespan, 100);
  EXPECT_TRUE(r.critical[0]);
  EXPECT_EQ(r.critical_path, (std::vector<std::size_t>{0}));
  // Incremental: change the duration, re-solve in place.
  solver.set_duration(0, 40);
  solver.solve(r);
  EXPECT_EQ(r.makespan, 40);
  EXPECT_EQ(solver.solve_makespan(), 40);
}

TEST(CpmSolver, ParallelEdgesAreHarmless) {
  // Duplicate precedence edges 0 -> 1 must behave exactly like one edge.
  std::vector<CpmActivity> dup{
      {.duration = 10, .preds = {}},
      {.duration = 20, .preds = {0, 0, 0}},
  };
  std::vector<CpmActivity> single{
      {.duration = 10, .preds = {}},
      {.duration = 20, .preds = {0}},
  };
  auto solver = CpmSolver::compile(dup).take();
  CpmResult got;
  solver.solve(got);
  expect_same_result(got, compute_cpm(single).take());
  EXPECT_EQ(got.makespan, 30);
}

TEST(CpmSolver, ReleasePushedNonCriticalSources) {
  // The release on activity 1 pushes the chain 0 -> 1 so late that source 0
  // gains slack: no critical activity has an empty pred list, exercising the
  // fallback critical-source scan.
  std::vector<CpmActivity> acts{
      {.duration = 1, .preds = {}},
      {.duration = 10, .preds = {0}, .release = 100},
  };
  auto solver = CpmSolver::compile(acts).take();
  CpmResult r;
  solver.solve(r);
  EXPECT_EQ(r.makespan, 110);
  EXPECT_FALSE(r.critical[0]);
  EXPECT_TRUE(r.critical[1]);
  EXPECT_EQ(r.critical_path, (std::vector<std::size_t>{1}));
  expect_same_result(r, compute_cpm(acts).take());
  // Dropping the release restores the ordinary critical source.
  solver.set_release(1, 0);
  solver.solve(r);
  EXPECT_EQ(r.makespan, 11);
  EXPECT_EQ(r.critical_path, (std::vector<std::size_t>{0, 1}));
}

TEST(CpmSolver, CompileValidatesLikeComputeCpm) {
  EXPECT_FALSE(CpmSolver::compile({{.duration = -1, .preds = {}}}).ok());
  EXPECT_FALSE(CpmSolver::compile({{.duration = 1, .preds = {7}}}).ok());
  EXPECT_FALSE(CpmSolver::compile({{.duration = 1, .preds = {}, .release = -2}}).ok());
  auto cycle = CpmSolver::compile({{.duration = 1, .preds = {1}},
                                   {.duration = 1, .preds = {0}}});
  ASSERT_FALSE(cycle.ok());
  EXPECT_EQ(cycle.error().code, util::Error::Code::kInvalid);
  EXPECT_NE(cycle.error().message.find("cycle"), std::string::npos);
}

TEST(CpmSolver, MutationsClampNegativeValues) {
  auto solver = CpmSolver::compile({{.duration = 5, .preds = {}}}).take();
  solver.set_duration(0, -10);
  solver.set_release(0, -10);
  EXPECT_EQ(solver.duration(0), 0);
  EXPECT_EQ(solver.release(0), 0);
  EXPECT_EQ(solver.solve_makespan(), 0);
}

TEST(CpmSolver, StatsCountCompileSolveAndIncrementals) {
  auto solver = CpmSolver::compile({{.duration = 5, .preds = {}}}).take();
  CpmResult r;
  solver.solve(r);
  solver.solve(r);
  (void)solver.solve_makespan();
  EXPECT_EQ(solver.stats().compiles, 1u);
  EXPECT_EQ(solver.stats().solves, 3u);
  EXPECT_EQ(solver.stats().incremental_solves, 2u);
  auto taken = solver.take_stats();
  EXPECT_EQ(taken.solves, 3u);
  EXPECT_EQ(solver.stats().solves, 0u);
  // incremental status survives take_stats: the structure is still warm.
  solver.solve(r);
  EXPECT_EQ(solver.stats().incremental_solves, 1u);
}

// --- incremental equivalence on randomized DAGs ------------------------------
// DAG sampling lives in herc::gen so the fuzzer and these tests draw from the
// same distribution (gen::random_cpm_dag preserves this file's original draws).

class CpmSolverProperty : public ::testing::TestWithParam<std::uint64_t> {};

/// `r`, solved on a copy whose activity i sits at label[i], mapped back to
/// the original indices.  The critical path is left as solved: its
/// tie-breaks follow index order, so it may differ between the two.
CpmResult unrelabel(const CpmResult& r, const std::vector<std::size_t>& label) {
  CpmResult back = r;
  for (std::size_t i = 0; i < label.size(); ++i) {
    back.early_start[i] = r.early_start[label[i]];
    back.early_finish[i] = r.early_finish[label[i]];
    back.late_start[i] = r.late_start[label[i]];
    back.late_finish[i] = r.late_finish[label[i]];
    back.total_slack[i] = r.total_slack[label[i]];
    back.free_slack[i] = r.free_slack[label[i]];
    back.critical[i] = r.critical[label[i]];
  }
  return back;
}

TEST_P(CpmSolverProperty, IncrementalSolveMatchesFreshComputeCpm) {
  util::Rng rng(GetParam());
  auto acts = gen::random_cpm_dag(rng, 50, 0.08);
  auto solver = CpmSolver::compile(acts).take();
  CpmResult incremental;
  solver.solve(incremental);
  expect_same_result(incremental, compute_cpm(acts).take());

  // The same network randomly relabelled: activity i moves to label[i].
  // The copy is not forward-indexed, so compile orders it by Kahn's queue
  // instead of by index; the dates must not depend on that order.
  util::Rng shuffle(GetParam() + 1000);
  std::vector<std::size_t> label(acts.size());
  std::iota(label.begin(), label.end(), std::size_t{0});
  for (std::size_t i = label.size() - 1; i > 0; --i)
    std::swap(label[i], label[static_cast<std::size_t>(shuffle.uniform_int(0, i))]);
  std::vector<CpmActivity> copy(acts.size());
  bool forward_indexed = true;
  for (std::size_t i = 0; i < acts.size(); ++i) {
    copy[label[i]] = acts[i];
    for (std::size_t& p : copy[label[i]].preds) {
      p = label[p];
      forward_indexed = forward_indexed && p < label[i];
    }
  }
  ASSERT_FALSE(forward_indexed);
  auto relabelled = CpmSolver::compile(copy).take();
  CpmResult shuffled;
  relabelled.solve(shuffled);
  expect_same_dates(unrelabel(shuffled, label), incremental);

  for (int round = 0; round < 20; ++round) {
    // Mutate a few durations/releases, keeping the mirror `acts` and the
    // relabelled solver in sync.
    for (int k = 0; k < 5; ++k) {
      auto i = static_cast<std::size_t>(rng.uniform_int(0, 49));
      if (rng.chance(0.7)) {
        acts[i].duration = rng.uniform_int(0, 500);
        solver.set_duration(i, acts[i].duration);
        relabelled.set_duration(label[i], acts[i].duration);
      } else {
        acts[i].release = rng.uniform_int(0, 300);
        solver.set_release(i, acts[i].release);
        relabelled.set_release(label[i], acts[i].release);
      }
    }
    solver.solve(incremental);
    auto fresh = compute_cpm(acts).take();
    expect_same_result(incremental, fresh);
    EXPECT_EQ(solver.solve_makespan(), fresh.makespan);
    relabelled.solve(shuffled);
    expect_same_dates(unrelabel(shuffled, label), fresh);
    EXPECT_EQ(relabelled.solve_makespan(), fresh.makespan);
  }
}

TEST_P(CpmSolverProperty, DragMatchesBruteForceResolve) {
  util::Rng rng(GetParam() + 500);
  auto acts = gen::random_cpm_dag(rng, 40, 0.1);
  auto drags = compute_drag(acts).take();
  auto base = compute_cpm(acts).take();
  for (std::size_t i = 0; i < acts.size(); ++i) {
    auto probe = acts;
    probe[i].duration = 0;
    std::int64_t expected =
        (!base.critical[i] || acts[i].duration == 0)
            ? 0
            : base.makespan - compute_cpm(probe).take().makespan;
    EXPECT_EQ(drags[i], expected) << "activity " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpmSolverProperty,
                         ::testing::Values(1, 2, 3, 7, 11, 23));

// --- streaming compile -------------------------------------------------------

TEST(CpmSolverStream, CompileStreamMatchesCompile) {
  for (auto shape : {gen::Shape::kLayered, gen::Shape::kRandom}) {
    gen::MegaGraphSpec spec{.seed = 21, .shape = shape, .activities = 1200,
                            .width = 37, .release_p = 0.15};
    auto acts = gen::mega_cpm_network(spec);
    auto classic = CpmSolver::compile(acts).take();
    auto streamed = CpmSolver::compile_stream(
        spec.activities,
        [&](const CpmSolver::ActivitySink& sink) { gen::stream_mega_cpm(spec, sink); })
        .take();
    EXPECT_EQ(streamed.size(), acts.size());
    CpmResult a, b;
    classic.solve(a);
    streamed.solve(b);
    expect_same_result(b, a);
  }
}

TEST(CpmSolverStream, ValidatesLikeCompile) {
  auto bad_pred = CpmSolver::compile_stream(1, [](const CpmSolver::ActivitySink& sink) {
    std::uint32_t preds[] = {7};
    sink(1, 0, preds, 1);
  });
  EXPECT_FALSE(bad_pred.ok());
  auto bad_dur = CpmSolver::compile_stream(1, [](const CpmSolver::ActivitySink& sink) {
    sink(-1, 0, nullptr, 0);
  });
  EXPECT_FALSE(bad_dur.ok());
  auto wrong_count = CpmSolver::compile_stream(2, [](const CpmSolver::ActivitySink& sink) {
    sink(1, 0, nullptr, 0);
  });
  EXPECT_FALSE(wrong_count.ok());
}

// --- batched lanes -----------------------------------------------------------

TEST(CpmSolverBatch, LanesMatchPerLaneSolves) {
  util::Rng rng(5);
  auto acts = gen::random_cpm_dag(rng, 120, 0.06);
  auto solver = CpmSolver::compile(acts).take();
  const std::size_t n = acts.size();
  constexpr std::size_t kLanes = 8;
  std::vector<std::int64_t> durations(n * kLanes);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t l = 0; l < kLanes; ++l)
      durations[i * kLanes + l] = rng.uniform_int(0, 500);
  std::vector<std::int64_t> makespans(kLanes);
  std::vector<std::uint8_t> critical(n * kLanes);
  solver.solve_batch(durations.data(), kLanes, makespans.data(), critical.data());

  auto reference = CpmSolver::compile(acts).take();
  CpmResult r;
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t i = 0; i < n; ++i)
      reference.set_duration(i, durations[i * kLanes + l]);
    reference.solve(r);
    EXPECT_EQ(makespans[l], r.makespan) << "lane " << l;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(critical[i * kLanes + l], r.critical[i])
          << "lane " << l << " activity " << i;
  }
  EXPECT_EQ(solver.stats().batched_lanes, kLanes);
}

}  // namespace
}  // namespace herc::sched
