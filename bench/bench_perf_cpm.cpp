// P1: CPM scheduling cost vs. flow size and shape (chain, fan-in diamond,
// random DAG), 10 .. 10k activities.  The artifact prints a scaling table;
// google-benchmark provides the precise timings + complexity fit.

#include <chrono>
#include <iostream>

#include "bench_main.hpp"
#include "core/cpm_solver.hpp"
#include "core/resources.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

using namespace herc;

namespace {

std::vector<sched::CpmActivity> diamond_network(std::size_t half) {
  // source -> `half` parallel branches -> sink
  std::vector<sched::CpmActivity> acts(half + 2);
  acts[0].duration = 10;
  for (std::size_t i = 1; i <= half; ++i) {
    acts[i].duration = 60 + static_cast<std::int64_t>(i % 7) * 10;
    acts[i].preds = {0};
    acts[half + 1].preds.push_back(i);
  }
  acts[half + 1].duration = 10;
  return acts;
}

/// A layered mega-graph (width 1024) of `n` activities, compiled.
sched::CpmSolver mega_solver(std::size_t n) {
  gen::MegaGraphSpec spec{.seed = 42, .activities = n, .width = 1024};
  return sched::CpmSolver::compile(gen::mega_cpm_network(spec)).take();
}

void print_artifact() {
  std::cout << "P1 — CPM scaling (time per full forward+backward solve)\n\n";
  std::cout << util::pad_right("activities", 12) << util::pad_right("chain", 14)
            << util::pad_right("diamond", 14) << util::pad_right("random dag", 14)
            << "\n" << util::repeat('-', 54) << "\n";
  for (std::size_t n : {10u, 100u, 1000u, 10000u}) {
    auto time_one = [](const std::vector<sched::CpmActivity>& acts) {
      auto t0 = std::chrono::steady_clock::now();
      int reps = 0;
      std::int64_t sink = 0;
      do {
        auto r = sched::compute_cpm(acts).take();
        sink += r.makespan;
        ++reps;
      } while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(30));
      auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
      benchmark::DoNotOptimize(sink);
      return std::to_string(us / reps) + " us";
    };
    std::cout << util::pad_right(std::to_string(n), 12)
              << util::pad_right(time_one(bench::chain_cpm_network(n)), 14)
              << util::pad_right(time_one(diamond_network(n - 2)), 14)
              << util::pad_right(time_one(bench::random_cpm_network(n, 0.7, 42)), 14)
              << "\n";
  }
  std::cout << "\nExpected shape: near-linear in activities+edges (topological\n"
               "passes); the paper's flows (tens of activities) solve in\n"
               "microseconds, so re-planning on every database event is cheap —\n"
               "the premise of automatic schedule updating.\n\n";

  std::cout << "Compile-once incremental re-solve vs. one-shot compute_cpm\n"
               "(random dag, one duration mutated per solve)\n\n";
  std::cout << util::pad_right("activities", 12) << util::pad_right("one-shot", 14)
            << util::pad_right("re-solve", 14) << "speedup\n"
            << util::repeat('-', 48) << "\n";
  for (std::size_t n : {10u, 100u, 1000u, 10000u}) {
    auto acts = bench::random_cpm_network(n, 0.7, 42);
    auto time_ns = [](auto&& body) {
      auto t0 = std::chrono::steady_clock::now();
      int reps = 0;
      do {
        body();
        ++reps;
      } while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(30));
      return static_cast<double>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count()) /
             reps;
    };
    std::int64_t sink = 0;
    double oneshot = time_ns([&] { sink += sched::compute_cpm(acts).take().makespan; });
    auto solver = sched::CpmSolver::compile(acts).take();
    sched::CpmResult r;
    solver.solve(r);
    std::size_t flip = 0;
    double resolve = time_ns([&] {
      solver.set_duration(flip, solver.duration(flip) ^ 1);
      flip = (flip + 1) % acts.size();
      solver.solve(r);
      sink += r.makespan;
    });
    benchmark::DoNotOptimize(sink);
    std::cout << util::pad_right(std::to_string(n), 12)
              << util::pad_right(std::to_string(static_cast<long>(oneshot / 1e3)) + " us", 14)
              << util::pad_right(std::to_string(static_cast<long>(resolve / 1e3)) + " us", 14)
              << util::format_double(oneshot / resolve, 1) << "x\n";
  }
  std::cout << "\nExpected shape: the re-solve path skips validation, CSR build and\n"
               "toposort and reuses the result buffers, so the speedup grows with\n"
               "network size — what-if loops and Monte Carlo sampling run on the\n"
               "re-solve path.\n\n";

  std::cout << "Mega-graph: generate + compile, then re-solve\n"
               "(layered mega-graph, width 1024)\n\n";
  std::cout << util::pad_right("activities", 12) << util::pad_right("compile", 12)
            << util::pad_right("re-solve", 12) << "1M budget\n"
            << util::repeat('-', 46) << "\n";
  for (std::size_t n : {std::size_t{262144}, std::size_t{1048576}}) {
    auto t0 = std::chrono::steady_clock::now();
    auto solver = mega_solver(n);
    auto compile_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    sched::CpmResult r;
    solver.solve(r);  // warm-up: result buffers allocate once, here
    auto s0 = std::chrono::steady_clock::now();
    solver.solve(r);
    benchmark::DoNotOptimize(r.makespan);
    auto solve_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - s0)
                        .count();
    const bool in_budget = n < 1048576 || solve_ms < 1000;
    std::cout << util::pad_right(std::to_string(n), 12)
              << util::pad_right(std::to_string(compile_ms) + " ms", 12)
              << util::pad_right(std::to_string(solve_ms) + " ms", 12)
              << (n == 1048576 ? (in_budget ? "PASS (< 1 s)" : "OVER BUDGET") : "-")
              << "\n";
  }
  std::cout << "\nExpected shape: the compiled forward and backward passes sweep\n"
               "flat CSR arrays once in index order, so the full 1M-activity\n"
               "re-solve fits inside a second on one thread.\n\n";
}

void BM_CpmChain(benchmark::State& state) {
  auto acts = bench::chain_cpm_network(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(sched::compute_cpm(acts).value().makespan);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CpmChain)->Range(16, 16384)->Complexity(benchmark::oN);

void BM_CpmDiamond(benchmark::State& state) {
  auto acts = diamond_network(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(sched::compute_cpm(acts).value().makespan);
}
BENCHMARK(BM_CpmDiamond)->Range(16, 16384);

void BM_CpmRandomDag(benchmark::State& state) {
  auto acts =
      bench::random_cpm_network(static_cast<std::size_t>(state.range(0)), 0.7, 42);
  for (auto _ : state)
    benchmark::DoNotOptimize(sched::compute_cpm(acts).value().makespan);
}
BENCHMARK(BM_CpmRandomDag)->Range(16, 16384);

void BM_CpmSolverResolve(benchmark::State& state) {
  // Compile once; each iteration mutates one duration and re-solves the full
  // forward+backward pass in place.  Compare against BM_CpmRandomDag at the
  // same size for the one-shot cost (ISSUE target: >= 5x at 10k activities).
  auto acts =
      bench::random_cpm_network(static_cast<std::size_t>(state.range(0)), 0.7, 42);
  auto solver = sched::CpmSolver::compile(acts).take();
  sched::CpmResult r;
  solver.solve(r);
  std::size_t flip = 0;
  for (auto _ : state) {
    solver.set_duration(flip, solver.duration(flip) ^ 1);
    flip = (flip + 1) % acts.size();
    solver.solve(r);
    benchmark::DoNotOptimize(r.makespan);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CpmSolverResolve)->Range(16, 16384)->Complexity(benchmark::oN);

void BM_CpmSolverMakespan(benchmark::State& state) {
  // Forward-only re-solve: the inner loop of compute_drag / crash_to_deadline.
  auto acts =
      bench::random_cpm_network(static_cast<std::size_t>(state.range(0)), 0.7, 42);
  auto solver = sched::CpmSolver::compile(acts).take();
  std::size_t flip = 0;
  for (auto _ : state) {
    solver.set_duration(flip, solver.duration(flip) ^ 1);
    flip = (flip + 1) % acts.size();
    benchmark::DoNotOptimize(solver.solve_makespan());
  }
}
BENCHMARK(BM_CpmSolverMakespan)->Range(16, 16384);

void BM_CpmMegaResolve(benchmark::State& state) {
  // Full forward+backward re-solve of a layered mega-graph.
  auto solver = mega_solver(static_cast<std::size_t>(state.range(0)));
  sched::CpmResult r;
  std::size_t flip = 0;
  for (auto _ : state) {
    solver.set_duration(flip, solver.duration(flip) ^ 1);
    flip = (flip + 1) % solver.size();
    solver.solve(r);
    benchmark::DoNotOptimize(r.makespan);
  }
}
BENCHMARK(BM_CpmMegaResolve)->Arg(65536)->Arg(262144)->Arg(1048576)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CpmMegaMakespan(benchmark::State& state) {
  // Forward-only mega re-solve: the what-if / crash loop at mega scale.
  auto solver = mega_solver(static_cast<std::size_t>(state.range(0)));
  std::size_t flip = 0;
  for (auto _ : state) {
    solver.set_duration(flip, solver.duration(flip) ^ 1);
    flip = (flip + 1) % solver.size();
    benchmark::DoNotOptimize(solver.solve_makespan());
  }
}
BENCHMARK(BM_CpmMegaMakespan)->Arg(65536)->Arg(262144)->Arg(1048576)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_LevelSerial(benchmark::State& state) {
  sched::LevelingInput in;
  in.activities =
      bench::random_cpm_network(static_cast<std::size_t>(state.range(0)), 0.5, 7);
  in.requirements.resize(in.activities.size());
  in.bookings = sched::ResourceBookings({2, 2});
  for (std::size_t i = 0; i < in.activities.size(); ++i)
    in.requirements[i] = {i % 2};
  for (auto _ : state)
    benchmark::DoNotOptimize(sched::level_serial(in).value().makespan);
}
BENCHMARK(BM_LevelSerial)->Range(16, 1024);

}  // namespace

HERC_BENCH_MAIN(print_artifact)
