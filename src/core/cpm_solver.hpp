#pragma once
// Reusable CPM scheduling kernel.
//
// compute_cpm (cpm.hpp) rebuilds a vector-of-vectors digraph, re-validates,
// and re-toposorts on every call — fine for one-shot planning, wasteful for
// the hot paths that re-solve the *same* network thousands of times with
// different durations (Monte Carlo risk, crash-to-deadline, drag, slip
// propagation on every database event).  CpmSolver splits the work:
//
//   compile()  — once per network: validate, build flat CSR successor /
//                predecessor arrays (predecessor blocks sorted ascending,
//                successor lists pre-sorted by activity index), fix one
//                topological order, run the cycle check.
//   solve()    — per scenario: forward/backward passes plus critical-path
//                extraction into a caller-owned CpmResult.  After the first
//                solve every buffer is reused: zero allocation per solve.
//   solve_batch() — the Monte Carlo lane kernel: W duration scenarios laid
//                out lane-contiguous ([activity * lanes + lane]) solved in
//                one forward/backward sweep.  The inner loops are plain
//                int64 lane arithmetic over contiguous memory, written to
//                autovectorize; per lane the arithmetic is exactly solve()'s,
//                so batching cannot change any sampled value.
//   set_duration() / set_release() — the incremental fast path: structure is
//                immutable after compile, so value mutations never
//                re-validate, re-build, or re-toposort.
//
// A solver is copyable; per-thread copies share no state, which is how
// analyze_risk shards sample blocks across the shared WorkerPool.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cpm.hpp"
#include "obs/event_bus.hpp"
#include "util/result.hpp"

namespace herc::sched {

class CpmSolver {
 public:
  /// Counters since construction or the last take_stats().  A solve is
  /// *incremental* when it reuses a previously solved structure (every solve
  /// after the first on one compiled network).
  struct Stats {
    std::uint64_t compiles = 0;
    std::uint64_t solves = 0;
    std::uint64_t incremental_solves = 0;
    std::uint64_t batched_lanes = 0;  ///< Monte Carlo lanes solved via solve_batch
  };

  CpmSolver() = default;

  /// Compiles `activities` into CSR form.  Fails (kInvalid) on a negative
  /// duration or release, an out-of-range predecessor, or a precedence
  /// cycle — the same conditions as compute_cpm, checked exactly once.
  [[nodiscard]] static util::Result<CpmSolver> compile(
      const std::vector<CpmActivity>& activities);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::int64_t duration(std::size_t i) const { return durations_[i]; }
  [[nodiscard]] std::int64_t release(std::size_t i) const { return releases_[i]; }

  /// Value mutations: no validation beyond clamping to >= 0 (compile proved
  /// the structure sound; negative inputs cannot corrupt it).
  void set_duration(std::size_t i, std::int64_t d) {
    durations_[i] = d < 0 ? 0 : d;
  }
  void set_release(std::size_t i, std::int64_t r) { releases_[i] = r < 0 ? 0 : r; }

  /// Full CPM solution into `out`, reusing its buffers.  Infallible: the
  /// compiled structure is acyclic and values are non-negative.
  void solve(CpmResult& out);

  /// Forward pass only (early dates internally, returns the makespan).
  /// The cheapest probe for duration-swap loops like drag.
  [[nodiscard]] std::int64_t solve_makespan();

  /// Monte Carlo lane kernel.  `durations` holds `lanes` duration scenarios
  /// laid out lane-contiguous: durations[i * lanes + l] is activity i's
  /// duration in scenario l (fixed activities must carry the same value in
  /// every lane).  Writes each scenario's makespan to makespans[l] and its
  /// per-activity criticality flags to critical[i * lanes + l].  Releases
  /// come from the compiled network.  Per lane the results are exactly what
  /// solve() would produce after set_duration of that lane's durations.
  void solve_batch(const std::int64_t* durations, std::size_t lanes,
                   std::int64_t* makespans, std::uint8_t* critical);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Returns the counters accumulated since the last take and zeroes them —
  /// the delta a caller publishes to observability.
  Stats take_stats() {
    Stats s = stats_;
    stats_ = Stats{};
    return s;
  }

 private:
  /// The tail of compile: pred blocks sorted, topological order fixed
  /// (index order for forward-indexed networks, CSR Kahn otherwise), cycle
  /// check.
  [[nodiscard]] static util::Result<CpmSolver> finalize(CpmSolver s);

  void count_solve() {
    ++stats_.solves;
    if (solved_once_) ++stats_.incremental_solves;
    solved_once_ = true;
  }
  void count_batch(std::size_t lanes) {
    stats_.solves += lanes;
    stats_.incremental_solves += lanes - (solved_once_ ? 0 : 1);
    stats_.batched_lanes += lanes;
    solved_once_ = true;
  }

  std::size_t n_ = 0;
  std::vector<std::int64_t> durations_;
  std::vector<std::int64_t> releases_;
  // CSR adjacency.  succ_[succ_off_[v] .. succ_off_[v+1]) are v's successors
  // in ascending index order (counting sort by construction), so the
  // critical-path walk is a plain scan — no per-step copy + sort.
  // Predecessor blocks are sorted ascending too: order is semantically free
  // (preds are only max'ed over) and the sorted scan is kinder to the cache
  // on random shapes.
  std::vector<std::uint32_t> succ_off_, succ_;
  std::vector<std::uint32_t> pred_off_, pred_;
  // Topological order: every predecessor of order_[k] appears before k.
  std::vector<std::uint32_t> order_;
  std::vector<std::int64_t> scratch_ef_;  ///< solve_makespan early finishes
  std::vector<std::int64_t> batch_es_, batch_ef_, batch_ls_;  ///< lane scratch
  Stats stats_;
  bool solved_once_ = false;
};

/// Publishes a solver's taken Stats as one `cpm.solver` scope event (the
/// MetricsRegistry turns it into solver_compiles / solver_solves /
/// solver_incremental_solves / solver_batched_lanes counters).  No-op when
/// the bus is off or the stats are empty, so hot paths pay one atomic load.
inline void publish_solver_stats(obs::EventBus* bus, std::string category,
                                 const CpmSolver::Stats& stats) {
  if (!obs::on(bus)) return;
  if (stats.compiles == 0 && stats.solves == 0) return;
  obs::Event e;
  e.kind = obs::EventKind::kScope;
  e.name = "cpm.solver";
  e.category = std::move(category);
  e.args = {{"compiles", std::to_string(stats.compiles)},
            {"solves", std::to_string(stats.solves)},
            {"resolves", std::to_string(stats.incremental_solves)}};
  if (stats.batched_lanes > 0)
    e.args.push_back({"batched", std::to_string(stats.batched_lanes)});
  bus->publish(std::move(e));
}

}  // namespace herc::sched
