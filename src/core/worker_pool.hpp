#pragma once
// Reusable worker pool for data-parallel scheduling kernels.
//
// Spawning a fresh std::thread per worker on every analyze_risk call would
// mean thousands of thread creations per second at server rates, each
// costing tens of microseconds.  WorkerPool keeps its threads parked on a
// condition variable between regions.
//
// The only primitive is run(tasks, fn): execute fn(0..tasks-1), each task
// exactly once, across the pool *and the calling thread*, returning when
// all tasks finished.  Tasks are claimed from a shared atomic word that
// carries the region's generation next to the next index, so a worker that
// wakes after its region ended can never claim a later region's indices.
// Which thread runs which task is nondeterministic — determinism is the
// caller's contract: tasks must write results only at task-indexed slots
// (disjoint per task) and any reduction must happen on the caller's thread
// in task-index order after run() returns.  analyze_risk's Monte Carlo
// sample blocks follow that rule, which is how its report stays
// bit-identical at any thread count.
//
// run() is serialized internally (concurrent callers queue on a mutex) and
// must not be re-entered from inside a task.  Tasks must not throw.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace herc::sched {

class WorkerPool {
 public:
  /// Spawns `threads - 1` workers (the caller is the remaining lane).
  /// Clamped to >= 1; a 1-thread pool runs everything inline.
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total parallel lanes, counting the calling thread.
  [[nodiscard]] int threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, tasks) across the workers plus the
  /// calling thread; returns once all have finished.  Safe to call from
  /// multiple threads (calls serialize); NOT re-entrant from inside a task.
  void run(int tasks, const std::function<void(int)>& fn);

  /// Process-wide pool sized to the hardware, for callers without their
  /// own: risk analysis, benches, the fuzz harness.  Constructed on first
  /// use, never destroyed (workers park when idle).
  static WorkerPool& shared();

 private:
  void worker_loop();
  /// Claims the next index of region `generation`; -1 once that region's
  /// indices are exhausted or a later region has replaced it.
  int claim(std::uint32_t generation, int tasks);

  const int threads_;
  std::vector<std::thread> workers_;

  std::mutex run_mutex_;  ///< serializes concurrent run() callers

  // One "region" per run() call.  Workers wake on generation_ changing,
  // claim task indices from claim_, and count completions into done_.
  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers wait for a new generation
  std::condition_variable done_cv_;   ///< caller waits for done_ == tasks_
  std::uint32_t generation_ = 0;
  int tasks_ = 0;
  const std::function<void(int)>* fn_ = nullptr;
  /// Region generation in the high 32 bits, next unclaimed index in the low.
  std::atomic<std::uint64_t> claim_{0};
  int done_ = 0;
  bool stop_ = false;
};

}  // namespace herc::sched
