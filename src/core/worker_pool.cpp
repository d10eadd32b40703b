#include "core/worker_pool.hpp"

#include <algorithm>

namespace herc::sched {

WorkerPool::WorkerPool(int threads) : threads_(std::max(1, threads)) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int t = 0; t < threads_ - 1; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void WorkerPool::run(int tasks, const std::function<void(int)>& fn) {
  if (tasks <= 0) return;
  if (threads_ == 1 || tasks == 1) {
    for (int i = 0; i < tasks; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> serialize(run_mutex_);
  std::uint32_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    tasks_ = tasks;
    done_ = 0;
    generation = ++generation_;
    claim_.store(std::uint64_t{generation} << 32, std::memory_order_relaxed);
  }
  work_cv_.notify_all();

  // The caller is a lane too: claim tasks until the region runs dry.
  int claimed = 0;
  for (;;) {
    const int i = claim(generation, tasks);
    if (i < 0) break;
    fn(i);
    ++claimed;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_ += claimed;
  done_cv_.wait(lock, [&] { return done_ == tasks_; });
  fn_ = nullptr;
}

int WorkerPool::claim(std::uint32_t generation, int tasks) {
  std::uint64_t word = claim_.load(std::memory_order_relaxed);
  for (;;) {
    const auto next = static_cast<std::uint32_t>(word);
    if (word >> 32 != generation || next >= static_cast<std::uint32_t>(tasks))
      return -1;
    if (claim_.compare_exchange_weak(word, word + 1, std::memory_order_relaxed))
      return static_cast<int>(next);
  }
}

void WorkerPool::worker_loop() {
  std::uint32_t seen = 0;
  for (;;) {
    const std::function<void(int)>* fn = nullptr;
    int tasks = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = fn_;
      tasks = tasks_;
    }
    // A claim succeeds only while region `seen` is current, so fn still
    // points at that region's function whenever it runs.
    int claimed = 0;
    for (;;) {
      const int i = claim(seen, tasks);
      if (i < 0) break;
      (*fn)(i);
      ++claimed;
    }
    if (claimed > 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ += claimed;
      if (done_ == tasks_) done_cv_.notify_one();
    }
  }
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool* pool = new WorkerPool(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  return *pool;
}

}  // namespace herc::sched
