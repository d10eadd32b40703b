// Unit tests for the shared worker pool: task coverage, reuse across jobs,
// caller participation, the single-thread inline path, and back-to-back
// regions from concurrent callers.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "core/worker_pool.hpp"

namespace herc::sched {
namespace {

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  // Distinct task indices write disjoint slots — the same contract
  // analyze_risk's sample blocks rely on.
  std::vector<int> hits(1000, 0);
  pool.run(1000, [&](int t) { hits[static_cast<std::size_t>(t)]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerPool, ReusableAcrossManyJobs) {
  WorkerPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 200; ++round)
    pool.run(17, [&](int t) { sum += t; });
  EXPECT_EQ(sum.load(), 200L * (16 * 17 / 2));
}

TEST(WorkerPool, SingleThreadRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  // Inline execution: tasks observe sequential order on the caller.
  std::vector<int> order;
  pool.run(5, [&](int t) { order.push_back(t); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, MoreTasksThanThreadsAndViceVersa) {
  WorkerPool pool(8);
  std::atomic<int> count{0};
  pool.run(3, [&](int) { count++; });  // fewer tasks than threads
  EXPECT_EQ(count.load(), 3);
  count = 0;
  pool.run(100, [&](int) { count++; });  // more tasks than threads
  EXPECT_EQ(count.load(), 100);
  pool.run(0, [&](int) { count++; });  // empty job is a no-op
  EXPECT_EQ(count.load(), 100);
}

// Regions that end while a worker is still waking up: with two callers
// queueing thousands of tiny regions, a worker often wakes after its region
// finished and must neither run a later region's indices through the old
// function nor count them into the later region.
TEST(WorkerPool, BackToBackRegionsFromTwoCallers) {
  WorkerPool pool(4);
  constexpr int kRegions = 20000;
  constexpr int kMaxTasks = 3;
  auto caller = [&pool](int salt, std::vector<int>& hits) {
    hits.assign(static_cast<std::size_t>(kRegions * kMaxTasks), 0);
    for (int r = 0; r < kRegions; ++r) {
      const int tasks = 1 + (r + salt) % kMaxTasks;
      int* slots = &hits[static_cast<std::size_t>(r * kMaxTasks)];
      pool.run(tasks, [slots](int t) { ++slots[t]; });
    }
  };
  std::vector<int> hits_a, hits_b;
  std::thread a(caller, 0, std::ref(hits_a));
  std::thread b(caller, 1, std::ref(hits_b));
  a.join();
  b.join();
  for (int salt : {0, 1}) {
    const std::vector<int>& hits = salt == 0 ? hits_a : hits_b;
    int wrong = 0;
    for (int r = 0; r < kRegions; ++r) {
      const int tasks = 1 + (r + salt) % kMaxTasks;
      for (int t = 0; t < kMaxTasks; ++t)
        if (hits[static_cast<std::size_t>(r * kMaxTasks + t)] != (t < tasks ? 1 : 0))
          ++wrong;
    }
    EXPECT_EQ(wrong, 0) << "caller " << salt;
  }
}

TEST(WorkerPool, SharedPoolIsProcessWide) {
  WorkerPool& a = WorkerPool::shared();
  WorkerPool& b = WorkerPool::shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.threads(), 1);
  std::atomic<int> count{0};
  a.run(10, [&](int) { count++; });
  EXPECT_EQ(count.load(), 10);
}

}  // namespace
}  // namespace herc::sched
