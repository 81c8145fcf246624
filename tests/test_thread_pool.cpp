#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

/// \file test_thread_pool.cpp
/// The persistent work-stealing pool behind the stream runtime: reuse across
/// parallel regions (no fork/join), exception propagation through
/// TaskGroup::wait and parallel_for, nested submission from inside tasks,
/// and the determinism contract (identical visit sets for any width).
/// Forced-width pools make the suite independent of the host's core count.

namespace h2sketch {
namespace {

TEST(ThreadPool, ParallelForVisitsEveryIndexOnceAnyWidth) {
  for (int width : {1, 2, 4, 7}) {
    ThreadPool pool(width);
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for(257, [&](index_t i) { hits[static_cast<size_t>(i)].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "width " << width;
  }
}

TEST(ThreadPool, PersistsAcrossManyParallelRegions) {
  // The whole point of the pool: one set of workers serves every launch.
  // 200 back-to-back regions on one pool must all complete correctly —
  // with a fork/join model this is 200 thread-team spawns; here the
  // telemetry shows tasks flowing through the same pool.
  ThreadPool pool(4);
  std::atomic<index_t> total{0};
  for (int r = 0; r < 200; ++r)
    pool.parallel_for(64, [&](index_t) { total.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(total.load(), 200 * 64);
  EXPECT_GT(pool.tasks_executed(), std::uint64_t{0});
}

TEST(ThreadPool, TaskGroupWaitRethrowsFirstException) {
  ThreadPool pool(4);
  TaskGroup group(pool);
  std::atomic<int> ran{0};
  for (int t = 0; t < 16; ++t) {
    group.run([&ran, t] {
      ran.fetch_add(1);
      if (t == 5) throw std::runtime_error("task 5 failed");
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  // Every task still ran — one failure does not cancel its siblings.
  EXPECT_EQ(ran.load(), 16);
  // The group is reusable after the error was consumed.
  group.run([&ran] { ran.fetch_add(1); });
  EXPECT_NO_THROW(group.wait());
  EXPECT_EQ(ran.load(), 17);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(128,
                                 [](index_t i) {
                                   if (i == 77) throw std::logic_error("bad entry");
                                 }),
               std::logic_error);
}

TEST(ThreadPool, NestedSubmitFromWorkerDoesNotDeadlock) {
  // A task that spawns subtasks and waits for them: the waiting worker must
  // help execute instead of sleeping (cooperative wait), or a pool narrower
  // than the nesting depth deadlocks.
  ThreadPool pool(2);
  std::atomic<index_t> inner_total{0};
  pool.parallel_for(8, [&](index_t) {
    TaskGroup sub(pool);
    for (int k = 0; k < 8; ++k)
      sub.run([&inner_total] { inner_total.fetch_add(1, std::memory_order_relaxed); });
    sub.wait();
  });
  EXPECT_EQ(inner_total.load(), 8 * 8);
}

TEST(ThreadPool, NestedParallelForComputesCorrectly) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(40 * 25);
  pool.parallel_for(40, [&](index_t i) {
    pool.parallel_for(25, [&, i](index_t j) {
      hits[static_cast<size_t>(i * 25 + j)].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, UnevenWorkIsStolenNotSerialized) {
  // One entry carries ~all the cost; with stealing, the other entries do
  // not queue behind it on the same worker. Correctness check (exact visit
  // set) plus a coarse liveness check that the cheap entries complete even
  // while the expensive one is still running.
  ThreadPool pool(4);
  std::atomic<bool> big_done{false};
  std::atomic<int> cheap_done{0};
  pool.parallel_for(64, [&](index_t i) {
    if (i == 0) {
      // Spin until every cheap entry finished (they can, since they are
      // stolen by the other workers); a serializing pool would livelock
      // here, caught by the test timeout.
      while (cheap_done.load(std::memory_order_acquire) < 63) std::this_thread::yield();
      big_done.store(true, std::memory_order_release);
    } else {
      cheap_done.fetch_add(1, std::memory_order_acq_rel);
    }
  });
  EXPECT_TRUE(big_done.load());
  EXPECT_EQ(cheap_done.load(), 63);
}

TEST(ThreadPool, ExternalWaitersHelpExecute) {
  // A TaskGroup waiter that is not a pool worker must drain tasks too:
  // submit from the main thread on a width-2 pool and wait — observed
  // externally as completion even when the single worker is busy.
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> done{0};
  for (int t = 0; t < 32; ++t) group.run([&done] { done.fetch_add(1); });
  group.wait();
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, GlobalPoolFollowsNumThreads) {
  // The global pool's width is the num_threads() knob, re-read per region.
  const int prev = num_threads();
  EXPECT_EQ(ThreadPool::global().width(), prev);
  set_num_threads(3);
  EXPECT_EQ(ThreadPool::global().width(), 3);
  set_num_threads(prev);
  EXPECT_EQ(ThreadPool::global().width(), prev);
}

} // namespace
} // namespace h2sketch
