#include "common/thread_pool.h"

#include <sched.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace qagview {
namespace {

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
  ThreadPool fixed(3);
  EXPECT_EQ(fixed.num_threads(), 3);
}

// The default pool is as wide as the affinity mask, not the machine: a
// thread pinned to one CPU builds serially.
TEST(ThreadPoolTest, DefaultThreadCountFollowsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), CPU_COUNT(&saved));
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned = ThreadPool::DefaultNumThreads();
  ThreadPool pool;
  const int pool_threads = pool.num_threads();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1);
  EXPECT_EQ(pool_threads, 1);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    const int64_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(0, n, [&](int64_t i) { ++hits[static_cast<size_t>(i)]; });
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "index " << i << " with " << threads << " threads";
    }
  }
}

TEST(ThreadPoolTest, NonZeroBeginAndPreSizedSlots) {
  ThreadPool pool(4);
  std::vector<int64_t> out(100, -1);
  pool.ParallelFor(40, 100, [&](int64_t i) { out[static_cast<size_t>(i)] = i; });
  for (int64_t i = 0; i < 40; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], -1);
  for (int64_t i = 40; i < 100; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i);
}

TEST(ThreadPoolTest, EmptyAndShortRanges) {
  ThreadPool pool(8);
  int calls = 0;
  pool.ParallelFor(0, 0, [&](int64_t) { ++calls; });
  pool.ParallelFor(5, 5, [&](int64_t) { ++calls; });
  pool.ParallelFor(5, 3, [&](int64_t) { ++calls; });  // inverted => empty
  EXPECT_EQ(calls, 0);
  // Fewer indices than workers.
  std::atomic<int> ran{0};
  pool.ParallelFor(0, 3, [&](int64_t) { ++ran; });
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(0, 100, [&](int64_t i) { sum += i; });
    ASSERT_EQ(sum.load(), 99 * 100 / 2);
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.ParallelFor(0, 100,
                         [&](int64_t i) {
                           if (i == 37) throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool survives the exception and runs subsequent jobs.
    std::atomic<int> ran{0};
    pool.ParallelFor(0, 10, [&](int64_t) { ++ran; });
    EXPECT_EQ(ran.load(), 10);
  }
}

TEST(ThreadPoolTest, ExceptionAbortsRemainingWork) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  try {
    pool.ParallelFor(0, 1000000, [&](int64_t) {
      ++ran;
      throw std::runtime_error("first iteration fails");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  // Every participant stops claiming work after the first failure; far
  // fewer than all iterations ran.
  EXPECT_LT(ran.load(), 1000);
}

}  // namespace
}  // namespace qagview
