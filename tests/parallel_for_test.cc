#include "common/parallel_for.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu.h"

namespace qagview {
namespace {

/// The distinct threads that ran fn in one ParallelFor(width, 0, count).
std::set<std::thread::id> ThreadsUsed(int width, int64_t count) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  ParallelFor(width, 0, count, [&](int64_t) {
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  return ids;
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int width = 1; width <= 8; ++width) {
    for (int64_t count = 0; count <= 20; ++count) {
      for (int64_t begin : {0, 7}) {
        const int64_t end = begin + count;
        std::vector<std::atomic<int>> hits(static_cast<size_t>(end) + 5);
        for (auto& h : hits) h.store(0);
        ParallelFor(width, begin, end,
                    [&](int64_t i) { ++hits[static_cast<size_t>(i)]; });
        for (int64_t i = 0; i < static_cast<int64_t>(hits.size()); ++i) {
          ASSERT_EQ(hits[static_cast<size_t>(i)].load(),
                    i >= begin && i < end ? 1 : 0)
              << "index " << i << " of [" << begin << ", " << end
              << ") at width " << width;
        }
      }
    }
  }
  // A long range too, so indices are claimed concurrently.
  for (int width : {2, 4, 8}) {
    const int64_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    ParallelFor(width, 0, n,
                [&](int64_t i) { ++hits[static_cast<size_t>(i)]; });
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "index " << i << " at width " << width;
    }
  }
}

TEST(ParallelForTest, InvertedRangeRunsNothing) {
  int calls = 0;
  ParallelFor(8, 5, 3, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, AtMostMinOfWidthAndCountThreadsRun) {
  for (int width = 1; width <= 8; ++width) {
    for (int64_t count : {1, 2, 3, 5, 64}) {
      const std::set<std::thread::id> ids = ThreadsUsed(width, count);
      EXPECT_GE(ids.size(), 1u);
      EXPECT_LE(static_cast<int64_t>(ids.size()),
                std::min<int64_t>(width, count))
          << "width " << width << ", count " << count;
    }
  }
  // Width 1 and a single index run inline on the caller.
  const std::set<std::thread::id> caller = {std::this_thread::get_id()};
  EXPECT_EQ(ThreadsUsed(1, 64), caller);
  EXPECT_EQ(ThreadsUsed(8, 1), caller);
}

// The default width is the affinity mask's, not the machine's: a thread
// pinned to one CPU runs every index itself.
TEST(ParallelForTest, DefaultWidthFollowsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(AvailableCpus(), CPU_COUNT(&saved));
  EXPECT_LE(static_cast<int>(ThreadsUsed(0, 64).size()), CPU_COUNT(&saved));
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned = AvailableCpus();
  const std::set<std::thread::id> ids = ThreadsUsed(0, 64);
  const std::set<std::thread::id> negative = ThreadsUsed(-3, 64);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1);
  const std::set<std::thread::id> caller = {std::this_thread::get_id()};
  EXPECT_EQ(ids, caller);
  EXPECT_EQ(negative, caller);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  for (int width : {1, 4}) {
    EXPECT_THROW(ParallelFor(width, 0, 100,
                             [&](int64_t i) {
                               if (i == 37) throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
  }
}

TEST(ParallelForTest, ExceptionStopsFurtherClaims) {
  std::atomic<int> ran{0};
  try {
    ParallelFor(2, 0, 1000000, [&](int64_t) {
      ++ran;
      throw std::runtime_error("first iteration fails");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  // Every thread stops claiming work after the first failure; far fewer
  // than all iterations ran.
  EXPECT_LT(ran.load(), 1000);
}

}  // namespace
}  // namespace qagview
