// BackgroundScheduler battery: lane priority, token-based cancellation,
// shutdown semantics, the foreground gate, and an 8-thread race pinning the
// "speculation never delays foreground work" contract. The concurrency
// cases are written to be meaningful under TSan (no sleeps standing in for
// synchronization; every cross-thread edge goes through the scheduler or a
// latch).

#include "common/background_scheduler.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace qagview {
namespace {

using Lane = BackgroundScheduler::Lane;

/// One-shot gate: lets a test hold the (single) worker inside a task so
/// later submissions queue up in a known order before anything else runs.
class Latch {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(BackgroundSchedulerTest, RunsSubmittedTasks) {
  BackgroundScheduler scheduler;
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    scheduler.Submit(Lane::kRefinement, 0, [&] { ++ran; });
  }
  scheduler.Drain();
  EXPECT_EQ(ran.load(), 100);
  const auto counters = scheduler.counters();
  EXPECT_EQ(counters.lane(Lane::kRefinement).submitted, 100);
  EXPECT_EQ(counters.lane(Lane::kRefinement).ran, 100);
  EXPECT_EQ(counters.lane(Lane::kRefinement).dropped_superseded, 0);
}

TEST(BackgroundSchedulerTest, HigherLaneAlwaysDequeuesFirst) {
  // Hold the single worker hostage, queue one task per lane in *reverse*
  // priority order, then release: execution order must follow lane
  // priority, not submission order.
  BackgroundScheduler scheduler;
  Latch started, gate;
  scheduler.Submit(Lane::kPrefetch, 0, [&] {
    started.Open();
    gate.Wait();
  });
  // The hostage must be *running* before the lanes fill up: still queued,
  // it would lose the worker to the higher lanes submitted below.
  started.Wait();

  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int lane) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(lane);
  };
  scheduler.Submit(Lane::kPrefetch, 0, [&] { record(1); });
  scheduler.Submit(Lane::kRefinement, 0, [&] { record(0); });
  // Second wave, same shape: FIFO within a lane must be preserved too.
  scheduler.Submit(Lane::kPrefetch, 0, [&] { record(11); });
  scheduler.Submit(Lane::kRefinement, 0, [&] { record(10); });

  gate.Open();
  scheduler.Drain();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 11}));
}

TEST(BackgroundSchedulerTest, InvalidateBelowDropsQueuedSuperseded) {
  BackgroundScheduler scheduler;
  Latch gate;
  scheduler.Submit(Lane::kPrefetch, 0, [&] { gate.Wait(); });

  std::atomic<int> ran_old{0}, ran_new{0}, ran_pinned{0};
  scheduler.Submit(Lane::kPrefetch, 5, [&] { ++ran_old; });
  scheduler.Submit(Lane::kPrefetch, 5, [&] { ++ran_old; });
  scheduler.Submit(Lane::kPrefetch, 7, [&] { ++ran_new; });
  scheduler.Submit(Lane::kPrefetch, 0, [&] { ++ran_pinned; });

  scheduler.InvalidateBelow(6);
  gate.Open();
  scheduler.Drain();

  EXPECT_EQ(ran_old.load(), 0) << "token 5 < floor 6 must never run";
  EXPECT_EQ(ran_new.load(), 1);
  EXPECT_EQ(ran_pinned.load(), 1) << "token 0 is never superseded";
  const auto counters = scheduler.counters();
  EXPECT_EQ(counters.lane(Lane::kPrefetch).dropped_superseded, 2);
}

TEST(BackgroundSchedulerTest, LateSubmitBelowFloorIsDropped) {
  BackgroundScheduler scheduler;
  scheduler.InvalidateBelow(10);
  std::atomic<int> ran{0};
  scheduler.Submit(Lane::kPrefetch, 9, [&] { ++ran; });
  scheduler.Submit(Lane::kPrefetch, 10, [&] { ++ran; });
  scheduler.Drain();
  EXPECT_EQ(ran.load(), 1) << "only the at-floor task may run";
  EXPECT_EQ(scheduler.counters().lane(Lane::kPrefetch).dropped_superseded, 1);
}

TEST(BackgroundSchedulerTest, FloorIsMonotonic) {
  BackgroundScheduler scheduler;
  scheduler.InvalidateBelow(10);
  scheduler.InvalidateBelow(4);  // stale: must not lower the floor
  std::atomic<int> ran{0};
  scheduler.Submit(Lane::kPrefetch, 5, [&] { ++ran; });
  scheduler.Drain();
  EXPECT_EQ(ran.load(), 0);
}

TEST(BackgroundSchedulerTest, DestructorDropsQueuedAndJoinsRunning) {
  std::atomic<int> ran{0};
  std::atomic<bool> running_finished{false};
  {
    // Declared before the scheduler so they outlive the destructor's join:
    // the running task may still be inside gate.Wait() when the block ends.
    Latch started, gate;
    BackgroundScheduler scheduler;
    scheduler.Submit(Lane::kRefinement, 0, [&] {
      started.Open();
      gate.Wait();
      running_finished.store(true);
    });
    for (int i = 0; i < 50; ++i) {
      scheduler.Submit(Lane::kRefinement, 0, [&] { ++ran; });
    }
    started.Wait();  // the first task is definitely *running*, not queued
    gate.Open();
    // Destructor races the worker: it may run a few queued tasks before
    // the stop flag is observed, but must finish the *running* one and
    // must not hang waiting for the rest.
  }
  EXPECT_TRUE(running_finished.load())
      << "shutdown must join the in-flight task, not abandon it";
  EXPECT_LE(ran.load(), 50);
}

TEST(BackgroundSchedulerTest, ForegroundGateParksPrefetchOnly) {
  BackgroundScheduler scheduler;
  scheduler.BeginForeground();

  std::atomic<int> prefetch_ran{0}, owed_ran{0};
  scheduler.Submit(Lane::kPrefetch, 0, [&] { ++prefetch_ran; });
  scheduler.Submit(Lane::kRefinement, 0, [&] { ++owed_ran; });
  scheduler.Submit(Lane::kRefinement, 0, [&] { ++owed_ran; });

  // The owed lane is not gated: wait (bounded) for both to run while the
  // window is still open.
  for (int spin = 0; owed_ran.load() < 2 && spin < 2000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(owed_ran.load(), 2);
  EXPECT_EQ(prefetch_ran.load(), 0) << "prefetch must not start while a "
                                       "foreground window is open";

  scheduler.EndForeground();
  scheduler.Drain();
  EXPECT_EQ(prefetch_ran.load(), 1);
}

TEST(BackgroundSchedulerTest, NullForegroundGuardIsNoOp) {
  BackgroundScheduler::ForegroundGuard guard(nullptr);  // must not crash
  BackgroundScheduler scheduler;
  {
    BackgroundScheduler::ForegroundGuard inner(&scheduler);
    std::atomic<int> ran{0};
    scheduler.Submit(Lane::kRefinement, 0, [&] { ++ran; });
    scheduler.Drain();
    EXPECT_EQ(ran.load(), 1);
  }
  scheduler.Drain();
}

TEST(BackgroundSchedulerTest, DrainWaitsOutGatedPrefetch) {
  // Drain must not return while gated prefetch work is still queued; it
  // waits for the window to close and the work to run.
  BackgroundScheduler scheduler;
  scheduler.BeginForeground();
  std::atomic<int> ran{0};
  scheduler.Submit(Lane::kPrefetch, 0, [&] { ++ran; });
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    scheduler.EndForeground();
  });
  scheduler.Drain();
  EXPECT_EQ(ran.load(), 1);
  closer.join();
}

TEST(BackgroundSchedulerTest, EightThreadForegroundVersusPrefetchRace) {
  // 8 threads hammer the scheduler while one foreground window stays open
  // the whole time. Every prefetch task is submitted strictly *after* the
  // window opened, so the gate invariant is checkable without racing it:
  // not a single prefetch task may run until the window closes, while the
  // owed lane keeps flowing unimpeded.
  // Under TSan this is also the data-race battery for Submit/dequeue/
  // counters from many threads.
  BackgroundScheduler scheduler;
  scheduler.BeginForeground();

  std::atomic<int64_t> prefetch_ran{0};
  std::atomic<int64_t> owed_ran{0};
  std::atomic<bool> go{false};

  const int kThreads = 8;
  const int kRoundsPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int round = 0; round < kRoundsPerThread; ++round) {
        if (t % 2 == 0) {
          scheduler.Submit(Lane::kRefinement, 0, [&] { ++owed_ran; });
        } else {
          scheduler.Submit(Lane::kPrefetch, 1, [&] { ++prefetch_ran; });
        }
      }
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();

  // All owed work must complete *while the window is still open*: the
  // foreground gate parks speculation only, never the owed lane.
  const int64_t owed_expected = int64_t{kThreads / 2} * kRoundsPerThread;
  for (int spin = 0; owed_ran.load() < owed_expected && spin < 10000; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(owed_ran.load(), owed_expected);
  EXPECT_EQ(prefetch_ran.load(), 0)
      << "a prefetch task ran inside the foreground window";
  EXPECT_EQ(scheduler.counters().lane(Lane::kPrefetch).ran, 0);

  scheduler.EndForeground();
  scheduler.Drain();
  EXPECT_EQ(prefetch_ran.load(), int64_t{kThreads / 2} * kRoundsPerThread);
  const auto counters = scheduler.counters();
  for (int lane = 0; lane < BackgroundScheduler::kNumLanes; ++lane) {
    const auto& c = counters.lanes[lane];
    EXPECT_EQ(c.submitted, c.ran + c.dropped_superseded)
        << "lane " << lane << " counters must balance after Drain";
  }
}

TEST(BackgroundSchedulerTest, TasksSubmittedFromTasksComplete) {
  // A task may enqueue follow-up work; Drain must cover the transitively
  // submitted tasks too.
  BackgroundScheduler scheduler;
  std::atomic<int> ran{0};
  scheduler.Submit(Lane::kPrefetch, 0, [&] {
    ++ran;
    scheduler.Submit(Lane::kPrefetch, 0, [&] {
      ++ran;
      scheduler.Submit(Lane::kPrefetch, 0, [&] { ++ran; });
    });
  });
  scheduler.Drain();
  EXPECT_EQ(ran.load(), 3);
}

}  // namespace
}  // namespace qagview
