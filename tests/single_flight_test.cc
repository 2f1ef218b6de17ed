// The contract of SingleFlight (common/single_flight.h), the one copy of
// the single-flight protocol behind the session and service caches: N
// callers missing on one key run one build and the rest join it; keys do
// not wait on each other; a failed build's status reaches every joiner and
// leaves no flight; a woken joiner finds the published value; and a hit
// under the lock starts no flight.

#include "common/single_flight.h"

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/result.h"

namespace qagview {
namespace {

constexpr int kThreads = 8;

using Steps = std::vector<FlightStep>;

/// An int cache under one writer lock whose misses go through SingleFlight,
/// the way core::Session and service::QueryService use it. The probe
/// refuses a negative key.
class Cache {
 public:
  /// The value of `key`, built with `build` on a miss and published under
  /// the lock. Each step is appended to `steps`, then passed to `on_step`.
  template <typename Build, typename OnStep>
  Result<int> Get(int key, Build build, Steps* steps, OnStep on_step) {
    auto probe = [&]() -> std::optional<Result<int>> {
      if (key < 0) return Status::InvalidArgument("negative key");
      auto it = values_.find(key);
      if (it == values_.end()) return std::nullopt;
      return it->second;
    };
    auto publish = [&]() -> Result<int> {
      Result<int> value = build();
      if (value.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        values_[key] = *value;
      }
      return value;
    };
    auto report = [&](FlightStep step) {
      steps->push_back(step);
      on_step(step);
    };
    return flights_.Run(
        key, [this] { return std::unique_lock<std::mutex>(mu_); }, probe,
        publish, report);
  }

  template <typename Build>
  Result<int> Get(int key, Build build, Steps* steps) {
    return Get(key, build, steps, [](FlightStep) {});
  }

  void Put(int key, int value) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[key] = value;
  }

 private:
  std::mutex mu_;
  std::map<int, int> values_;  // guarded by mu_
  SingleFlight<int> flights_;
};

/// What kThreads callers missing on one key at once got and did.
struct Together {
  std::vector<Result<int>> results;
  std::vector<Steps> steps;
  int builds = 0;
};

/// Runs kThreads callers of Get(key) at once. The build returns `answer`
/// only after every other caller reported kJoined, so each run has one
/// leader and kThreads - 1 joiners whatever the scheduling. (A broken
/// class fails the counts after a minute instead of hanging the test.)
Together MissTogether(Cache* cache, int key, const Result<int>& answer) {
  std::atomic<int> joined{0};
  std::atomic<int> builds{0};
  auto build = [&]() -> Result<int> {
    builds.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(1);
    while (joined.load() < kThreads - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    return answer;
  };
  auto on_step = [&](FlightStep step) {
    if (step == FlightStep::kJoined) joined.fetch_add(1);
  };
  Together out;
  out.results.assign(kThreads, Status::Internal("not run"));
  out.steps.resize(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t i = static_cast<size_t>(t);
      out.results[i] = cache->Get(key, build, &out.steps[i], on_step);
    });
  }
  for (std::thread& thread : threads) thread.join();
  out.builds = builds.load();
  return out;
}

/// The callers that took exactly `want` steps.
int Count(const Together& run, const Steps& want) {
  int n = 0;
  for (const Steps& steps : run.steps) n += steps == want ? 1 : 0;
  return n;
}

TEST(SingleFlightTest, ConcurrentMissesOnOneKeyRunOneBuild) {
  Cache cache;
  Together run = MissTogether(&cache, 1, 42);
  EXPECT_EQ(run.builds, 1);
  EXPECT_EQ(Count(run, {FlightStep::kLed}), 1);
  int joiners = 0;
  for (const Steps& steps : run.steps) {
    joiners += !steps.empty() && steps.front() == FlightStep::kJoined;
  }
  EXPECT_EQ(joiners, kThreads - 1);
}

TEST(SingleFlightTest, WokenJoinerFindsThePublishedValue) {
  Cache cache;
  Together run = MissTogether(&cache, 1, 42);
  // The leader erased its flight before it woke the joiners, so each
  // joiner's one more probe found the value: none led a second build.
  EXPECT_EQ(Count(run, {FlightStep::kJoined, FlightStep::kHit}),
            kThreads - 1);
  for (const Result<int>& result : run.results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, 42);
  }
}

TEST(SingleFlightTest, FailedBuildReachesEveryJoinerAndLeavesNoFlight) {
  Cache cache;
  Together run = MissTogether(&cache, 1, Status::Internal("build failed"));
  EXPECT_EQ(run.builds, 1);
  EXPECT_EQ(Count(run, {FlightStep::kLed}), 1);
  EXPECT_EQ(Count(run, {FlightStep::kJoined}), kThreads - 1);
  for (const Result<int>& result : run.results) {
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
    EXPECT_EQ(result.status().message(), "build failed");
  }
  // Nothing was published and no flight is left: the next caller leads.
  Steps steps;
  Result<int> next = cache.Get(1, [] { return Result<int>(7); }, &steps);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, 7);
  EXPECT_EQ(steps, Steps{FlightStep::kLed});
}

TEST(SingleFlightTest, SlowBuildDoesNotDelayAnotherKey) {
  Cache cache;
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  Steps slow_steps;
  std::thread slow([&] {
    cache.Get(
        1,
        [&]() -> Result<int> {
          started.set_value();
          released.wait();
          return 1;
        },
        &slow_steps);
  });
  started.get_future().wait();
  // Key 1's build is in flight and blocked; key 2 must not wait for it.
  Steps fast_steps;
  std::future<Result<int>> fast = std::async(std::launch::async, [&] {
    return cache.Get(2, [] { return Result<int>(2); }, &fast_steps);
  });
  const bool finished_first =
      fast.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release.set_value();
  slow.join();
  EXPECT_TRUE(finished_first);
  Result<int> value = fast.get();
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, 2);
  EXPECT_EQ(fast_steps, Steps{FlightStep::kLed});
  EXPECT_EQ(slow_steps, Steps{FlightStep::kLed});
}

TEST(SingleFlightTest, HitUnderTheLockStartsNoFlight) {
  Cache cache;
  cache.Put(1, 5);
  int builds = 0;
  auto build = [&]() -> Result<int> {
    ++builds;
    return 0;
  };
  Steps steps;
  Result<int> hit = cache.Get(1, build, &steps);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(*hit, 5);
  EXPECT_EQ(steps, Steps{FlightStep::kHit});
  // A probe that refuses the request returns its error and reports nothing.
  Steps refused_steps;
  Result<int> refused = cache.Get(-1, build, &refused_steps);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(refused_steps.empty());
  EXPECT_EQ(builds, 0);
}

}  // namespace
}  // namespace qagview
