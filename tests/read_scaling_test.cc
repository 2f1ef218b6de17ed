// The RCU warm read path (core::Session): (a) cache hits acquire the
// session writer lock exactly zero times — asserted against the always-on
// CacheStats::writer_lock_acquisitions counter; (b) readers racing
// content-changing refreshes only ever observe complete, committed
// generations, each bit-identical to a cold rebuild of that version (a
// pinned handle never goes stale-beyond-its-pin or mixes versions); and
// (c) a handle taken after a refresh serves the new version, with the
// retired generation evicted the instant its last handle drops.
//
// This binary is the template for concurrency coverage of new read APIs
// (see CONTRIBUTING.md): warm hits must stay wait-free, and the proof is a
// writer-lock-count assertion plus a bit-identity race like the ones here.
// The TSan and ASan+UBSan CI jobs run it explicitly.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "test_util.h"

namespace qagview::core {
namespace {

constexpr int kReaders = 8;
constexpr int kTopL = 12;
constexpr int kD = 2;
constexpr int kK = 5;

// Two answer-set versions with distinct content; the version a structure
// belongs to is identified by its (answer-set content) fingerprint.
AnswerSet MakeVersion(int version) {
  return testutil::MakeRandomAnswerSet(100 + static_cast<uint64_t>(version),
                                       120, 5, 3);
}

PrecomputeOptions Grid() {
  PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 8;
  options.d_values = {1, 2};
  return options;
}

std::unique_ptr<Session> MakeSessionAt(int version) {
  auto session = Session::Create(MakeVersion(version));
  QAG_CHECK(session.ok());
  return std::move(session).value();
}

// What version `v` must answer at (kTopL, kD, kK): the cold rebuild ground
// truth from a fresh, serial, single-version session.
struct GroundTruth {
  uint64_t answers_fp = 0;
  std::vector<int> ids;
  double average = 0.0;
  int count = 0;
};

GroundTruth ColdTruth(int version) {
  auto session = MakeSessionAt(version);
  PrecomputeOptions serial = Grid();
  serial.num_threads = 1;
  auto store = session->Guidance(kTopL, serial);
  QAG_CHECK(store.ok());
  auto solution = (*store)->Retrieve(kD, kK);
  QAG_CHECK(solution.ok());
  GroundTruth truth;
  truth.answers_fp = session->answers()->content_fingerprint();
  truth.ids = solution->cluster_ids;
  truth.average = solution->average;
  truth.count = solution->covered_count;
  return truth;
}

TEST(ReadScalingTest, WarmHitsAcquireNoWriterLock) {
  auto session = MakeSessionAt(0);
  // Warm every structure the reader loop touches.
  ASSERT_TRUE(session->UniverseFor(kTopL).ok());
  ASSERT_TRUE(session->Guidance(kTopL, Grid()).ok());
  const Session::CacheStats cold = session->cache_stats();
  ASSERT_GT(cold.writer_lock_acquisitions, 0);  // the builds took it

  testutil::StartLatch latch(kReaders);
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      latch.ArriveAndWait();
      for (int round = 0; round < 50; ++round) {
        auto universe = session->UniverseFor(kTopL);
        ASSERT_TRUE(universe.ok()) << universe.status().ToString();
        auto store = session->Guidance(kTopL, Grid());
        ASSERT_TRUE(store.ok()) << store.status().ToString();
        auto solution = session->Retrieve(kTopL, kD, kK);
        ASSERT_TRUE(solution.ok()) << solution.status().ToString();
        EXPECT_GT(session->answers()->size(), 0);
      }
    });
  }
  for (auto& t : threads) t.join();

  const Session::CacheStats warm = session->cache_stats();
  // The invariant this whole test file exists for: kReaders × 50 warm
  // rounds × 4 ops acquired the writer lock zero times.
  EXPECT_EQ(warm.writer_lock_acquisitions, cold.writer_lock_acquisitions)
      << "a warm hit acquired the session writer lock";
  // And they really were all hits: no builds beyond the two warm-up ones.
  EXPECT_EQ(warm.universe_misses, 1);
  EXPECT_EQ(warm.store_misses, 1);
  EXPECT_EQ(warm.universe_coalesced, 0);
  EXPECT_EQ(warm.store_coalesced, 0);
}

TEST(ReadScalingTest, ReadersPinCompleteGenerationsAcrossRefreshes) {
  std::map<uint64_t, GroundTruth> truths;
  for (int v = 0; v < 2; ++v) {
    GroundTruth truth = ColdTruth(v);
    truths.emplace(truth.answers_fp, truth);
  }
  ASSERT_EQ(truths.size(), 2u);  // the two versions genuinely differ

  auto session = MakeSessionAt(0);
  ASSERT_TRUE(session->Guidance(kTopL, Grid()).ok());

  std::atomic<bool> stop{false};
  testutil::StartLatch latch(kReaders + 1);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      latch.ArriveAndWait();
      while (!stop.load(std::memory_order_relaxed)) {
        // Pin a guidance handle. Everything read through it must agree
        // with exactly one committed version — never a mix, never a
        // half-published state — even while refreshes retire generations
        // underneath.
        auto store = session->Guidance(kTopL, Grid());
        ASSERT_TRUE(store.ok()) << store.status().ToString();
        auto it = truths.find(
            (*store)->universe()->answer_set().content_fingerprint());
        ASSERT_NE(it, truths.end()) << "handle from an uncommitted state";
        auto solution = (*store)->Retrieve(kD, kK);
        ASSERT_TRUE(solution.ok()) << solution.status().ToString();
        EXPECT_EQ(solution->cluster_ids, it->second.ids);
        EXPECT_EQ(solution->average, it->second.average);
        EXPECT_EQ(solution->covered_count, it->second.count);
        // The answers() handle likewise always names a committed version.
        EXPECT_EQ(truths.count(session->answers()->content_fingerprint()),
                  1u);
      }
    });
  }
  std::thread writer([&] {
    latch.ArriveAndWait();
    for (int round = 0; round < 16; ++round) {
      // Alternate V1, V0, V1, ... — every flip retires a generation while
      // the readers above are mid-request. Ends on V0.
      ASSERT_TRUE(session->Refresh(MakeVersion(round % 2 == 0 ? 1 : 0)).ok());
    }
    stop.store(true, std::memory_order_relaxed);
  });
  writer.join();
  for (auto& t : readers) t.join();

  // A handle taken after the last refresh sees the final version.
  const GroundTruth& final_truth = truths.at(
      MakeVersion(0).content_fingerprint());
  {
    auto store = session->Guidance(kTopL, Grid());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->universe()->answer_set().content_fingerprint(),
              final_truth.answers_fp);
    auto solution = (*store)->Retrieve(kD, kK);
    ASSERT_TRUE(solution.ok());
    EXPECT_EQ(solution->cluster_ids, final_truth.ids);
  }
  // Every reader drained and every handle dropped: nothing retired is
  // still retained.
  Session::CacheStats stats = session->cache_stats();
  EXPECT_EQ(stats.graveyard_size, 0);
  EXPECT_EQ(stats.retired_universes, 0);
  EXPECT_EQ(stats.retired_stores, 0);
}

TEST(ReadScalingTest, HandleTakenBeforeRefreshStaysBitIdentical) {
  const GroundTruth t0 = ColdTruth(0);
  const GroundTruth t1 = ColdTruth(1);

  auto session = MakeSessionAt(0);
  auto before = session->Guidance(kTopL, Grid());
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(session->Refresh(MakeVersion(1)).ok());

  // The pre-refresh handle still serves version 0, bit-identically...
  EXPECT_EQ((*before)->universe()->answer_set().content_fingerprint(),
            t0.answers_fp);
  auto old_solution = (*before)->Retrieve(kD, kK);
  ASSERT_TRUE(old_solution.ok());
  EXPECT_EQ(old_solution->cluster_ids, t0.ids);
  EXPECT_EQ(old_solution->average, t0.average);
  EXPECT_EQ(old_solution->covered_count, t0.count);
  EXPECT_EQ(session->cache_stats().graveyard_size, 1);  // pinned by it

  // ...while a handle taken after the refresh sees the new version.
  auto after = session->Guidance(kTopL, Grid());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->universe()->answer_set().content_fingerprint(),
            t1.answers_fp);
  auto new_solution = (*after)->Retrieve(kD, kK);
  ASSERT_TRUE(new_solution.ok());
  EXPECT_EQ(new_solution->cluster_ids, t1.ids);
  EXPECT_EQ(new_solution->average, t1.average);
  EXPECT_EQ(new_solution->covered_count, t1.count);

  // Dropping the last pre-refresh handle evicts the retired generation
  // immediately (drain-then-evict).
  before->reset();
  Session::CacheStats stats = session->cache_stats();
  EXPECT_EQ(stats.graveyard_size, 0);
  EXPECT_EQ(stats.generations_evicted, 1);
}

}  // namespace
}  // namespace qagview::core
