// Drain-then-evict coverage for the refcounted-handle lifetime model:
// under sustained content-changing refreshes the graveyard must stay
// bounded by the number of live readers (dropped handles mean immediate
// eviction), a held handle must pin exactly its own generation — alive and
// bit-identical — and everything served after evictions must match a cold
// session built from the final answer set. The TSan/ASan CI jobs run this
// binary explicitly: the concurrent case races handle drops (which destroy
// whole generations on client threads) against refreshes and builds.

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/explore.h"
#include "core/session.h"
#include "test_util.h"

namespace qagview::core {
namespace {

constexpr int kN = 60;
constexpr int kAttrs = 4;
constexpr int kDomain = 4;
constexpr int kTopL = 8;

AnswerSet Answers(uint64_t seed) {
  return testutil::MakeRandomAnswerSet(seed, kN, kAttrs, kDomain);
}

std::unique_ptr<Session> MakeSession(uint64_t seed) {
  auto session = Session::Create(Answers(seed));
  QAG_CHECK(session.ok());
  return std::move(session).value();
}

PrecomputeOptions SmallGrid() {
  PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 4;
  options.d_values = {1};
  return options;
}

TEST(EvictionTest, GraveyardStaysBoundedUnderSustainedRefreshes) {
  // >= 100 content-changing generations; every handle is dropped before
  // the next refresh, so each retired generation must be evicted
  // immediately — the graveyard never grows.
  constexpr int kGenerations = 120;
  auto session = MakeSession(1);
  int64_t refreshed = 0;
  for (int i = 0; i < kGenerations; ++i) {
    {
      auto universe = session->UniverseFor(kTopL);
      ASSERT_TRUE(universe.ok()) << universe.status().ToString();
      auto store = session->Guidance(kTopL, SmallGrid());
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      ASSERT_TRUE((*store)->Retrieve(1, 3).ok());
    }  // both handles dropped here
    bool changed = false;
    ASSERT_TRUE(
        session->Refresh(Answers(2 + static_cast<uint64_t>(i)), &changed).ok());
    ASSERT_TRUE(changed) << "seeds must differ in content";
    ++refreshed;

    Session::CacheStats stats = session->cache_stats();
    // No live readers => the bound is "<= readers + 1", here identically 0:
    // the generation retired by this refresh had no handles left.
    ASSERT_EQ(stats.graveyard_size, 0) << "generation " << i;
    ASSERT_EQ(stats.live_generations, 1) << "generation " << i;
    ASSERT_EQ(stats.retired_universes, 0) << "generation " << i;
    ASSERT_EQ(stats.retired_stores, 0) << "generation " << i;
    ASSERT_EQ(stats.generations_evicted, refreshed) << "generation " << i;
  }
  EXPECT_EQ(session->cache_stats().refreshes, kGenerations);
}

TEST(EvictionTest, HeldHandlePinsExactlyItsGeneration) {
  auto session = MakeSession(1);
  auto pinned_universe = session->UniverseFor(kTopL);
  ASSERT_TRUE(pinned_universe.ok());
  auto pinned_store = session->Guidance(kTopL, SmallGrid());
  ASSERT_TRUE(pinned_store.ok());
  const Solution before = *(*pinned_store)->Retrieve(1, 3);
  const int clusters_before = (*pinned_universe)->num_clusters();

  // Several content-changing refreshes; the intermediate generations carry
  // no handles (no caches are even built for them), so only the pinned
  // first generation survives in the graveyard.
  for (uint64_t i = 0; i < 3; ++i) {
    bool changed = false;
    ASSERT_TRUE(session->Refresh(Answers(10 + i), &changed).ok());
    ASSERT_TRUE(changed);
    Session::CacheStats stats = session->cache_stats();
    EXPECT_EQ(stats.graveyard_size, 1);
    EXPECT_EQ(stats.live_generations, 2);
    EXPECT_EQ(stats.retired_universes, 1);
    EXPECT_EQ(stats.retired_stores, 1);
  }

  // The pinned structures are alive and bit-identical to their pre-refresh
  // state (drained, not torn down).
  EXPECT_EQ((*pinned_universe)->num_clusters(), clusters_before);
  const Solution after = *(*pinned_store)->Retrieve(1, 3);
  EXPECT_EQ(after.cluster_ids, before.cluster_ids);
  EXPECT_EQ(after.average, before.average);

  // A store handle alone keeps the whole generation (universe + answers)
  // reachable: dropping just the universe handle evicts nothing.
  pinned_universe = Status::NotFound("dropped");
  EXPECT_EQ(session->cache_stats().graveyard_size, 1);
  EXPECT_TRUE((*pinned_store)->Retrieve(1, 3).ok());

  // Dropping the last handle evicts the generation immediately — no
  // refresh needed to observe it.
  Session::CacheStats drained = session->cache_stats();
  pinned_store = Status::NotFound("dropped");
  Session::CacheStats evicted = session->cache_stats();
  EXPECT_EQ(evicted.graveyard_size, 0);
  EXPECT_EQ(evicted.retired_universes, 0);
  EXPECT_EQ(evicted.retired_stores, 0);
  EXPECT_EQ(evicted.generations_evicted, drained.generations_evicted + 1);
}

TEST(EvictionTest, PostEvictionResultsBitIdenticalToColdRebuild) {
  constexpr uint64_t kFinalSeed = 77;
  auto warm = MakeSession(1);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(warm->UniverseFor(kTopL).ok());
    ASSERT_TRUE(warm->Guidance(kTopL, SmallGrid()).ok());
    ASSERT_TRUE(warm->Refresh(Answers(20 + i)).ok());
  }
  ASSERT_TRUE(warm->Refresh(Answers(kFinalSeed)).ok());
  ASSERT_EQ(warm->cache_stats().graveyard_size, 0);  // all drained

  auto cold = MakeSession(kFinalSeed);
  const Params params{4, kTopL, 2};
  for (Session* session : {warm.get(), cold.get()}) {
    ASSERT_TRUE(session->Guidance(kTopL, SmallGrid()).ok());
  }

  std::shared_ptr<const ClusterUniverse> warm_universe;
  std::shared_ptr<const ClusterUniverse> cold_universe;
  auto warm_solution = warm->Summarize(params, &warm_universe);
  auto cold_solution = cold->Summarize(params, &cold_universe);
  ASSERT_TRUE(warm_solution.ok());
  ASSERT_TRUE(cold_solution.ok());
  EXPECT_EQ(warm_solution->cluster_ids, cold_solution->cluster_ids);
  EXPECT_EQ(warm_solution->average, cold_solution->average);
  EXPECT_EQ(RenderSummary(*warm_universe, *warm_solution),
            RenderSummary(*cold_universe, *cold_solution));

  auto warm_retrieved = warm->Retrieve(kTopL, 1, 3);
  auto cold_retrieved = cold->Retrieve(kTopL, 1, 3);
  ASSERT_TRUE(warm_retrieved.ok());
  ASSERT_TRUE(cold_retrieved.ok());
  EXPECT_EQ(warm_retrieved->cluster_ids, cold_retrieved->cluster_ids);
  EXPECT_EQ(warm_retrieved->average, cold_retrieved->average);
}

TEST(EvictionTest, AnswersHandleSurvivesRefresh) {
  auto session = MakeSession(1);
  std::shared_ptr<const AnswerSet> old_answers = session->answers();
  const uint64_t old_fp = old_answers->content_fingerprint();
  ASSERT_TRUE(session->Refresh(Answers(2)).ok());
  // The old handle still reads the outgoing data; a fresh call sees the
  // new generation.
  EXPECT_EQ(old_answers->content_fingerprint(), old_fp);
  EXPECT_NE(session->answers()->content_fingerprint(), old_fp);
  EXPECT_EQ(session->cache_stats().graveyard_size, 1);
  old_answers.reset();
  EXPECT_EQ(session->cache_stats().graveyard_size, 0);
}

// Client threads take, read, and drop handles (destroying retired
// generations on whichever thread drains last) while the main thread keeps
// refreshing — the racing-drop counterpart of refresh_differential_test's
// racing appends. Run under TSan/ASan in CI.
TEST(EvictionTest, ConcurrentHandleDropsRaceRefreshes) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  constexpr int kRefreshes = 25;
  constexpr uint64_t kFinalSeed = 99;
  auto session = MakeSession(1);
  testutil::StartLatch latch(kThreads + 1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      latch.ArriveAndWait();
      for (int round = 0; round < kRounds; ++round) {
        auto store = session->Guidance(kTopL, SmallGrid());
        ASSERT_TRUE(store.ok()) << store.status().ToString();
        // The handle serves regardless of refreshes racing underneath.
        auto solution = (*store)->Retrieve(1, 3);
        ASSERT_TRUE(solution.ok()) << solution.status().ToString();
        auto universe = session->UniverseFor(kTopL);
        ASSERT_TRUE(universe.ok()) << universe.status().ToString();
        ASSERT_GT((*universe)->num_clusters(), 0);
      }  // handles dropped — possibly the last readers of a retired gen
    });
  }
  {
    latch.ArriveAndWait();
    for (uint64_t i = 0; i < kRefreshes; ++i) {
      ASSERT_TRUE(session->Refresh(Answers(100 + i)).ok());
    }
    ASSERT_TRUE(session->Refresh(Answers(kFinalSeed)).ok());
  }
  for (auto& thread : threads) thread.join();

  // Quiesced: every handle is dropped, so every retired generation must
  // have drained away.
  Session::CacheStats stats = session->cache_stats();
  EXPECT_EQ(stats.graveyard_size, 0);
  EXPECT_EQ(stats.live_generations, 1);
  EXPECT_GE(stats.generations_evicted, kRefreshes);

  // And the survivor serves bit-identically to a cold session.
  auto cold = MakeSession(kFinalSeed);
  ASSERT_TRUE(cold->Guidance(kTopL, SmallGrid()).ok());
  ASSERT_TRUE(session->Guidance(kTopL, SmallGrid()).ok());
  auto warm_retrieved = session->Retrieve(kTopL, 1, 3);
  auto cold_retrieved = cold->Retrieve(kTopL, 1, 3);
  ASSERT_TRUE(warm_retrieved.ok());
  ASSERT_TRUE(cold_retrieved.ok());
  EXPECT_EQ(warm_retrieved->cluster_ids, cold_retrieved->cluster_ids);
  EXPECT_EQ(warm_retrieved->average, cold_retrieved->average);
}

}  // namespace
}  // namespace qagview::core
