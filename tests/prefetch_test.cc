// Exploration-aware prefetch.
//
// The contracts pinned here:
//  * A prefetch hit is a *warm RCU read*: bit-identical to the answer a
//    cold service computes, served with zero additional writer-lock
//    acquisitions, and visible in prefetch_issued / prefetch_hits.
//  * Prefetch is off by default and never runs for approximate sessions.
//  * A catalog mutation cancels queued speculation.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/prefetch.h"
#include "service/query_service.h"
#include "test_util.h"

namespace qagview::service {
namespace {

constexpr char kSql[] =
    "SELECT g0, g1, g2, avg(rating) AS val FROM ratings "
    "GROUP BY g0, g1, g2 HAVING count(*) > 3 ORDER BY val DESC";

std::unique_ptr<QueryService> MakeService(ServiceOptions options,
                                          uint64_t seed = 71,
                                          int rows = 2000) {
  auto service = std::make_unique<QueryService>(options);
  QAG_CHECK_OK(service->RegisterTable("ratings",
                                      testutil::MakeRatingsTable(seed, rows)));
  return service;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int64_t WriterLocks(QueryService* service, QueryHandle handle) {
  auto stats = service->SessionCacheStats(handle);
  QAG_CHECK_OK(stats.status());
  return stats->writer_lock_acquisitions;
}

/// The serialized grid `service` serves for `top_l`. SaveGuidance writes
/// the narrowest cached store with L' >= top_l, which is the store Guidance
/// served: every test here builds one grid shape per L.
std::string SavedGuidance(QueryService* service, QueryHandle handle,
                          int top_l) {
  const std::string path =
      testing::TempDir() + "/qagview_prefetch_grid.store";
  QAG_CHECK_OK(service->SaveGuidance(handle, top_l, path));
  std::string bytes = ReadFile(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(PrefetchTest, OffByDefaultIssuesNothing) {
  auto service = MakeService(ServiceOptions());
  auto info = service->Query({kSql, "val", {}});
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  service->DrainBackgroundWork();
  EXPECT_EQ(service->stats().prefetch_issued, 0);
  EXPECT_EQ(service->stats().prefetch_hits, 0);
  const auto counters = service->scheduler_counters();
  EXPECT_EQ(counters.lane(BackgroundScheduler::Lane::kPrefetch).submitted, 0);
}

TEST(PrefetchTest, QueryPrefetchMakesPredictedSummarizeAWarmRead) {
  ServiceOptions with;
  with.prefetch = true;
  auto warm = MakeService(with);
  auto cold = MakeService(ServiceOptions());

  auto info = warm->Query({kSql, "val", {}});
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto cold_info = cold->Query({kSql, "val", {}});
  ASSERT_TRUE(cold_info.ok());
  ASSERT_EQ(info->num_answers, cold_info->num_answers);

  warm->DrainBackgroundWork();
  EXPECT_GT(warm->stats().prefetch_issued, 0);

  // The same predictor the service consults, so the test aims at a level
  // the prefetcher actually built.
  ExplorationPredictor predictor(2);
  std::vector<int> targets = predictor.InitialLevels(info->num_answers);
  ASSERT_FALSE(targets.empty());

  core::Params params;
  params.L = targets[0];

  auto warm_solution = warm->Summarize({info->handle, params});
  ASSERT_TRUE(warm_solution.ok()) << warm_solution.status().ToString();
  EXPECT_TRUE(warm_solution->stats.cache_hit)
      << "predicted level must serve warm";
  EXPECT_FALSE(warm_solution->stats.built);
  EXPECT_EQ(warm->stats().prefetch_hits, 1);

  // Writer-lock delta of a warm serve is zero. The request above spawned
  // its own follow-up speculation (builds take the lock by design), so
  // measure a second identical request: the predictor is deterministic,
  // its follow-up targets are all built by now, and the only work left is
  // the foreground read itself.
  warm->DrainBackgroundWork();
  const int64_t locks_before = WriterLocks(warm.get(), info->handle);
  auto again = warm->Summarize({info->handle, params});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->stats.cache_hit);
  warm->DrainBackgroundWork();
  EXPECT_EQ(WriterLocks(warm.get(), info->handle), locks_before)
      << "a prefetch hit must not take the writer lock";

  // Bit-identical to the cold twin: speculation may only move work
  // earlier in time, never change its result.
  auto cold_solution = cold->Summarize({cold_info->handle, params});
  ASSERT_TRUE(cold_solution.ok());
  EXPECT_FALSE(cold_solution->stats.cache_hit);
  const core::Solution& warm_s = warm_solution->solution;
  const core::Solution& cold_s = cold_solution->solution;
  EXPECT_EQ(warm_s.cluster_ids, cold_s.cluster_ids);
  EXPECT_EQ(warm_s.covered_sum, cold_s.covered_sum);
  EXPECT_EQ(warm_s.covered_count, cold_s.covered_count);
  EXPECT_EQ(warm_s.average, cold_s.average);
  EXPECT_EQ(warm_s.covered_min, cold_s.covered_min);
}

TEST(PrefetchTest, GuidancePrefetchBuildsTheNextDrillDownStore) {
  ServiceOptions with;
  with.prefetch = true;
  auto warm = MakeService(with);
  auto cold = MakeService(ServiceOptions());

  auto info = warm->Query({kSql, "val", {}});
  ASSERT_TRUE(info.ok());
  auto cold_info = cold->Query({kSql, "val", {}});
  ASSERT_TRUE(cold_info.ok());
  warm->DrainBackgroundWork();

  const int l0 = 4;
  auto store0 = warm->Guidance({info->handle, l0, {}});
  ASSERT_TRUE(store0.ok()) << store0.status().ToString();
  EXPECT_TRUE(store0->stats.built);
  warm->DrainBackgroundWork();

  ExplorationPredictor predictor(2);
  std::vector<int> targets = predictor.NextLevels(
      study::MoveKind::kGuidance, l0, info->num_answers);
  ASSERT_FALSE(targets.empty());
  const int next_l = targets[0];
  ASSERT_NE(next_l, l0);

  auto warm_store = warm->Guidance({info->handle, next_l, {}});
  ASSERT_TRUE(warm_store.ok()) << warm_store.status().ToString();
  EXPECT_TRUE(warm_store->stats.cache_hit)
      << "the drill-down grid must already be warm";
  EXPECT_FALSE(warm_store->stats.built);
  EXPECT_GE(warm->stats().prefetch_hits, 1);

  // Lock-freedom of the warm serve, measured once this level's follow-up
  // speculation (which builds, and so takes the lock) has drained.
  warm->DrainBackgroundWork();
  const int64_t locks_before = WriterLocks(warm.get(), info->handle);
  auto again = warm->Guidance({info->handle, next_l, {}});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->stats.cache_hit);
  warm->DrainBackgroundWork();
  EXPECT_EQ(WriterLocks(warm.get(), info->handle), locks_before)
      << "a warm guidance serve must not take the writer lock";

  auto cold_store = cold->Guidance({cold_info->handle, next_l, {}});
  ASSERT_TRUE(cold_store.ok());
  EXPECT_EQ(SavedGuidance(warm.get(), info->handle, next_l),
            SavedGuidance(cold.get(), cold_info->handle, next_l))
      << "prefetched grid must be bit-identical to a cold build";
}

TEST(PrefetchTest, ApproximateSessionsNeverSpeculate) {
  ServiceOptions with;
  with.prefetch = true;
  with.sample_capacity = 512;  // well under rows: sampling must engage
  auto service = MakeService(with, /*seed=*/71, /*rows=*/4000);
  QueryOptions approx;
  approx.mode = QueryMode::kApproxOnly;
  approx.confidence = 0.95;
  auto info = service->Query({kSql, "val", approx});
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  if (info->approx.is_exact) {
    GTEST_SKIP() << "sample did not engage; nothing to pin";
  }
  core::Params params;
  auto solution = service->Summarize({info->handle, params});
  ASSERT_TRUE(solution.ok());
  service->DrainBackgroundWork();
  EXPECT_EQ(service->stats().prefetch_issued, 0)
      << "background cycles belong to refinement while approximate";
}

TEST(PrefetchTest, CatalogMutationCancelsQueuedSpeculation) {
  ServiceOptions with;
  with.prefetch = true;
  auto service = MakeService(with);
  auto info = service->Query({kSql, "val", {}});
  ASSERT_TRUE(info.ok());
  // Mutate the catalog immediately: any still-queued prefetch task was
  // predicted against retired data and must be dropped, not run.
  const std::vector<std::vector<storage::Value>> rows = {
      {storage::Value::Str("g0v0"), storage::Value::Str("g1v1"),
       storage::Value::Str("g2v2"), storage::Value::Str("g3v3"),
       storage::Value::Real(4.5)}};
  auto version = service->AppendRows({"ratings", rows});
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  service->DrainBackgroundWork();
  const auto counters = service->scheduler_counters();
  const auto& lane =
      counters.lane(BackgroundScheduler::Lane::kPrefetch);
  EXPECT_EQ(lane.submitted, lane.ran + lane.dropped_superseded);
  // Whatever raced, the refreshed session must serve the new data
  // correctly (the refresh machinery is pinned by its own battery; this
  // checks speculation didn't poison it).
  auto solution = service->Summarize({info->handle, core::Params()});
  EXPECT_TRUE(solution.ok()) << solution.status().ToString();
}

}  // namespace
}  // namespace qagview::service
