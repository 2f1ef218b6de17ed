// Unit coverage for the versioned update pipeline: core::Session::Refresh
// fingerprint reuse/retirement semantics, and QueryService's transparent
// stale-handle refresh over a versioned DatasetCatalog. The end-to-end
// bit-identity invariant lives in refresh_differential_test.cc.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/query_service.h"
#include "test_util.h"

namespace qagview {
namespace {

using core::Session;
using service::QueryService;
using storage::Value;

constexpr char kSql[] =
    "SELECT g0, g1, g2, avg(rating) AS val FROM ratings "
    "GROUP BY g0, g1, g2 HAVING count(*) > 2 ORDER BY val DESC";

core::PrecomputeOptions SmallGrid() {
  core::PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 5;
  options.d_values = {1, 2};
  return options;
}

// --- core::Session::Refresh ---------------------------------------------

TEST(SessionRefreshTest, UnchangedContentReusesEveryCache) {
  core::AnswerSet answers = testutil::MakeRandomAnswerSet(7, 80, 4, 4);
  auto session = Session::Create(testutil::MakeRandomAnswerSet(7, 80, 4, 4));
  ASSERT_TRUE(session.ok());
  auto universe = (*session)->UniverseFor(10);
  ASSERT_TRUE(universe.ok());
  auto store = (*session)->Guidance(10, SmallGrid());
  ASSERT_TRUE(store.ok());

  Session::RefreshStats stats;
  ASSERT_TRUE((*session)->Refresh(std::move(answers), &stats).ok());
  EXPECT_FALSE(stats.refreshed);
  EXPECT_TRUE(stats.hierarchy_reused);
  EXPECT_EQ(stats.universes_reused, 1);
  EXPECT_EQ(stats.universes_retired, 0);
  EXPECT_EQ(stats.stores_reused, 1);
  EXPECT_EQ(stats.stores_retired, 0);

  // The identical universe and store keep serving — same pointers.
  auto universe_after = (*session)->UniverseFor(10);
  ASSERT_TRUE(universe_after.ok());
  EXPECT_EQ(*universe_after, *universe);
  auto store_after = (*session)->Guidance(10, SmallGrid());
  ASSERT_TRUE(store_after.ok());
  EXPECT_EQ(*store_after, *store);

  Session::CacheStats cache = (*session)->cache_stats();
  EXPECT_EQ(cache.refreshes, 1);
  EXPECT_EQ(cache.refresh_full_reuses, 1);
  EXPECT_EQ(cache.retired_universes, 0);
  EXPECT_EQ(cache.retired_stores, 0);
}

TEST(SessionRefreshTest, ChangedContentRetiresCachesButKeepsPointersAlive) {
  auto session = Session::Create(testutil::MakeRandomAnswerSet(7, 80, 4, 4));
  ASSERT_TRUE(session.ok());
  auto universe = (*session)->UniverseFor(10);
  ASSERT_TRUE(universe.ok());
  auto store = (*session)->Guidance(10, SmallGrid());
  ASSERT_TRUE(store.ok());
  const int old_clusters = (*universe)->num_clusters();
  core::Solution old_solution = *(*session)->Retrieve(10, 1, 4);

  // Same domains, different elements: content changes, hierarchy doesn't.
  Session::RefreshStats stats;
  ASSERT_TRUE(
      (*session)
          ->Refresh(testutil::MakeRandomAnswerSet(8, 80, 4, 4), &stats)
          .ok());
  EXPECT_TRUE(stats.refreshed);
  EXPECT_TRUE(stats.hierarchy_reused);
  EXPECT_EQ(stats.universes_reused, 0);
  EXPECT_EQ(stats.universes_retired, 1);
  EXPECT_EQ(stats.stores_reused, 0);
  EXPECT_EQ(stats.stores_retired, 1);

  // Retired pointers stay dereferenceable (drained, not torn down).
  EXPECT_EQ((*universe)->num_clusters(), old_clusters);
  EXPECT_EQ((*store)->l(), 10);

  // The store cache was swept: Retrieve needs a fresh Guidance.
  auto orphaned = (*session)->Retrieve(10, 1, 4);
  EXPECT_EQ(orphaned.status().code(), StatusCode::kFailedPrecondition);

  // Rebuilt structures match a cold session over the new answer set.
  auto cold = Session::Create(testutil::MakeRandomAnswerSet(8, 80, 4, 4));
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE((*session)->Guidance(10, SmallGrid()).ok());
  ASSERT_TRUE((*cold)->Guidance(10, SmallGrid()).ok());
  core::Solution refreshed = *(*session)->Retrieve(10, 1, 4);
  core::Solution fresh = *(*cold)->Retrieve(10, 1, 4);
  EXPECT_EQ(refreshed.cluster_ids, fresh.cluster_ids);
  EXPECT_EQ(refreshed.average, fresh.average);
  EXPECT_NE(refreshed.average, old_solution.average);

  Session::CacheStats cache = (*session)->cache_stats();
  EXPECT_EQ(cache.refreshes, 1);
  EXPECT_EQ(cache.refresh_full_reuses, 0);
  EXPECT_EQ(cache.retired_universes, 1);
  EXPECT_EQ(cache.retired_stores, 1);
}

TEST(SessionRefreshTest, DomainChangeClearsHierarchyReuse) {
  auto session = Session::Create(testutil::MakeRandomAnswerSet(7, 60, 4, 4));
  ASSERT_TRUE(session.ok());
  Session::RefreshStats stats;
  // Different domain size => different value-name hierarchy.
  ASSERT_TRUE(
      (*session)
          ->Refresh(testutil::MakeRandomAnswerSet(7, 60, 4, 5), &stats)
          .ok());
  EXPECT_TRUE(stats.refreshed);
  EXPECT_FALSE(stats.hierarchy_reused);
}

// --- QueryService over the versioned catalog ----------------------------

TEST(ServiceRefreshTest, AppendTriggersTransparentRefreshOnNextUse) {
  QueryService service;
  ASSERT_TRUE(
      service.RegisterTable("ratings", testutil::MakeRatingsTable(11, 600))
          .ok());
  auto info = service.Query({kSql, "val", {}});
  ASSERT_TRUE(info.ok());
  const int answers_before = info->num_answers;

  // A delta that lands in existing heavy groups: values move, the handle
  // goes stale, and the next use re-executes transparently.
  testutil::RandomTableSpec spec;
  auto version = service.AppendRows(
      {"ratings", testutil::MakeRandomRows(spec, 99, 50)});
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version->version, 2u);
  EXPECT_EQ(service.catalog_version(), 2u);

  auto again = service.Query({kSql, "val", {}});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->handle, info->handle);  // same handle, refreshed data
  EXPECT_TRUE(again->stats.refreshed);
  EXPECT_FALSE(again->stats.cache_hit);
  EXPECT_GE(again->num_answers, answers_before);

  // Now fresh: the next use is a plain cache hit.
  auto third = service.Query({kSql, "val", {}});
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->stats.cache_hit);
  EXPECT_FALSE(third->stats.refreshed);

  service::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions, 1);
  EXPECT_EQ(stats.refreshes, 1);

  // Bit-identity with a cold service over the final state.
  QueryService cold;
  storage::Table final_table = testutil::MakeRatingsTable(11, 600);
  ASSERT_TRUE(
      final_table.AppendRows(testutil::MakeRandomRows(spec, 99, 50)).ok());
  ASSERT_TRUE(cold.RegisterTable("ratings", std::move(final_table)).ok());
  auto cold_info = cold.Query({kSql, "val", {}});
  ASSERT_TRUE(cold_info.ok());
  EXPECT_EQ(cold_info->num_answers, again->num_answers);
  auto warm_explore = service.Explore({info->handle, {3, 8, 2}, 8});
  auto cold_explore = cold.Explore({cold_info->handle, {3, 8, 2}, 8});
  ASSERT_TRUE(warm_explore.ok());
  ASSERT_TRUE(cold_explore.ok());
  EXPECT_EQ(warm_explore->summary, cold_explore->summary);
  EXPECT_EQ(warm_explore->expanded, cold_explore->expanded);
}

TEST(ServiceRefreshTest, QuietDeltaProvablyUnchangedReusesAllCaches) {
  QueryService service;
  ASSERT_TRUE(
      service.RegisterTable("ratings", testutil::MakeRatingsTable(11, 600))
          .ok());
  auto info = service.Query({kSql, "val", {}});
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(service.Guidance({info->handle, 8, SmallGrid()}).ok());
  auto cache_before = service.SessionCacheStats(info->handle);
  ASSERT_TRUE(cache_before.ok());

  // A row in a group that stays under the HAVING threshold: the catalog
  // version moves but the re-executed answer set is bit-identical, so the
  // refresh proves "unchanged" and every cache (incl. the grid) survives.
  const std::vector<std::vector<Value>> quiet_row = {
      {Value::Str("quietA"), Value::Str("quietB"), Value::Str("quietC"),
       Value::Str("g3v0"), Value::Real(1.0)}};
  auto version = service.AppendRows({"ratings", quiet_row});
  ASSERT_TRUE(version.ok());

  auto after = service.Guidance({info->handle, 8, SmallGrid()});
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->stats.refreshed);  // the SQL did re-execute...
  // ...but the same grid keeps serving: a hit, with no store built.
  EXPECT_TRUE(after->stats.cache_hit);
  EXPECT_FALSE(after->stats.built);
  auto cache_after = service.SessionCacheStats(info->handle);
  ASSERT_TRUE(cache_after.ok());
  EXPECT_EQ(cache_after->stores, cache_before->stores);
  EXPECT_EQ(cache_after->store_misses, cache_before->store_misses);
  service::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.refreshes, 1);
  EXPECT_EQ(stats.refresh_full_reuses, 1);
}

TEST(ServiceRefreshTest, OnlyDependentHandlesGoStale) {
  QueryService service;
  ASSERT_TRUE(
      service.RegisterTable("ratings", testutil::MakeRatingsTable(11, 500))
          .ok());
  ASSERT_TRUE(
      service.RegisterTable("other", testutil::MakeRatingsTable(12, 500))
          .ok());
  auto ratings = service.Query({kSql, "val", {}});
  ASSERT_TRUE(ratings.ok());
  constexpr char kOtherSql[] =
      "SELECT g0, g1, avg(rating) AS val FROM other "
      "GROUP BY g0, g1 ORDER BY val DESC";
  auto other = service.Query({kOtherSql, "val", {}});
  ASSERT_TRUE(other.ok());

  // Appending to `ratings` must not disturb the `other` handle.
  testutil::RandomTableSpec spec;
  ASSERT_TRUE(
      service.AppendRows({"ratings", testutil::MakeRandomRows(spec, 5, 40)})
          .ok());
  auto other_again = service.Query({kOtherSql, "val", {}});
  ASSERT_TRUE(other_again.ok());
  EXPECT_TRUE(other_again->stats.cache_hit);
  EXPECT_FALSE(other_again->stats.refreshed);
  auto ratings_again = service.Query({kSql, "val", {}});
  ASSERT_TRUE(ratings_again.ok());
  EXPECT_TRUE(ratings_again->stats.refreshed);
}

TEST(ServiceRefreshTest, ReplaceTableBreakingQueryReportsErrorThenRecovers) {
  QueryService service;
  ASSERT_TRUE(
      service.RegisterTable("ratings", testutil::MakeRatingsTable(11, 400))
          .ok());
  auto info = service.Query({kSql, "val", {}});
  ASSERT_TRUE(info.ok());

  // Replace with a schema missing g2: the SQL no longer executes; every
  // use of the handle surfaces the error instead of stale data.
  testutil::RandomTableSpec narrow;
  narrow.domains = {6, 5};
  ASSERT_TRUE(
      service
          .ReplaceTable("ratings", testutil::MakeRandomTable(narrow, 3, 200))
          .ok());
  auto broken = service.Query({kSql, "val", {}});
  EXPECT_FALSE(broken.ok());
  EXPECT_FALSE(service.Summarize({info->handle, {3, 8, 2}}).ok());

  // Restoring a compatible table heals the handle on next use.
  ASSERT_TRUE(
      service.ReplaceTable("ratings", testutil::MakeRatingsTable(13, 400))
          .ok());
  auto healed = service.Query({kSql, "val", {}});
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->handle, info->handle);
  EXPECT_TRUE(healed->stats.refreshed);
  EXPECT_TRUE(service.Summarize({info->handle, {3, 8, 2}}).ok());
}

}  // namespace
}  // namespace qagview
