// API coverage for service::QueryService and service::DatasetCatalog: the
// dataset catalog, SQL → session caching, the interactive ops, per-request
// statistics, and error paths. Concurrency is exercised separately in
// service_stress_test.cc.

#include <cstdio>
#include <memory>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/explore.h"
#include "service/query_service.h"
#include "sql/executor.h"
#include "storage/csv.h"
#include "test_util.h"

namespace qagview::service {
namespace {

constexpr char kSqlCoarse[] =
    "SELECT g0, g1, g2, avg(rating) AS val FROM ratings "
    "GROUP BY g0, g1, g2 HAVING count(*) > 3 ORDER BY val DESC";
constexpr char kSqlFine[] =
    "SELECT g0, g1, g2, g3, avg(rating) AS val FROM ratings "
    "GROUP BY g0, g1, g2, g3 HAVING count(*) > 2 ORDER BY val DESC";

std::unique_ptr<QueryService> MakeService(uint64_t seed = 71,
                                           int rows = 4000) {
  auto service = std::make_unique<QueryService>();
  QAG_CHECK_OK(service->RegisterTable("ratings",
                                      testutil::MakeRatingsTable(seed, rows)));
  return service;
}

/// The service's pipeline assembled by hand: kSqlCoarse over MakeService()'s
/// table, straight into a core::Session.
std::unique_ptr<core::Session> DirectCoarseSession() {
  sql::Catalog catalog;
  storage::Table ratings = testutil::MakeRatingsTable(71, 4000);
  catalog.Register("ratings", &ratings);
  auto result = sql::ExecuteSql(kSqlCoarse, catalog);
  QAG_CHECK(result.ok()) << result.status().ToString();
  auto session = core::Session::FromTable(*result, "val");
  QAG_CHECK(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

TEST(DatasetCatalogTest, RegisterFindAndSnapshot) {
  DatasetCatalog catalog;
  ASSERT_TRUE(catalog.Register("Ratings", testutil::MakeRatingsTable(3, 50))
                  .ok());
  EXPECT_EQ(catalog.size(), 1);
  EXPECT_EQ(catalog.version(), 1u);
  // Case-insensitive lookup, like sql::Catalog.
  EXPECT_NE(catalog.Find("ratings").table, nullptr);
  EXPECT_NE(catalog.Find("RATINGS").table, nullptr);
  EXPECT_EQ(catalog.Find("other").table, nullptr);
  EXPECT_EQ(catalog.Find("other").version, 0u);
  EXPECT_EQ(catalog.names(), std::vector<std::string>{"ratings"});

  // Names are unique; Register never replaces (snapshot stability).
  const storage::Table* first = catalog.Find("ratings").table.get();
  EXPECT_EQ(catalog.Register("ratings", testutil::MakeRatingsTable(4, 10))
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.Find("ratings").table.get(), first);
  EXPECT_EQ(catalog.TableVersion("ratings"), 1u);
  EXPECT_FALSE(catalog.Register("", testutil::MakeRatingsTable(5, 10)).ok());

  // The pinned SQL view resolves to the same snapshot.
  CatalogSnapshot snapshot = catalog.Snapshot();
  EXPECT_EQ(snapshot.sql.Find("ratings"), first);
  EXPECT_EQ(snapshot.catalog_version, 1u);
  EXPECT_EQ(snapshot.versions.at("ratings"), 1u);
  // The executor records resolved tables as the query's dependency set.
  EXPECT_EQ(snapshot.sql.accessed(),
            std::vector<std::string>{"ratings"});
}

TEST(DatasetCatalogTest, AppendRowsPublishesNewSnapshotOldReadersKeepTheirs) {
  DatasetCatalog catalog;
  ASSERT_TRUE(
      catalog.Register("ratings", testutil::MakeRatingsTable(3, 50)).ok());
  TableSnapshot before = catalog.Find("ratings");
  ASSERT_NE(before.table, nullptr);
  EXPECT_EQ(before.version, 1u);

  auto version = catalog.AppendRows(
      "ratings", {{storage::Value::Str("g0v0"), storage::Value::Str("g1v0"),
                   storage::Value::Str("g2v0"), storage::Value::Str("g3v0"),
                   storage::Value::Real(4.5)}});
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_EQ(*version, 2u);
  EXPECT_EQ(catalog.version(), 2u);

  // The old snapshot is untouched; the new one has the row.
  EXPECT_EQ(before.table->num_rows(), 50);
  TableSnapshot after = catalog.Find("ratings");
  EXPECT_EQ(after.table->num_rows(), 51);
  EXPECT_NE(after.table.get(), before.table.get());
  EXPECT_EQ(after.version, 2u);

  // Atomicity: a batch with one bad row changes nothing.
  auto bad = catalog.AppendRows(
      "ratings", {{storage::Value::Str("g0v0"), storage::Value::Str("g1v0"),
                   storage::Value::Str("g2v0"), storage::Value::Str("g3v0"),
                   storage::Value::Real(1.0)},
                  {storage::Value::Real(1.0)}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(catalog.Find("ratings").table->num_rows(), 51);
  EXPECT_EQ(catalog.version(), 2u);

  // Unknown dataset.
  EXPECT_EQ(catalog.AppendRows("nope", {}).status().code(),
            StatusCode::kNotFound);

  // ReplaceTable swaps wholesale (and may create).
  ASSERT_TRUE(
      catalog.ReplaceTable("ratings", testutil::MakeRatingsTable(9, 7)).ok());
  EXPECT_EQ(catalog.Find("ratings").table->num_rows(), 7);
  EXPECT_EQ(catalog.version(), 3u);
  ASSERT_TRUE(
      catalog.ReplaceTable("fresh", testutil::MakeRatingsTable(9, 3)).ok());
  EXPECT_EQ(catalog.size(), 2);
}

TEST(QueryServiceTest, QueryCachesSessionsPerSqlAndValueColumn) {
  auto service = MakeService();
  auto first = service->Query({kSqlCoarse, "val", {}});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->handle, 0);
  EXPECT_GT(first->num_answers, 20);
  EXPECT_EQ(first->num_attrs, 3);
  EXPECT_TRUE(first->stats.built);
  EXPECT_FALSE(first->stats.cache_hit);

  // Identical SQL (modulo surrounding whitespace) reuses the session.
  auto again =
      service->Query({std::string("  ") + kSqlCoarse + "\n", "val", {}});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->handle, first->handle);
  EXPECT_TRUE(again->stats.cache_hit);
  EXPECT_FALSE(again->stats.built);

  // A different query opens a second session.
  auto fine = service->Query({kSqlFine, "val", {}});
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_NE(fine->handle, first->handle);
  EXPECT_EQ(fine->num_attrs, 4);

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.datasets, 1);
  EXPECT_EQ(stats.sessions, 2);
  EXPECT_EQ(stats.queries, 3);
  EXPECT_EQ(stats.query_cache_hits, 1);
}

TEST(QueryServiceTest, QueryErrorPaths) {
  auto service = MakeService();
  EXPECT_FALSE(service->Query({"", "val", {}}).ok());
  EXPECT_FALSE(service->Query({"   \n ", "val", {}}).ok());
  // Unknown table.
  const std::string unknown_table =
      "SELECT g0, avg(rating) AS val FROM nope GROUP BY g0";
  EXPECT_FALSE(service->Query({unknown_table, "val", {}}).ok());
  // Unparseable SQL.
  EXPECT_FALSE(service->Query({"SELEC oops", "val", {}}).ok());
  // Missing value column in the result.
  EXPECT_FALSE(service->Query({kSqlCoarse, "no_such_column", {}}).ok());
  // Failed queries are not cached (no session entries).
  EXPECT_EQ(service->stats().sessions, 0);
  EXPECT_EQ(service->stats().queries, 5);
}

TEST(QueryServiceTest, SummarizeMatchesDirectCorePipeline) {
  auto service = MakeService();
  auto query = service->Query({kSqlCoarse, "val", {}});
  ASSERT_TRUE(query.ok());
  core::Params params{4, 10, 1};
  auto via_service = service->Summarize({query->handle, params});
  ASSERT_TRUE(via_service.ok()) << via_service.status().ToString();
  // First request built the universe.
  EXPECT_TRUE(via_service->stats.built);
  EXPECT_GE(via_service->stats.latency_ms, 0.0);

  // Same pipeline assembled by hand must agree bit-for-bit.
  auto direct = DirectCoarseSession()->Summarize(params);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_service->solution.cluster_ids, direct->cluster_ids);
  EXPECT_EQ(via_service->solution.average, direct->average);

  // Second request over the same parameters is a cache hit.
  auto second = service->Summarize({query->handle, params});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->stats.cache_hit);
  EXPECT_FALSE(second->stats.built);
}

TEST(QueryServiceTest, GuidanceRetrieveAndExplore) {
  auto service = MakeService();
  auto query = service->Query({kSqlCoarse, "val", {}});
  ASSERT_TRUE(query.ok());

  core::PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 8;
  options.d_values = {1, 2};
  auto guidance = service->Guidance({query->handle, 12, options});
  ASSERT_TRUE(guidance.ok()) << guidance.status().ToString();
  EXPECT_TRUE(guidance->stats.built);

  auto retrieved = service->Retrieve({query->handle, 12, 2, 5});
  ASSERT_TRUE(retrieved.ok()) << retrieved.status().ToString();
  EXPECT_TRUE(retrieved->stats.cache_hit);
  // The same grid built by hand over the same SQL result agrees.
  auto store = DirectCoarseSession()->Guidance(12, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto from_store = (*store)->Retrieve(2, 5);
  ASSERT_TRUE(from_store.ok());
  EXPECT_EQ(retrieved->solution.cluster_ids, from_store->cluster_ids);

  // Retrieve without a covering grid fails through the service too.
  EXPECT_FALSE(service->Retrieve({query->handle, 30, 2, 5}).ok());

  core::Params params{4, 12, 2};
  auto explored = service->Explore({query->handle, params, /*max_members=*/3});
  ASSERT_TRUE(explored.ok()) << explored.status().ToString();
  auto solution = service->Summarize({query->handle, params});
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(explored->solution.cluster_ids, solution->solution.cluster_ids);
  EXPECT_EQ(explored->view.clusters.size(),
            explored->solution.cluster_ids.size());
  EXPECT_FALSE(explored->summary.empty());
  EXPECT_FALSE(explored->expanded.empty());
  // The rendered layers name the grouping attributes from the SQL result.
  EXPECT_NE(explored->summary.find("g0"), std::string::npos);

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.guidance_requests, 1);
  EXPECT_EQ(stats.retrieve_requests, 2);
  EXPECT_EQ(stats.explore_requests, 1);
  EXPECT_GE(stats.requests(), 6);
  EXPECT_GE(stats.total_latency_ms, 0.0);
  EXPECT_GE(stats.max_latency_ms, 0.0);
}

TEST(QueryServiceTest, TypedAccessorsAllowGuidancePersistence) {
  auto service = MakeService();
  auto query = service->Query({kSqlCoarse, "val", {}});
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(service->Guidance({query->handle, 10, {}}).ok());

  std::string path = testing::TempDir() + "/qagview_service_guidance.txt";
  EXPECT_TRUE(service->SaveGuidance(query->handle, 10, path).ok());
  auto cache = service->SessionCacheStats(query->handle);
  ASSERT_TRUE(cache.ok());
  EXPECT_GE(cache->stores, 1);
  std::remove(path.c_str());

  EXPECT_FALSE(service->SaveGuidance(99, 10, path).ok());
  EXPECT_FALSE(service->SessionCacheStats(-1).ok());
  EXPECT_FALSE(service->Answers(99).ok());
  EXPECT_FALSE(service->Summarize({99, {4, 8, 1}}).ok());
}

TEST(QueryServiceTest, RegisterCsvFileEndToEnd) {
  std::string path = testing::TempDir() + "/qagview_service_ratings.csv";
  {
    storage::Table table = testutil::MakeRatingsTable(77, 600);
    QAG_CHECK_OK(storage::WriteCsvFile(table, path));
  }
  QueryService service;
  ASSERT_TRUE(service.RegisterCsvFile("csv_ratings", path).ok());
  EXPECT_EQ(service.dataset_names(),
            std::vector<std::string>{"csv_ratings"});
  const std::string sql =
      "SELECT g0, g1, avg(rating) AS val FROM csv_ratings "
      "GROUP BY g0, g1 ORDER BY val DESC";
  auto query = service.Query({sql, "val", {}});
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_GT(query->num_answers, 5);
  auto solution = service.Summarize({query->handle, {3, 6, 1}});
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();

  EXPECT_FALSE(service.RegisterCsvFile("missing", path + ".nope").ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qagview::service
