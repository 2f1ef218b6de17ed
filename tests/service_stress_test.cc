// The service stress test the TSan CI job gates on: many client threads
// hammer one QueryService with a mixed Query / Summarize / Guidance /
// Retrieve / Explore workload over shared sessions, and every response
// must be bit-identical to the same request served by a single-threaded
// run. Also pins the single-flight invariants: one SQL execution per
// distinct query and one precompute per distinct grid shape, no matter
// how many clients race.

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/query_service.h"
#include "test_util.h"

namespace qagview::service {
namespace {

constexpr int kClients = 16;  // ≥ 8 per the CI acceptance bar
constexpr int kRounds = 3;
constexpr uint64_t kSeed = 83;
constexpr int kRows = 5000;

constexpr char kSqlCoarse[] =
    "SELECT g0, g1, g2, avg(rating) AS val FROM ratings "
    "GROUP BY g0, g1, g2 HAVING count(*) > 3 ORDER BY val DESC";
constexpr char kSqlFine[] =
    "SELECT g0, g1, g2, g3, avg(rating) AS val FROM ratings "
    "GROUP BY g0, g1, g2, g3 HAVING count(*) > 2 ORDER BY val DESC";

std::unique_ptr<QueryService> MakeService() {
  auto service = std::make_unique<QueryService>();
  QAG_CHECK_OK(service->RegisterTable(
      "ratings", testutil::MakeRatingsTable(kSeed, kRows)));
  return service;
}

core::PrecomputeOptions GridOptions() {
  core::PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 8;
  options.d_values = {1, 2};
  return options;
}

/// The comparable footprint of one response. Raw cluster ids are
/// comparable across runs because both runs pre-warm the same widest
/// universe per session, pinning the id space (see WarmUp below).
struct Footprint {
  std::vector<int> ids;
  double average = 0.0;
  int count = 0;
  bool operator==(const Footprint& other) const {
    return ids == other.ids && average == other.average &&
           count == other.count;
  }
};

/// The finite request vocabulary, identified by op index. Every op routes
/// through the service API only — exactly what a client stub would issue.
constexpr int kNumOps = 6;
Result<Footprint> RunOp(QueryService& service, int op) {
  const char* sql = (op % 2 == 0) ? kSqlCoarse : kSqlFine;
  QAG_ASSIGN_OR_RETURN(QueryResponse info, service.Query({sql, "val", {}}));
  core::Solution s;
  switch (op) {
    case 0: {
      QAG_ASSIGN_OR_RETURN(SummarizeResponse r,
                           service.Summarize({info.handle, {4, 12, 2}}));
      s = r.solution;
      break;
    }
    case 1: {
      QAG_ASSIGN_OR_RETURN(SummarizeResponse r,
                           service.Summarize({info.handle, {5, 15, 1}}));
      s = r.solution;
      break;
    }
    case 2: {
      QAG_RETURN_IF_ERROR(
          service.Guidance({info.handle, 14, GridOptions()}).status());
      QAG_ASSIGN_OR_RETURN(RetrieveResponse r,
                           service.Retrieve({info.handle, 14, 2, 6}));
      s = r.solution;
      break;
    }
    case 3: {
      // Same grid shape as op 2 on purpose: with one distinct Guidance
      // key per session, exactly one store can ever exist, so which
      // client's call built it cannot change what Retrieve returns.
      QAG_RETURN_IF_ERROR(
          service.Guidance({info.handle, 14, GridOptions()}).status());
      QAG_ASSIGN_OR_RETURN(RetrieveResponse r,
                           service.Retrieve({info.handle, 12, 1, 4}));
      s = r.solution;
      break;
    }
    case 4: {
      QAG_ASSIGN_OR_RETURN(ExploreResponse r,
                           service.Explore({info.handle, {4, 10, 2}, 8}));
      s = r.solution;
      break;
    }
    default: {
      QAG_RETURN_IF_ERROR(
          service.Guidance({info.handle, 14, GridOptions()}).status());
      QAG_ASSIGN_OR_RETURN(RetrieveResponse r,
                           service.Retrieve({info.handle, 10, 2, 7}));
      s = r.solution;
      break;
    }
  }
  return Footprint{s.cluster_ids, s.average, s.covered_count};
}

/// Opens both sessions and pre-warms each one's widest universe (L=16) so
/// each session serves every request from that one universe in the serial
/// and concurrent runs — making cluster ids, not just patterns, comparable
/// across runs. A Summarize at L=16 is the
/// service-API warm trigger (one recorded request + one universe build per
/// session, accounted for in the stats assertions below).
void WarmUp(QueryService& service) {
  for (const char* sql : {kSqlCoarse, kSqlFine}) {
    auto info = service.Query({sql, "val", {}});
    QAG_CHECK(info.ok()) << info.status().ToString();
    auto solution = service.Summarize({info->handle, {4, 16, 1}});
    QAG_CHECK(solution.ok()) << solution.status().ToString();
  }
}

/// The full bit-identity-vs-serial battery at a given client count. Run at
/// 16 and 32 clients: well past the core count, so the lock-free warm path
/// is exercised under heavy oversubscription and preemption inside the
/// pin-serve window.
void RunMixedWorkload(int clients) {
  // Serial ground truth: a fresh identical service, one thread.
  std::map<int, Footprint> expected;
  {
    auto serial = MakeService();
    WarmUp(*serial);
    for (int op = 0; op < kNumOps; ++op) {
      auto footprint = RunOp(*serial, op);
      ASSERT_TRUE(footprint.ok()) << "op " << op << ": "
                                  << footprint.status().ToString();
      expected.emplace(op, *footprint);
    }
  }

  // Concurrent run: `clients` threads × kRounds × all ops, rotated so
  // every op is in flight from multiple threads at once.
  auto service = MakeService();
  WarmUp(*service);
  testutil::StartLatch latch(clients);
  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      latch.ArriveAndWait();
      for (int round = 0; round < kRounds; ++round) {
        for (int op = 0; op < kNumOps; ++op) {
          int my_op = (op + t) % kNumOps;
          auto footprint = RunOp(*service, my_op);
          ASSERT_TRUE(footprint.ok()) << "op " << my_op << ": "
                                      << footprint.status().ToString();
          EXPECT_EQ(*footprint, expected.at(my_op))
              << "client " << t << " round " << round << " op " << my_op;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Single-flight invariants, checked over everything the clients did:
  //  * 2 distinct queries → exactly 2 sessions, however many Query calls;
  //  * each session: one universe build (the pre-warm) and exactly one
  //    precompute per distinct (L, options) grid shape.
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.sessions, 2);
  EXPECT_EQ(stats.queries,
            2 + static_cast<int64_t>(clients) * kRounds * kNumOps);
  EXPECT_EQ(stats.query_cache_hits, stats.queries - 2 - stats.query_coalesced);

  for (const char* sql : {kSqlCoarse, kSqlFine}) {
    auto info = service->Query({sql, "val", {}});
    ASSERT_TRUE(info.ok());
    auto cache = service->SessionCacheStats(info->handle);
    ASSERT_TRUE(cache.ok());
    EXPECT_EQ(cache->universes, 1) << sql;
    EXPECT_EQ(cache->universe_misses, 1) << sql;
    // All ops share one grid shape, so exactly one precompute ran per
    // session — never one per client.
    EXPECT_EQ(cache->stores, 1) << sql;
    EXPECT_EQ(cache->store_misses, 1) << sql;
  }

  // Request accounting: every client call was recorded. The counters are
  // sharded per thread (common/sharded_stats.h) and aggregated by
  // stats(); after the join above the shard sums must equal — exactly —
  // the totals a single global set of counters would have recorded. A
  // lost or double-counted increment anywhere fails one of these.
  int64_t expected_non_query =
      static_cast<int64_t>(clients) * kRounds * kNumOps;
  // ops 2, 3, 5 issue Guidance + Retrieve (2 recorded requests each);
  // ops 0, 1 issue Summarize; op 4 issues Explore. WarmUp added one
  // Summarize per session (+2).
  EXPECT_EQ(stats.summarize_requests, expected_non_query / kNumOps * 2 + 2);
  EXPECT_EQ(stats.explore_requests, expected_non_query / kNumOps);
  EXPECT_EQ(stats.guidance_requests, expected_non_query / kNumOps * 3);
  EXPECT_EQ(stats.retrieve_requests, expected_non_query / kNumOps * 3);
  // Per 6-op cycle: 2 Summarize + 3 Guidance + 3 Retrieve + 1 Explore =
  // 9 recorded non-query requests, plus the 2 warm-up Summarizes.
  const int64_t recorded_non_query = expected_non_query / kNumOps * 9 + 2;
  EXPECT_EQ(stats.requests(), stats.queries + recorded_non_query);
  // Every non-query request resolved to exactly one of {hit, built,
  // coalesced}; with two universe builds (warm-up) and two grid
  // precomputes total, the partition is exact.
  EXPECT_EQ(stats.builds, 4);
  EXPECT_EQ(stats.cache_hits + stats.builds + stats.coalesced_waits,
            recorded_non_query);
  EXPECT_EQ(stats.refreshes, 0);  // no dataset moved during the run
  EXPECT_GT(stats.total_latency_ms, 0.0);
  EXPECT_GT(stats.max_latency_ms, 0.0);
}

TEST(ServiceStressTest, MixedWorkloadBitIdenticalToSerial16Clients) {
  RunMixedWorkload(16);
}

TEST(ServiceStressTest, MixedWorkloadBitIdenticalToSerial32Clients) {
  RunMixedWorkload(32);
}

TEST(ServiceStressTest, ConcurrentIdenticalQueriesCoalesce) {
  auto service = MakeService();
  testutil::StartLatch latch(kClients);
  std::vector<QueryHandle> handles(kClients, -1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      latch.ArriveAndWait();
      auto info = service->Query({kSqlCoarse, "val", {}});
      ASSERT_TRUE(info.ok()) << info.status().ToString();
      handles[static_cast<size_t>(t)] = info->handle;
    });
  }
  for (auto& t : threads) t.join();

  // One SQL execution, one session; every client got the same handle.
  for (int t = 1; t < kClients; ++t) {
    EXPECT_EQ(handles[static_cast<size_t>(t)], handles[0]);
  }
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.sessions, 1);
  EXPECT_EQ(stats.queries, kClients);
  // One build; everyone else either hit the cache directly or waited on
  // the in-flight execution (coalesced) and then served from it.
  EXPECT_EQ(stats.query_cache_hits + stats.query_coalesced, kClients - 1);
}

TEST(ServiceStressTest, ConcurrentGuidanceOnSharedSessionSingleFlight) {
  auto service = MakeService();
  auto info = service->Query({kSqlCoarse, "val", {}});
  ASSERT_TRUE(info.ok());
  testutil::StartLatch latch(kClients);
  std::vector<RequestStats> stats(kClients);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      latch.ArriveAndWait();
      auto grid = service->Guidance({info->handle, 14, GridOptions()});
      ASSERT_TRUE(grid.ok()) << grid.status().ToString();
      stats[static_cast<size_t>(t)] = grid->stats;
    });
  }
  for (auto& t : threads) t.join();

  // Every client was served the one shared store: stores == 1 and
  // store_misses == 1 below pin that exactly one was ever built.
  int built = 0, coalesced = 0, hit = 0;
  for (const RequestStats& s : stats) {
    built += s.built ? 1 : 0;
    coalesced += s.coalesced ? 1 : 0;
    hit += s.cache_hit ? 1 : 0;
  }
  EXPECT_EQ(built, 1);  // exactly one client paid for the precompute
  EXPECT_EQ(built + coalesced + hit, kClients);
  auto cache = service->SessionCacheStats(info->handle);
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ(cache->stores, 1);
  EXPECT_EQ(cache->store_misses, 1);
  EXPECT_EQ(cache->store_coalesced, coalesced);
}

}  // namespace
}  // namespace qagview::service
