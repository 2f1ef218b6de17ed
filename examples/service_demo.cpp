// Service demo: the multi-client serving layer end to end.
//
// Registers a MovieLens-like table with a QueryService, runs the paper's
// aggregate query through it, then hammers the shared session with 8
// concurrent client threads issuing a mixed Summarize / Guidance /
// Retrieve / Explore workload — the Appendix A.3 web-app scenario with
// many simultaneous users instead of one. Prints one client's rendered
// two-layer view plus the service statistics showing the cache and
// single-flight coalescing behaviour.

#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "qagview.h"  // the single public umbrella header

int main() {
  using namespace qagview;

  // 1. Stand up the service and register the dataset (CSV files work the
  //    same way via RegisterCsvFile).
  service::QueryService svc;
  datagen::MovieLensOptions gen_options;
  gen_options.num_ratings = 150000;
  storage::Table ratings =
      datagen::MovieLensGenerator(gen_options).GenerateRatingTable();
  // One real row, kept aside for the live-update step below.
  const std::vector<storage::Value> delta_row = ratings.GetRow(0);
  Status registered = svc.RegisterTable("RatingTable", std::move(ratings));
  if (!registered.ok()) {
    std::cerr << registered.ToString() << "\n";
    return 1;
  }

  // 2. The aggregate query of Example 1.1, now answered by the service;
  //    identical SQL from any client reuses the same cached session.
  const char* kSql =
      "SELECT hdec, agegrp, gender, occupation, avg(rating) AS val "
      "FROM RatingTable "
      "WHERE genres_adventure = 1 "
      "GROUP BY hdec, agegrp, gender, occupation "
      "HAVING count(*) > 25 "
      "ORDER BY val DESC";
  auto query = svc.Query({kSql, "val", {}});
  if (!query.ok()) {
    std::cerr << "query failed: " << query.status().ToString() << "\n";
    return 1;
  }
  std::printf("query -> handle %lld: %d ranked answers over %d attrs\n",
              static_cast<long long>(query->handle), query->num_answers,
              query->num_attrs);

  // 3. Eight concurrent clients re-parameterize the same answer set. The
  //    session underneath is shared: one universe build and one (k, D)
  //    grid precompute serve everybody (single-flight), and every client
  //    sees results bit-identical to a single-user run.
  constexpr int kClients = 8;
  constexpr int kRoundsPerClient = 4;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&svc, &query, c] {
      for (int round = 0; round < kRoundsPerClient; ++round) {
        switch ((c + round) % 4) {
          case 0:
            svc.Summarize({query->handle, {4, 8, 2}});
            break;
          case 1:
            svc.Guidance({query->handle, 8, core::PrecomputeOptions()});
            break;
          case 2:
            svc.Retrieve({query->handle, 8, /*d=*/1, /*k=*/6});
            break;
          default:
            svc.Explore({query->handle, {4, 8, 2}, 8});
            break;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // 4. One more client renders the two-layer view — everything cached now.
  auto explored = svc.Explore({query->handle, {4, 8, 2}, 8});
  if (!explored.ok()) {
    std::cerr << explored.status().ToString() << "\n";
    return 1;
  }
  std::cout << "\n=== Summary (Figure 1b): k=4, L=8, D=2 ===\n"
            << explored->summary
            << "\n=== Expanded (Figure 1c, 3 members/cluster) ===\n"
            << explored->expanded;
  std::printf("\nfinal Explore latency: %.3f ms (cache hit: %s)\n",
              explored->stats.latency_ms,
              explored->stats.cache_hit ? "yes" : "no");

  // 5. Live data: an append retires the served generation on next use.
  //    The superseded caches are evicted the moment their last reader
  //    handle drops (drain-then-evict) — the generation counters below
  //    show the graveyard staying empty once everyone re-queried.
  auto appended = svc.AppendRows({"RatingTable", {delta_row}});
  if (!appended.ok()) {
    std::cerr << "append failed: " << appended.status().ToString() << "\n";
    return 1;
  }
  auto refreshed = svc.Query({kSql, "val", {}});
  if (refreshed.ok()) {
    std::printf("\nappend published catalog v%llu; next Query refreshed the "
                "handle in place (refreshed: %s)\n",
                static_cast<unsigned long long>(svc.catalog_version()),
                refreshed->stats.refreshed ? "yes" : "no");
  }

  // 6. What the service did for those clients.
  service::ServiceStats stats = svc.stats();
  std::printf(
      "\n=== ServiceStats ===\n"
      "datasets %lld | sessions %lld | requests %lld\n"
      "queries %lld (cache hits %lld, coalesced %lld)\n"
      "summarize %lld | guidance %lld | retrieve %lld | explore %lld\n"
      "request cache hits %lld | coalesced waits %lld | builds %lld\n"
      "refreshes %lld (full reuses %lld)\n"
      "generations: live %lld | graveyard %lld (reader-pinned) | "
      "evicted %lld\n"
      "latency: total %.1f ms, max %.1f ms\n",
      static_cast<long long>(stats.datasets),
      static_cast<long long>(stats.sessions),
      static_cast<long long>(stats.requests()),
      static_cast<long long>(stats.queries),
      static_cast<long long>(stats.query_cache_hits),
      static_cast<long long>(stats.query_coalesced),
      static_cast<long long>(stats.summarize_requests),
      static_cast<long long>(stats.guidance_requests),
      static_cast<long long>(stats.retrieve_requests),
      static_cast<long long>(stats.explore_requests),
      static_cast<long long>(stats.cache_hits),
      static_cast<long long>(stats.coalesced_waits),
      static_cast<long long>(stats.builds),
      static_cast<long long>(stats.refreshes),
      static_cast<long long>(stats.refresh_full_reuses),
      static_cast<long long>(stats.live_generations),
      static_cast<long long>(stats.graveyard_size),
      static_cast<long long>(stats.generations_evicted),
      stats.total_latency_ms, stats.max_latency_ms);

  core::Session::CacheStats cache = *svc.SessionCacheStats(query->handle);
  std::printf(
      "session cache: %d universes (%lld hits / %lld misses, %lld coalesced), "
      "%d stores (%lld hits / %lld misses, %lld coalesced)\n",
      cache.universes, static_cast<long long>(cache.universe_hits),
      static_cast<long long>(cache.universe_misses),
      static_cast<long long>(cache.universe_coalesced), cache.stores,
      static_cast<long long>(cache.store_hits),
      static_cast<long long>(cache.store_misses),
      static_cast<long long>(cache.store_coalesced));
  return 0;
}
