// Approximate-first serving demo: answer now, refine in place.
//
// Registers a million-row store_sales fact table (the paper's §7.4
// scalability subject), then asks the service for a top-profit aggregate
// in approx-first mode. The first response arrives in about a millisecond
// — computed from the dataset's reservoir sample, every answer carrying a
// confidence-interval half-width — while the exact build runs in the
// background. Refine() waits for that build (coalescing with it, never
// duplicating it) and the same handle then serves the exact generation,
// bit-identical to what an exact-only cold query would have produced.
// Prints both summaries, the reported error bounds, and the service /
// session census showing the two-phase publication.

#include <cstdio>
#include <iostream>

#include "common/timer.h"
#include "qagview.h"  // the single public umbrella header

int main() {
  using namespace qagview;

  // 1. A million-row fact table behind a sampling-enabled service (the
  //    default: every dataset keeps a 4096-row uniform reservoir sample,
  //    maintained incrementally across appends).
  service::QueryService svc;
  datagen::StoreSalesOptions gen_options;
  gen_options.num_rows = 1000000;
  Status registered = svc.RegisterTable(
      "store_sales", datagen::StoreSalesGenerator(gen_options).Generate());
  if (!registered.ok()) {
    std::cerr << registered.ToString() << "\n";
    return 1;
  }

  // 2. Approx-first query: the response is computed from the sample and
  //    annotated with its provenance; the exact build starts immediately
  //    in the background.
  const char* kSql =
      "SELECT store_state, item_category, customer_agegrp, channel, "
      "avg(net_profit) AS val FROM store_sales "
      "GROUP BY store_state, item_category, customer_agegrp, channel "
      "HAVING count(*) > 25 ORDER BY val DESC";
  service::QueryOptions approx;
  approx.mode = service::QueryMode::kApproxFirst;
  approx.confidence = 0.95;
  WallTimer first_answer;
  auto query = svc.Query({kSql, "val", approx});
  double first_answer_ms = first_answer.ElapsedMillis();
  if (!query.ok()) {
    std::cerr << "query failed: " << query.status().ToString() << "\n";
    return 1;
  }
  std::printf(
      "approximate answer in %.2f ms: %d ranked answers over %d attrs\n"
      "  sample fraction %.4f, max +/-%.3f at %.0f%% confidence\n\n",
      first_answer_ms, query->num_answers, query->num_attrs,
      query->approx.sample_fraction, query->approx.max_bound,
      approx.confidence * 100);

  // 3. Interactive ops work on the approximate set right away — each
  //    response's provenance says which kind of generation served it.
  auto summary = svc.Summarize({query->handle, {/*k=*/4, /*L=*/8, /*D=*/2}});
  if (!summary.ok()) {
    std::cerr << summary.status().ToString() << "\n";
    return 1;
  }
  std::printf("summarize on the approximate set (approximate=%s):\n",
              summary->approx.is_exact ? "false" : "true");

  // 4. Refine: wait for the background exact build and republish through
  //    the same handle. Readers never block — they see the complete
  //    approximate generation until the complete exact one is swapped in.
  WallTimer refine_timer;
  auto refined = svc.Refine({query->handle});
  if (!refined.ok()) {
    std::cerr << refined.status().ToString() << "\n";
    return 1;
  }
  std::printf("exact after refinement in %.0f ms (approximate=%s)\n\n",
              refine_timer.ElapsedMillis(),
              refined->approx.is_exact ? "false" : "true");

  // 5. The same handle now serves the exact generation; render the
  //    two-layer summary from it.
  auto explored = svc.Explore({query->handle, {/*k=*/4, /*L=*/8, /*D=*/2}, 8});
  if (!explored.ok()) {
    std::cerr << explored.status().ToString() << "\n";
    return 1;
  }
  std::cout << explored->summary;

  // 6. Generation census: the approximate generation was superseded and
  //    evicted once its readers drained; the service counted one
  //    approximate query and one refinement.
  auto cache = svc.SessionCacheStats(query->handle);
  if (cache.ok()) {
    const auto census = *cache;
    std::printf(
        "\nsession: live_generations=%lld generations_evicted=%lld "
        "graveyard=%lld\n",
        static_cast<long long>(census.live_generations),
        static_cast<long long>(census.generations_evicted),
        static_cast<long long>(census.graveyard_size));
  }
  const auto service_stats = svc.stats();
  std::printf(
      "service: approx_queries=%lld refinements=%lld "
      "refine_requests=%lld approx_served=%lld\n",
      static_cast<long long>(service_stats.approx_queries),
      static_cast<long long>(service_stats.refinements),
      static_cast<long long>(service_stats.refine_requests),
      static_cast<long long>(service_stats.approx_served));
  return 0;
}
