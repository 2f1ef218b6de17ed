// Guards the public surface against rot: includes the umbrella header alone
// (no other project headers) and touches one type per layer, so a header
// that stops compiling — or silently drops out of qagview.h — fails here.

#include <gtest/gtest.h>

#include "qagview.h"

namespace qagview {
namespace {

// The pipeline sample from the qagview.h file comment, verbatim. It is never
// executed (it would read ratings.csv from disk); compiling it is the test.
// If this function stops building, fix qagview.h's comment to match.
[[maybe_unused]] void QuickstartSnippetFromUmbrellaHeader() {
  // 1. Load data (CSV, generator, or build a storage::Table directly).
  auto table = storage::ReadCsvFile("ratings.csv");

  // 2. Run the aggregate query.
  sql::Catalog catalog;
  catalog.Register("ratings", &*table);
  auto result = sql::ExecuteSql(
      "SELECT hdec, agegrp, gender, occupation, avg(rating) AS val "
      "FROM ratings GROUP BY hdec, agegrp, gender, occupation "
      "HAVING count(*) > 50 ORDER BY val DESC", catalog);

  // 3. Open a session and summarize under (k, L, D).
  auto session = core::Session::FromTable(*result, "val");
  auto solution = (*session)->Summarize({/*k=*/4, /*L=*/8, /*D=*/2});

  // 4. Display the two layers (Figures 1b/1c). UniverseFor returns a
  //    shared_ptr handle pinning the universe while you render.
  auto universe = (*session)->UniverseFor(8);
  std::cout << core::RenderSummary(**universe, *solution)
            << core::RenderExpanded(**universe, *solution);

  // 5. Interactive exploration: precompute the (k, D) grid once,
  //    retrieve any combination instantly, chart it, persist it.
  //    Hold the handle, never a raw pointer extracted from it: the
  //    handle keeps the grid valid across live-data refreshes, and
  //    dropping it lets a superseded generation be evicted.
  auto guidance = (*session)->Guidance(8);
  auto alt = (*guidance)->Retrieve(/*d=*/1, /*k=*/6);
  (*session)->SaveGuidance(8, "guidance.store");
}

// The README "Serving many clients" snippet, verbatim. Compiling it pins
// the one request/response API the README promises: each operation takes
// its service/api.h request struct and returns its response struct, with
// the request's stats embedded. If this function stops building, fix
// README.md to match.
[[maybe_unused]] void ServingManyClientsSnippetFromReadme() {
  service::QueryService svc;
  svc.RegisterCsvFile("ratings", "ratings.csv");          // or RegisterTable
  auto q = svc.Query(
      {"SELECT hdec, agegrp, gender, occupation, avg(rating) AS val "
       "FROM ratings GROUP BY hdec, agegrp, gender, occupation "
       "HAVING count(*) > 50 ORDER BY val DESC", "val", /*options=*/{}});

  // From any number of threads:
  auto s = svc.Summarize({q->handle, {/*k=*/4, /*L=*/8, /*D=*/2}});
  svc.Guidance({q->handle, /*top_l=*/8, /*options=*/{}});    // precompute once
  auto alt = svc.Retrieve({q->handle, 8, /*d=*/1, /*k=*/6});  // instant
  auto view = svc.Explore({q->handle, {4, 8, 2}, /*max_members=*/8});
  // s->solution; s->stats.latency_ms / cache_hit / coalesced; svc.stats()
  // for totals; view->summary / view->expanded are the rendered layers.
  (void)s->solution;
  (void)s->stats.latency_ms;
  (void)s->stats.cache_hit;
  (void)s->stats.coalesced;
  (void)svc.stats();
  (void)view->summary;
  (void)view->expanded;
  (void)alt;
}

// The README "live data: append and refresh automatically" snippet,
// verbatim modulo the elided SQL text. Compiling it pins the versioned
// catalog API the README promises (AppendRows batch shape, stats fields).
// If this function stops building, fix README.md to match.
[[maybe_unused]] void AppendRefreshSnippetFromReadme() {
  service::QueryService svc;
  svc.RegisterCsvFile("ratings", "ratings.csv");
  svc.AppendRows({"ratings",
                  {{storage::Value::Str("1995"), storage::Value::Str("20s"),
                    storage::Value::Str("F"), storage::Value::Str("Writer"),
                    storage::Value::Real(4.5)}}});
  // Next use of the handle brings its answers up to the new snapshot and
  // reuses every cache the append provably did not touch:
  auto refreshed = svc.Query({"SELECT gender, avg(rating) AS val "
                              "FROM ratings GROUP BY gender", "val", {}});
  if (refreshed.ok()) {
    (void)refreshed->stats.refreshed;
    (void)svc.stats().refreshes;
  }
}

// The README "approximate first, exact soon" snippet, verbatim modulo the
// elided SQL text. Compiling it pins the Query mode knob and the
// provenance fields the README promises (approx.is_exact,
// approx.max_bound, confidence, approx.sample_fraction) plus Refine and
// the refinements counter. If this function stops building, fix README.md
// to match.
[[maybe_unused]] void ApproxFirstSnippetFromReadme() {
  service::QueryService svc;
  service::QueryOptions approx;
  approx.mode = service::QueryMode::kApproxFirst;  // answer now, refine soon
  auto fast = svc.Query({"SELECT gender, avg(rating) AS val "
                         "FROM ratings GROUP BY gender", "val", approx});
  if (fast.ok()) {
    // fast->approx.is_exact == false; bounds: fast->approx.max_bound at
    // fast->confidence, from a fast->approx.sample_fraction uniform sample.
    (void)fast->approx.is_exact;
    (void)fast->approx.max_bound;
    (void)fast->confidence;
    (void)fast->approx.sample_fraction;
    svc.Refine({fast->handle});  // blocks until the exact set is published
    // The handle now serves the exact set; svc.stats().refinements counts it.
    (void)svc.stats().refinements;
  }
}

// The README "Prefetch" snippet, verbatim modulo the elided SQL text.
// Compiling it pins the background-work surface the README promises
// (ServiceOptions::prefetch, DrainBackgroundWork, and the prefetch
// counters). If this function stops building, fix README.md to match.
[[maybe_unused]] void PrefetchSnippetFromReadme() {
  service::ServiceOptions options;
  options.prefetch = true;  // speculate on predicted next moves
  service::QueryService svc(options);
  svc.RegisterCsvFile("ratings", "ratings.csv");
  auto q = svc.Query({"SELECT gender, avg(rating) AS val "
                      "FROM ratings GROUP BY gender", "val", {}});
  // After every foreground move, the predicted next coverage levels are
  // built speculatively: a correct prediction turns the client's next
  // request into a warm lock-free read, bit-identical to building on demand.
  auto s = svc.Summarize({q->handle, {/*k=*/4, /*L=*/8, /*D=*/2}});
  svc.Guidance({q->handle, /*top_l=*/8, {}});
  svc.DrainBackgroundWork();  // quiesce before asserting (tests/benches)
  (void)svc.stats().prefetch_issued;
  (void)svc.stats().prefetch_hits;
  (void)s;
}

// The HTTP front end the README "Serve it over HTTP" section promises —
// the quickstart itself is shell (curl against qagview_server), so this
// pins the underlying C++ surface it is built on: server options, the
// server over a QueryService, and the open-loop load-generator contract.
// If this function stops building, fix README.md and DESIGN.md to match.
[[maybe_unused]] void ServeOverHttpSurfaceFromReadme() {
  service::QueryService svc;
  server::ServerOptions options;
  options.port = 0;        // ephemeral; qagview_server defaults to 8080
  options.num_workers = 4;
  options.max_queue = 64;  // full queue -> 503 + Retry-After at the door
  server::HttpServer http(&svc, options);
  if (http.Start().ok()) {
    server::LoadgenOptions load;
    load.port = http.port();
    load.rate = 200.0;  // open loop: request i due at start + i/rate
    load.total_requests = 0;
    server::LoadgenResults results =
        server::RunOpenLoop({{"GET", "/healthz", ""}}, load);
    (void)results.p99_ms;
    (void)results.http_503;
    http.Shutdown();  // graceful drain: admitted requests all finish
    (void)http.stats().served_2xx;
  }
}

TEST(BuildSmokeTest, OneTypePerLayer) {
  // common/ (pulled in transitively by every layer).
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  Result<int> res(42);
  EXPECT_EQ(*res, 42);

  // storage/
  storage::Table table{storage::Schema()};
  EXPECT_EQ(table.num_rows(), 0);

  // sql/
  sql::Catalog catalog;
  catalog.Register("t", &table);

  // datagen/
  datagen::MovieLensOptions gen_options;
  EXPECT_GT(gen_options.num_ratings, 0);

  // core/
  core::Params params;
  EXPECT_EQ(params.k, 4);
  EXPECT_EQ(params.L, 8);
  EXPECT_EQ(params.D, 2);

  // baselines/
  baselines::SmartDrilldownOptions drill_options;
  (void)drill_options;

  // service/
  service::QueryService svc;
  EXPECT_EQ(svc.stats().requests(), 0);
  EXPECT_TRUE(svc.dataset_names().empty());

  // server/
  server::ServerOptions server_options;
  EXPECT_EQ(server_options.bind_address, "127.0.0.1");
  EXPECT_TRUE(server::ToJson(service::RequestStats{}).is_object());

  // viz/
  viz::ParamGrid grid;
  (void)grid;

  // study/
  study::StudyConfig study_config;
  (void)study_config;
}

}  // namespace
}  // namespace qagview
