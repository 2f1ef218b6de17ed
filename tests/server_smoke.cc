// server_smoke: start an in-process HTTP server over a synthetic dataset,
// drive a short open-loop burst through the load generator, and hard-check
// the outcome. Deliberately small — the sanitizer CI step runs this binary
// (plus server_test) so the poller/worker/shutdown machinery gets a
// TSan/ASan pass on every change without a long soak.
//
// Not named *_test.cc on purpose: the tests/CMakeLists.txt glob builds
// gtest binaries; this is a plain main() registered explicitly.

#include <cstdio>

#include "common/logging.h"
#include "server/loadgen.h"
#include "server/serde.h"
#include "server/server.h"
#include "service/query_service.h"
#include "test_util.h"

int main() {
  using namespace qagview;

  service::QueryService service;
  QAG_CHECK_OK(service.RegisterTable("ratings",
                                     testutil::MakeRatingsTable(17, 1200)));

  server::ServerOptions options;
  options.num_workers = 3;
  server::HttpServer server(&service, options);
  QAG_CHECK_OK(server.Start());

  // Warm one session so the burst exercises the warm (cache-hit) path.
  service::QueryRequest query;
  query.sql =
      "SELECT g0, g1, g2, avg(rating) AS val FROM ratings "
      "GROUP BY g0, g1, g2 HAVING count(*) > 3 ORDER BY val DESC";
  query.value_column = "val";
  auto opened = service.Query(query);
  QAG_CHECK_OK(opened.status());

  service::ExploreRequest explore;
  explore.handle = opened->handle;
  explore.params = core::Params{4, 8, 2};
  QAG_CHECK_OK(service.Explore(explore).status());

  service::SummarizeRequest summarize;
  summarize.handle = opened->handle;
  summarize.params = core::Params{4, 8, 2};

  std::vector<server::LoadgenRequest> script;
  script.push_back({"POST", "/query", server::ToJson(query).Dump()});
  script.push_back({"POST", "/summarize", server::ToJson(summarize).Dump()});
  script.push_back({"POST", "/explore", server::ToJson(explore).Dump()});
  script.push_back({"GET", "/healthz", ""});

  server::LoadgenOptions load;
  load.port = server.port();
  load.rate = 120.0;
  load.total_requests = 60;
  load.num_threads = 4;
  server::LoadgenResults results = server::RunOpenLoop(script, load);

  QAG_CHECK(results.issued == 60) << "issued " << results.issued;
  QAG_CHECK(results.ok == 60)
      << "ok=" << results.ok << " 503=" << results.http_503
      << " 4xx=" << results.http_4xx << " 5xx=" << results.http_5xx
      << " transport=" << results.transport_errors;
  QAG_CHECK(results.max_ms >= results.p99_ms);

  server.Shutdown();
  const server::ServerStats stats = server.stats();
  QAG_CHECK(stats.admitted == stats.served_2xx + stats.client_errors_4xx +
                                  stats.server_errors_5xx + stats.io_errors)
      << "transport counters do not balance";

  std::printf("server_smoke OK: %lld requests, p50=%.2fms p99=%.2fms "
              "p999=%.2fms achieved=%.1f rps\n",
              static_cast<long long>(results.ok), results.p50_ms,
              results.p99_ms, results.p999_ms, results.achieved_rps);
  return 0;
}
