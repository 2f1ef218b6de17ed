// End-to-end coverage of the HTTP front end (server/server.h) over a
// loopback socket:
//
//  * bit-identity: every endpoint's payload equals the direct
//    QueryService struct call, doubles included (the serde round-trip
//    contract);
//  * a malformed-request corpus (truncated bodies, bad JSON, oversized
//    headers, hostile request lines) answered with 4xx/501 — the server
//    never crashes, mirroring csv_fuzz_test's posture;
//  * overload: a full admission queue sheds load with 503 + Retry-After
//    at the acceptor, and the server recovers once pressure lifts;
//  * graceful drain: Shutdown() finishes every admitted request — the
//    transport counters balance exactly and every 2xx the server counted
//    was fully received by a client.
//
// Runs under TSan and ASan+UBSan in CI (the sanitize job lists it
// explicitly), so the acceptor/worker handoff and the shutdown path are
// race-checked, not just functionally checked.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/string_util.h"
#include "server/loadgen.h"
#include "server/serde.h"
#include "server/server.h"
#include "service/query_service.h"
#include "test_util.h"

namespace qagview::server {
namespace {

using json::Json;

constexpr char kHost[] = "127.0.0.1";
constexpr char kSql[] =
    "SELECT g0, g1, g2, avg(rating) AS val FROM ratings "
    "GROUP BY g0, g1, g2 HAVING count(*) > 3 ORDER BY val DESC";

/// The response payload with its per-call provenance stripped: RequestStats
/// (latency, cache flags) legitimately differs between the direct call and
/// the HTTP call; everything else must round-trip bit-for-bit.
template <typename Response>
std::string Fingerprint(Response response) {
  response.stats = service::RequestStats();
  return ToJson(response).Dump();
}

Json MustParse(const std::string& text) {
  Result<Json> doc = Json::Parse(text);
  QAG_CHECK_OK(doc.status());
  return *doc;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<service::QueryService>();
    QAG_CHECK_OK(service_->RegisterTable(
        "ratings", testutil::MakeRatingsTable(71, 1500)));
    ServerOptions options;
    options.num_workers = 3;
    server_ = std::make_unique<HttpServer>(service_.get(), options);
    QAG_CHECK_OK(server_->Start());
  }

  void TearDown() override { server_->Shutdown(); }

  Result<HttpClientResponse> Post(const std::string& target,
                                  const Json& body) {
    return HttpFetch(kHost, server_->port(), "POST", target, body.Dump());
  }

  Result<HttpClientResponse> Get(const std::string& target) {
    return HttpFetch(kHost, server_->port(), "GET", target, "");
  }

  service::QueryHandle OpenHandle() {
    service::QueryRequest request;
    request.sql = kSql;
    request.value_column = "val";
    Result<service::QueryResponse> response = service_->Query(request);
    QAG_CHECK_OK(response.status());
    return response->handle;
  }

  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(ServerTest, QueryIsBitIdenticalToDirectCall) {
  service::QueryRequest request;
  request.sql = kSql;
  request.value_column = "val";

  Result<service::QueryResponse> direct = service_->Query(request);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  Result<HttpClientResponse> http = Post("/query", ToJson(request));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  ASSERT_EQ(http->status, 200) << http->body;
  Result<service::QueryResponse> parsed =
      QueryResponseFromJson(MustParse(http->body));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(Fingerprint(*direct), Fingerprint(*parsed));
  EXPECT_EQ(parsed->handle, direct->handle);  // same cached session
  // The HTTP repeat of an identical query was a session cache hit.
  EXPECT_TRUE(parsed->stats.cache_hit);
}

TEST_F(ServerTest, SummarizeIsBitIdenticalToDirectCall) {
  service::SummarizeRequest request;
  request.handle = OpenHandle();
  request.params = core::Params{4, 8, 2};

  Result<service::SummarizeResponse> direct = service_->Summarize(request);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  Result<HttpClientResponse> http = Post("/summarize", ToJson(request));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  ASSERT_EQ(http->status, 200) << http->body;
  Result<service::SummarizeResponse> parsed =
      SummarizeResponseFromJson(MustParse(http->body));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  // Doubles included: covered_sum/average must survive JSON exactly.
  EXPECT_EQ(Fingerprint(*direct), Fingerprint(*parsed));
}

TEST_F(ServerTest, GuidanceAndRetrieveAreBitIdenticalToDirectCalls) {
  service::GuidanceRequest guidance;
  guidance.handle = OpenHandle();
  guidance.top_l = 10;

  Result<service::GuidanceResponse> direct = service_->Guidance(guidance);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  Result<HttpClientResponse> http = Post("/guidance", ToJson(guidance));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  ASSERT_EQ(http->status, 200) << http->body;
  Result<service::GuidanceResponse> parsed =
      GuidanceResponseFromJson(MustParse(http->body));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(Fingerprint(*direct), Fingerprint(*parsed));
  ASSERT_FALSE(parsed->min_ks.empty());

  service::RetrieveRequest retrieve;
  retrieve.handle = guidance.handle;
  retrieve.top_l = 10;
  retrieve.d = parsed->d_values.front();
  retrieve.k = parsed->min_ks.front();

  Result<service::RetrieveResponse> direct_solution =
      service_->Retrieve(retrieve);
  ASSERT_TRUE(direct_solution.ok()) << direct_solution.status().ToString();
  Result<HttpClientResponse> http_solution =
      Post("/retrieve", ToJson(retrieve));
  ASSERT_TRUE(http_solution.ok()) << http_solution.status().ToString();
  ASSERT_EQ(http_solution->status, 200) << http_solution->body;
  Result<service::RetrieveResponse> parsed_solution =
      RetrieveResponseFromJson(MustParse(http_solution->body));
  ASSERT_TRUE(parsed_solution.ok()) << parsed_solution.status().ToString();
  EXPECT_EQ(Fingerprint(*direct_solution), Fingerprint(*parsed_solution));
}

TEST_F(ServerTest, ExploreAndRefineAreBitIdenticalToDirectCalls) {
  service::ExploreRequest explore;
  explore.handle = OpenHandle();
  explore.params = core::Params{4, 8, 2};
  explore.max_members = 5;

  Result<service::ExploreResponse> direct = service_->Explore(explore);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  Result<HttpClientResponse> http = Post("/explore", ToJson(explore));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  ASSERT_EQ(http->status, 200) << http->body;
  Result<service::ExploreResponse> parsed =
      ExploreResponseFromJson(MustParse(http->body));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Both rendered display layers travel intact (multi-line strings with
  // escapes are the JSON writer's hardest case).
  EXPECT_EQ(Fingerprint(*direct), Fingerprint(*parsed));
  EXPECT_EQ(parsed->summary, direct->summary);
  EXPECT_EQ(parsed->expanded, direct->expanded);

  service::RefineRequest refine;
  refine.handle = explore.handle;
  Result<service::RefineResponse> direct_refine = service_->Refine(refine);
  ASSERT_TRUE(direct_refine.ok()) << direct_refine.status().ToString();
  Result<HttpClientResponse> http_refine = Post("/refine", ToJson(refine));
  ASSERT_TRUE(http_refine.ok()) << http_refine.status().ToString();
  ASSERT_EQ(http_refine->status, 200) << http_refine->body;
  Result<service::RefineResponse> parsed_refine =
      RefineResponseFromJson(MustParse(http_refine->body));
  ASSERT_TRUE(parsed_refine.ok()) << parsed_refine.status().ToString();
  EXPECT_EQ(Fingerprint(*direct_refine), Fingerprint(*parsed_refine));
  EXPECT_TRUE(parsed_refine->approx.is_exact);
}

TEST_F(ServerTest, AppendRowsPublishesNewVersionAndRefreshesHandles) {
  service::QueryHandle handle = OpenHandle();
  const uint64_t before = service_->catalog_version();

  service::AppendRowsRequest append;
  append.dataset = "ratings";
  append.rows.push_back({storage::Value::Str("g0v0"),
                         storage::Value::Str("g1v0"),
                         storage::Value::Str("g2v0"),
                         storage::Value::Str("g3v0"),
                         storage::Value::Real(4.75)});

  Result<HttpClientResponse> http = Post("/append_rows", ToJson(append));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  ASSERT_EQ(http->status, 200) << http->body;
  Result<service::AppendRowsResponse> parsed =
      AppendRowsResponseFromJson(MustParse(http->body));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->version, before + 1);
  EXPECT_EQ(service_->catalog_version(), before + 1);

  // The next use of the handle over HTTP refreshes transparently.
  service::SummarizeRequest summarize;
  summarize.handle = handle;
  summarize.params = core::Params{4, 8, 2};
  Result<HttpClientResponse> warm = Post("/summarize", ToJson(summarize));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->status, 200) << warm->body;
}

TEST_F(ServerTest, StatsAndHealthzEndpoints) {
  Result<HttpClientResponse> health = Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");

  OpenHandle();
  Result<HttpClientResponse> http = Get("/stats");
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  ASSERT_EQ(http->status, 200);
  Json doc = MustParse(http->body);
  const Json* svc = doc.Find("service");
  ASSERT_NE(svc, nullptr);
  Result<service::ServiceStats> stats = ServiceStatsFromJson(*svc);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->queries, 1);
  const Json* transport = doc.Find("server");
  ASSERT_NE(transport, nullptr);
  ASSERT_NE(transport->Find("served_2xx"), nullptr);
  EXPECT_GE(transport->Find("accepted")->AsInt(), 1);
}

TEST_F(ServerTest, ServiceErrorsMapToHttpStatuses) {
  // Unknown handle → NotFound → 404.
  service::SummarizeRequest bad_handle;
  bad_handle.handle = 9999;
  bad_handle.params = core::Params{4, 8, 1};
  Result<HttpClientResponse> http = Post("/summarize", ToJson(bad_handle));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  EXPECT_EQ(http->status, 404);
  Json error = MustParse(http->body);
  ASSERT_NE(error.Find("error"), nullptr);
  EXPECT_EQ(error.Find("error")->Find("code")->AsString(), "NotFound");

  // Bad SQL → 400 with the error envelope.
  service::QueryRequest bad_sql;
  bad_sql.sql = "SELECT FROM WHERE";
  bad_sql.value_column = "val";
  http = Post("/query", ToJson(bad_sql));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  EXPECT_EQ(http->status, 400) << http->body;

  // Unknown endpoint → 404; wrong method → 405.
  http = Post("/no_such_endpoint", Json::Object());
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  EXPECT_EQ(http->status, 404);
  http = Get("/query");
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  EXPECT_EQ(http->status, 405);
}

TEST_F(ServerTest, IllTypedAggregateIs400AndServerStaysUp) {
  // SUM over a string column used to abort the whole process.
  service::QueryRequest request;
  request.sql = "SELECT g0, sum(g1) AS val FROM ratings GROUP BY g0";
  request.value_column = "val";
  Result<HttpClientResponse> http = Post("/query", ToJson(request));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  EXPECT_EQ(http->status, 400) << http->body;
  Json error = MustParse(http->body);
  ASSERT_NE(error.Find("error"), nullptr);
  EXPECT_EQ(error.Find("error")->Find("code")->AsString(), "InvalidArgument");

  Result<HttpClientResponse> health = Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
}

TEST_F(ServerTest, IllTypedWhereIs400AndServerStaysUp) {
  // A string column compared with a number used to abort the whole process
  // at the first evaluated row.
  service::QueryRequest request;
  request.sql =
      "SELECT g0, sum(rating) AS val FROM ratings WHERE g1 > 1 GROUP BY g0";
  request.value_column = "val";
  Result<HttpClientResponse> http = Post("/query", ToJson(request));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  EXPECT_EQ(http->status, 400) << http->body;
  Json error = MustParse(http->body);
  ASSERT_NE(error.Find("error"), nullptr);
  EXPECT_EQ(error.Find("error")->Find("code")->AsString(), "InvalidArgument");

  Result<HttpClientResponse> health = Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
}

TEST_F(ServerTest, IntegerWiderThan32BitsIs400AndServerStaysUp) {
  // k = 2^32 + 4 used to be truncated to k = 4 and served (as a cache hit)
  // as a different request.
  const std::string body = StrCat(R"({"handle":)", OpenHandle(),
                                  R"(,"params":{"k":4294967300,"L":8,"D":1}})");
  Result<HttpClientResponse> http = Post("/summarize", MustParse(body));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  EXPECT_EQ(http->status, 400) << http->body;
  Json error = MustParse(http->body);
  ASSERT_NE(error.Find("error"), nullptr);
  EXPECT_EQ(error.Find("error")->Find("code")->AsString(), "InvalidArgument");
  EXPECT_NE(error.Find("error")->Find("message")->AsString().find("\"k\""),
            std::string::npos)
      << http->body;

  Result<HttpClientResponse> health = Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
}

TEST_F(ServerTest, MalformedRequestCorpusNeverCrashesTheServer) {
  struct RawCase {
    std::string raw;
    int expected_status;
  };
  auto with_body = [](const std::string& head, const std::string& body) {
    return StrCat(head, "Content-Length: ", body.size(), "\r\n\r\n", body);
  };
  const std::string post = "POST /query HTTP/1.1\r\n";
  const std::vector<RawCase> corpus = {
      {"\r\n\r\n", 400},                          // empty request line
      {"GET\r\n\r\n", 400},                       // no target/version
      {"GET /\r\n\r\n", 400},                     // no version
      {"GET / HTTP/2\r\n\r\n", 400},              // unsupported version
      {"get / HTTP/1.1\r\n\r\n", 400},            // lowercase method
      {"G@T / HTTP/1.1\r\n\r\n", 400},            // junk method bytes
      {"GET  / HTTP/1.1\r\n\r\n", 400},           // double space
      {"GET / HTTP/1.1\r\nNoColon\r\n\r\n", 400},   // header missing ':'
      {"GET / HTTP/1.1\r\n: anonymous\r\n\r\n", 400},  // empty header name
      {post + "\r\n", 411},                       // POST, no Content-Length
      {post + "Content-Length: -5\r\n\r\n", 400},
      {post + "Content-Length: kilobyte\r\n\r\n", 400},
      {post + "Content-Length: 9999999\r\n\r\n", 413},  // > max_body_bytes
      {post + "Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 501},
      {post + "Content-Length: 64\r\n\r\n{\"truncated\":", 400},  // short body
      {post + "Content-Length: 2\r\n\r\n{}{}", 400},  // bytes beyond length
      {with_body(post, "not json at all"), 400},
      {with_body(post, "{}"), 400},                  // missing fields
      {with_body(post, "[1,2,3]"), 400},             // wrong root type
      {with_body(post, "{\"sql\":7,\"value_column\":\"v\"}"), 400},
      {with_body(post, std::string(64, '[')), 400},  // deep-nesting bomb
      {StrCat("GET /healthz HTTP/1.1\r\nX-Pad: ", std::string(20000, 'a'),
              "\r\n\r\n"),
       431},
  };

  for (const RawCase& test_case : corpus) {
    Result<std::string> response =
        HttpExchangeRaw(kHost, server_->port(), test_case.raw);
    ASSERT_TRUE(response.ok())
        << response.status().ToString() << " for: " << test_case.raw;
    const std::string expected_prefix =
        StrCat("HTTP/1.1 ", test_case.expected_status, " ");
    EXPECT_EQ(response->substr(0, expected_prefix.size()), expected_prefix)
        << "request: " << test_case.raw << "\nresponse: " << *response;
  }

  // A peer that connects and says nothing is dropped without a response...
  Result<std::string> silent =
      HttpExchangeRaw(kHost, server_->port(), "");
  ASSERT_TRUE(silent.ok()) << silent.status().ToString();
  EXPECT_TRUE(silent->empty());

  // ... and after the whole corpus the server still serves normally.
  Result<HttpClientResponse> alive = Get("/healthz");
  ASSERT_TRUE(alive.ok()) << alive.status().ToString();
  EXPECT_EQ(alive->status, 200);
  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.served_2xx + stats.client_errors_4xx +
                stats.server_errors_5xx + stats.io_errors,
            stats.admitted);
}

/// Raw connection that connects and deliberately sends nothing — pins a
/// worker (or a queue slot) until the server's read timeout.
int ConnectAndStall(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  QAG_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  QAG_CHECK(::inet_pton(AF_INET, kHost, &addr.sin_addr) == 1);
  QAG_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  return fd;
}

TEST(ServerOverloadTest, FullQueueSheds503WithRetryAfterAndRecovers) {
  service::QueryService service;
  QAG_CHECK_OK(service.RegisterTable("ratings",
                                     testutil::MakeRatingsTable(9, 400)));
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.retry_after_seconds = 7;
  options.limits.io_timeout_ms = 2000;
  HttpServer server(&service, options);
  QAG_CHECK_OK(server.Start());

  // Stalled connections until two are *admitted*: with one worker and one
  // queue slot, two simultaneously admitted connections mean the worker is
  // pinned and the queue is full (a stall the acceptor sheds instead does
  // not pin anything, so keep adding).
  std::vector<int> stalls;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stats().admitted < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    stalls.push_back(ConnectAndStall(server.port()));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(server.stats().admitted, 2);

  // Probe until admission control sheds one at the door. Probes that slip
  // into a freed queue slot are eventually served — also fine; the queue
  // stays bounded either way.
  bool saw_503 = false;
  std::string retry_after;
  for (int i = 0; i < 50 && !saw_503; ++i) {
    Result<HttpClientResponse> probe =
        HttpFetch(kHost, server.port(), "GET", "/healthz", "");
    if (!probe.ok()) continue;
    if (probe->status == 503) {
      saw_503 = true;
      const std::string* header = probe->FindHeader("Retry-After");
      if (header != nullptr) retry_after = *header;
    }
  }
  EXPECT_TRUE(saw_503);
  EXPECT_EQ(retry_after, "7");
  EXPECT_GE(server.stats().rejected_503, 1);

  // Lift the pressure: the stalled peers hang up, and the server recovers
  // without a restart.
  for (int fd : stalls) ::close(fd);
  bool recovered = false;
  while (!recovered && std::chrono::steady_clock::now() < deadline) {
    Result<HttpClientResponse> probe =
        HttpFetch(kHost, server.port(), "GET", "/healthz", "");
    recovered = probe.ok() && probe->status == 200;
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(recovered);
  server.Shutdown();
}

TEST(ServerDrainTest, ShutdownFinishesEveryAdmittedRequest) {
  service::QueryService service;
  QAG_CHECK_OK(service.RegisterTable("ratings",
                                     testutil::MakeRatingsTable(5, 1200)));
  ServerOptions options;
  options.num_workers = 2;
  HttpServer server(&service, options);
  QAG_CHECK_OK(server.Start());
  const int port = server.port();

  service::QueryRequest query;
  query.sql = kSql;
  query.value_column = "val";
  Result<service::QueryResponse> opened = service.Query(query);
  QAG_CHECK_OK(opened.status());

  service::SummarizeRequest summarize;
  summarize.handle = opened->handle;
  summarize.params = core::Params{4, 8, 2};
  const std::string body = ToJson(summarize).Dump();

  // A swarm of clients races a shutdown that begins mid-burst. Admitted
  // requests must all complete; connections the drain refuses are allowed
  // to fail at the transport level — but never with a torn response.
  constexpr int kClients = 12;
  std::atomic<int> client_2xx{0};
  std::atomic<int> transport_failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      Result<HttpClientResponse> response =
          HttpFetch(kHost, port, "POST", "/summarize", body);
      if (!response.ok()) {
        transport_failures.fetch_add(1);
      } else if (response->status == 200) {
        client_2xx.fetch_add(1);
      }
    });
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.stats().admitted < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Shutdown();
  for (std::thread& client : clients) client.join();

  const ServerStats stats = server.stats();
  // Zero-drop: every admitted connection was answered (exactly one
  // response-class counter each), and every 2xx the server recorded was
  // fully received by a client (HttpFetch validates Content-Length).
  EXPECT_EQ(stats.admitted, stats.served_2xx + stats.client_errors_4xx +
                                stats.server_errors_5xx + stats.io_errors);
  EXPECT_EQ(stats.client_errors_4xx, 0);
  EXPECT_EQ(stats.server_errors_5xx, 0);
  EXPECT_EQ(client_2xx.load(), stats.served_2xx);
  EXPECT_GE(stats.served_2xx, 4);
  EXPECT_EQ(client_2xx.load() + transport_failures.load(), kClients);
}

TEST(ServerLoadgenTest, OpenLoopBurstOverLoopbackAllSucceeds) {
  service::QueryService service;
  QAG_CHECK_OK(service.RegisterTable("ratings",
                                     testutil::MakeRatingsTable(3, 1200)));
  ServerOptions options;
  options.num_workers = 3;
  HttpServer server(&service, options);
  QAG_CHECK_OK(server.Start());

  // Warm the session + universe once so the burst measures the warm path.
  service::QueryRequest query;
  query.sql = kSql;
  query.value_column = "val";
  Result<service::QueryResponse> opened = service.Query(query);
  QAG_CHECK_OK(opened.status());
  service::ExploreRequest explore;
  explore.handle = opened->handle;
  explore.params = core::Params{4, 8, 2};
  QAG_CHECK_OK(service.Explore(explore).status());

  service::SummarizeRequest summarize;
  summarize.handle = opened->handle;
  summarize.params = core::Params{4, 8, 2};

  std::vector<LoadgenRequest> script;
  script.push_back({"POST", "/query", ToJson(query).Dump()});
  script.push_back({"POST", "/summarize", ToJson(summarize).Dump()});
  script.push_back({"POST", "/explore", ToJson(explore).Dump()});
  script.push_back({"GET", "/stats", ""});

  LoadgenOptions load;
  load.port = server.port();
  load.rate = 150.0;
  load.total_requests = 90;
  load.num_threads = 4;
  LoadgenResults results = RunOpenLoop(script, load);

  EXPECT_EQ(results.issued, 90);
  EXPECT_EQ(results.ok, 90);
  EXPECT_EQ(results.transport_errors, 0);
  EXPECT_EQ(results.http_503, 0);
  EXPECT_GT(results.achieved_rps, 0.0);
  EXPECT_GT(results.p50_ms, 0.0);
  EXPECT_LE(results.p50_ms, results.p99_ms);
  EXPECT_LE(results.p99_ms, results.p999_ms);
  EXPECT_LE(results.p999_ms, results.max_ms);
  server.Shutdown();
}

}  // namespace
}  // namespace qagview::server
