// End-to-end coverage of the HTTP front end (server/server.h) over a
// loopback socket:
//
//  * bit-identity: every endpoint's payload equals the direct
//    QueryService struct call, doubles included (the serde round-trip
//    contract);
//  * a malformed-request corpus (truncated bodies, bad JSON, oversized
//    headers, hostile request lines) answered with 4xx/501 — the server
//    never crashes, mirroring csv_fuzz_test's posture;
//  * persistent connections: many requests on one connection, pipelined
//    requests answered in order, `Connection: close` and HTTP/1.0
//    honoured, idle connections holding no worker and closed after the
//    I/O timeout;
//  * overload: a full admission queue sheds requests with 503 +
//    Retry-After at the door, and the server recovers once pressure lifts;
//    an accept() that fails for want of descriptors is retried, not fatal;
//  * graceful drain: Shutdown() finishes every admitted request — the
//    transport counters balance exactly per request and every 2xx the
//    server counted was fully received by a client, with one-shot and
//    kept-alive clients alike.
//
// Runs under TSan and ASan+UBSan in CI (the sanitize job lists it
// explicitly), so the poller/worker handoff and the shutdown path are
// race-checked, not just functionally checked.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
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

TEST_F(ServerTest, BudgetsPastIntMaxAre200AndServerStaysUp) {
  // The Fixed-Order budget c·k (and c·k_max for a grid) used to overflow
  // int: a huge k was served with a wrapped budget, a huge c was refused.
  const service::QueryHandle handle = OpenHandle();
  service::SummarizeRequest at_l;
  at_l.handle = handle;
  at_l.params = {8, 8, 1};
  Result<service::SummarizeResponse> expected = service_->Summarize(at_l);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  service::SummarizeRequest summarize = at_l;
  summarize.params.k = 1500000000;
  service::ExploreRequest explore;
  explore.handle = handle;
  explore.params = summarize.params;
  service::GuidanceRequest huge_c;
  huge_c.handle = handle;
  huge_c.top_l = 8;
  huge_c.options.c = std::numeric_limits<int>::max();
  service::GuidanceRequest huge_k_max = huge_c;
  huge_k_max.options.c = 3;
  huge_k_max.options.k_max = std::numeric_limits<int>::max();

  Result<HttpClientResponse> http = Post("/summarize", ToJson(summarize));
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  ASSERT_EQ(http->status, 200) << http->body;
  Result<service::SummarizeResponse> parsed =
      SummarizeResponseFromJson(MustParse(http->body));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->solution.cluster_ids, expected->solution.cluster_ids);

  for (const auto& [target, body] :
       {std::pair<std::string, Json>{"/explore", ToJson(explore)},
        {"/guidance", ToJson(huge_c)},
        {"/guidance", ToJson(huge_k_max)}}) {
    http = Post(target, body);
    ASSERT_TRUE(http.ok()) << http.status().ToString();
    EXPECT_EQ(http->status, 200) << target << ": " << http->body;
  }

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
      // Bytes beyond the length are a pipelined second request, itself
      // malformed; the first response is the first request's.
      {post + "Content-Length: 2\r\n\r\n{}{}", 400},
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

/// A raw loopback connection to the server, with 5 s socket timeouts.
int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  QAG_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  QAG_CHECK(::inet_pton(AF_INET, kHost, &addr.sin_addr) == 1);
  QAG_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  SetSocketTimeouts(fd, 5000);
  return fd;
}

/// Raw connection that sends a partial request line and stalls: the
/// request is admitted, then pins a worker (or a queue slot) until the
/// server's read timeout. (A connection that sends nothing is not a
/// request and pins nothing.)
int ConnectAndStall(int port) {
  int fd = Connect(port);
  QAG_CHECK(WriteFull(fd, "GET /healthz HT"));
  return fd;
}

/// Whether the server closed `fd` with nothing more to say: the next read
/// sees end of stream.
bool ClosedByServer(int fd) {
  char byte;
  return ::recv(fd, &byte, 1, 0) == 0;
}

std::string RawRequest(const std::string& method, const std::string& target,
                       const std::string& body,
                       const std::string& version = "HTTP/1.1",
                       const std::string& extra_headers = "") {
  std::string raw = StrCat(method, " ", target, " ", version, "\r\n",
                           "Host: ", kHost, "\r\n", extra_headers);
  if (method == "POST") raw += StrCat("Content-Length: ", body.size(), "\r\n");
  return StrCat(raw, "\r\n", body);
}

/// One response as a kept-alive client sees it.
struct KeptAliveResponse {
  int status = 0;
  bool close = false;  // carried `Connection: close`
  std::string body;
};

/// A client that keeps one connection open across requests, the way a
/// browser does: it reads exactly one response per request, by its
/// Content-Length, and keeps later bytes for the next read.
class KeptAliveClient {
 public:
  explicit KeptAliveClient(int port) : fd_(Connect(port)) {}
  ~KeptAliveClient() { ::close(fd_); }
  KeptAliveClient(const KeptAliveClient&) = delete;
  KeptAliveClient& operator=(const KeptAliveClient&) = delete;

  int fd() const { return fd_; }
  bool Send(const std::string& raw) { return WriteFull(fd_, raw); }

  Result<KeptAliveResponse> Read() {
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      QAG_RETURN_IF_ERROR(Fill());
    }
    KeptAliveResponse response;
    const std::string_view head(buffer_.data(), header_end);
    if (head.substr(0, 9) != "HTTP/1.1 ") {
      return Status::ParseError("malformed status line");
    }
    QAG_ASSIGN_OR_RETURN(int64_t status, ParseInt64(head.substr(9, 3)));
    response.status = static_cast<int>(status);
    int64_t content_length = -1;
    for (const std::string& text : Split(head, '\n')) {
      const std::string_view line = text;
      const size_t colon = line.find(':');
      if (colon == std::string_view::npos) continue;
      const std::string_view name = StripWhitespace(line.substr(0, colon));
      const std::string_view value = StripWhitespace(line.substr(colon + 1));
      if (EqualsIgnoreCase(name, "Content-Length")) {
        QAG_ASSIGN_OR_RETURN(content_length, ParseInt64(value));
      } else if (EqualsIgnoreCase(name, "Connection")) {
        response.close = EqualsIgnoreCase(value, "close");
      }
    }
    if (content_length < 0) return Status::ParseError("no Content-Length");
    const size_t end = header_end + 4 + static_cast<size_t>(content_length);
    while (buffer_.size() < end) QAG_RETURN_IF_ERROR(Fill());
    response.body = buffer_.substr(header_end + 4, end - header_end - 4);
    buffer_.erase(0, end);
    return response;
  }

 private:
  Status Fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return Status::IOError("server closed the connection");
    if (n < 0) return Status::IOError(std::strerror(errno));
    buffer_.append(chunk, static_cast<size_t>(n));
    return Status::OK();
  }

  const int fd_;
  std::string buffer_;
};

class ServerKeepAliveTest : public ServerTest {
 protected:
  /// Replaces the fixture's server with one started with `options`.
  void RestartServer(const ServerOptions& options) {
    server_->Shutdown();
    server_ = std::make_unique<HttpServer>(service_.get(), options);
    QAG_CHECK_OK(server_->Start());
  }

  service::SummarizeRequest SummarizeAt(int i) {
    service::SummarizeRequest request;
    request.handle = handle_;
    request.params = core::Params{1 + i % 8, 8, 1 + i % 2};
    return request;
  }

  void SetUp() override {
    ServerTest::SetUp();
    handle_ = OpenHandle();
  }

  service::QueryHandle handle_ = 0;
};

TEST_F(ServerKeepAliveTest, FiftyRequestsShareOneConnection) {
  const ServerStats before = server_->stats();
  KeptAliveClient client(server_->port());
  for (int i = 0; i < 50; ++i) {
    if (i % 5 == 4) {
      service::ExploreRequest explore;
      explore.handle = handle_;
      explore.params = SummarizeAt(i).params;
      explore.max_members = 5;
      Result<service::ExploreResponse> direct = service_->Explore(explore);
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      ASSERT_TRUE(client.Send(
          RawRequest("POST", "/explore", ToJson(explore).Dump())));
      Result<KeptAliveResponse> http = client.Read();
      ASSERT_TRUE(http.ok()) << "request " << i << ": "
                             << http.status().ToString();
      ASSERT_EQ(http->status, 200) << http->body;
      EXPECT_FALSE(http->close);
      Result<service::ExploreResponse> parsed =
          ExploreResponseFromJson(MustParse(http->body));
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      EXPECT_EQ(Fingerprint(*direct), Fingerprint(*parsed)) << "request " << i;
      continue;
    }
    const service::SummarizeRequest summarize = SummarizeAt(i);
    Result<service::SummarizeResponse> direct = service_->Summarize(summarize);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ASSERT_TRUE(client.Send(
        RawRequest("POST", "/summarize", ToJson(summarize).Dump())));
    Result<KeptAliveResponse> http = client.Read();
    ASSERT_TRUE(http.ok()) << "request " << i << ": "
                           << http.status().ToString();
    ASSERT_EQ(http->status, 200) << http->body;
    EXPECT_FALSE(http->close);
    Result<service::SummarizeResponse> parsed =
        SummarizeResponseFromJson(MustParse(http->body));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(Fingerprint(*direct), Fingerprint(*parsed)) << "request " << i;
  }
  const ServerStats after = server_->stats();
  EXPECT_EQ(after.accepted - before.accepted, 1);
  EXPECT_EQ(after.admitted - before.admitted, 50);
  EXPECT_EQ(after.served_2xx - before.served_2xx, 50);
}

TEST_F(ServerKeepAliveTest, PipelinedRequestsAreAnsweredInOrder) {
  const service::SummarizeRequest first = SummarizeAt(3);
  const service::SummarizeRequest second = SummarizeAt(6);
  Result<service::SummarizeResponse> direct_first = service_->Summarize(first);
  Result<service::SummarizeResponse> direct_second =
      service_->Summarize(second);
  ASSERT_TRUE(direct_first.ok() && direct_second.ok());
  ASSERT_NE(Fingerprint(*direct_first), Fingerprint(*direct_second));

  KeptAliveClient client(server_->port());
  // Both requests and a third, GET, in one write.
  ASSERT_TRUE(client.Send(
      RawRequest("POST", "/summarize", ToJson(first).Dump()) +
      RawRequest("POST", "/summarize", ToJson(second).Dump()) +
      RawRequest("GET", "/stats", "")));
  for (const service::SummarizeResponse* expected :
       {&*direct_first, &*direct_second}) {
    Result<KeptAliveResponse> http = client.Read();
    ASSERT_TRUE(http.ok()) << http.status().ToString();
    ASSERT_EQ(http->status, 200) << http->body;
    Result<service::SummarizeResponse> parsed =
        SummarizeResponseFromJson(MustParse(http->body));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(Fingerprint(*expected), Fingerprint(*parsed));
  }
  Result<KeptAliveResponse> stats = client.Read();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status, 200);
  EXPECT_NE(MustParse(stats->body).Find("server"), nullptr);
  EXPECT_FALSE(stats->close);
}

TEST_F(ServerKeepAliveTest, ConnectionCloseAndHttp10CloseAfterOneResponse) {
  const std::string health = RawRequest("GET", "/healthz", "");
  for (const std::string& once :
       {RawRequest("GET", "/stats", "", "HTTP/1.1", "Connection: close\r\n"),
        RawRequest("GET", "/stats", "", "HTTP/1.1",
                   "Connection: keep-alive, Close\r\n"),
        RawRequest("GET", "/stats", "", "HTTP/1.0")}) {
    KeptAliveClient client(server_->port());
    // A request pipelined behind the closing one is never answered.
    ASSERT_TRUE(client.Send(once + health));
    Result<KeptAliveResponse> http = client.Read();
    ASSERT_TRUE(http.ok()) << http.status().ToString() << " for " << once;
    EXPECT_EQ(http->status, 200);
    EXPECT_TRUE(http->close) << once;
    EXPECT_TRUE(ClosedByServer(client.fd())) << once;
  }
  // A request that cannot be read closes the connection too.
  KeptAliveClient client(server_->port());
  ASSERT_TRUE(client.Send("GET / HTTP/1.1\r\nNoColon\r\n\r\n" + health));
  Result<KeptAliveResponse> http = client.Read();
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  EXPECT_EQ(http->status, 400);
  EXPECT_TRUE(http->close);
  EXPECT_TRUE(ClosedByServer(client.fd()));
}

TEST_F(ServerKeepAliveTest, HealthProbeClosesItsConnection) {
  // A connection kept alive by an earlier request still closes after a
  // health probe, so every probe connects anew and checks the accept path.
  const ServerStats before = server_->stats();
  KeptAliveClient client(server_->port());
  ASSERT_TRUE(client.Send(RawRequest("GET", "/stats", "")));
  Result<KeptAliveResponse> stats = client.Read();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->close);
  ASSERT_TRUE(client.Send(RawRequest("GET", "/healthz", "")));
  Result<KeptAliveResponse> health = client.Read();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");
  EXPECT_TRUE(health->close);
  EXPECT_TRUE(ClosedByServer(client.fd()));
  const ServerStats after = server_->stats();
  EXPECT_EQ(after.accepted - before.accepted, 1);
  EXPECT_EQ(after.admitted - before.admitted, 2);
  EXPECT_EQ(after.served_2xx - before.served_2xx, 2);
}

TEST_F(ServerKeepAliveTest, IdleConnectionsHoldNoWorker) {
  ServerOptions options;
  options.num_workers = 1;
  RestartServer(options);
  const std::string stats = RawRequest("GET", "/stats", "");

  // One kept-alive connection that has been served and sits idle, and one
  // that never sends anything.
  KeptAliveClient idle(server_->port());
  ASSERT_TRUE(idle.Send(stats));
  Result<KeptAliveResponse> first = idle.Read();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->status, 200);
  const int silent = Connect(server_->port());

  // Another client is served at once, not after the idle connections time
  // out (5 s).
  const auto start = std::chrono::steady_clock::now();
  Result<HttpClientResponse> other = Get("/healthz");
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_EQ(other->status, 200);
  EXPECT_LT(elapsed_ms, 2500.0);

  // The idle connection still serves its next request.
  ASSERT_TRUE(idle.Send(stats));
  Result<KeptAliveResponse> second = idle.Read();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->status, 200);
  ::close(silent);
}

TEST_F(ServerKeepAliveTest, IdleConnectionIsClosedAfterIoTimeout) {
  ServerOptions options;
  options.limits.io_timeout_ms = 300;
  RestartServer(options);

  KeptAliveClient client(server_->port());
  ASSERT_TRUE(client.Send(RawRequest("GET", "/stats", "")));
  Result<KeptAliveResponse> http = client.Read();
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  ASSERT_EQ(http->status, 200);
  const int silent = Connect(server_->port());

  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(ClosedByServer(client.fd()));
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_GE(elapsed_ms, 250.0);
  EXPECT_LT(elapsed_ms, 4000.0);
  EXPECT_TRUE(ClosedByServer(silent));
  ::close(silent);

  // Closing an idle connection answers no request and counts none.
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.accepted, 2);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.served_2xx, 1);
  EXPECT_EQ(stats.io_errors, 0);
}

TEST(ServerOptionsTest, QueueBelowOneIsRejected) {
  // A queue of 0 used to start and then answer every request with 503.
  service::QueryService service;
  for (int max_queue : {0, -1}) {
    ServerOptions options;
    options.max_queue = max_queue;
    HttpServer server(&service, options);
    Status status = server.Start();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "max_queue " << max_queue << ": " << status.ToString();
    EXPECT_EQ(server.port(), 0) << "max_queue " << max_queue;
  }
  ServerOptions one;
  one.max_queue = 1;
  HttpServer server(&service, one);
  ASSERT_TRUE(server.Start().ok());
  Result<HttpClientResponse> health =
      HttpFetch(kHost, server.port(), "GET", "/healthz", "");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  server.Shutdown();
}

TEST(ServerOptionsTest, PortOutsideSixteenBitsIsRejectedNotTruncated) {
  // Start must refuse, not truncate: a uint16_t cast would bind 70000 as
  // 4464 and -1 as 65535.
  service::QueryService service;
  for (int port : {-1, 65536, 70000}) {
    ServerOptions options;
    options.port = port;
    HttpServer server(&service, options);
    Status status = server.Start();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "port " << port << ": " << status.ToString();
    EXPECT_EQ(server.port(), 0) << "port " << port << " must not bind";
  }
  ServerOptions ephemeral;
  ephemeral.port = 0;
  HttpServer server(&service, ephemeral);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  server.Shutdown();
}

TEST(ServerOverloadTest, FullQueueSheds503WithRetryAfterAndRecovers) {
  service::QueryService service;
  QAG_CHECK_OK(service.RegisterTable("ratings",
                                     testutil::MakeRatingsTable(9, 400)));
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 1;
  options.limits.io_timeout_ms = 2000;
  HttpServer server(&service, options);
  QAG_CHECK_OK(server.Start());

  // Stalled requests until two are *admitted*: with one worker and one
  // queue slot, two simultaneously admitted requests mean the worker is
  // pinned and the queue is full (a stall the poller sheds instead does
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
  EXPECT_EQ(retry_after, "1");
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

TEST(ServerAcceptTest, AcceptOutOfDescriptorsIsRetriedOnTheNextTick) {
  service::QueryService service;
  HttpServer server(&service, ServerOptions());
  QAG_CHECK_OK(server.Start());

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int client = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  SetSocketTimeouts(client, 5000);
  // With the soft limit at the lowest free descriptor, the server's next
  // accept() has no descriptor to return: EMFILE.
  const int lowest_free = ::dup(client);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

  // No ASSERT until the limit is restored. The connection completes in the
  // kernel's backlog; the server is woken for it and cannot accept it.
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ::inet_pton(AF_INET, kHost, &addr.sin_addr);
  const bool connected =
      ::connect(client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  const bool sent =
      connected && WriteFull(client, RawRequest("GET", "/healthz", "",
                                                "HTTP/1.1",
                                                "Connection: close\r\n"));
  rusage cpu_before{};
  ::getrusage(RUSAGE_SELF, &cpu_before);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  rusage cpu_after{};
  ::getrusage(RUSAGE_SELF, &cpu_after);
  const int64_t accepted_while_lowered = server.stats().accepted;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  ASSERT_TRUE(connected);
  ASSERT_TRUE(sent);
  EXPECT_EQ(accepted_while_lowered, 0);
  // The failing accept is left for the next tick, not retried in a spin.
  auto cpu_ms = [](const rusage& usage) {
    return (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1000.0 +
           (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1000.0;
  };
  EXPECT_LT(cpu_ms(cpu_after) - cpu_ms(cpu_before), 150.0);

  // Once descriptors are available again, the waiting request is served.
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(client, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(client);
  EXPECT_EQ(response.substr(0, 13), "HTTP/1.1 200 ") << response;
  EXPECT_EQ(server.stats().accepted, 1);
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
  // Twelve clients never fill the admission queue, so a 503 here would be
  // a connection refused during shutdown miscounted as overload.
  EXPECT_EQ(stats.rejected_503, 0);
}

TEST(ServerDrainTest, KeptAliveClientsIdleAndMidRequestAcrossShutdown) {
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
  const std::string request =
      RawRequest("POST", "/summarize", ToJson(summarize).Dump());

  // Idle clients: served once, then silent on their open connections.
  constexpr int kIdle = 4;
  std::vector<std::unique_ptr<KeptAliveClient>> idle;
  for (int i = 0; i < kIdle; ++i) {
    idle.push_back(std::make_unique<KeptAliveClient>(port));
    ASSERT_TRUE(idle.back()->Send(request));
    Result<KeptAliveResponse> response = idle.back()->Read();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200);
  }

  // Busy clients: request after request on one connection until the
  // drain closes it, so some are mid-request when Shutdown() begins.
  constexpr int kBusy = 6;
  std::atomic<int> client_2xx{kIdle};
  std::atomic<int> client_other{0};
  std::atomic<int> busy_served{0};  // busy clients answered at least once
  std::vector<std::thread> busy;
  for (int i = 0; i < kBusy; ++i) {
    busy.emplace_back([&] {
      KeptAliveClient client(port);
      bool served = false;
      while (client.Send(request)) {
        Result<KeptAliveResponse> response = client.Read();
        if (!response.ok()) break;  // closed without a reply: not admitted
        (response->status == 200 ? client_2xx : client_other).fetch_add(1);
        if (!served) busy_served.fetch_add(1);
        served = true;
        if (response->close) break;
      }
    });
  }

  // Every busy connection has been accepted and served before the drain
  // begins, so each one is cut mid-stream, not refused at the door.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((busy_served.load() < kBusy ||
          server.stats().admitted < kIdle + 4 * kBusy) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Shutdown();
  for (std::thread& thread : busy) thread.join();

  // The idle connections were closed without a reply.
  for (const auto& client : idle) EXPECT_TRUE(ClosedByServer(client->fd()));

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, kIdle + kBusy);
  EXPECT_EQ(stats.admitted, stats.served_2xx + stats.client_errors_4xx +
                                stats.server_errors_5xx + stats.io_errors);
  EXPECT_EQ(stats.client_errors_4xx, 0);
  EXPECT_EQ(stats.server_errors_5xx, 0);
  EXPECT_EQ(stats.io_errors, 0);
  EXPECT_EQ(stats.rejected_503, 0);
  EXPECT_EQ(client_other.load(), 0);
  // Every 2xx the server counted was fully received by a client.
  EXPECT_EQ(client_2xx.load(), stats.served_2xx);
  EXPECT_GE(stats.served_2xx, kIdle + 4 * kBusy);
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
