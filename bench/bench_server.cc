// Network front end under open-loop load (DESIGN.md "Serving over HTTP").
//
// The paper's interactivity claim (§7.2: warm re-parameterization answers
// in milliseconds) has to survive the transport: this driver starts the
// in-process HTTP server on a loopback ephemeral port and replays a mixed
// exploration session through the open-loop load generator. Latency is
// measured from each request's *scheduled* arrival (bench/README.md:
// coordinated omission), so queueing behind a slow response counts against
// the server exactly as it would for a real newly-arriving client.
//
// Sections:
//   1. mixed_open_loop @ rate — warm mixed workload (query / summarize /
//      explore / retrieve / healthz) at fixed offered rates. The row's
//      median_ms is the burst wall time (schedule-determined, so stable);
//      the measured signal is in the gated extras: p50_ms / p99_ms /
//      p999_ms and ops_per_sec (achieved throughput).
//   2. overload shed — a deliberately tiny server (1 worker, queue of 2)
//      is pinned by stalled connections; admission control must answer
//      503 + Retry-After immediately (not time out, not crash), and the
//      server must recover the moment the stalls disappear. Asserted with
//      QAG_CHECK; the 503 counters are reported as informational extras.
//
// Emits BENCH_server.json (schema in bench/README.md); smoke mode
// (QAGVIEW_BENCH_SMOKE=1) shrinks the dataset and burst sizes.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "server/loadgen.h"
#include "server/serde.h"
#include "server/server.h"
#include "service/query_service.h"
#include "test_util.h"

namespace {

using namespace qagview;

/// Connects to the server and sends a partial request line: the request is
/// admitted and then occupies a worker (or a queue slot) until the read
/// timeout fires. This is how the overload section pins a 1-worker server
/// deterministically — offered rate alone cannot guarantee a full queue at
/// any instant. (A connection that sends nothing is never admitted: the
/// server admits requests, not connections.)
int ConnectAndStall(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  QAG_CHECK(fd >= 0) << "socket() failed";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  QAG_CHECK(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
  QAG_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0)
      << "connect() failed";
  constexpr char kPartial[] = "GET /healthz HT";
  QAG_CHECK(::send(fd, kPartial, sizeof(kPartial) - 1, MSG_NOSIGNAL) ==
            static_cast<ssize_t>(sizeof(kPartial) - 1))
      << "send() failed";
  return fd;
}

/// The mixed warm session replayed by every burst: one of each interaction
/// class, all serving from the session cache after the warm-up.
std::vector<server::LoadgenRequest> MakeScript(
    const service::QueryRequest& query, service::QueryHandle handle) {
  service::SummarizeRequest summarize;
  summarize.handle = handle;
  summarize.params = core::Params{4, 8, 2};

  service::ExploreRequest explore;
  explore.handle = handle;
  explore.params = core::Params{4, 8, 2};
  explore.max_members = 4;

  service::RetrieveRequest retrieve;
  retrieve.handle = handle;
  retrieve.top_l = 8;
  retrieve.d = 1;
  retrieve.k = 4;

  std::vector<server::LoadgenRequest> script;
  script.push_back({"POST", "/query", server::ToJson(query).Dump()});
  script.push_back({"POST", "/summarize", server::ToJson(summarize).Dump()});
  script.push_back({"POST", "/explore", server::ToJson(explore).Dump()});
  script.push_back({"POST", "/retrieve", server::ToJson(retrieve).Dump()});
  script.push_back({"GET", "/healthz", ""});
  return script;
}

}  // namespace

int main() {
  const bool smoke = benchutil::SmokeMode();
  const int num_rows = smoke ? 2000 : 20000;

  benchutil::PrintHeader(
      "Server: HTTP front end under open-loop load",
      "warm re-parameterization stays interactive through the transport "
      "(§7.2); overload sheds with 503, never queues unboundedly");
  benchutil::JsonReporter json("server");

  service::QueryService service;
  QAG_CHECK_OK(service.RegisterTable(
      "ratings", testutil::MakeRatingsTable(29, num_rows)));

  service::QueryRequest query;
  query.sql =
      "SELECT g0, g1, g2, avg(rating) AS val FROM ratings "
      "GROUP BY g0, g1, g2 HAVING count(*) > 3 ORDER BY val DESC";
  query.value_column = "val";

  // --- Section 1: warm mixed workload at fixed offered rates. -----------
  {
    server::ServerOptions options;
    options.num_workers = 4;
    server::HttpServer http(&service, options);
    QAG_CHECK_OK(http.Start());

    auto opened = service.Query(query);
    QAG_CHECK_OK(opened.status());
    service::ExploreRequest warm;
    warm.handle = opened->handle;
    warm.params = core::Params{4, 8, 2};
    QAG_CHECK_OK(service.Explore(warm).status());
    core::PrecomputeOptions grid;
    grid.k_min = 2;
    grid.k_max = 8;
    QAG_CHECK_OK(
        service.Guidance({opened->handle, /*top_l=*/8, grid}).status());
    QAG_CHECK_OK(
        service.Retrieve({opened->handle, /*top_l=*/8, /*d=*/1, /*k=*/4})
            .status());

    const std::vector<server::LoadgenRequest> script =
        MakeScript(query, opened->handle);

    std::printf("\n-- open-loop mixed workload, N=%d rows, 4 workers --\n",
                num_rows);
    std::printf("%8s %8s %9s %9s %9s %9s %10s\n", "rate", "reqs", "p50",
                "p99", "p999", "max", "achieved");
    for (const double rate : smoke ? std::vector<double>{100.0, 200.0}
                                   : std::vector<double>{100.0, 250.0,
                                                         500.0}) {
      server::LoadgenOptions load;
      load.port = http.port();
      load.rate = rate;
      // ~1s of offered load per burst (0.5s in smoke) keeps the whole
      // driver inside the CI smoke budget while still sampling >=50
      // latencies per row.
      load.total_requests =
          static_cast<int>(rate * (smoke ? 0.5 : 1.0));
      load.num_threads = 4;

      // One burst's tail percentile on a shared 1-core runner is scheduler
      // noise; the gated extras record the median over `reps` bursts, so a
      // spurious gate trip needs a majority of spiked bursts, not one.
      const int reps = 5;
      std::vector<double> p50s, p99s, p999s, rps, durations;
      double max_ms = 0.0;
      for (int r = 0; r < reps; ++r) {
        server::LoadgenResults results = server::RunOpenLoop(script, load);
        QAG_CHECK(results.issued == load.total_requests);
        QAG_CHECK(results.ok == results.issued)
            << "burst @" << rate << ": ok=" << results.ok
            << " 503=" << results.http_503 << " 4xx=" << results.http_4xx
            << " 5xx=" << results.http_5xx
            << " transport=" << results.transport_errors;
        p50s.push_back(results.p50_ms);
        p99s.push_back(results.p99_ms);
        p999s.push_back(results.p999_ms);
        rps.push_back(results.achieved_rps);
        durations.push_back(results.duration_s * 1000.0);
        max_ms = std::max(max_ms, results.max_ms);
      }
      auto median = [](std::vector<double>& v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
      };

      // The wall time of an open-loop burst is fixed by its schedule, so
      // median_ms is stable by construction; the gate's real teeth are
      // the latency and throughput extras.
      benchutil::TimingStats t;
      t.median_ms = median(durations);
      t.min_ms = durations.front();
      t.reps = reps;
      const double p50 = median(p50s), p99 = median(p99s),
                   p999 = median(p999s), achieved = median(rps);
      json.Add("mixed_open_loop",
               {{"rate", rate},
                {"requests", static_cast<double>(load.total_requests)},
                {"workers", 4.0},
                {"N", static_cast<double>(num_rows)}},
               t,
               {{"p50_ms", p50},
                {"p99_ms", p99},
                {"p999_ms", p999},
                {"ops_per_sec", achieved}});
      std::printf("%8.0f %8d %8.2fms %8.2fms %8.2fms %8.2fms %9.1f/s\n",
                  rate, load.total_requests, p50, p99, p999, max_ms,
                  achieved);
    }
    http.Shutdown();
  }

  // --- Section 2: overload sheds with 503 and recovers. ------------------
  {
    server::ServerOptions options;
    options.num_workers = 1;
    options.max_queue = 2;
    options.limits.io_timeout_ms = 3000;
    server::HttpServer http(&service, options);
    QAG_CHECK_OK(http.Start());

    // Pin the single worker and fill both queue slots with stalled
    // requests; keep adding until the server has demonstrably admitted
    // three (worker busy + queue full), so the shed below is guaranteed.
    std::vector<int> stalls;
    while (http.stats().admitted < 3) {
      stalls.push_back(ConnectAndStall(http.port()));
      // Let the poller catch up before re-checking: connect() returns on
      // the SYN backlog, ahead of admission.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      QAG_CHECK(stalls.size() < 64) << "server never filled its queue";
    }

    std::printf("\n-- overload: 1 worker, queue=2, pinned by %zu stalls --\n",
                stalls.size());
    server::LoadgenOptions load;
    load.port = http.port();
    const double shed_rate = smoke ? 100.0 : 200.0;
    load.rate = shed_rate;
    load.total_requests = smoke ? 30 : 100;
    load.num_threads = 2;
    server::LoadgenResults shed =
        server::RunOpenLoop({{"GET", "/healthz", ""}}, load);
    QAG_CHECK(shed.http_503 > 0)
        << "full queue produced no 503s (ok=" << shed.ok << ")";
    QAG_CHECK(shed.http_5xx == 0 && shed.http_4xx == 0);

    for (int fd : stalls) ::close(fd);
    // Recovery: once the stalls drain, a fresh burst must fully succeed.
    load.rate = 50.0;
    load.total_requests = 20;
    server::LoadgenResults recovered = {};
    for (int attempt = 0; attempt < 50; ++attempt) {
      recovered = server::RunOpenLoop({{"GET", "/healthz", ""}}, load);
      if (recovered.ok == recovered.issued) break;
    }
    QAG_CHECK(recovered.ok == recovered.issued)
        << "server did not recover after overload: ok=" << recovered.ok
        << " 503=" << recovered.http_503;

    benchutil::TimingStats t;
    t.median_ms = shed.duration_s * 1000.0;
    t.min_ms = t.median_ms;
    t.reps = 1;
    // Only the informational counter goes into the JSON: the shed-latency
    // tail (p99 of a deliberately overloaded 30-request probe) is max-of-
    // samples scheduler noise, not a gateable `_ms` signal — it is printed
    // below but kept out of the recorded extras.
    json.Add("overload_shed",
             {{"workers", 1.0}, {"queue", 2.0}, {"rate", shed_rate}},
             t, {{"http_503", static_cast<double>(shed.http_503)}});
    std::printf("shed %lld/%lld with 503 (p99 %.2fms), recovered cleanly\n",
                static_cast<long long>(shed.http_503),
                static_cast<long long>(shed.issued), shed.p99_ms);
    http.Shutdown();
  }

  QAG_CHECK(json.WriteFile());
  return 0;
}
