// perfbench_selftest: the benchmark's own tests.
//
//   perfbench_selftest <scratch-dir>
//
// 1. The op_tail_ms percentile rule.
// 2. Same seed, same inputs and byte-identical request streams; another
//    seed, other streams.
// 3. The HTTP client reconnects after `Connection: close`, keeps a
//    connection that is not closed, and resends once on a kept-alive
//    connection the server dropped.
// 4. The output checks pass answers served by an in-process HTTP server
//    over the same CSVs, and catch a planted wrong answer (and, where ops
//    append, a wrong catalog version).
// Exits 0 when every check holds.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "http_client.h"
#include "server/server.h"
#include "service/query_service.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

void TestPercentileRule() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Expect(Percentile(hundred, 50) == 50 && Percentile(hundred, 90) == 90 &&
             Percentile(hundred, 99) == 99 && Percentile(hundred, 100) == 100,
         "nearest-rank percentiles of 1..100");
  Expect(SamplesBeyond(150, 90) == 15 && SamplesBeyond(100, 90) == 10 &&
             SamplesBeyond(1000, 99.9) == 1,
         "samples beyond a percentile");
  Expect(HighestSupportedPercentile(9) == 0 &&
             HighestSupportedPercentile(20) == 50 &&
             HighestSupportedPercentile(99) == 75 &&
             HighestSupportedPercentile(100) == 90 &&
             HighestSupportedPercentile(999) == 95 &&
             HighestSupportedPercentile(1000) == 99 &&
             HighestSupportedPercentile(10000) == 99.9,
         "highest percentile with at least 10 samples beyond it");
}

/// A loopback listener answering GET requests without `Connection: close`:
/// it serves `per_connection` requests on each accepted connection, then
/// drops it silently, for `connections` connections.
class KeepAliveServer {
 public:
  KeepAliveServer(int connections, int per_connection) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(fd_, 4);
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, connections, per_connection] {
      for (int c = 0; c < connections; ++c) {
        const int conn = ::accept(fd_, nullptr, nullptr);
        if (conn < 0) return;
        std::string pending;
        for (int r = 0; r < per_connection; ++r) {
          char buf[1024];
          while (pending.find("\r\n\r\n") == std::string::npos) {
            const ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
            if (n <= 0) break;
            pending.append(buf, static_cast<size_t>(n));
          }
          pending.erase(0, pending.find("\r\n\r\n") + 4);
          const char reply[] = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
          ::send(conn, reply, sizeof(reply) - 1, MSG_NOSIGNAL);
        }
        ::close(conn);
      }
    });
  }
  ~KeepAliveServer() {
    thread_.join();
    ::close(fd_);
  }
  KeepAliveServer(const KeepAliveServer&) = delete;
  KeepAliveServer& operator=(const KeepAliveServer&) = delete;

  int port() const { return port_; }

 private:
  int fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

void TestClient() {
  {
    // qagview_server closes every connection: one connect per request.
    qagview::service::QueryService service;
    qagview::server::HttpServer server(&service,
                                       qagview::server::ServerOptions());
    Expect(server.Start().ok(), "in-process HTTP server starts");
    HttpClient client("127.0.0.1", server.port());
    bool all_ok = true;
    for (int i = 0; i < 3; ++i) {
      auto response = client.Send("GET", "/healthz", "");
      all_ok = all_ok && response.ok() && response->status == 200 &&
               response->close && response->body == "ok\n";
    }
    Expect(all_ok && client.connects() == 3 && client.requests() == 3,
           "client reconnects after Connection: close");
  }
  {
    KeepAliveServer server(/*connections=*/1, /*per_connection=*/3);
    HttpClient client("127.0.0.1", server.port());
    bool all_ok = true;
    for (int i = 0; i < 3; ++i) {
      auto response = client.Send("GET", "/", "");
      all_ok = all_ok && response.ok() && response->body == "ok";
    }
    Expect(all_ok && client.connects() == 1,
           "client keeps a connection the server keeps open");
  }
  {
    // The server drops the connection after one answer without saying so;
    // the second request finds it dead and is resent once on a new one.
    KeepAliveServer server(/*connections=*/2, /*per_connection=*/1);
    HttpClient client("127.0.0.1", server.port());
    auto first = client.Send("GET", "/", "");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto second = client.Send("GET", "/", "");
    Expect(first.ok() && second.ok() && second->body == "ok" &&
               client.connects() == 2,
           "client resends once when a kept-alive connection was dropped");
  }
}

/// Serves the workload's datasets from an in-process HttpServer, runs its
/// set-up and `ops` ops per connection, and returns the records.
std::vector<std::vector<OpRecord>> Serve(Workload* workload, int ops,
                                         bool* setup_ok) {
  qagview::service::QueryService service;
  for (const auto& [name, path] : workload->datasets()) {
    service.RegisterCsvFile(name, path);
  }
  qagview::server::HttpServer server(&service,
                                     qagview::server::ServerOptions());
  server.Start();
  HttpClient client("127.0.0.1", server.port());
  *setup_ok = true;
  for (size_t i = 0; i < workload->warmup().size(); ++i) {
    const Request& request = workload->warmup()[i];
    auto response = client.Send("POST", request.target, request.body);
    *setup_ok = *setup_ok && response.ok() &&
                Fingerprint(WithoutStats(response->body)) ==
                    workload->warmup_fingerprints()[i];
  }
  std::vector<std::vector<OpRecord>> logs(
      static_cast<size_t>(workload->shape().connections));
  for (int conn = 0; conn < workload->shape().connections; ++conn) {
    for (int64_t index = 0; index < ops; ++index) {
      OpRecord record;
      record.index = index;
      for (const Request& request : workload->OpAt(conn, index)) {
        auto response = client.Send("POST", request.target, request.body);
        const bool ok = response.ok() && response->status == 200;
        RecordAnswer(request, ok ? &response->body : nullptr, &record);
      }
      logs[static_cast<size_t>(conn)].push_back(std::move(record));
    }
  }
  return logs;
}

void TestWorkload(const std::string& name, const std::string& scratch) {
  const std::string dir_a = scratch + "/" + name + "-a";
  const std::string dir_b = scratch + "/" + name + "-b";
  const std::string dir_c = scratch + "/" + name + "-c";
  for (const std::string& dir : {dir_a, dir_b, dir_c}) {
    ::mkdir(dir.c_str(), 0755);
  }
  auto a = MakeWorkload(name, 11);
  auto b = MakeWorkload(name, 11);
  auto c = MakeWorkload(name, 12);
  const bool prepared = a->Prepare(dir_a).ok() && b->Prepare(dir_b).ok() &&
                        c->Prepare(dir_c).ok();
  Expect(prepared, name + ": inputs prepared");
  if (!prepared) return;

  bool same_inputs = a->datasets().size() == b->datasets().size();
  for (size_t i = 0; same_inputs && i < a->datasets().size(); ++i) {
    same_inputs = Slurp(a->datasets()[i].second) ==
                  Slurp(b->datasets()[i].second);
  }
  bool same_streams = true;
  bool other_streams = false;
  for (int conn = 0; conn < a->shape().connections; ++conn) {
    for (int64_t i = 0; i < 200; ++i) {
      const Op& x = a->OpAt(conn, i);
      const Op& y = b->OpAt(conn, i);
      const Op& z = c->OpAt(conn, i);
      for (size_t r = 0; r < x.size(); ++r) {
        same_streams = same_streams && r < y.size() &&
                       x[r].target == y[r].target && x[r].body == y[r].body;
        other_streams =
            other_streams || r >= z.size() || x[r].body != z[r].body;
      }
    }
  }
  Expect(same_inputs, name + ": same seed writes byte-identical CSVs");
  Expect(same_streams, name + ": same seed gives byte-identical op streams");
  Expect(other_streams, name + ": another seed gives other op streams");

  bool setup_ok = false;
  std::vector<std::vector<OpRecord>> logs = Serve(a.get(), 3, &setup_ok);
  Expect(setup_ok, name + ": set-up answers match the reference");
  std::string detail;
  auto clean = a->Check(logs, &detail);
  Expect(clean.ok() && *clean == 0,
         name + ": served answers pass the checks " +
             (clean.ok() ? detail : clean.status().ToString()));
  logs.front().back().fingerprints.back() ^= 1;
  auto planted = a->Check(logs, &detail);
  Expect(planted.ok() && *planted >= 1,
         name + ": a planted wrong answer is caught (" + detail + ")");
  // Undo that plant; where ops append, plant a wrong catalog version.
  logs.front().back().fingerprints.back() ^= 1;
  OpRecord& first = logs.front().front();
  if (first.appended_version >= 0) {
    ++first.appended_version;
    auto skipped = a->Check(logs, &detail);
    Expect(skipped.ok() && *skipped >= 1,
           name + ": a wrong catalog version is caught (" + detail + ")");
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <scratch-dir>\n", argv[0]);
    return 2;
  }
  perfbench::TestPercentileRule();
  perfbench::TestClient();
  for (const std::string& name : perfbench::WorkloadNames()) {
    perfbench::TestWorkload(name, argv[1]);
  }
  std::printf("%d failure(s)\n", perfbench::failures);
  return perfbench::failures == 0 ? 0 : 1;
}
