// perfbench_runner: one benchmark run of one workload against a fresh
// qagview_server, driven over loopback HTTP.
//
//   perfbench_runner --workload explore --seed 1 --seconds 10 --trace 0
//       --server .bench_build/qagview_server
//       --workdir .bench_build/work/explore [--isolation netns]
//       [--plant-wrong-answer]
//
// perfbench/run.py builds this binary and the server, gives the run its own
// network namespace, and starts it. See perfbench/README.md for the
// workloads and metrics.
//
// --trace 0: sets the server up a few times (setup_s is the median), then
// measures closed-loop load and prints the end-to-end metrics. The load
// runs for --seconds, or, on a workload with a fixed number of rounds, until
// every round is done, with --seconds as a cap.
// --trace 1: measures one untraced and one traced window, each on a freshly
// set-up server, then times each layer's public calls in-process and prints
// the per-layer metrics. Both check every answer they can against
// in-process references, outside all timed windows, and print one JSON
// result as the last line of standard output.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "common/json.h"
#include "common/string_util.h"
#include "http_client.h"
#include "layers.h"
#include "server/serde.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using qagview::Result;
using qagview::Status;
using qagview::StrCat;
using qagview::json::Json;
using Clock = std::chrono::steady_clock;

constexpr char kHost[] = "127.0.0.1";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string server;
  std::string workdir;
  std::string isolation = "none";
  bool plant_wrong_answer = false;
  // Recorded at start.
  int64_t time_wait_at_start = 0;
  int cpus = 0;
  cpu_set_t all_cpus{};  // the affinity the run started with
  double prepare_s = 0.0;
};

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- the server process ----------------------------------------------------

/// A qagview_server child: started with default flags plus --port 0 and
/// the workload's datasets, stopped with SIGTERM (graceful drain) and
/// always waited for.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  Status Start(
      const std::string& binary,
      const std::vector<std::pair<std::string, std::string>>& datasets) {
    std::vector<std::string> args = {binary, "--port", "0"};
    for (const auto& [name, path] : datasets) {
      args.push_back("--dataset");
      args.push_back(StrCat(name, "=", path));
    }
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_CLOEXEC) != 0) return Status::IOError("pipe");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], 2);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipe_fds[1]);
    stderr_fd_ = pipe_fds[0];
    if (rc != 0) {
      pid_ = -1;
      return Status::IOError(StrCat("cannot start ", binary, ": ",
                                    std::strerror(rc)));
    }
    return ReadPort();
  }

  /// SIGTERM, then SIGKILL if the drain takes over 30 s; always reaps.
  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
      int status = 0;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (Clock::now() > give_up) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (stderr_fd_ >= 0) ::close(stderr_fd_);
    stderr_fd_ = -1;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  /// Reads the server's stderr until it announces its port.
  Status ReadPort() {
    std::string text;
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(150);
    constexpr char kMarker[] = "listening on ";
    while (Clock::now() < give_up) {
      const size_t at = text.find(kMarker);
      if (at != std::string::npos) {
        const size_t paren = text.find(" (", at);
        if (paren != std::string::npos) {
          const size_t colon = text.rfind(':', paren);
          port_ = std::atoi(text.substr(colon + 1, paren - colon - 1).c_str());
          return Status::OK();
        }
      }
      pollfd pfd{stderr_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 1000) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::read(stderr_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      text.append(buf, static_cast<size_t>(n));
    }
    return Status::IOError(StrCat("server did not start: ", text));
  }

  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  int port_ = 0;
};

// --- set-up ----------------------------------------------------------------

struct SetUp {
  std::unique_ptr<ServerProcess> server;
  double seconds = 0.0;
  /// The set-up answers matched the in-process reference.
  bool answers_ok = true;
  std::string detail;
};

/// Launches the server on the workload's CSVs and sends the warm-up
/// requests; the clock runs from the launch to the last warm-up response.
Result<SetUp> StartServer(const Args& args, Workload* workload) {
  SetUp out;
  out.server = std::make_unique<ServerProcess>();
  const Clock::time_point start = Clock::now();
  QAG_RETURN_IF_ERROR(out.server->Start(args.server, workload->datasets()));
  HttpClient client(kHost, out.server->port());
  for (size_t i = 0; i < workload->warmup().size(); ++i) {
    const Request& request = workload->warmup()[i];
    QAG_ASSIGN_OR_RETURN(HttpClient::Response response,
                         client.Send("POST", request.target, request.body));
    if (response.status / 100 != 2 ||
        Fingerprint(WithoutStats(response.body)) !=
            workload->warmup_fingerprints()[i]) {
      out.answers_ok = false;
      out.detail = StrCat("set-up ", request.target, " answered ",
                          response.status, " ", response.body.substr(0, 200));
    }
  }
  out.seconds = MsBetween(start, Clock::now()) / 1e3;
  return out;
}

Result<Json> GetStats(int port) {
  HttpClient client(kHost, port);
  QAG_ASSIGN_OR_RETURN(HttpClient::Response response,
                       client.Send("GET", "/stats", ""));
  if (response.status != 200) return Status::IOError("GET /stats failed");
  return Json::Parse(response.body);
}

Result<qagview::service::ServiceStats> ServiceStatsOf(const Json& stats) {
  const Json* service = stats.Find("service");
  if (service == nullptr) return Status::IOError("/stats has no service");
  return qagview::server::ServiceStatsFromJson(*service);
}

int64_t ServerCounter(const Json& stats, const char* name) {
  const Json* server = stats.Find("server");
  const Json* value = server == nullptr ? nullptr : server->Find(name);
  return value == nullptr ? 0 : value->AsInt();
}

// --- the measured window ---------------------------------------------------

/// What one connection saw in the window.
struct Connection {
  std::vector<OpRecord> records;
  std::vector<double> op_ms;
  Clock::time_point last_end;
  int64_t connects = 0;
  int64_t requests = 0;
  // Traced windows only.
  Tracer tracer;
  std::vector<double> transport_ms;
  std::map<std::string, std::vector<double>> service_ms;  // by endpoint
  std::vector<double> response_bytes;
  std::vector<Exchange> sample;
};

struct Window {
  std::vector<Connection> connections;
  std::vector<std::vector<OpRecord>> logs;
  std::vector<double> op_ms;
  double wall_s = 0.0;
  double server_cpu_ms = 0.0;
  double steal_share = 0.0;
  Json stats_before;
  Json stats_after;
};

/// Bodies kept per endpoint for the serde probe.
constexpr size_t kSerdeSamples = 32;

/// Decides, for every connection, whether its next op is due. A workload
/// without rounds runs each connection freely until the deadline. A
/// workload with rounds runs the connections in step: op i of every
/// connection starts once all of them finished op i - 1, so every run
/// overlaps the same ops in the same way, and the deadline is only a cap.
class Schedule {
 public:
  Schedule(const Workload::Shape& shape, Clock::time_point deadline)
      : connections_(shape.connections),
        rounds_(shape.rounds),
        deadline_(deadline) {}

  /// Whether op `index` is due; with rounds, waits for the other
  /// connections first, and all of them get the same answer.
  bool Next(int64_t index) {
    if (rounds_ == 0) return Clock::now() < deadline_;
    std::unique_lock<std::mutex> lock(mu_);
    if (++arrived_ == connections_) {
      arrived_ = 0;
      due_ = index < rounds_ && Clock::now() < deadline_;
      ++generation_;
      all_arrived_.notify_all();
    } else {
      const int64_t generation = generation_;
      all_arrived_.wait(lock, [&] { return generation_ != generation; });
    }
    return due_;
  }

 private:
  const int connections_;
  const int64_t rounds_;
  const Clock::time_point deadline_;
  std::mutex mu_;
  std::condition_variable all_arrived_;
  int arrived_ = 0;
  int64_t generation_ = 0;
  bool due_ = false;
};

/// One analyst: a closed loop over its op stream while `schedule` says the
/// next op is due. The op that is in flight at the deadline completes and
/// counts.
void RunConnection(Workload* workload, int conn, int port, bool traced,
                   Clock::time_point start, Schedule* schedule,
                   Connection* out) {
  HttpClient client(kHost, port);
  out->tracer = Tracer(start);
  std::map<std::string, size_t> sampled;
  std::this_thread::sleep_until(start);
  for (int64_t index = 0; schedule->Next(index); ++index) {
    const Op& op = workload->OpAt(conn, index);
    OpRecord record;
    record.index = index;
    const int64_t op_span = traced ? out->tracer.Begin("op", -1, index) : -1;
    const Clock::time_point begin = Clock::now();
    for (const Request& request : op) {
      const Clock::time_point sent = Clock::now();
      const int64_t span =
          traced ? out->tracer.Begin("http" + request.target, op_span, index)
                 : -1;
      Result<HttpClient::Response> response =
          client.Send("POST", request.target, request.body);
      if (traced) out->tracer.End(span);
      const double round_trip_ms = MsBetween(sent, Clock::now());
      if (!response.ok() || response->status / 100 != 2) {
        RecordAnswer(request, nullptr, &record);
        continue;
      }
      RecordAnswer(request, &response->body, &record);
      if (traced) {
        const double service_ms = ServiceLatencyMs(response->body);
        out->transport_ms.push_back(round_trip_ms - service_ms);
        out->service_ms[request.target].push_back(service_ms);
        out->response_bytes.push_back(
            static_cast<double>(response->body.size()));
        if (sampled[request.target]++ < kSerdeSamples) {
          out->sample.push_back(
              Exchange{request.target, request.body, response->body});
        }
      }
    }
    out->last_end = Clock::now();
    if (traced) out->tracer.End(op_span);
    out->op_ms.push_back(MsBetween(begin, out->last_end));
    out->records.push_back(std::move(record));
  }
  out->connects = client.connects();
  out->requests = client.requests();
}

Result<Window> RunWindow(const Args& args, Workload* workload,
                         ServerProcess* server, bool traced) {
  const Workload::Shape& shape = workload->shape();
  const int n = shape.connections;
  // Generate the op streams ahead, so the loop only sends.
  const int64_t ahead =
      shape.rounds > 0
          ? shape.rounds
          : static_cast<int64_t>(args.seconds) * shape.max_op_rate;
  for (int c = 0; c < n; ++c) workload->OpAt(c, ahead);

  Window out;
  QAG_ASSIGN_OR_RETURN(out.stats_before, GetStats(server->port()));
  out.connections.resize(static_cast<size_t>(n));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  Schedule schedule(shape, start + std::chrono::seconds(args.seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back(RunConnection, workload, c, server->port(), traced,
                         start, &schedule,
                         &out.connections[static_cast<size_t>(c)]);
  }
  std::this_thread::sleep_until(start - std::chrono::milliseconds(5));
  const double cpu_before = ProcessCpuMs(server->pid());
  const CpuJiffies jiffies_before = ReadCpuJiffies();
  for (std::thread& thread : threads) thread.join();
  const double cpu_after = ProcessCpuMs(server->pid());
  const CpuJiffies jiffies_after = ReadCpuJiffies();

  Clock::time_point end = start;
  for (Connection& c : out.connections) {
    end = std::max(end, c.last_end);
    out.op_ms.insert(out.op_ms.end(), c.op_ms.begin(), c.op_ms.end());
    out.logs.push_back(std::move(c.records));
  }
  out.wall_s = MsBetween(start, end) / 1e3;
  out.server_cpu_ms = cpu_after - cpu_before;
  out.steal_share = StealShare(jiffies_before, jiffies_after);
  QAG_ASSIGN_OR_RETURN(out.stats_after, GetStats(server->port()));
  return out;
}

/// Confines this process, and so the servers it starts, to the first CPU
/// in `allowed`; returns how many CPUs the run may use. On a 4-vCPU VM
/// whose host is oversubscribed, the hypervisor steals 20-50% of CPU time
/// once more than one vCPU is busy, and a run spread over all of them
/// swings 2-3x from one run to the next; on one CPU, steal stays near 1-2%.
int ConfineToOneCpu(const cpu_set_t& allowed) {
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t chosen;
    CPU_ZERO(&chosen);
    CPU_SET(cpu, &chosen);
    if (sched_setaffinity(0, sizeof(chosen), &chosen) == 0) return 1;
    break;
  }
  return CPU_COUNT(&allowed);
}

// --- reporting -------------------------------------------------------------

/// Prints `metrics` by name and unit, then the one-line JSON result.
void Report(const std::vector<Metric>& metrics, bool correct,
            int64_t attempted, int64_t failed) {
  Json values = Json::Object();
  for (const Metric& m : metrics) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    Json item = Json::Object();
    item.Set("value", Json::Number(m.value));
    item.Set("unit", Json::Str(m.unit));
    values.Set(m.name, std::move(item));
  }
  Json result = Json::Object();
  result.Set("correct", Json::Bool(correct));
  result.Set("attempted", Json::Int(attempted));
  result.Set("failed", Json::Int(failed));
  result.Set("metrics", std::move(values));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
}

void PrintHost(const Window& window, const Args& args) {
  std::printf("host nproc=%d run_cpus=%d cpu_model=\"%s\" steal_share=%.5f "
              "time_wait_at_start=%lld isolation=%s\n",
              NumCpus(), args.cpus, CpuModel().c_str(), window.steal_share,
              static_cast<long long>(args.time_wait_at_start),
              args.isolation.c_str());
}

int64_t Attempted(const Window& window) {
  return static_cast<int64_t>(window.op_ms.size());
}

/// A workload with rounds that ran into the --seconds cap did less, and
/// cheaper, work than it should: say so.
void PrintCapReached(const Workload& workload, const Window& window) {
  const int64_t due = workload.shape().rounds * workload.shape().connections;
  if (due > 0 && Attempted(window) < due) {
    std::printf("cap reached: %lld of %lld ops done within --seconds\n",
                static_cast<long long>(Attempted(window)),
                static_cast<long long>(due));
  }
}

/// Checks a window's ops; returns the failed count (transport failures
/// included), or an error if the reference itself could not be computed.
Result<int64_t> CheckWindow(const Args& args, Workload* workload,
                            Window* window, std::string* detail) {
  if (args.plant_wrong_answer) {
    // Self-test of the checks: corrupt the last answer of the first
    // connection, which every workload's checks cover.
    std::vector<OpRecord>& log = window->logs.front();
    if (!log.empty()) log.back().fingerprints.back() ^= 1;
  }
  return workload->Check(window->logs, detail);
}

void PrintErrorRate(int64_t failed, int64_t attempted,
                    const std::string& detail) {
  std::printf("error_rate %.6g ratio (%lld of %lld ops failed)%s%s\n",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              static_cast<long long>(failed),
              static_cast<long long>(attempted), detail.empty() ? "" : ": ",
              detail.c_str());
}

Status RunUntraced(const Args& args, Workload* workload) {
  std::vector<double> setup_s;
  SetUp setup;
  bool setup_ok = true;
  std::string detail;
  for (int i = 0; i < workload->shape().setups; ++i) {
    if (setup.server) setup.server->Stop();
    QAG_ASSIGN_OR_RETURN(setup, StartServer(args, workload));
    setup_s.push_back(setup.seconds);
    if (!setup.answers_ok) {
      setup_ok = false;
      detail = setup.detail;
    }
  }
  QAG_ASSIGN_OR_RETURN(Window window,
                       RunWindow(args, workload, setup.server.get(), false));
  const double rss_mb = ProcessPeakRssMb(setup.server->pid());
  setup.server->Stop();

  const Clock::time_point check_start = Clock::now();
  QAG_ASSIGN_OR_RETURN(int64_t failed,
                       CheckWindow(args, workload, &window, &detail));
  const double check_s = MsBetween(check_start, Clock::now()) / 1e3;
  const int64_t attempted = Attempted(window);
  const double p = workload->shape().tail_percentile;
  const int64_t beyond = SamplesBeyond(attempted, p);

  std::printf("workload %s seed %llu seconds %d connections %d\n",
              workload->name().c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              workload->shape().connections);
  PrintHost(window, args);
  PrintCapReached(*workload, window);
  std::printf("run phases s: inputs+references=%.2f window=%.2f checks=%.2f\n",
              args.prepare_s, window.wall_s, check_s);
  std::printf("setup_s samples:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\nop samples %lld; op_tail_ms is p%g with %lld beyond it; "
              "the highest percentile with 10 beyond is p%g\n",
              static_cast<long long>(attempted), p,
              static_cast<long long>(beyond),
              HighestSupportedPercentile(attempted));
  std::printf("op latency ms:");
  for (double q : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    std::printf(" p%g=%.4g", q, Percentile(window.op_ms, q));
  }
  std::printf("; median per connection:");
  for (const Connection& c : window.connections) {
    std::printf(" %.4g", Median(c.op_ms));
  }
  std::printf("\n");
  PrintErrorRate(failed, attempted, detail);

  std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"op_p50_ms", Median(window.op_ms), "ms"},
      {"op_tail_ms", Percentile(window.op_ms, p), "ms"},
      {"ops_per_s", static_cast<double>(attempted) / window.wall_s, "1/s"},
      {"cpu_ms_per_op", window.server_cpu_ms / std::max<int64_t>(1, attempted),
       "ms"},
      {"rss_peak_mb", rss_mb, "MB"},
  };
  Report(metrics, setup_ok && failed == 0, attempted, failed);
  return Status::OK();
}

/// The /stats counters of the service layer, as metrics over a window.
Status AddServiceMetrics(const Window& window, std::vector<Metric>* out) {
  using qagview::service::ServiceStats;
  QAG_ASSIGN_OR_RETURN(ServiceStats before,
                       ServiceStatsOf(window.stats_before));
  QAG_ASSIGN_OR_RETURN(ServiceStats after, ServiceStatsOf(window.stats_after));
  auto delta = [&](int64_t ServiceStats::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  const double non_query =
      static_cast<double>((after.requests() - after.queries) -
                          (before.requests() - before.queries));
  out->push_back({"service.cache_hit_ratio",
                  delta(&ServiceStats::cache_hits) / std::max(1.0, non_query),
                  "ratio"});
  out->push_back({"service.builds", delta(&ServiceStats::builds), "count"});
  out->push_back({"service.coalesced_waits",
                  delta(&ServiceStats::coalesced_waits), "count"});
  out->push_back(
      {"service.refreshes", delta(&ServiceStats::refreshes), "count"});
  out->push_back({"service.refresh_full_reuses",
                  delta(&ServiceStats::refresh_full_reuses), "count"});
  out->push_back({"service.live_generations",
                  static_cast<double>(after.live_generations), "count"});
  out->push_back({"service.generations_evicted",
                  delta(&ServiceStats::generations_evicted), "count"});
  return Status::OK();
}

Status RunTraced(const Args& args, Workload* workload) {
  // 1. The untraced baseline on its own server, for the tracing overhead.
  QAG_ASSIGN_OR_RETURN(SetUp baseline, StartServer(args, workload));
  QAG_ASSIGN_OR_RETURN(Window untraced,
                       RunWindow(args, workload, baseline.server.get(), false));
  baseline.server->Stop();

  // 2. The traced window on a fresh server, then 20 requests to each
  //    endpoint the op stream never sends.
  QAG_ASSIGN_OR_RETURN(SetUp setup, StartServer(args, workload));
  QAG_ASSIGN_OR_RETURN(Window window,
                       RunWindow(args, workload, setup.server.get(), true));
  Tracer tracer(window.connections.front().tracer.epoch());
  std::map<std::string, std::vector<double>> service_ms;
  std::vector<double> transport_ms, response_bytes;
  std::vector<Exchange> sample;
  int64_t connects = 0, requests = 0;
  for (const Connection& c : window.connections) {
    tracer.Merge(c.tracer);
    for (const auto& [target, ms] : c.service_ms) {
      service_ms[target].insert(service_ms[target].end(), ms.begin(), ms.end());
    }
    transport_ms.insert(transport_ms.end(), c.transport_ms.begin(),
                        c.transport_ms.end());
    response_bytes.insert(response_bytes.end(), c.response_bytes.begin(),
                          c.response_bytes.end());
    sample.insert(sample.end(), c.sample.begin(), c.sample.end());
    connects += c.connects;
    requests += c.requests;
  }
  QAG_ASSIGN_OR_RETURN(std::vector<Request> probes,
                       workload->EndpointProbes());
  HttpClient client(kHost, setup.server->port());
  const int64_t root = tracer.Begin("endpoint_probes");
  for (const Request& request : probes) {
    for (int r = 0; r < 20; ++r) {
      const int64_t span = tracer.Begin("http" + request.target, root);
      QAG_ASSIGN_OR_RETURN(HttpClient::Response response,
                           client.Send("POST", request.target, request.body));
      tracer.End(span);
      if (response.status / 100 != 2) {
        return Status::IOError(StrCat("endpoint probe ", request.target,
                                      " answered ", response.body));
      }
      service_ms[request.target].push_back(ServiceLatencyMs(response.body));
    }
  }
  tracer.End(root);
  QAG_ASSIGN_OR_RETURN(Json final_stats, GetStats(setup.server->port()));
  setup.server->Stop();

  // 3. Output checks of both windows.
  std::string detail = setup.answers_ok ? baseline.detail : setup.detail;
  int64_t failed = 0;
  for (Window* checked : {&untraced, &window}) {
    QAG_ASSIGN_OR_RETURN(int64_t f,
                         CheckWindow(args, workload, checked, &detail));
    failed += f;
  }
  const int64_t attempted = Attempted(untraced) + Attempted(window);

  // 4. Per-layer metrics.
  std::vector<Metric> metrics = {
      {"server.transport_ms", Median(transport_ms), "ms"}};
  QAG_RETURN_IF_ERROR(ProbeSerde(sample, &tracer, &metrics));
  metrics.push_back(
      {"server.response_bytes", Median(response_bytes), "bytes"});
  metrics.push_back(
      {"server.connections_per_request",
       static_cast<double>(connects) / std::max<int64_t>(1, requests),
       "ratio"});
  for (const char* counter : {"rejected_503", "io_errors"}) {
    metrics.push_back(
        {StrCat("server.", counter),
         static_cast<double>(ServerCounter(final_stats, counter)), "count"});
  }
  for (const char* endpoint : {"query", "summarize", "explore", "guidance",
                               "retrieve", "append_rows"}) {
    metrics.push_back({StrCat("service.latency_ms.", endpoint),
                       Median(service_ms[StrCat("/", endpoint)]), "ms"});
  }
  QAG_RETURN_IF_ERROR(AddServiceMetrics(window, &metrics));
  // The in-process layer calls run on every CPU the run started with, so
  // the parallel builds' speedups are those of the machine.
  sched_setaffinity(0, sizeof(args.all_cpus), &args.all_cpus);
  QAG_ASSIGN_OR_RETURN(LayerSpec spec, workload->Layers());
  QAG_RETURN_IF_ERROR(ProbeLayers(spec, &tracer, &metrics));
  const double traced_p50 = Median(window.op_ms);
  const double untraced_p50 = Median(untraced.op_ms);
  metrics.push_back({"trace.op_p50_ms", traced_p50, "ms"});
  metrics.push_back({"trace.untraced_op_p50_ms", untraced_p50, "ms"});
  metrics.push_back({"trace.overhead_pct",
                     (traced_p50 - untraced_p50) / untraced_p50 * 100.0, "%"});

  std::ofstream(args.workdir + "/trace.json") << tracer.ToJson() << "\n";
  std::printf("workload %s seed %llu seconds %d connections %d (traced)\n",
              workload->name().c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              workload->shape().connections);
  PrintHost(window, args);
  PrintCapReached(*workload, untraced);
  PrintCapReached(*workload, window);
  std::printf("spans written to %s/trace.json; self time per span name:\n",
              args.workdir.c_str());
  for (const auto& [name, ms] : tracer.SelfMs()) {
    std::printf("  %-44s %.3f ms\n", name.c_str(), ms);
  }
  PrintErrorRate(failed, attempted, detail);
  Report(metrics, baseline.answers_ok && setup.answers_ok && failed == 0,
         attempted, failed);
  return Status::OK();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--plant-wrong-answer") {
      args->plant_wrong_answer = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (arg == "--trace") {
      args->trace = value == "1";
    } else if (arg == "--server") {
      args->server = value;
    } else if (arg == "--workdir") {
      args->workdir = value;
    } else if (arg == "--isolation") {
      args->isolation = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->server.empty() &&
         !args->workdir.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload W --seed N --seconds S --trace 0|1 "
                 "--server PATH --workdir DIR [--isolation X] "
                 "[--plant-wrong-answer]\n",
                 argv[0]);
    return 2;
  }
  args.time_wait_at_start = TimeWaitSockets();
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  CPU_ZERO(&args.all_cpus);
  if (sched_getaffinity(0, sizeof(args.all_cpus), &args.all_cpus) != 0) {
    for (int cpu = 0; cpu < NumCpus(); ++cpu) CPU_SET(cpu, &args.all_cpus);
  }
  args.cpus = ConfineToOneCpu(args.all_cpus);
  const Clock::time_point start = Clock::now();
  Status prepared = workload->Prepare(args.workdir);
  args.prepare_s = MsBetween(start, Clock::now()) / 1e3;
  if (!prepared.ok()) {
    std::fprintf(stderr, "preparing inputs failed: %s\n",
                 prepared.ToString().c_str());
    return 1;
  }
  const Status status = args.trace ? RunTraced(args, workload.get())
                                  : RunUntraced(args, workload.get());
  if (!status.ok()) {
    std::fprintf(stderr, "run failed: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
