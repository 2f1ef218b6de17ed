// Service stress driver: serving-layer latency and multi-client
// throughput of service::QueryService over a MovieLens-like workload —
// the Appendix A.3 "interactive re-parameterization" claim measured at
// the service boundary instead of the algorithm boundary.
//
// Sections:
//   1. per-op serving latency, cold (first client pays the build) vs warm
//      (everything cached — the paper's interactive regime);
//   2. mixed-workload throughput with 1/2/4/8/16/32 concurrent clients on
//      one shared session, reporting aggregate ops/sec plus per-op p50/p99
//      latency, asserting on every run that the concurrent results are
//      bit-identical to the single-client run (the determinism invariant
//      the service layer guarantees), and that adding clients never
//      collapses aggregate throughput below half the single-client rate
//      (the anti-regression guard for the lock-free warm read path — the
//      old shared-mutex path collapsed to ~0.5x at 2+ clients). Absolute
//      scaling depends on the machine: ~1x flat on a single hardware
//      thread, approaching the core count on multi-core; the recorded
//      ops_per_sec / p50_ms / p99_ms extras are gated per-machine-class
//      against bench/baselines by check_regression.py.
//
// Emits BENCH_service_stress.json next to the text output; see
// bench/README.md for the schema. QAGVIEW_BENCH_SMOKE=1 shrinks the
// instances for the CI smoke run and the regression gate.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/explore.h"
#include "datagen/movielens.h"
#include "service/query_service.h"

namespace {

using namespace qagview;

struct Workload {
  int num_ratings = 0;
  int having_min = 0;  // HAVING count(*) > having_min (smoke keeps more)
  int top_l = 0;
  int k_max = 0;

  std::string Sql() const {
    return "SELECT hdec, agegrp, gender, occupation, avg(rating) AS val "
           "FROM RatingTable WHERE genres_adventure = 1 "
           "GROUP BY hdec, agegrp, gender, occupation "
           "HAVING count(*) > " +
           std::to_string(having_min) + " ORDER BY val DESC";
  }
};

storage::Table MakeRatings(const Workload& w) {
  datagen::MovieLensOptions options;
  options.num_ratings = w.num_ratings;
  return datagen::MovieLensGenerator(options).GenerateRatingTable();
}

std::unique_ptr<service::QueryService> MakeService(storage::Table table) {
  auto svc = std::make_unique<service::QueryService>();
  QAG_CHECK_OK(svc->RegisterTable("RatingTable", std::move(table)));
  return svc;
}

core::PrecomputeOptions Grid(const Workload& w) {
  core::PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = w.k_max;
  return options;
}

/// Comparable footprint of one request's result.
struct Footprint {
  std::vector<int> ids;
  double average = 0.0;

  bool operator==(const Footprint& other) const {
    return ids == other.ids && average == other.average;
  }
  bool operator!=(const Footprint& other) const { return !(*this == other); }
};

/// The rotating mixed op a client issues; every op serves from cache once
/// the session is warm. Returns the result footprint for the bit-identity
/// check.
Footprint RunOp(service::QueryService& svc, service::QueryHandle handle,
                const Workload& w, int op) {
  switch (op % 3) {
    case 0: {
      auto s = svc.Summarize({handle, {4, w.top_l, 2}});
      QAG_CHECK(s.ok()) << s.status().ToString();
      return {s->solution.cluster_ids, s->solution.average};
    }
    case 1: {
      int k = 2 + op % (w.k_max - 1);
      auto s = svc.Retrieve({handle, w.top_l, 1 + op % 2, k});
      QAG_CHECK(s.ok()) << s.status().ToString();
      return {s->solution.cluster_ids, s->solution.average};
    }
    default: {
      auto e = svc.Explore({handle, {5, w.top_l, 1}, /*max_members=*/4});
      QAG_CHECK(e.ok()) << e.status().ToString();
      return {e->solution.cluster_ids, e->solution.average};
    }
  }
}

}  // namespace

int main() {
  const bool smoke = benchutil::SmokeMode();
  Workload w;
  w.num_ratings = smoke ? 20000 : 100000;
  w.having_min = smoke ? 5 : 25;
  w.top_l = 10;
  w.k_max = 8;
  const int reps = smoke ? 3 : 5;
  const int ops_per_client = smoke ? 60 : 400;
  const std::string sql = w.Sql();

  benchutil::PrintHeader(
      "Service stress: multi-client QueryService serving latency",
      "once the (k, D) grid is precomputed, re-parameterization answers in "
      "milliseconds, for any number of concurrent clients (A.3 / §7.2)");
  benchutil::JsonReporter json("service_stress");

  // The shared service every warm section runs against; also pins the
  // answer-set size so L stays in range at every instance scale.
  auto svc = MakeService(MakeRatings(w));
  auto info = svc->Query({sql, "val", {}});
  QAG_CHECK(info.ok()) << info.status().ToString();
  const service::QueryHandle handle = info->handle;
  w.top_l = std::min(w.top_l, info->num_answers);
  QAG_CHECK(w.top_l >= 2) << "answer set too small: " << info->num_answers;

  // --- Section 1: per-op serving latency, cold vs warm. -----------------
  std::printf("\n-- per-op latency (ms), N=%d ratings, n=%d answers --\n",
              w.num_ratings, info->num_answers);

  // Cold rows time the service paths only: table generation happens
  // outside the clock, then one rep = fresh service + the cold request.
  auto time_cold = [&](const std::function<void(service::QueryService&)>& fn) {
    std::vector<storage::Table> tables;
    for (int r = 0; r < reps; ++r) tables.push_back(MakeRatings(w));
    size_t next = 0;
    return benchutil::TimeStats(
        [&] {
          auto fresh = MakeService(std::move(tables[next++]));
          fn(*fresh);
        },
        reps);
  };

  benchutil::TimingStats query_cold = time_cold([&](service::QueryService& s) {
    auto i = s.Query({sql, "val", {}});
    QAG_CHECK(i.ok()) << i.status().ToString();
  });
  json.Add("query_cold", {{"N", w.num_ratings}}, query_cold);
  std::printf("%-22s median %8.2f  (SQL + answer-set materialization)\n",
              "query (cold)", query_cold.median_ms);

  benchutil::TimingStats guidance_cold =
      time_cold([&](service::QueryService& s) {
        auto i = s.Query({sql, "val", {}});
        QAG_CHECK(i.ok());
        auto store = s.Guidance({i->handle, w.top_l, Grid(w)});
        QAG_CHECK(store.ok()) << store.status().ToString();
      });
  json.Add("guidance_cold",
           {{"N", w.num_ratings}, {"L", w.top_l}, {"k_max", w.k_max}},
           guidance_cold);
  std::printf("%-22s median %8.2f  (includes query + universe + grid)\n",
              "guidance (cold)", guidance_cold.median_ms);

  // Warm the shared service once; every op below serves from cache.
  QAG_CHECK_OK(svc->Guidance({handle, w.top_l, Grid(w)}).status());
  const struct {
    const char* name;
    int op;
  } kWarmOps[] = {{"summarize_warm", 0}, {"retrieve_warm", 1},
                  {"explore_warm", 2}};
  for (const auto& [name, op] : kWarmOps) {
    benchutil::TimingStats t = benchutil::TimeStats(
        [&, op = op] { RunOp(*svc, handle, w, op); }, reps * 3);
    json.Add(name, {{"N", w.num_ratings}, {"L", w.top_l}}, t);
    std::printf("%-22s median %8.3f\n", name, t.median_ms);
  }

  // --- Section 2: mixed-workload throughput, 1..32 clients. -------------
  std::printf(
      "\n-- mixed throughput: %d ops/client, shared session, warm --\n",
      ops_per_client);
  std::vector<Footprint> serial_footprints;
  double single_client_ops_per_sec = 0.0;
  for (int threads : {1, 2, 4, 8, 16, 32}) {
    std::vector<std::vector<Footprint>> per_client(
        static_cast<size_t>(threads));
    // Per-op wall times, pooled across clients and reps → p50/p99.
    std::vector<std::vector<double>> per_client_ms(
        static_cast<size_t>(threads));
    benchutil::TimingStats t = benchutil::TimeStats(
        [&] {
          for (auto& v : per_client) v.clear();
          std::vector<std::thread> clients;
          for (int c = 0; c < threads; ++c) {
            clients.emplace_back([&, c] {
              auto& mine = per_client[static_cast<size_t>(c)];
              auto& mine_ms = per_client_ms[static_cast<size_t>(c)];
              mine.reserve(static_cast<size_t>(ops_per_client));
              for (int op = 0; op < ops_per_client; ++op) {
                WallTimer op_timer;
                mine.push_back(RunOp(*svc, handle, w, op));
                mine_ms.push_back(op_timer.ElapsedMillis());
              }
            });
          }
          for (auto& c : clients) c.join();
        },
        reps);
    if (threads == 1) {
      serial_footprints = per_client[0];
    } else {
      // Bit-identity: every client's op sequence matches the 1-client run.
      for (const auto& client : per_client) {
        for (size_t i = 0; i < client.size(); ++i) {
          QAG_CHECK(client[i] == serial_footprints[i])
              << "concurrent result diverged from serial at op " << i;
        }
      }
    }
    std::vector<double> latencies;
    for (const auto& client_ms : per_client_ms) {
      latencies.insert(latencies.end(), client_ms.begin(), client_ms.end());
    }
    std::sort(latencies.begin(), latencies.end());
    auto percentile = [&latencies](double q) {
      size_t idx = static_cast<size_t>(q *
                                       static_cast<double>(latencies.size() - 1));
      return latencies[idx];
    };
    const double p50_ms = percentile(0.50);
    const double p99_ms = percentile(0.99);
    const double total_ops = static_cast<double>(threads) * ops_per_client;
    const double ops_per_sec = total_ops / (t.median_ms / 1e3);
    if (threads == 1) single_client_ops_per_sec = ops_per_sec;
    std::printf(
        "clients %2d: median %8.2f ms  %8.0f ops/s  (%5.2fx vs 1)  "
        "p50 %7.3f ms  p99 %7.3f ms\n",
        threads, t.median_ms, ops_per_sec,
        ops_per_sec / single_client_ops_per_sec, p50_ms, p99_ms);
    json.Add("mixed_throughput",
             {{"threads", threads},
              {"ops_per_client", ops_per_client},
              {"N", w.num_ratings},
              {"L", w.top_l}},
             t,
             {{"ops_per_sec", ops_per_sec},
              {"p50_ms", p50_ms},
              {"p99_ms", p99_ms}});
    // Collapse guard: the warm read path is lock-free, so piling on
    // clients must never push aggregate throughput below half the
    // single-client rate — the failure signature of a shared lock on the
    // hot path (which this workload exhibited before the RCU read path:
    // ~0.5x from 2 clients on). Machine-independent by design; the
    // machine-dependent scaling *gain* is gated via the recorded
    // ops_per_sec baselines instead.
    QAG_CHECK(ops_per_sec >= 0.5 * single_client_ops_per_sec)
        << "aggregate throughput collapsed at " << threads << " clients: "
        << ops_per_sec << " ops/s vs " << single_client_ops_per_sec
        << " ops/s single-client";
  }
  std::printf("bit-identity: concurrent results match the serial run\n");

  service::ServiceStats stats = svc->stats();
  std::printf(
      "\nservice totals: %lld requests, %lld cache hits, %lld coalesced "
      "waits, %lld builds\n",
      static_cast<long long>(stats.requests()),
      static_cast<long long>(stats.cache_hits),
      static_cast<long long>(stats.coalesced_waits),
      static_cast<long long>(stats.builds));
  json.WriteFile();
  return 0;
}
