// Refresh driver: incremental dataset updates vs cold rebuild across delta
// sizes — the versioned-update pipeline measured at the service boundary.
//
// For each delta size (1 quiet row, 1%, 10%, 100% of the base table) the
// driver times
//
//   * incremental: a warm service absorbs AppendRows, then the next
//     Query + Guidance transparently refreshes the stale handle
//     (core::Session::Refresh reuses every cache whose input fingerprint
//     is provably unchanged);
//   * cold: a fresh service over the final table state pays
//     Query + Guidance from scratch.
//
// The 1-row delta lands in a group that stays under the HAVING threshold,
// so the re-executed answer set is bit-identical and the refresh proves
// "unchanged" — the realistic fast path for small appends (most rows touch
// groups outside the served answer set). Larger random deltas change the
// answer set and force rebuilds, tracing the honest reuse-decay curve.
// Every incremental result is asserted bit-identical to the cold rebuild
// of the same final state (the differential-refresh invariant), and in
// smoke mode the 1-row incremental point must build nothing (every cache
// reused) and be no slower than the cold rebuild on min times.
//
// Emits BENCH_refresh.json (schema in bench/README.md); the CI smoke run
// gates it against bench/baselines/.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "service/query_service.h"
#include "test_util.h"

namespace {

using namespace qagview;

struct Workload {
  int base_rows = 0;
  int having_min = 0;
  int top_l = 0;
  int k_max = 0;

  std::string Sql() const {
    return "SELECT g0, g1, g2, g3, avg(rating) AS val FROM ratings "
           "GROUP BY g0, g1, g2, g3 HAVING count(*) > " +
           std::to_string(having_min) + " ORDER BY val DESC";
  }
};

core::PrecomputeOptions Grid(const Workload& w) {
  core::PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = w.k_max;
  options.d_values = {1, 2, 3, 4};
  return options;
}

/// Query + Guidance + one Summarize through the public API; returns the
/// summarize average as the bit-identity footprint.
double Pipeline(service::QueryService& svc, const Workload& w,
                const std::string& sql) {
  auto info = svc.Query({sql, "val", {}});
  QAG_CHECK(info.ok()) << info.status().ToString();
  const int top_l = std::min(w.top_l, info->num_answers);
  auto store = svc.Guidance({info->handle, top_l, Grid(w)});
  QAG_CHECK(store.ok()) << store.status().ToString();
  auto solution = svc.Summarize({info->handle, {4, top_l, 2}});
  QAG_CHECK(solution.ok()) << solution.status().ToString();
  return solution->solution.average;
}

/// A fresh service over base(seed) + extra, fully warmed.
std::unique_ptr<service::QueryService> WarmService(
    const testutil::RandomTableSpec& spec, uint64_t seed, const Workload& w,
    const std::string& sql,
    const std::vector<std::vector<storage::Value>>& extra) {
  auto svc = std::make_unique<service::QueryService>();
  storage::Table table = testutil::MakeRandomTable(spec, seed, w.base_rows);
  QAG_CHECK_OK(table.AppendRows(extra));
  QAG_CHECK_OK(svc->RegisterTable("ratings", std::move(table)));
  Pipeline(*svc, w, sql);
  return svc;
}

}  // namespace

int main() {
  const bool smoke = benchutil::SmokeMode();
  Workload w;
  w.base_rows = smoke ? 4000 : 40000;
  w.having_min = smoke ? 1 : 6;
  w.top_l = 64;
  w.k_max = 32;
  const int reps = smoke ? 5 : 7;
  const uint64_t seed = 23;
  // Wider domains than the test default: a serving-sized answer set whose
  // universe + grid precompute dominate the SQL re-execution, as in the
  // paper's workloads.
  testutil::RandomTableSpec spec;
  spec.domains = {14, 10, 8, 6};
  const std::string sql = w.Sql();

  benchutil::PrintHeader(
      "Refresh: incremental dataset updates vs cold rebuild",
      "small deltas refresh in SQL-re-execution time (caches provably "
      "reusable); large deltas decay toward the cold-rebuild cost");
  benchutil::JsonReporter json("refresh");

  // The quiet single row: a group far outside the served answer set (its
  // count never crosses HAVING), so the refresh proves the answer set
  // unchanged. Delta batches of n rows: random rows over the same spec.
  const std::vector<storage::Value> quiet_row = {
      storage::Value::Str("g0tail"), storage::Value::Str("g1tail"),
      storage::Value::Str("g2tail"), storage::Value::Str("g3v0"),
      storage::Value::Real(1.0)};

  struct DeltaPoint {
    const char* name;
    int rows;  // 0 = the single quiet row
  };
  const DeltaPoint kDeltas[] = {
      {"1 quiet row", 0},
      {"1%", w.base_rows / 100},
      {"10%", w.base_rows / 10},
      {"100%", w.base_rows},
  };

  std::printf("\n-- %d base rows, L=%d, k_max=%d, reps=%d --\n",
              w.base_rows, w.top_l, w.k_max, reps);
  std::printf("%-12s %14s %14s %9s\n", "delta", "incremental", "cold", "speedup");

  double incremental_1row_min = 0.0;
  double cold_1row_min = 0.0;
  for (const DeltaPoint& delta : kDeltas) {
    const int delta_rows = delta.rows == 0 ? 1 : delta.rows;
    std::vector<std::vector<storage::Value>> extra =
        delta.rows == 0
            ? std::vector<std::vector<storage::Value>>{quiet_row}
            : testutil::MakeRandomRows(spec, seed ^ 0xD1D1u, delta.rows);

    // Incremental: warm services built outside the clock; one rep times
    // AppendRows + the refreshing Query + Guidance.
    std::vector<std::unique_ptr<service::QueryService>> warmed;
    std::vector<service::ServiceStats> before;
    for (int r = 0; r < reps; ++r) {
      warmed.push_back(WarmService(spec, seed, w, sql, {}));
      before.push_back(warmed.back()->stats());
    }
    size_t next = 0;
    double live_footprint = 0.0;
    benchutil::TimingStats incremental = benchutil::TimeStats(
        [&] {
          service::QueryService& svc = *warmed[next++];
          QAG_CHECK_OK(svc.AppendRows({"ratings", extra}).status());
          live_footprint = Pipeline(svc, w, sql);
        },
        reps);

    // Cold: services over the final state built outside the clock; one
    // rep times Query + Guidance from scratch.
    std::vector<std::unique_ptr<service::QueryService>> cold_services;
    for (int r = 0; r < reps; ++r) {
      auto svc = std::make_unique<service::QueryService>();
      storage::Table table =
          testutil::MakeRandomTable(spec, seed, w.base_rows);
      QAG_CHECK_OK(table.AppendRows(extra));
      QAG_CHECK_OK(svc->RegisterTable("ratings", std::move(table)));
      cold_services.push_back(std::move(svc));
    }
    next = 0;
    double cold_footprint = 0.0;
    benchutil::TimingStats cold = benchutil::TimeStats(
        [&] { cold_footprint = Pipeline(*cold_services[next++], w, sql); },
        reps);

    // The differential-refresh invariant, re-checked in the bench itself.
    QAG_CHECK(live_footprint == cold_footprint)
        << "incremental refresh diverged from cold rebuild at delta "
        << delta.name;

    const double speedup = cold.median_ms / incremental.median_ms;
    std::printf("%-12s %11.2f ms %11.2f ms %8.2fx\n", delta.name,
                incremental.median_ms, cold.median_ms, speedup);
    json.Add("incremental_refresh",
             {{"delta_rows", delta_rows},
              {"N", w.base_rows},
              {"L", w.top_l},
              {"k_max", w.k_max}},
             incremental);
    json.Add("cold_rebuild",
             {{"delta_rows", delta_rows},
              {"N", w.base_rows},
              {"L", w.top_l},
              {"k_max", w.k_max}},
             cold);
    if (delta.rows == 0) {
      incremental_1row_min = incremental.min_ms;
      cold_1row_min = cold.min_ms;
      // The quiet row must take the reuse path: no universe or grid is
      // built, and every rep's refresh reuses the whole session cache.
      for (int r = 0; r < reps; ++r) {
        const service::ServiceStats after =
            warmed[static_cast<size_t>(r)]->stats();
        const service::ServiceStats& was = before[static_cast<size_t>(r)];
        QAG_CHECK(after.builds == was.builds)
            << "1-row refresh built " << after.builds - was.builds
            << " structures instead of reusing the caches";
        QAG_CHECK(after.refresh_full_reuses > was.refresh_full_reuses)
            << "1-row refresh did not prove the answer set unchanged";
      }
    }
  }

  // Sustained updates: one warm service absorbs N append+refresh cycles
  // while clients drop their handles after each use — the serving pattern
  // that used to leak a generation per refresh. The memory column is the
  // generation census after the last cycle: with every reader drained the
  // graveyard must be empty (drain-then-evict), so resident generations
  // stay at one per session no matter how many refreshes ran.
  {
    const int cycles = smoke ? 20 : 100;
    const int delta_rows = std::max(1, w.base_rows / 200);
    auto svc = WarmService(spec, seed, w, sql, {});
    uint64_t cycle = 0;
    benchutil::TimingStats sustained = benchutil::TimeStats(
        [&] {
          auto rows = testutil::MakeRandomRows(
              spec, seed ^ (0xBEEFu + ++cycle), delta_rows);
          QAG_CHECK_OK(svc->AppendRows({"ratings", std::move(rows)}).status());
          Pipeline(*svc, w, sql);  // handles dropped on return
        },
        cycles);
    service::ServiceStats stats = svc->stats();
    // Strict: with every handle dropped, nothing may remain retained —
    // the bound is live readers (+1 live generation), and readers are 0.
    QAG_CHECK(stats.graveyard_size == 0)
        << "graveyard grew under sustained updates with no live readers: "
        << stats.graveyard_size << " generations retained";
    std::printf(
        "\nsustained updates: %d cycles of +%d rows, median %.2f ms/cycle; "
        "generations: live %lld, graveyard %lld, evicted %lld\n",
        cycles, delta_rows, sustained.median_ms,
        static_cast<long long>(stats.live_generations),
        static_cast<long long>(stats.graveyard_size),
        static_cast<long long>(stats.generations_evicted));
    // The generation census rides along as extras (measured outputs), not
    // params: params are the regression gate's join key, and a benign
    // census wobble must not detach this entry from its baseline.
    json.Add("sustained_updates",
             {{"cycles", cycles},
              {"delta_rows", delta_rows},
              {"N", w.base_rows},
              {"L", w.top_l}},
             sustained,
             {{"graveyard_size", static_cast<double>(stats.graveyard_size)},
              {"live_generations",
               static_cast<double>(stats.live_generations)},
              {"generations_evicted",
               static_cast<double>(stats.generations_evicted)}});
  }

  // Acceptance bar: at the 1-row delta, the provably-unchanged refresh
  // (checked above to build nothing) must be no slower than the cold
  // rebuild on the smoke workload. The bar compares min times:
  // shared-runner preemption only ever inflates a rep.
  if (smoke) {
    QAG_CHECK(cold_1row_min >= incremental_1row_min)
        << "1-row incremental refresh (min " << incremental_1row_min
        << " ms) is slower than cold rebuild (min " << cold_1row_min
        << " ms)";
    std::printf("\n1-row delta: incremental %.2f ms vs cold %.2f ms on min "
                "times, %.2fx (>= 1x bar: PASS)\n",
                incremental_1row_min, cold_1row_min,
                cold_1row_min / incremental_1row_min);
  }

  json.WriteFile();
  return 0;
}
