// Approximate-first serving driver: cold-to-first-answer latency, exact
// refinement completion, and sample-maintenance overhead — the two-phase
// serve path measured at the service boundary.
//
// For each table scale (100k / 1M / 4M rows; 20k / 100k in smoke mode)
// the driver times
//
//   * approx_first_answer: a cold Query in an approximate mode answers
//     from the dataset's reservoir sample — cost proportional to the
//     sample, independent of the table;
//   * exact_first_answer: a cold Query in exact-only mode pays the full
//     scan before the first byte of response;
//   * refinement: Refine() upgrades the approximate set to exact — the
//     background phase-two build, timed in the foreground for a
//     deterministic clock.
//
// The cold approximate point is timed under kApproxOnly, whose phase one
// is the identical code path to kApproxFirst (same sample, same bounds);
// it just keeps the background exact build of earlier reps from sharing
// cores with later reps' clocks. The two-phase composition itself is
// checked per scale: a kApproxFirst query must answer approximately, and
// the refined generation must fingerprint bit-identical to a cold
// exact-only service over the same table (the differential invariant).
// Acceptance bar, QAG_CHECKed: approximate first answer at least 10x
// faster than exact at the 1M-row point (3x at the largest smoke scale —
// smoke tables are small enough that the exact scan is itself cheap).
//
// Sample maintenance: AppendRows timed against two otherwise identical
// services, sampling enabled vs disabled (sample_capacity = 0) — the
// per-append cost of keeping the reservoir incremental.
//
// Emits BENCH_approx.json (schema in bench/README.md); the CI smoke run
// gates it against bench/baselines/.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "service/query_service.h"
#include "test_util.h"

namespace {

using namespace qagview;

constexpr char kSql[] =
    "SELECT g0, g1, g2, avg(rating) AS val FROM ratings "
    "GROUP BY g0, g1, g2 HAVING count(*) > 2 ORDER BY val DESC";
constexpr double kConfidence = 0.95;

service::ServiceOptions Sampled() {
  service::ServiceOptions options;
  options.sample_capacity = 4096;
  return options;
}

/// Chunked table build so the transient row buffers stay bounded at the
/// 4M-row scale (the columnar table itself is dictionary-compact).
storage::Table BuildTable(const testutil::RandomTableSpec& spec,
                          uint64_t seed, int64_t rows) {
  storage::Table table(spec.MakeSchema());
  constexpr int64_t kChunk = 100000;
  uint64_t chunk_seed = seed;
  for (int64_t done = 0; done < rows;) {
    const int64_t n = std::min(kChunk, rows - done);
    QAG_CHECK_OK(table.AppendRows(testutil::MakeRandomRows(
        spec, chunk_seed++, static_cast<int>(n))));
    done += n;
  }
  return table;
}

benchutil::TimingStats Stats(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  return {times[times.size() / 2], times.front(),
          static_cast<int>(times.size())};
}

}  // namespace

int main() {
  const bool smoke = benchutil::SmokeMode();
  const int reps = smoke ? 5 : 3;
  const uint64_t seed = 71;
  testutil::RandomTableSpec spec;
  const std::vector<int64_t> scales =
      smoke ? std::vector<int64_t>{20000, 100000}
            : std::vector<int64_t>{100000, 1000000, 4000000};
  service::QueryOptions approx_only;
  approx_only.mode = service::QueryMode::kApproxOnly;
  approx_only.confidence = kConfidence;

  benchutil::PrintHeader(
      "Approximate-first serving: cold-to-first-answer and refinement",
      "the approximate first answer costs the sample, not the table: flat "
      "across scales while the exact cold path grows linearly");
  benchutil::JsonReporter json("approx");

  std::printf("\n%-10s %14s %14s %14s %9s\n", "rows", "approx", "exact",
              "refine", "speedup");
  for (const int64_t rows : scales) {
    storage::Table table = BuildTable(spec, seed, rows);

    // Cold approximate first answer + foreground-timed refinement. One
    // fresh service per rep (register/clone outside the clock).
    std::vector<double> approx_times;
    std::vector<double> refine_times;
    uint64_t refined_fp = 0;
    for (int r = 0; r < reps; ++r) {
      service::QueryService svc(Sampled());
      QAG_CHECK_OK(svc.RegisterTable("ratings", table.Clone()));
      WallTimer cold_timer;
      auto info = svc.Query({kSql, "val", approx_only});
      approx_times.push_back(cold_timer.ElapsedMillis());
      QAG_CHECK(info.ok()) << info.status().ToString();
      QAG_CHECK(!info->approx.is_exact) << "approximate query served exact";
      QAG_CHECK(info->approx.max_bound > 0.0);
      WallTimer refine_timer;
      QAG_CHECK_OK(svc.Refine({info->handle}).status());
      refine_times.push_back(refine_timer.ElapsedMillis());
      auto answers = svc.Answers(info->handle);
      QAG_CHECK(answers.ok()) << answers.status().ToString();
      refined_fp = (*answers)->content_fingerprint();
    }

    // Cold exact first answer.
    std::vector<double> exact_times;
    uint64_t exact_fp = 0;
    for (int r = 0; r < reps; ++r) {
      service::QueryService svc;
      QAG_CHECK_OK(svc.RegisterTable("ratings", table.Clone()));
      WallTimer cold_timer;
      auto info = svc.Query({kSql, "val", {}});
      exact_times.push_back(cold_timer.ElapsedMillis());
      QAG_CHECK(info.ok()) << info.status().ToString();
      QAG_CHECK(info->approx.is_exact);
      auto answers = svc.Answers(info->handle);
      QAG_CHECK(answers.ok()) << answers.status().ToString();
      exact_fp = (*answers)->content_fingerprint();
    }

    // The differential invariant, re-checked in the bench itself: the
    // refined generation is bit-identical to a cold exact rebuild.
    QAG_CHECK(refined_fp == exact_fp)
        << "refined generation diverged from cold exact rebuild at "
        << rows << " rows";

    // Two-phase composition end to end: approx-first answers
    // approximately, and its refinement (coalescing with the background
    // build it scheduled) lands on the same exact generation.
    {
      service::QueryService svc(Sampled());
      QAG_CHECK_OK(svc.RegisterTable("ratings", table.Clone()));
      service::QueryOptions approx_first;
      approx_first.mode = service::QueryMode::kApproxFirst;
      approx_first.confidence = kConfidence;
      auto info = svc.Query({kSql, "val", approx_first});
      QAG_CHECK(info.ok()) << info.status().ToString();
      QAG_CHECK(!info->approx.is_exact)
          << "approx-first cold query served exact";
      QAG_CHECK_OK(svc.Refine({info->handle}).status());
      auto answers = svc.Answers(info->handle);
      QAG_CHECK(answers.ok()) << answers.status().ToString();
      QAG_CHECK((*answers)->content_fingerprint() == exact_fp)
          << "approx-first refinement diverged at " << rows << " rows";
    }

    benchutil::TimingStats approx = Stats(approx_times);
    benchutil::TimingStats exact = Stats(exact_times);
    benchutil::TimingStats refine = Stats(refine_times);
    const double speedup = exact.median_ms / approx.median_ms;
    std::printf("%-10lld %11.2f ms %11.2f ms %11.2f ms %8.1fx\n",
                static_cast<long long>(rows), approx.median_ms,
                exact.median_ms, refine.median_ms, speedup);
    json.Add("approx_first_answer", {{"N", static_cast<double>(rows)}},
             approx);
    json.Add("exact_first_answer", {{"N", static_cast<double>(rows)}},
             exact);
    json.Add("refinement", {{"N", static_cast<double>(rows)}}, refine);

    // Acceptance bar: 10x at the 1M-row point; 3x at the largest smoke
    // scale, where the exact scan is itself only a few milliseconds.
    if (!smoke && rows == 1000000) {
      QAG_CHECK(speedup >= 10.0)
          << "approximate first answer (" << approx.median_ms
          << " ms) is not 10x faster than exact (" << exact.median_ms
          << " ms) at 1M rows";
    }
    if (smoke && rows == scales.back()) {
      QAG_CHECK(speedup >= 3.0)
          << "approximate first answer (" << approx.median_ms
          << " ms) is not 3x faster than exact (" << exact.median_ms
          << " ms) at the smoke scale";
    }
  }

  // Sample maintenance: per-append cost with the reservoir incremental
  // versus sampling disabled. Identical services and batches otherwise;
  // the delta is the sampler's Add loop plus the snapshot rebuild.
  {
    const int64_t base_rows = smoke ? 20000 : 100000;
    const int batch_rows = 100;
    const int cycles = smoke ? 30 : 100;
    storage::Table table = BuildTable(spec, seed ^ 0xAAAAu, base_rows);

    struct Variant {
      const char* name;
      int capacity;
    };
    const Variant kVariants[] = {{"append_with_sampling", 4096},
                                 {"append_no_sampling", 0}};
    std::printf("\nsample maintenance (+%d rows per append, %d cycles):\n",
                batch_rows, cycles);
    for (const Variant& variant : kVariants) {
      service::ServiceOptions options;
      options.sample_capacity = variant.capacity;
      service::QueryService svc(options);
      QAG_CHECK_OK(svc.RegisterTable("ratings", table.Clone()));
      std::vector<double> times;
      times.reserve(static_cast<size_t>(cycles));
      uint64_t cycle = 0;
      for (int c = 0; c < cycles; ++c) {
        auto batch = testutil::MakeRandomRows(
            spec, seed ^ (0xBBBBu + ++cycle), batch_rows);
        WallTimer timer;
        QAG_CHECK_OK(svc.AppendRows({"ratings", std::move(batch)}).status());
        times.push_back(timer.ElapsedMillis());
      }
      benchutil::TimingStats stats = Stats(times);
      std::printf("  %-22s median %8.3f ms/append\n", variant.name,
                  stats.median_ms);
      json.Add(variant.name,
               {{"N", static_cast<double>(base_rows)},
                {"delta_rows", batch_rows},
                {"cycles", cycles}},
               stats);
    }
  }

  json.WriteFile();
  return 0;
}
