// Figure 7: cost and benefit of precomputation (§7.2): initialization,
// single-run, and precomputation times while varying k, L, and N, plus the
// single-vs-precompute cumulative comparison over six runs, plus the
// thread-scaling curve of the parallel (k, D) precompute (one Bottom-Up
// replay per D spread over one ParallelFor call), the serial universe build on
// the same instance, that universe grown from narrower ones, and the grid
// climbing L one level at a time, derived from the level below where it can
// be.
//
// Emits BENCH_fig7_precompute.json next to the text output; see
// bench/README.md for the schema. QAGVIEW_BENCH_SMOKE=1 shrinks the
// instances for the CI smoke run.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "core/hybrid.h"
#include "core/precompute.h"

namespace {

using namespace qagview;

struct Timings {
  double init_ms = 0.0;
  double algo_ms = 0.0;
  double retrieval_ms = 0.0;
};

benchutil::TimingStats Once(double ms) { return {ms, ms, 1}; }

Timings SingleRun(const core::AnswerSet& s, int k, int top_l, int d) {
  Timings t;
  WallTimer timer;
  auto universe = core::ClusterUniverse::Build(&s, top_l);
  QAG_CHECK(universe.ok());
  t.init_ms = timer.ElapsedMillis();
  timer.Restart();
  auto solution = core::Hybrid::Run(*universe, {k, top_l, d});
  QAG_CHECK(solution.ok()) << solution.status().ToString();
  t.algo_ms = timer.ElapsedMillis();
  return t;
}

Timings PrecomputeRun(const core::AnswerSet& s, int k_max, int top_l,
                      const std::vector<int>& d_values, int retrievals = 1,
                      int k_min = 2) {
  Timings t;
  WallTimer timer;
  auto universe = core::ClusterUniverse::Build(&s, top_l);
  QAG_CHECK(universe.ok());
  t.init_ms = timer.ElapsedMillis();

  core::PrecomputeOptions options;
  options.k_min = k_min;
  options.k_max = k_max;
  options.d_values = d_values;
  timer.Restart();
  auto store = core::Precompute::Run(*universe, top_l, options);
  QAG_CHECK(store.ok()) << store.status().ToString();
  t.algo_ms = timer.ElapsedMillis();

  timer.Restart();
  for (int r = 0; r < retrievals; ++r) {
    int d = d_values[static_cast<size_t>(r) % d_values.size()];
    int k = 2 + (r * 3) % (k_max - 1);
    auto solution = store->Retrieve(d, std::max(k, store->MinK(d).value()));
    QAG_CHECK(solution.ok()) << solution.status().ToString();
  }
  t.retrieval_ms = timer.ElapsedMillis();
  return t;
}

// Exact (bit-level) equality of two stores: same D rows, same (size, value)
// ladders, same interval sets. The parallel precompute must pass this
// against the serial one for every thread count.
bool StoresIdentical(const core::SolutionStore& a,
                     const core::SolutionStore& b) {
  if (a.l() != b.l() || a.k_max() != b.k_max() ||
      a.d_values() != b.d_values()) {
    return false;
  }
  auto sorted_intervals = [](const core::SolutionStore& s, int d) {
    auto recs = s.Intervals(d);
    QAG_CHECK(recs.ok());
    std::vector<std::tuple<int, int, int>> out;
    for (const auto& r : *recs) out.emplace_back(r.lo, r.hi, r.cluster_id);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (int d : a.d_values()) {
    auto sa = a.SizeValues(d);
    auto sb = b.SizeValues(d);
    QAG_CHECK(sa.ok() && sb.ok());
    if (*sa != *sb) return false;
    if (sorted_intervals(a, d) != sorted_intervals(b, d)) return false;
  }
  return true;
}

// Exact (bit-level) equality of two universes: same ids, patterns, covered
// lists, covered-sum bits, top-L counts and singleton ids. A grown universe
// must pass this against the cold build at its L.
bool UniversesIdentical(const core::ClusterUniverse& a,
                        const core::ClusterUniverse& b) {
  if (a.top_l() != b.top_l() || a.num_clusters() != b.num_clusters()) {
    return false;
  }
  for (int id = 0; id < a.num_clusters(); ++id) {
    const double sa = a.covered_sum(id);
    const double sb = b.covered_sum(id);
    const Span<int32_t> ca = a.covered(id);
    const Span<int32_t> cb = b.covered(id);
    if (!(a.cluster(id) == b.cluster(id)) ||
        std::memcmp(&sa, &sb, sizeof(double)) != 0 ||
        a.TopCoveredCount(id, a.top_l()) !=
            b.TopCoveredCount(id, b.top_l()) ||
        !std::equal(ca.begin(), ca.end(), cb.begin(), cb.end())) {
      return false;
    }
  }
  for (int i = 0; i < a.top_l(); ++i) {
    if (a.singleton_id(i) != b.singleton_id(i)) return false;
  }
  return true;
}

}  // namespace

int main() {
  const bool smoke = benchutil::SmokeMode();
  // Set when a smoke run's one-level grow costs more than half the cold
  // build timed beside it, or when its climb derives no grid or derives
  // at more than a tenth of a precompute's cost; the run then fails once
  // its JSON is written.
  bool slow_growth = false;
  bool slow_derivation = false;
  benchutil::JsonReporter reporter("fig7_precompute");

  // Paper-scale instances, shrunk in smoke mode so CI finishes in seconds.
  const int n_small = smoke ? 600 : 2087;
  const int n_large = smoke ? 1500 : 6955;
  const int big_l = smoke ? 200 : 1000;
  const int mid_l = smoke ? 120 : 500;
  const int grid_k_max = smoke ? 20 : 100;

  benchutil::PrintHeader(
      "Figure 7a: precompute runtime vs k (L=" + std::to_string(big_l) +
          ", D=2, N=" + std::to_string(n_small) + ")",
      "initialization flat in k; the algorithm (Hybrid precompute) time "
      "trends down as k grows (fewer Bottom-Up merges from the shared "
      "Fixed-Order pool down to the target k)");
  core::AnswerSet s2087 = benchutil::MakeAnswers(n_small, 8, /*seed=*/7);
  std::printf("%-6s %12s %12s\n", "k", "init(ms)", "algo(ms)");
  for (int k : {5, 10, 20, 50, 100}) {
    if (k > grid_k_max) continue;
    // Fixed pool (k_max as the grid maximum); merge down to k.
    Timings t = PrecomputeRun(s2087, grid_k_max, big_l, {2},
                              /*retrievals=*/1, /*k_min=*/k);
    std::printf("%-6d %12.2f %12.2f\n", k, t.init_ms, t.algo_ms);
    reporter.Add("7a_precompute_vs_k",
                 {{"k", k}, {"L", big_l}, {"N", n_small}, {"D", 2}},
                 Once(t.algo_ms));
  }

  benchutil::PrintHeader(
      "Figure 7b: cumulative runtime, single runs vs precomputation "
      "(N=" + std::to_string(n_large) + ", L=" + std::to_string(mid_l) +
          ", k=20, D in {1,2,3})",
      "a single run is cheaper once, but precomputation already wins by "
      "about the third retrieval; after six runs the single version costs "
      "~2x the precompute version");
  core::AnswerSet s7000 = benchutil::MakeAnswers(n_large, 8, /*seed=*/8);
  {
    // Six (k, D) requests.
    const int ks[6] = {20, 10, 5, 15, 8, 12};
    const int ds[6] = {1, 2, 3, 1, 2, 3};
    WallTimer timer;
    auto universe = core::ClusterUniverse::Build(&s7000, mid_l);
    QAG_CHECK(universe.ok());
    double single_cum = timer.ElapsedMillis();  // init shared
    std::printf("%-28s", "single runs cumulative(ms):");
    for (int r = 0; r < 6; ++r) {
      timer.Restart();
      auto solution =
          core::Hybrid::Run(*universe, {ks[r], mid_l, ds[r]});
      QAG_CHECK(solution.ok());
      single_cum += timer.ElapsedMillis();
      std::printf(" run%d=%.1f", r + 1, single_cum);
    }
    std::printf("\n");

    timer.Restart();
    core::PrecomputeOptions options;
    options.k_min = 2;
    options.k_max = 20;
    options.d_values = {1, 2, 3};
    auto store = core::Precompute::Run(*universe, mid_l, options);
    QAG_CHECK(store.ok());
    double pre_cum = timer.ElapsedMillis();
    std::printf("%-28s", "precompute cumulative(ms):");
    for (int r = 0; r < 6; ++r) {
      timer.Restart();
      auto solution = store->Retrieve(ds[r], ks[r]);
      QAG_CHECK(solution.ok());
      pre_cum += timer.ElapsedMillis();
      std::printf(" run%d=%.1f", r + 1, pre_cum);
    }
    std::printf("\n");
    reporter.Add("7b_six_runs_single",
                 {{"N", n_large}, {"L", mid_l}, {"k", 20}},
                 Once(single_cum));
    reporter.Add("7b_six_runs_precompute",
                 {{"N", n_large}, {"L", mid_l}, {"k", 20}}, Once(pre_cum));
  }

  benchutil::PrintHeader(
      "Figure 7c/7d: runtime vs L (k=20, D=2, N=" + std::to_string(n_small) +
          "), single vs precompute",
      "both versions grow with L; the precompute algorithm phase costs ~3-4x "
      "a single run, but retrieval is near-free");
  std::printf("%-6s | %10s %10s | %10s %10s %12s\n", "L", "sgl.init",
              "sgl.algo", "pre.init", "pre.algo", "pre.retrieve");
  for (int l : {200, 500, 1000}) {
    int use_l = smoke ? l / 5 : l;
    Timings single = SingleRun(s2087, 20, use_l, 2);
    Timings pre =
        PrecomputeRun(s2087, 20, use_l, {1, 2, 3}, /*retrievals=*/3);
    std::printf("%-6d | %10.2f %10.2f | %10.2f %10.2f %12.4f\n", use_l,
                single.init_ms, single.algo_ms, pre.init_ms, pre.algo_ms,
                pre.retrieval_ms);
    reporter.Add("7c_single_vs_L",
                 {{"L", use_l}, {"N", n_small}, {"k", 20}, {"D", 2}},
                 Once(single.algo_ms));
    reporter.Add("7d_precompute_vs_L",
                 {{"L", use_l}, {"N", n_small}, {"k", 20}},
                 Once(pre.algo_ms));
  }

  benchutil::PrintHeader(
      "Figure 7e/7f: runtime vs N (k=20, L=" + std::to_string(mid_l) +
          ", D=2), single vs precompute",
      "initialization grows markedly with N (more tuples to map to "
      "clusters); algorithm times grow mildly");
  std::printf("%-6s | %10s %10s | %10s %10s %12s\n", "N", "sgl.init",
              "sgl.algo", "pre.init", "pre.algo", "pre.retrieve");
  for (int n : {927, 2087, 6955}) {
    int use_n = smoke ? n / 5 : n;
    core::AnswerSet s = benchutil::MakeAnswers(use_n, 8, /*seed=*/70 + n);
    Timings single = SingleRun(s, 20, mid_l, 2);
    Timings pre = PrecomputeRun(s, 20, mid_l, {1, 2, 3}, /*retrievals=*/3);
    std::printf("%-6d | %10.2f %10.2f | %10.2f %10.2f %12.4f\n", use_n,
                single.init_ms, single.algo_ms, pre.init_ms, pre.algo_ms,
                pre.retrieval_ms);
    reporter.Add("7e_single_init_vs_N",
                 {{"N", use_n}, {"L", mid_l}, {"k", 20}, {"D", 2}},
                 Once(single.init_ms));
    reporter.Add("7f_precompute_vs_N",
                 {{"N", use_n}, {"L", mid_l}, {"k", 20}},
                 Once(pre.algo_ms));
  }

  benchutil::PrintHeader(
      "Parallel precompute scaling: full (k, D) grid, threads in {1,2,4,8} "
      "(N=" + std::to_string(n_large) + ", L=" + std::to_string(big_l) +
          ", D=1..8, k_max=" + std::to_string(grid_k_max) + ")",
      "the per-D Bottom-Up replays are independent, so wall clock drops "
      "with threads while the resulting store stays bit-identical; the "
      "universe build it starts from is serial");
  {
    auto universe = core::ClusterUniverse::Build(&s7000, big_l);
    QAG_CHECK(universe.ok());
    core::PrecomputeOptions options;
    options.k_min = 2;
    options.k_max = grid_k_max;
    // Default d_values: the full 1..m grid, m=8 independent replays.

    options.num_threads = 1;
    auto reference = core::Precompute::Run(*universe, big_l, options);
    QAG_CHECK(reference.ok());

    const int reps = smoke ? 2 : 3;
    double serial_ms = 0.0;
    std::printf("%-10s %14s %14s %10s %12s\n", "threads", "median(ms)",
                "min(ms)", "speedup", "identical?");
    for (int threads : {1, 2, 4, 8}) {
      options.num_threads = threads;
      std::optional<core::SolutionStore> store;
      benchutil::TimingStats t = benchutil::TimeStats(
          [&] {
            auto run = core::Precompute::Run(*universe, big_l, options);
            QAG_CHECK(run.ok());
            store.emplace(std::move(run).value());
          },
          reps);
      bool identical = StoresIdentical(*reference, *store);
      QAG_CHECK(identical)
          << "parallel precompute diverged at " << threads << " threads";
      if (threads == 1) serial_ms = t.median_ms;
      std::printf("%-10d %14.2f %14.2f %9.2fx %12s\n", threads, t.median_ms,
                  t.min_ms, serial_ms / t.median_ms,
                  identical ? "yes" : "NO");
      reporter.Add("scaling_precompute_grid",
                   {{"threads", threads},
                    {"N", n_large},
                    {"L", big_l},
                    {"k_max", grid_k_max},
                    {"num_d", 8}},
                   t);
    }

    std::printf("\nuniverse build (serial inverse coverage scan), same "
                "instance:\n");
    std::printf("%-10s %14s %14s\n", "threads", "median(ms)", "min(ms)");
    benchutil::TimingStats t = benchutil::TimeStats(
        [&] {
          auto u = core::ClusterUniverse::Build(&s7000, big_l);
          QAG_CHECK(u.ok());
        },
        reps);
    std::printf("%-10d %14.2f %14.2f\n", 1, t.median_ms, t.min_ms);
    reporter.Add("scaling_universe_build",
                 {{"threads", 1}, {"N", n_large}, {"L", big_l}}, t);

    // The same universe grown from a narrower one, as a session does when
    // a request widens L: one level (a few new clusters) and half of L
    // (most of them new). Each grown universe must be the cold one.
    std::printf("\nthe same universe grown from a narrower one:\n");
    std::printf("%-10s %14s %14s %10s %12s\n", "from L", "median(ms)",
                "min(ms)", "cold/grow", "identical?");
    for (int from_l : {big_l - 1, big_l / 2}) {
      auto base = core::ClusterUniverse::Build(&s7000, from_l);
      QAG_CHECK(base.ok());
      std::optional<core::ClusterUniverse> grown;
      benchutil::TimingStats g = benchutil::TimeStats(
          [&] {
            auto u = core::ClusterUniverse::Grow(*base, big_l);
            QAG_CHECK(u.ok());
            grown.emplace(std::move(u).value());
          },
          smoke ? 5 : 9);
      const bool identical = UniversesIdentical(*grown, *universe);
      QAG_CHECK(identical) << "universe grown from L=" << from_l
                           << " differs from the cold build";
      const double ratio = t.median_ms / g.median_ms;
      std::printf("%-10d %14.2f %14.2f %9.2fx %12s\n", from_l, g.median_ms,
                  g.min_ms, ratio, identical ? "yes" : "NO");
      reporter.Add("universe_grow",
                   {{"from_L", from_l}, {"N", n_large}, {"L", big_l}}, g,
                   {{"cold_over_grow", ratio}});
      // The same-run gate: growing one level must cost at most half a cold
      // build (smoke runs read 3.6-4.2x), whatever the host's speed.
      if (smoke && from_l == big_l - 1 && ratio < 2.0) {
        std::fprintf(stderr,
                     "FAIL: growing L=%d -> %d took %.2f ms, more than half "
                     "the cold build's %.2f ms (cold/grow %.2fx < 2x)\n",
                     from_l, big_l, g.median_ms, t.median_ms, ratio);
        slow_growth = true;
      }
    }

    // The grid climbing L one level at a time, as a session widens: at each
    // level the cold precompute and, where the seeds of the grid one level
    // below cover the new answer, the grid derived from it
    // (Precompute::Widen), which must be the cold one. One thread, so the
    // ratio is the serial cost a derivation saves.
    constexpr int kClimb = 20;
    std::printf(
        "\nthe grid climbing L = %d..%d, cold and derived from L - 1:\n",
        big_l - kClimb, big_l);
    std::printf("%-10s %14s %14s %12s\n", "L", "cold(ms)", "derive(ms)",
                "identical?");
    options.num_threads = 1;
    std::vector<double> cold_ms;
    std::vector<double> derive_ms;
    std::optional<core::SolutionStore> below;
    for (int l = big_l - kClimb; l <= big_l; ++l) {
      WallTimer timer;
      auto cold = core::Precompute::Run(*universe, l, options);
      const double run_ms = timer.ElapsedMillis();
      QAG_CHECK(cold.ok()) << cold.status().ToString();
      if (!below.has_value()) {  // the climb's base level
        below.emplace(std::move(cold).value());
        continue;
      }
      cold_ms.push_back(run_ms);
      std::optional<core::SolutionStore> derived;
      benchutil::TimingStats d = benchutil::TimeStats(
          [&] {
            derived = core::Precompute::Widen(*below, *universe, l, options);
          },
          smoke ? 5 : 9);
      if (derived.has_value()) {
        QAG_CHECK(StoresIdentical(*derived, *cold))
            << "grid derived at L=" << l << " differs from the precompute";
        derive_ms.push_back(d.median_ms);
        std::printf("%-10d %14.2f %14.4f %12s\n", l, run_ms, d.median_ms,
                    "yes");
      } else {
        std::printf("%-10d %14.2f %14s %12s\n", l, run_ms, "-", "-");
      }
      below.emplace(std::move(cold).value());
    }
    auto median = [](std::vector<double> v) {
      if (v.empty()) return 0.0;
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    const double cold_median = median(cold_ms);
    const double derive_median = median(derive_ms);
    const int derived_levels = static_cast<int>(derive_ms.size());
    const double derive_ratio =
        derived_levels > 0 ? cold_median / derive_median : 0.0;
    std::printf("%d of %d levels derived; median cold %.2f ms, median "
                "derived %.4f ms (cold/derive %.0fx)\n",
                derived_levels, kClimb, cold_median, derive_median,
                derive_ratio);
    reporter.Add(
        "grid_derive",
        {{"N", n_large}, {"L", big_l}, {"levels", kClimb},
         {"k_max", grid_k_max}},
        {derive_median,
         derived_levels > 0
             ? *std::min_element(derive_ms.begin(), derive_ms.end())
             : 0.0,
         derived_levels},
        {{"derived_levels", derived_levels},
         {"cold_over_derive", derive_ratio}});
    // The same-run gate: some level must derive, and a derived level must
    // cost at most a tenth of a cold one (smoke runs derive in
    // microseconds against milliseconds), whatever the host's speed.
    if (smoke && (derived_levels == 0 || derive_ratio < 10.0)) {
      std::fprintf(stderr,
                   "FAIL: %d of %d levels derived their grid; median "
                   "derived %.4f ms against median cold %.2f ms (cold/derive "
                   "%.1fx < 10x)\n",
                   derived_levels, kClimb, derive_median, cold_median,
                   derive_ratio);
      slow_derivation = true;
    }
  }

  reporter.WriteFile();
  return slow_growth || slow_derivation ? 1 : 0;
}
