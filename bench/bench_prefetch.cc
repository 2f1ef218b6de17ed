// Prefetch & warm-start driver: what the background scheduler buys at the
// service boundary.
//
//   * cold_first_response: a fresh service pays Query + Guidance from
//     scratch — the baseline every speculative mechanism is judged against;
//   * warm_first_response: same request sequence against a service whose
//     snapshot directory holds a fingerprint-validated guidance snapshot
//     from a previous lifetime — the warm-start load replaces the grid
//     precompute with a disk read + pattern re-resolution;
//   * session_foreground_wait: a simulated exploration session (the
//     src/study/ trajectory shapes the prefetch predictor is trained on)
//     replayed against the service with prefetch off vs on. The measured
//     quantity is the *foreground* wait only: background speculation is
//     drained outside the clock before every move, so the row isolates
//     what the user experiences — predicted moves served as warm RCU
//     reads. The prefetch hit rate rides along as extras.
//
// Every timed response is produced by the same public API calls in both
// variants, so the bit-identity invariants the test battery pins (warm ==
// cold, prefetched == built-on-demand) hold here by construction.
//
// Emits BENCH_prefetch.json (schema in bench/README.md); the CI smoke run
// gates it against bench/baselines/.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "service/query_service.h"
#include "study/trajectory.h"
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

/// A fresh service over the workload table, built outside the clock.
std::unique_ptr<service::QueryService> MakeService(
    const testutil::RandomTableSpec& spec, uint64_t seed, const Workload& w,
    service::ServiceOptions options) {
  auto svc = std::make_unique<service::QueryService>(std::move(options));
  QAG_CHECK_OK(svc->RegisterTable(
      "ratings", testutil::MakeRandomTable(spec, seed, w.base_rows)));
  return svc;
}

/// An empty scratch directory for warm-start snapshots, emptied on every
/// call so a stale snapshot from a previous bench run never warms a
/// supposedly cold service.
std::string ScratchSnapshotDir() {
  const std::string dir = "bench_prefetch_snapshots";
  ::mkdir(dir.c_str(), 0755);
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  return dir;
}

/// One simulated exploration session: the Query that opens it, then the
/// trajectory's moves. `foreground_wait_ms` accumulates only the public
/// API calls; when `drain` is set, background work (speculation, snapshot
/// writes) is quiesced outside the clock before each move.
double ReplaySession(service::QueryService& svc, const Workload& w,
                     const std::string& sql,
                     const std::vector<study::Move>& moves, bool drain) {
  double wait_ms = 0.0;
  service::QueryHandle handle;
  {
    WallTimer timer;
    auto info = svc.Query({sql, "val", {}});
    QAG_CHECK(info.ok()) << info.status().ToString();
    handle = info->handle;
  }
  for (size_t i = 1; i < moves.size(); ++i) {
    if (drain) svc.DrainBackgroundWork();
    const study::Move& move = moves[i];
    const int top_l = std::min(move.top_l, w.top_l);
    WallTimer timer;
    switch (move.kind) {
      case study::MoveKind::kSummarize: {
        auto s = svc.Summarize({handle, {4, top_l, 2}});
        QAG_CHECK(s.ok()) << s.status().ToString();
        break;
      }
      case study::MoveKind::kExplore: {
        auto e = svc.Explore({handle, {4, top_l, 2}, 8});
        QAG_CHECK(e.ok()) << e.status().ToString();
        break;
      }
      case study::MoveKind::kGuidance: {
        auto g = svc.Guidance({handle, top_l, Grid(w)});
        QAG_CHECK(g.ok()) << g.status().ToString();
        break;
      }
      case study::MoveKind::kQuery:
        break;  // one query per session, already issued
    }
    wait_ms += timer.ElapsedMillis();
  }
  return wait_ms;
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
  const uint64_t seed = 29;
  testutil::RandomTableSpec spec;
  spec.domains = {14, 10, 8, 6};
  const std::string sql = w.Sql();

  benchutil::PrintHeader(
      "Prefetch & warm start: speculation on the background scheduler",
      "warm-started sessions skip the grid precompute; predicted moves in "
      "an exploration session are served as warm RCU reads");
  benchutil::JsonReporter json("prefetch");

  // --- Cold vs warm-started first response ------------------------------
  // First response = Query + Guidance(top_l): the point at which the
  // client can scrub the (k, D) grid interactively.
  double cold_first = 0.0;
  double cold_first_min = 0.0;
  {
    std::vector<std::unique_ptr<service::QueryService>> services;
    for (int r = 0; r < reps; ++r) {
      services.push_back(
          MakeService(spec, seed, w, service::ServiceOptions()));
    }
    size_t next = 0;
    benchutil::TimingStats cold = benchutil::TimeStats(
        [&] {
          service::QueryService& svc = *services[next++];
          auto info = svc.Query({sql, "val", {}});
          QAG_CHECK(info.ok()) << info.status().ToString();
          auto store = svc.Guidance({info->handle, w.top_l, Grid(w)});
          QAG_CHECK(store.ok()) << store.status().ToString();
        },
        reps);
    cold_first = cold.median_ms;
    cold_first_min = cold.min_ms;
    std::printf("\ncold first response (Query + Guidance): %.2f ms median\n",
                cold.median_ms);
    json.Add("cold_first_response",
             {{"N", w.base_rows}, {"L", w.top_l}, {"k_max", w.k_max}}, cold);
  }

  double warm_first_min = 0.0;
  {
    service::ServiceOptions with_snapshots;
    with_snapshots.snapshot_dir = ScratchSnapshotDir();
    // Previous lifetime: build the grid once and let the background
    // snapshot write land before "shutdown".
    {
      auto builder = MakeService(spec, seed, w, with_snapshots);
      auto info = builder->Query({sql, "val", {}});
      QAG_CHECK(info.ok()) << info.status().ToString();
      auto store = builder->Guidance({info->handle, w.top_l, Grid(w)});
      QAG_CHECK(store.ok()) << store.status().ToString();
      builder->DrainBackgroundWork();
    }
    std::vector<std::unique_ptr<service::QueryService>> services;
    for (int r = 0; r < reps; ++r) {
      services.push_back(MakeService(spec, seed, w, with_snapshots));
    }
    size_t next = 0;
    int64_t warm_loads = 0;
    benchutil::TimingStats warm = benchutil::TimeStats(
        [&] {
          service::QueryService& svc = *services[next++];
          auto info = svc.Query({sql, "val", {}});
          QAG_CHECK(info.ok()) << info.status().ToString();
          // The snapshot reload rides the foreground-build lane; waiting
          // it out is part of reaching the first grid response.
          svc.DrainBackgroundWork();
          auto store = svc.Guidance({info->handle, w.top_l, Grid(w)});
          QAG_CHECK(store.ok()) << store.status().ToString();
          QAG_CHECK(!store->stats.built)
              << "warm-started Guidance rebuilt the grid from scratch";
          warm_loads += svc.stats().warm_start_loads;
        },
        reps);
    warm_first_min = warm.min_ms;
    QAG_CHECK(warm_loads == reps)
        << "expected one warm-start load per lifetime, got " << warm_loads;
    std::printf("warm first response (snapshot reload):  %.2f ms median "
                "(%.2fx vs cold)\n",
                warm.median_ms, cold_first / warm.median_ms);
    json.Add("warm_first_response",
             {{"N", w.base_rows}, {"L", w.top_l}, {"k_max", w.k_max}}, warm,
             {{"warm_start_loads", static_cast<double>(warm_loads)}});
  }

  // --- Exploration-session foreground wait, prefetch off vs on ----------
  study::TrajectoryOptions traj_options;
  traj_options.num_sessions = 1;
  traj_options.moves_per_session = smoke ? 8 : 12;
  traj_options.l_max = w.top_l / 2;
  const std::vector<study::Move> moves =
      study::SimulateTrajectories(traj_options)[0];

  double off_wait = 0.0;
  double on_wait = 0.0;
  double hit_rate = 0.0;
  for (const bool prefetch : {false, true}) {
    service::ServiceOptions options;
    options.prefetch = prefetch;
    std::vector<std::unique_ptr<service::QueryService>> services;
    for (int r = 0; r < reps; ++r) {
      services.push_back(MakeService(spec, seed, w, options));
    }
    int64_t issued = 0;
    int64_t hits = 0;
    // The recorded row is the foreground wait alone (drains between moves
    // are excluded by ReplaySession's per-call clocks), median over reps.
    std::vector<double> waits;
    waits.reserve(static_cast<size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      service::QueryService& svc = *services[static_cast<size_t>(r)];
      waits.push_back(ReplaySession(svc, w, sql, moves, /*drain=*/prefetch));
      svc.DrainBackgroundWork();
      issued += svc.stats().prefetch_issued;
      hits += svc.stats().prefetch_hits;
    }
    std::sort(waits.begin(), waits.end());
    const double wait_ms = waits[waits.size() / 2];
    if (prefetch) {
      on_wait = wait_ms;
      hit_rate = issued > 0 ? static_cast<double>(hits) /
                                  static_cast<double>(issued)
                            : 0.0;
      std::printf("exploration session, prefetch on:  %8.2f ms foreground "
                  "wait (%lld speculative builds, %lld hits, %.0f%% hit "
                  "rate)\n",
                  wait_ms, static_cast<long long>(issued / reps),
                  static_cast<long long>(hits / reps), 100.0 * hit_rate);
    } else {
      off_wait = wait_ms;
      std::printf("\nexploration session (%d moves), prefetch off: %.2f ms "
                  "foreground wait\n",
                  static_cast<int>(moves.size()), wait_ms);
    }
    benchutil::TimingStats wait_stats;
    wait_stats.median_ms = wait_ms;
    wait_stats.min_ms = waits.front();
    wait_stats.reps = reps;
    json.Add("session_foreground_wait",
             {{"prefetch", prefetch ? 1.0 : 0.0},
              {"moves", static_cast<double>(moves.size())},
              {"N", w.base_rows},
              {"L", w.top_l}},
             wait_stats,
             {{"prefetch_issued", static_cast<double>(issued) / reps},
              {"prefetch_hits", static_cast<double>(hits) / reps},
              {"hit_rate", hit_rate}});
  }

  // Acceptance bars (smoke): warm start (checked above to build no grid)
  // must be no slower than the cold first response, and speculation must
  // land — some predicted moves served warm. The speed bar compares min
  // times: shared-runner preemption only ever inflates a rep, so the min
  // is the clean measurement of the deterministic work each side does.
  if (smoke) {
    QAG_CHECK(cold_first_min >= warm_first_min)
        << "warm-started first response (min " << warm_first_min
        << " ms) is slower than cold (min " << cold_first_min << " ms)";
    QAG_CHECK(hit_rate > 0.0) << "no prefetch ever paid off";
    std::printf("\nwarm start %.2fx vs cold on min times (>= 1x bar: "
                "PASS); prefetch hit rate %.0f%% (> 0 bar: PASS)\n",
                cold_first_min / warm_first_min, 100.0 * hit_rate);
    QAG_CHECK(on_wait <= 2.0 * off_wait)
        << "prefetch-on foreground wait (" << on_wait
        << " ms) regressed far past prefetch-off (" << off_wait << " ms)";
  }

  json.WriteFile();
  return 0;
}
