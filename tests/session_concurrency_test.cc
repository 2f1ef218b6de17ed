// Concurrency coverage for core::Session: N client threads sharing one
// session must (a) never race (the TSan CI job runs this binary), (b) get
// results bit-identical to a serial execution, and (c) coalesce identical
// concurrent builds onto a single precompute (single-flight).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.h"
#include "test_util.h"

namespace qagview::core {
namespace {

constexpr int kThreads = 8;

std::unique_ptr<Session> MakeSession(uint64_t seed = 41, int n = 120) {
  auto session =
      Session::Create(testutil::MakeRandomAnswerSet(seed, n, 5, 3));
  QAG_CHECK(session.ok());
  return std::move(session).value();
}

PrecomputeOptions GridOptions(int k_max, std::vector<int> d_values) {
  PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = k_max;
  options.d_values = std::move(d_values);
  return options;
}

TEST(SessionConcurrencyTest, ConcurrentUniverseForCoalesces) {
  auto session = MakeSession();
  testutil::StartLatch latch(kThreads);
  std::vector<std::shared_ptr<const ClusterUniverse>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      latch.ArriveAndWait();
      auto universe = session->UniverseFor(15);
      ASSERT_TRUE(universe.ok()) << universe.status().ToString();
      seen[static_cast<size_t>(t)] = *universe;
    });
  }
  for (auto& t : threads) t.join();

  // Exactly one build happened; every thread got the same universe.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
  Session::CacheStats stats = session->cache_stats();
  EXPECT_EQ(stats.universes, 1);
  // Misses are exact (exactly one build ran); hits are a monotonic lower
  // bound: each non-leader counts at least one — directly or after a
  // coalesced wait — but the lock-free fast path may retry-and-count
  // again when a probe races a publication.
  EXPECT_EQ(stats.universe_misses, 1);
  EXPECT_GE(stats.universe_hits, kThreads - 1);
  EXPECT_LE(stats.universe_coalesced, kThreads - 1);
}

TEST(SessionConcurrencyTest, ConcurrentGuidanceSingleFlight) {
  auto session = MakeSession(43);
  PrecomputeOptions options = GridOptions(8, {1, 2});
  testutil::StartLatch latch(kThreads);
  std::vector<std::shared_ptr<const SolutionStore>> seen(kThreads);
  std::vector<Session::RequestTrace> traces(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      latch.ArriveAndWait();
      auto store =
          session->Guidance(12, options, &traces[static_cast<size_t>(t)]);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      seen[static_cast<size_t>(t)] = *store;
    });
  }
  for (auto& t : threads) t.join();

  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
  Session::CacheStats stats = session->cache_stats();
  EXPECT_EQ(stats.stores, 1);        // one grid, not kThreads
  EXPECT_EQ(stats.store_misses, 1);  // exactly one precompute ran (exact)
  EXPECT_GE(stats.store_hits, kThreads - 1);  // hits: monotonic lower bound
  // Trace flags partition the callers: one built, the rest hit or
  // coalesced (and every coalesced wait is counted in CacheStats).
  int built = 0, coalesced = 0, hits = 0;
  for (const auto& trace : traces) {
    built += trace.built ? 1 : 0;
    coalesced += trace.coalesced ? 1 : 0;
    hits += trace.cache_hit ? 1 : 0;
  }
  EXPECT_EQ(built, 1);
  EXPECT_EQ(built + coalesced + hits, kThreads);
  EXPECT_EQ(stats.store_coalesced, coalesced);
}

TEST(SessionConcurrencyTest, GuidanceErrorPropagatesToAllWaiters) {
  // A valid request whose build fails inside its flight: the universe
  // build refuses more than ClusterUniverse::kMaxAttrs attributes.
  auto created = Session::Create(testutil::MakeRandomAnswerSet(
      47, 20, ClusterUniverse::kMaxAttrs + 1, 2));
  ASSERT_TRUE(created.ok());
  std::unique_ptr<Session> session = std::move(created).value();
  const PrecomputeOptions options = GridOptions(8, {1});
  testutil::StartLatch latch(4);
  std::vector<Status> statuses(4, Status::OK());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      latch.ArriveAndWait();
      statuses[static_cast<size_t>(t)] =
          session->Guidance(12, options).status();
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
  Session::CacheStats stats = session->cache_stats();
  EXPECT_EQ(stats.stores, 0);
  EXPECT_EQ(stats.universes, 0);
  // Every caller either led a failed build or waited on one.
  EXPECT_EQ(stats.store_misses + stats.store_coalesced, 4);
  // A failed flight leaves no residue: the request runs (and fails) again
  // instead of waiting on a finished flight.
  EXPECT_EQ(session->Guidance(12, options).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->cache_stats().store_misses, stats.store_misses + 1);
}

// The satellite-task workload: N threads × mixed Guidance / Retrieve /
// SaveGuidance (plus Summarize) on ONE session, asserted bit-identical to
// the same requests executed serially on an identical session.
TEST(SessionConcurrencyTest, MixedWorkloadBitIdenticalToSerial) {
  constexpr uint64_t kSeed = 53;
  constexpr int kN = 140;
  constexpr int kTopL = 25;  // pre-warmed; serves every narrower request
  const PrecomputeOptions kGridA = GridOptions(10, {1, 2});
  const PrecomputeOptions kGridB = GridOptions(8, {1, 2, 3});

  // The finite request set every thread draws from. Pre-warming the widest
  // universe makes the serial and concurrent executions serve every request
  // from the same universe, so even the statistics match; the cluster ids
  // would match without it, since a session's universes share prefix ids.
  struct Expected {
    std::vector<int> ids;
    double average = 0.0;
    int count = 0;
  };
  // `width`: the precomputes' num_threads (1 for the serial run).
  auto run_op = [&](Session& session, int op, int width) -> Result<Solution> {
    PrecomputeOptions grid_a = kGridA;
    PrecomputeOptions grid_b = kGridB;
    grid_a.num_threads = grid_b.num_threads = width;
    switch (op) {
      case 0:
        QAG_RETURN_IF_ERROR(session.Guidance(20, grid_a).status());
        return session.Retrieve(20, 2, 6);
      case 1:
        QAG_RETURN_IF_ERROR(session.Guidance(15, grid_b).status());
        return session.Retrieve(15, 3, 5);
      case 2:
        return session.Summarize({4, 12, 2});
      case 3:
        return session.Summarize({6, 18, 1});
      default:
        QAG_RETURN_IF_ERROR(session.Guidance(20, grid_a).status());
        return session.Retrieve(20, 1, 8);
    }
  };
  constexpr int kOps = 5;

  // Serial ground truth.
  std::map<int, Expected> expected;
  {
    auto serial = MakeSession(kSeed, kN);
    ASSERT_TRUE(serial->UniverseFor(kTopL).ok());
    for (int op = 0; op < kOps; ++op) {
      auto solution = run_op(*serial, op, /*width=*/1);
      ASSERT_TRUE(solution.ok()) << solution.status().ToString();
      expected[op] = {solution->cluster_ids, solution->average,
                      solution->covered_count};
    }
  }

  // Concurrent run: every thread issues every op several times, plus a
  // SaveGuidance into its own file.
  auto shared = MakeSession(kSeed, kN);
  ASSERT_TRUE(shared->UniverseFor(kTopL).ok());
  testutil::StartLatch latch(kThreads);
  std::vector<std::string> save_paths(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    save_paths[static_cast<size_t>(t)] =
        testing::TempDir() + "/qagview_conc_" + std::to_string(t) + ".txt";
    threads.emplace_back([&, t] {
      latch.ArriveAndWait();
      for (int round = 0; round < 3; ++round) {
        for (int op = 0; op < kOps; ++op) {
          int my_op = (op + t) % kOps;  // different interleavings per thread
          auto solution = run_op(*shared, my_op, /*width=*/0);
          ASSERT_TRUE(solution.ok()) << solution.status().ToString();
          const Expected& want = expected.at(my_op);
          EXPECT_EQ(solution->cluster_ids, want.ids) << "op " << my_op;
          EXPECT_EQ(solution->average, want.average) << "op " << my_op;
          EXPECT_EQ(solution->covered_count, want.count) << "op " << my_op;
        }
        ASSERT_TRUE(
            shared->SaveGuidance(15, save_paths[static_cast<size_t>(t)]).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  // Exactly one precompute per distinct grid shape, regardless of how many
  // of the kThreads × 3 rounds requested each.
  Session::CacheStats stats = shared->cache_stats();
  EXPECT_EQ(stats.stores, 2);
  EXPECT_EQ(stats.store_misses, 2);
  EXPECT_EQ(stats.universes, 1);  // the pre-warmed kTopL universe

  // Files written under concurrency round-trip into a fresh session and
  // serve the same solutions.
  auto fresh = MakeSession(kSeed, kN);
  ASSERT_TRUE(fresh->LoadGuidance(15, save_paths[0]).ok());
  auto loaded = fresh->Retrieve(15, 3, 5);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->average, expected[1].average);
  EXPECT_EQ(loaded->covered_count, expected[1].count);
  for (const std::string& path : save_paths) std::remove(path.c_str());
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Whether two universes are the same, bit for bit: ids, patterns,
/// covered lists, sums, top-L counts and singleton ids.
bool SameUniverse(const ClusterUniverse& a, const ClusterUniverse& b) {
  if (a.top_l() != b.top_l() || a.num_clusters() != b.num_clusters()) {
    return false;
  }
  for (int id = 0; id < a.num_clusters(); ++id) {
    if (!(a.cluster(id) == b.cluster(id)) ||
        testutil::Covered(a, id) != testutil::Covered(b, id) ||
        Bits(a.covered_sum(id)) != Bits(b.covered_sum(id)) ||
        a.TopCoveredCount(id, a.top_l()) !=
            b.TopCoveredCount(id, b.top_l())) {
      return false;
    }
  }
  for (int i = 0; i < a.top_l(); ++i) {
    if (a.singleton_id(i) != b.singleton_id(i)) return false;
  }
  return true;
}

/// A grid as text: per D, its (size, value bits) ladder and its sorted
/// intervals. Equal text means equal grids, whatever the trees' order.
std::string GridText(const SolutionStore& store) {
  std::string out = StrCat("L=", store.l(), " k_max=", store.k_max());
  for (int d : store.d_values()) {
    out += StrCat("\nd=", d, ":");
    Result<std::vector<std::pair<int, double>>> ladder = store.SizeValues(d);
    for (const auto& [size, value] : ladder.value()) {
      out += StrCat(" ", size, "/", Bits(value));
    }
    Result<std::vector<SolutionStore::IntervalRecord>> records =
        store.Intervals(d);
    std::vector<std::tuple<int, int, int>> intervals;
    for (const auto& r : records.value()) {
      intervals.emplace_back(r.cluster_id, r.lo, r.hi);
    }
    std::sort(intervals.begin(), intervals.end());
    for (const auto& [id, lo, hi] : intervals) {
      out += StrCat(" ", id, "@[", lo, ",", hi, "]");
    }
  }
  return out;
}

TEST(SessionConcurrencyTest, InterleavedAscendingLevelsMatchColdBuilds) {
  // Thread t climbs from L = 8 + t one level at a time, asking for the
  // universe and the (k, D) grid at each. Every universe miss grows the
  // widest universe cached at that moment, whichever thread built it, and
  // rebinds the cached grids. From L = 16 on, the thread that misses a
  // grid has just been served the grid at L − 1, so that is the widest
  // grid below L, whichever thread built it: the miss derives from it
  // exactly where a serial climb derives (k_max = 3 puts Fixed-Order's
  // budget at 9, so most levels hold merged seeds). Every universe and
  // grid served must equal a cold build at its L.
  constexpr int kFirstL = 8;
  constexpr int kLastL = 47;
  const PrecomputeOptions options = GridOptions(3, {1, 2});
  auto session = MakeSession(61, 160);
  std::shared_ptr<const AnswerSet> answers = session->answers();
  std::map<int, ClusterUniverse> cold;
  std::map<int, std::string> cold_grids;
  for (int l = kFirstL; l <= kLastL; ++l) {
    auto u = ClusterUniverse::Build(answers.get(), l);
    ASSERT_TRUE(u.ok()) << u.status().ToString();
    auto grid = Precompute::Run(*u, l, options);
    ASSERT_TRUE(grid.ok()) << grid.status().ToString();
    cold_grids.emplace(l, GridText(*grid));
    cold.emplace(l, std::move(u).value());
  }
  // The derivations a serial climb makes from L = 16 on.
  int64_t serial_derivations = 0;
  {
    auto serial = MakeSession(61, 160);
    for (int l = kFirstL; l <= kLastL; ++l) {
      const int64_t before = serial->cache_stats().store_derivations;
      ASSERT_TRUE(serial->Guidance(l, options).ok());
      if (l >= kFirstL + kThreads) {
        serial_derivations += serial->cache_stats().store_derivations - before;
      }
    }
  }
  ASSERT_GT(serial_derivations, 0);

  testutil::StartLatch latch(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      latch.ArriveAndWait();
      for (int l = kFirstL + t; l <= kLastL; ++l) {
        auto universe = session->UniverseFor(l);
        ASSERT_TRUE(universe.ok()) << universe.status().ToString();
        const ClusterUniverse& served = **universe;
        ASSERT_GE(served.top_l(), l);
        EXPECT_TRUE(SameUniverse(served, cold.at(served.top_l())))
            << "L=" << l << " served by L'=" << served.top_l();
        auto grid = session->Guidance(l, options);
        ASSERT_TRUE(grid.ok()) << grid.status().ToString();
        ASSERT_GE((*grid)->l(), l);
        EXPECT_EQ(GridText(**grid), cold_grids.at((*grid)->l()))
            << "L=" << l << " served by L'=" << (*grid)->l();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(session->cache_stats().store_derivations, serial_derivations);
}

TEST(SessionConcurrencyTest, OldHandlesStayValidWhileTheSessionGrows) {
  // Readers hold universe and store handles taken at L = 10 while another
  // thread climbs the session to L = 60: each level replaces the session's
  // universe and rebinds its grids, and frees what no handle reads. Every
  // read through an old handle, or a fresh one, must match the reads taken
  // before the climb.
  constexpr int kFirstL = 10;
  constexpr int kLastL = 60;
  auto session = MakeSession(67, 160);
  const PrecomputeOptions options = GridOptions(8, {1, 2});
  auto universe = session->UniverseFor(kFirstL);
  auto store = session->Guidance(kFirstL, options);
  ASSERT_TRUE(universe.ok());
  ASSERT_TRUE(store.ok());
  std::map<std::pair<int, int>, Solution> expected;
  for (int d : {1, 2}) {
    for (int k = (*store)->MinK(d).value(); k <= 8; ++k) {
      expected.emplace(std::make_pair(d, k), (*store)->Retrieve(d, k).value());
    }
  }
  const int clusters = (*universe)->num_clusters();
  auto same = [](const Solution& a, const Solution& b) {
    return a.cluster_ids == b.cluster_ids &&
           Bits(a.average) == Bits(b.average);
  };

  std::atomic<bool> climbing{true};
  testutil::StartLatch latch(kThreads);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    latch.ArriveAndWait();
    for (int l = kFirstL + 1; l <= kLastL; ++l) {
      if (!session->Guidance(l, options).ok() ||
          !session->Summarize({3, l, 2}).ok()) {
        ADD_FAILURE() << "climb failed at L=" << l;
        break;  // the readers stop once climbing clears
      }
    }
    climbing.store(false);
  });
  for (int t = 1; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each reader holds copies of the old handles, and retakes fresh ones
      // as it goes, dropping the previous: some pin a universe the climb
      // has superseded, and free it when they drop.
      std::shared_ptr<const ClusterUniverse> old_universe = *universe;
      std::shared_ptr<const SolutionStore> old_store = *store;
      latch.ArriveAndWait();
      int rounds = 0;
      while (climbing.load() || rounds < 3) {
        ++rounds;
        auto fresh_store = session->Guidance(kFirstL, options);
        ASSERT_TRUE(fresh_store.ok());
        auto fresh_universe = session->UniverseFor(kFirstL + t);
        ASSERT_TRUE(fresh_universe.ok());
        EXPECT_GE((*fresh_universe)->num_clusters(), clusters);
        EXPECT_EQ(old_universe->num_clusters(), clusters);
        for (const auto& [dk, want] : expected) {
          auto held = old_store->Retrieve(dk.first, dk.second);
          auto again = (*fresh_store)->Retrieve(dk.first, dk.second);
          auto served = session->Retrieve(kFirstL, dk.first, dk.second);
          ASSERT_TRUE(held.ok() && again.ok() && served.ok());
          EXPECT_TRUE(same(*held, want));
          EXPECT_TRUE(same(*again, want));
          EXPECT_TRUE(same(*served, want));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  Session::CacheStats stats = session->cache_stats();
  EXPECT_EQ(stats.universes, 1);
  // At most one growth per level: a reader's request may grow a level
  // before the climb reaches it.
  EXPECT_LE(stats.universe_misses, kLastL - kFirstL + 1);
  auto widest = session->UniverseFor(1);
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ((*widest)->top_l(), kLastL);
}

TEST(SessionConcurrencyTest, ConcurrentSummarizeSharesOneUniverse) {
  auto session = MakeSession(59);
  testutil::StartLatch latch(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      latch.ArriveAndWait();
      for (int round = 0; round < 4; ++round) {
        auto solution = session->Summarize({4, 12, 2});
        ASSERT_TRUE(solution.ok()) << solution.status().ToString();
        auto universe = session->UniverseFor(12);
        ASSERT_TRUE(universe.ok());
        EXPECT_TRUE(
            CheckFeasible(**universe, solution->cluster_ids, {4, 12, 2}).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(session->cache_stats().universes, 1);
  EXPECT_EQ(session->cache_stats().universe_misses, 1);
}

}  // namespace
}  // namespace qagview::core
