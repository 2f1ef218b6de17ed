#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bottom_up.h"
#include "core/explore.h"
#include "core/greedy_state.h"
#include "core/session.h"
#include "datagen/answers.h"
#include "test_util.h"

namespace qagview::core {
namespace {

std::unique_ptr<Session> MakeSession(uint64_t seed = 3, int n = 100) {
  auto session =
      Session::Create(testutil::MakeRandomAnswerSet(seed, n, 5, 3));
  QAG_CHECK(session.ok());
  return std::move(session).value();
}

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(SessionTest, SummarizeProducesFeasibleSolutions) {
  auto session = MakeSession();
  Params params{4, 12, 2};
  auto solution = session->Summarize(params);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  auto universe = session->UniverseFor(12);
  ASSERT_TRUE(universe.ok());
  EXPECT_TRUE(CheckFeasible(**universe, solution->cluster_ids, params).ok());
}

TEST(SessionTest, UniverseCacheReusesWiderUniverse) {
  auto session = MakeSession();
  ASSERT_TRUE(session->UniverseFor(20).ok());   // miss: builds L=20
  ASSERT_TRUE(session->UniverseFor(10).ok());   // hit: 20 covers 10
  ASSERT_TRUE(session->UniverseFor(20).ok());   // hit
  ASSERT_TRUE(session->UniverseFor(30).ok());   // miss: grows to 30
  Session::CacheStats stats = session->cache_stats();
  EXPECT_EQ(stats.universes, 1);  // the L=30 universe replaced the L=20 one
  EXPECT_EQ(stats.universe_misses, 2);
  EXPECT_EQ(stats.universe_hits, 2);
}

TEST(SessionTest, ClimbKeepsOneUniverseAndFreesTheSuperseded) {
  // Nothing cached pins a superseded universe: after a 50-level climb with
  // no handle held, the first level's universe is gone.
  auto session = MakeSession(5, 120);
  PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 6;
  options.d_values = {1, 2};
  std::weak_ptr<const ClusterUniverse> first;
  {
    auto universe = session->UniverseFor(10);
    ASSERT_TRUE(universe.ok());
    first = *universe;
  }
  for (int l = 10; l < 60; ++l) {
    SCOPED_TRACE(StrCat("L=", l));
    ASSERT_TRUE(session->Guidance(l, options).ok());
    ASSERT_TRUE(session->Summarize({3, l, 2}).ok());
    ASSERT_TRUE(session->Retrieve(l, 2, 4).ok());
  }
  EXPECT_TRUE(first.expired());
  Session::CacheStats stats = session->cache_stats();
  EXPECT_EQ(stats.universes, 1);
  EXPECT_EQ(stats.universe_misses, 50);
  EXPECT_EQ(stats.stores, 50);
  auto widest = session->UniverseFor(1);
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ((*widest)->top_l(), 59);
}

TEST(SessionTest, OldHandlesOutliveGrowthAndRetrieveBitIdentically) {
  // Handles taken at L = 10 pin what they read: after the session grows to
  // L = 40 they still read the L = 10 universe and retrieve what they did.
  auto session = MakeSession(15, 120);
  PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 8;
  options.d_values = {1, 2, 3};
  auto universe = session->UniverseFor(10);
  auto store = session->Guidance(10, options);
  ASSERT_TRUE(universe.ok());
  ASSERT_TRUE(store.ok());
  std::vector<Solution> before;
  for (int d = 1; d <= 3; ++d) {
    for (int k = (*store)->MinK(d).value(); k <= 8; ++k) {
      before.push_back((*store)->Retrieve(d, k).value());
    }
  }
  const int clusters = (*universe)->num_clusters();

  ASSERT_TRUE(session->Guidance(40, options).ok());
  auto grown = session->UniverseFor(40);
  ASSERT_TRUE(grown.ok());
  EXPECT_NE(grown->get(), universe->get());
  EXPECT_GT((*grown)->num_clusters(), clusters);

  EXPECT_EQ((*universe)->top_l(), 10);
  EXPECT_EQ((*universe)->num_clusters(), clusters);
  size_t i = 0;
  for (int d = 1; d <= 3; ++d) {
    for (int k = (*store)->MinK(d).value(); k <= 8; ++k, ++i) {
      Result<Solution> again = (*store)->Retrieve(d, k);
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(again->cluster_ids, before[i].cluster_ids);
      EXPECT_EQ(DoubleBits(again->average), DoubleBits(before[i].average));
      // The session's own copy of the L = 10 grid, now over the grown
      // universe, serves the same solution.
      Result<Solution> served = session->Retrieve(10, d, k);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      EXPECT_EQ(served->cluster_ids, before[i].cluster_ids);
      EXPECT_EQ(DoubleBits(served->average), DoubleBits(before[i].average));
    }
  }
}

TEST(SessionTest, CachedSummarizeMatchesDirectRun) {
  auto session = MakeSession(7);
  Params params{5, 15, 2};
  auto first = session->Summarize(params);
  auto second = session->Summarize(params);  // cached universe
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->cluster_ids, second->cluster_ids);
  EXPECT_NEAR(first->average, second->average, 1e-12);
}

TEST(SessionTest, SaveAndLoadGuidanceAcrossSessions) {
  std::string path = testing::TempDir() + "/qagview_session_guidance.txt";
  PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 8;
  options.d_values = {1, 2};

  // Session A precomputes and saves.
  auto a = MakeSession(31);
  ASSERT_TRUE(a->Guidance(12, options).ok());
  ASSERT_TRUE(a->SaveGuidance(12, path).ok());
  auto direct = a->Retrieve(12, 2, 5);
  ASSERT_TRUE(direct.ok());

  // Session B (same answer set) loads instead of precomputing.
  auto b = MakeSession(31);
  ASSERT_TRUE(b->LoadGuidance(12, path).ok());
  auto loaded = b->Retrieve(12, 2, 5);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_NEAR(direct->average, loaded->average, 1e-12);
  EXPECT_EQ(direct->covered_count, loaded->covered_count);

  // A session over different data rejects the file.
  auto c = MakeSession(32);
  EXPECT_FALSE(c->LoadGuidance(12, path).ok());
  // Save without a prior Guidance() fails.
  EXPECT_FALSE(c->SaveGuidance(12, path + ".none").ok());
  std::remove(path.c_str());
}

TEST(SessionTest, LoadGuidanceRejectsGridSavedFromOtherValues) {
  // X' ranks the same elements as X in the same order, with every value
  // passed through a strictly increasing nonlinear map. Every cluster
  // pattern of X's grid resolves in X''s universe, yet the grid's
  // solutions and averages belong to X: the file's recorded answer-set
  // identity must refuse it, and the session must stay without a grid.
  const int top_l = 40;
  const std::string path = testing::TempDir() + "/qagview_stale_grid.store";
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    datagen::SyntheticAnswerOptions options;
    options.n = 600;
    options.m = 5;
    options.domain = 6;
    options.seed = seed;
    AnswerSet x = datagen::MakeSyntheticAnswers(options);
    std::vector<std::vector<std::string>> value_names(
        static_cast<size_t>(x.num_attrs()));
    for (int a = 0; a < x.num_attrs(); ++a) {
      for (int32_t code = 0; code < x.domain_size(a); ++code) {
        value_names[static_cast<size_t>(a)].push_back(x.ValueName(a, code));
      }
    }
    std::vector<Element> mapped = x.elements();
    for (Element& e : mapped) e.value = std::exp(3.0 * e.value);
    auto x_prime = AnswerSet::FromRaw(x.attr_names(), std::move(value_names),
                                      std::move(mapped));
    ASSERT_TRUE(x_prime.ok()) << x_prime.status().ToString();
    ASSERT_EQ(x_prime->size(), x.size());
    for (int i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x_prime->element(i).attrs, x.element(i).attrs)
          << "seed " << seed << ": the map must keep the ranking";
    }

    auto a = Session::Create(std::move(x));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE((*a)->Guidance(top_l).ok());
    ASSERT_TRUE((*a)->SaveGuidance(top_l, path).ok());

    auto b = Session::Create(std::move(x_prime).value());
    ASSERT_TRUE(b.ok());
    Status loaded = (*b)->LoadGuidance(top_l, path);
    EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument)
        << "seed " << seed << ": " << loaded.ToString();
    EXPECT_EQ((*b)->Retrieve(top_l, 2, 5).status().code(),
              StatusCode::kFailedPrecondition)
        << "seed " << seed << ": a refused file must leave no grid behind";
    EXPECT_EQ((*b)->cache_stats().universes, 0)
        << "seed " << seed << ": the identity check precedes any build";
  }
  std::remove(path.c_str());
}

TEST(SessionTest, GuidanceAndRetrieve) {
  auto session = MakeSession(9);
  PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 8;
  options.d_values = {1, 2};
  auto store = session->Guidance(15, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // Cached second call returns the same store.
  auto again = session->Guidance(15, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*store, *again);
  EXPECT_EQ(session->cache_stats().stores, 1);

  auto solution = session->Retrieve(15, 2, 6);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  auto universe = session->UniverseFor(15);
  ASSERT_TRUE(universe.ok());
  EXPECT_TRUE(
      CheckFeasible(**universe, solution->cluster_ids, {6, 15, 2}).ok());
}

TEST(SessionTest, RetrieveWithoutGuidanceFails) {
  auto session = MakeSession(11);
  auto solution = session->Retrieve(15, 2, 6);
  EXPECT_EQ(solution.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session->cache_stats().store_misses, 1);
}

TEST(SessionTest, WiderStoreServesNarrowerRequests) {
  // Mirror of the universe cache policy: Guidance(25) followed by
  // Retrieve(15, ...) must be served from the L=25 grid instead of failing
  // (Proposition 6.1 — the wider grid covers the narrower request).
  auto session = MakeSession(21);
  PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 8;
  options.d_values = {1, 2};
  auto wide = session->Guidance(25, options);
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();

  auto narrow = session->Retrieve(15, 2, 5);
  ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
  auto direct = session->Retrieve(25, 2, 5);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(narrow->cluster_ids, direct->cluster_ids);

  // Guidance for a narrower L is a cache hit, not a second precompute.
  auto again = session->Guidance(15, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *wide);
  EXPECT_EQ(session->cache_stats().stores, 1);

  // A request wider than every cached grid still fails.
  EXPECT_EQ(session->Retrieve(40, 2, 5).status().code(),
            StatusCode::kFailedPrecondition);

  Session::CacheStats stats = session->cache_stats();
  // Guidance(25) missed; Retrieve(15)/Retrieve(25)/Guidance(15) hit;
  // Retrieve(40) missed.
  EXPECT_EQ(stats.store_misses, 2);
  EXPECT_EQ(stats.store_hits, 3);
}

TEST(SessionTest, SaveGuidanceServesFromWiderStoreAndRoundTrips) {
  std::string path = testing::TempDir() + "/qagview_wider_guidance.txt";
  PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 8;
  options.d_values = {1, 2};

  auto a = MakeSession(33);
  ASSERT_TRUE(a->Guidance(20, options).ok());
  // Saving at a narrower L is served by the L=20 store; the file records
  // the store's own L.
  ASSERT_TRUE(a->SaveGuidance(12, path).ok());

  // The symmetric round-trip — LoadGuidance at the same L the save was
  // requested with — must accept the wider file and serve the request.
  auto b = MakeSession(33);
  ASSERT_TRUE(b->LoadGuidance(12, path).ok());
  auto loaded = b->Retrieve(12, 2, 5);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto direct = a->Retrieve(12, 2, 5);
  ASSERT_TRUE(direct.ok());
  EXPECT_NEAR(direct->average, loaded->average, 1e-12);

  // Loading wider than the file's grid still fails.
  auto c = MakeSession(33);
  EXPECT_FALSE(c->LoadGuidance(30, path).ok());
  std::remove(path.c_str());
}

TEST(SessionTest, GuidanceRebuildsWhenCachedGridLacksRequestedRows) {
  // A wider-L store built with a narrower (k, D) grid must not shadow a
  // request for rows it lacks; Guidance precomputes a fuller grid instead.
  auto session = MakeSession(35);
  PrecomputeOptions narrow;
  narrow.k_min = 2;
  narrow.k_max = 6;
  narrow.d_values = {1};
  ASSERT_TRUE(session->Guidance(25, narrow).ok());

  PrecomputeOptions full;
  full.k_min = 2;
  full.k_max = 10;
  full.d_values = {1, 2, 3};
  auto store = session->Guidance(15, full);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(session->cache_stats().stores, 2);
  auto solution = session->Retrieve(15, 3, 8);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();

  // Same options again: now a cache hit on the L=15 store.
  auto again = session->Guidance(15, full);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *store);
  EXPECT_EQ(session->cache_stats().stores, 2);

  // Retrieve skips the narrower-grid L=15 store when only the wider L=25
  // one has the row... but here the L=15 store has d=3; d=1 k=5 is served
  // by the narrowest store that can answer.
  EXPECT_TRUE(session->Retrieve(20, 1, 5).ok());
  // A D that no cached store holds still errors.
  EXPECT_FALSE(session->Retrieve(15, 5, 5).ok());
}

TEST(SessionTest, GuidanceNeverInvalidatesEarlierStores) {
  // Stores accumulate: a later Guidance with different options must not
  // destroy (or drop rows of) a store an earlier call handed out.
  auto session = MakeSession(37);
  PrecomputeOptions d3_only;
  d3_only.k_min = 2;
  d3_only.k_max = 8;
  d3_only.d_values = {3};
  auto first = session->Guidance(15, d3_only);
  ASSERT_TRUE(first.ok());
  auto before = (*first)->Retrieve(3, 6);
  ASSERT_TRUE(before.ok());

  PrecomputeOptions d1_only = d3_only;
  d1_only.d_values = {1};
  ASSERT_TRUE(session->Guidance(15, d1_only).ok());
  EXPECT_EQ(session->cache_stats().stores, 2);

  // The first store pointer is still alive and its rows still served.
  auto after = (*first)->Retrieve(3, 6);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->cluster_ids, after->cluster_ids);
  EXPECT_TRUE(session->Retrieve(15, 3, 6).ok());
  EXPECT_TRUE(session->Retrieve(15, 1, 6).ok());
}

// The request's num_threads is the width of its own precompute: any width
// builds the same grid, and a grid built at one width serves a request at
// another (the width is no part of a grid's identity).
TEST(SessionTest, PrecomputeWidthPreservesResults) {
  auto serial = MakeSession(27, 150);
  auto parallel = MakeSession(27, 150);

  PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 10;
  options.num_threads = 1;
  ASSERT_TRUE(serial->Guidance(30, options).ok());
  options.num_threads = 8;
  ASSERT_TRUE(parallel->Guidance(30, options).ok());
  ASSERT_TRUE(serial->Guidance(30, options).ok());
  EXPECT_EQ(serial->cache_stats().store_misses, 1);
  for (int d : {1, 2, 3}) {
    for (int k : {4, 7, 10}) {
      auto a = serial->Retrieve(30, d, k);
      auto b = parallel->Retrieve(30, d, k);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(a->cluster_ids, b->cluster_ids) << "d=" << d << " k=" << k;
      // Bit-identical, not just close.
      EXPECT_EQ(a->average, b->average);
    }
  }
}

// A request a cold session refuses is refused alike, with the same code,
// by a session that holds grids at a wider L: L and the grid options are
// checked before any lookup.
TEST(SessionTest, InvalidRequestsFailAlikeColdAndWarm) {
  const std::string path = testing::TempDir() + "/qagview_invalid_l.txt";
  auto cold = MakeSession(33);
  auto warm = MakeSession(33);
  PrecomputeOptions wide;
  wide.k_min = 1;
  wide.k_max = 8;
  ASSERT_TRUE(warm->Guidance(20).ok());
  ASSERT_TRUE(warm->Guidance(20, wide).ok());
  ASSERT_TRUE(warm->SaveGuidance(20, path).ok());
  const int warm_stores = warm->cache_stats().stores;

  auto grid = [](int k_min, int k_max, std::vector<int> d_values = {}) {
    PrecomputeOptions options;
    options.k_min = k_min;
    options.k_max = k_max;
    options.d_values = std::move(d_values);
    return options;
  };
  const int n = cold->answers()->size();
  const std::vector<std::pair<std::string, std::function<Status(Session&)>>>
      requests = {
          {"Guidance L=0", [](Session& s) { return s.Guidance(0).status(); }},
          {"Guidance L=-1",
           [](Session& s) { return s.Guidance(-1).status(); }},
          {"Guidance L=n+1",
           [n](Session& s) { return s.Guidance(n + 1).status(); }},
          {"Guidance k_min=2 k_max=1",
           [&](Session& s) { return s.Guidance(8, grid(2, 1)).status(); }},
          {"Guidance k_min=0",
           [&](Session& s) { return s.Guidance(8, grid(0, 4)).status(); }},
          {"Guidance D=6",
           [&](Session& s) {
             return s.Guidance(8, grid(2, 4, {6})).status();
           }},
          {"Retrieve L=0",
           [](Session& s) { return s.Retrieve(0, 1, 2).status(); }},
          {"Retrieve L=-3",
           [](Session& s) { return s.Retrieve(-3, 1, 2).status(); }},
          {"SaveGuidance L=-1",
           [&](Session& s) { return s.SaveGuidance(-1, path + ".out"); }},
          {"SaveGuidance L=0",
           [&](Session& s) { return s.SaveGuidance(0, path + ".out"); }},
          {"LoadGuidance L=0",
           [&](Session& s) { return s.LoadGuidance(0, path); }},
      };
  for (const auto& [name, request] : requests) {
    SCOPED_TRACE(name);
    const Status on_cold = request(*cold);
    const Status on_warm = request(*warm);
    EXPECT_EQ(on_cold.code(), StatusCode::kInvalidArgument)
        << on_cold.ToString();
    EXPECT_EQ(on_warm.code(), on_cold.code()) << on_warm.ToString();
  }
  // Nothing was cached by a refused request.
  EXPECT_EQ(cold->cache_stats().stores, 0);
  EXPECT_EQ(cold->cache_stats().universes, 0);
  EXPECT_EQ(warm->cache_stats().stores, warm_stores);
  std::remove(path.c_str());
  std::remove((path + ".out").c_str());
}

/// Every (d, k) solution of a grid: cluster ids (universe(L)'s ids are a
/// prefix of any wider universe's) and the average's bits, as text.
std::string GridSolutions(const SolutionStore& store) {
  std::string out = StrCat("L=", store.l(), " k_max=", store.k_max(), "\n");
  for (int d : store.d_values()) {
    for (int k = store.MinK(d).value(); k <= store.k_max(); ++k) {
      Result<Solution> solution = store.Retrieve(d, k);
      QAG_CHECK(solution.ok()) << solution.status().ToString();
      out += StrCat("d=", d, " k=", k, " avg=", solution->average, " ids=");
      for (int id : solution->cluster_ids) out += StrCat(id, ",");
      out += "\n";
    }
  }
  return out;
}

/// What an Explore request returns: the solution and both rendered layers,
/// drawn from the universe that produced the solution.
std::string Explore(Session& session, const Params& params) {
  std::shared_ptr<const ClusterUniverse> universe;
  Result<Solution> solution = session.Summarize(params, &universe);
  QAG_CHECK(solution.ok()) << solution.status().ToString();
  TwoLayerView view = BuildTwoLayerView(*universe, *solution, params.L);
  const AnswerSet& answers = universe->answer_set();
  std::string out = StrCat("avg=", solution->average, " ids=");
  for (int id : solution->cluster_ids) out += StrCat(id, ",");
  return out + "\n" + RenderSummary(*universe, view) +
         RenderExpanded(answers, view, /*max_members=*/4, params.L);
}

/// Asks one session for every L of `levels` in turn; each Summarize and
/// Explore response must be the one a session asked only at that L
/// returns, and so must each grid when `with_grids` (levels ascending: a
/// wider grid still serves a narrower L). A fresh session precomputes its
/// grid; the climbing one may derive it from the grid below
/// (`derivations`, when set, receives how many it derived).
void ExpectLevelsMatchFreshSessions(const std::vector<int>& levels,
                                    bool with_grids,
                                    int64_t* derivations = nullptr) {
  PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 8;
  auto session = MakeSession(29, 120);
  Rng rng(29);
  int widest = 0;
  int64_t growths = 0;
  for (int l : levels) {
    SCOPED_TRACE(StrCat("L=", l));
    const Params params{2 + static_cast<int>(rng.Index(5)), l,
                        1 + static_cast<int>(rng.Index(4))};
    auto fresh = MakeSession(29, 120);
    if (with_grids) {
      auto grid = session->Guidance(l, options);
      auto fresh_grid = fresh->Guidance(l, options);
      ASSERT_TRUE(grid.ok()) << grid.status().ToString();
      ASSERT_TRUE(fresh_grid.ok()) << fresh_grid.status().ToString();
      EXPECT_EQ(GridSolutions(**grid), GridSolutions(**fresh_grid));
    }
    Result<Solution> summary = session->Summarize(params);
    Result<Solution> fresh_summary = fresh->Summarize(params);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    ASSERT_TRUE(fresh_summary.ok()) << fresh_summary.status().ToString();
    EXPECT_EQ(summary->cluster_ids, fresh_summary->cluster_ids);
    EXPECT_EQ(DoubleBits(summary->average),
              DoubleBits(fresh_summary->average));
    EXPECT_EQ(Explore(*session, params), Explore(*fresh, params));
    // One miss per new widest level, which grows the one universe; every
    // other level is served by the universe already held.
    if (l > widest) {
      widest = l;
      ++growths;
    }
    EXPECT_EQ(session->cache_stats().universe_misses, growths);
    EXPECT_EQ(session->cache_stats().universes, 1);
  }
  if (derivations != nullptr) {
    *derivations = session->cache_stats().store_derivations;
  }
}

std::vector<int> Levels(int first, int last) {
  std::vector<int> levels;
  for (int l = first; l <= last; ++l) levels.push_back(l);
  return levels;
}

TEST(SessionTest, ClimbingOneLevelAtATimeMatchesFreshSessions) {
  // Ascending, each new level grows the universe of the level below.
  {
    SCOPED_TRACE("ascending");
    ExpectLevelsMatchFreshSessions(Levels(10, 24), /*with_grids=*/true);
  }
  // Ascending past Fixed-Order's budget (c·k_max = 24), where the seeds
  // are merged clusters: a new level whose answers they cover derives its
  // grid from the level below, and must still equal a precompute.
  {
    SCOPED_TRACE("ascending past the budget");
    int64_t derivations = 0;
    ExpectLevelsMatchFreshSessions(Levels(25, 60), /*with_grids=*/true,
                                   &derivations);
    EXPECT_GT(derivations, 0);
  }
  // Descending, the first level builds the only universe and every later
  // one is served from it.
  {
    SCOPED_TRACE("descending");
    std::vector<int> levels = Levels(10, 24);
    std::reverse(levels.begin(), levels.end());
    ExpectLevelsMatchFreshSessions(levels, /*with_grids=*/false);
  }
  // Shuffled: growth by varying steps, between levels below the
  // universe's.
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(StrCat("shuffled, seed ", seed));
    std::vector<int> levels = Levels(10, 24);
    Rng rng(seed);
    rng.Shuffle(&levels);
    ExpectLevelsMatchFreshSessions(levels, /*with_grids=*/false);
  }
}

TEST(SessionTest, SummarizeWithReportsTheServingUniverse) {
  // The returned Solution's cluster ids index into the universe handed
  // back by Summarize — the session's one universe, which need not be
  // one built for params.L.
  auto session = MakeSession(23);
  ASSERT_TRUE(session->UniverseFor(25).ok());  // widest, serves everything
  std::shared_ptr<const ClusterUniverse> used;
  Params params{4, 10, 2};
  auto solution = session->Summarize(params, &used);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  ASSERT_NE(used, nullptr);
  EXPECT_EQ(used->top_l(), 25);  // served by the pre-built wide universe
  EXPECT_TRUE(CheckFeasible(*used, solution->cluster_ids, params).ok());
  EXPECT_EQ(session->cache_stats().universes, 1);
}

TEST(SessionTest, ValidatesParams) {
  auto session = MakeSession(13);
  EXPECT_FALSE(session->Summarize({0, 10, 2}).ok());
  EXPECT_FALSE(session->Summarize({4, 100000, 2}).ok());
  EXPECT_FALSE(session->UniverseFor(0).ok());
}

TEST(SessionTest, FromTableEndToEnd) {
  storage::Schema schema({{"g", storage::ValueType::kString},
                          {"h", storage::ValueType::kString},
                          {"val", storage::ValueType::kDouble}});
  storage::Table t(schema);
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    QAG_CHECK_OK(t.AppendRow({storage::Value::Str("g" + std::to_string(rng.Index(5))),
                              storage::Value::Str("h" + std::to_string(i)),
                              storage::Value::Real(rng.UniformReal(1, 5))}));
  }
  auto session = Session::FromTable(t, "val");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ((*session)->answers()->size(), 40);
  auto solution = (*session)->Summarize({3, 8, 1});
  ASSERT_TRUE(solution.ok());
}

// --- Min-Size objective (footnote 5). ---

TEST(MinSizeTest, ReducesRedundantElements) {
  auto s = std::make_unique<AnswerSet>(
      testutil::MakeRandomAnswerSet(17, 120, 5, 3));
  auto u = ClusterUniverse::Build(s.get(), 20);
  ASSERT_TRUE(u.ok());
  Params params{4, 20, 2};

  BottomUpOptions max_avg;
  BottomUpOptions min_size;
  min_size.merge_rule = BottomUpOptions::MergeRule::kMinRedundant;
  auto a = BottomUp::Run(*u, params, max_avg);
  auto b = BottomUp::Run(*u, params, min_size);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both feasible.
  EXPECT_TRUE(CheckFeasible(*u, a->cluster_ids, params).ok());
  EXPECT_TRUE(CheckFeasible(*u, b->cluster_ids, params).ok());
  // Min-Size covers no more elements in total (it minimizes redundancy).
  EXPECT_LE(b->covered_count, a->covered_count + 2);
  // Max-Avg never has a lower objective than Min-Size — that is its job.
  EXPECT_GE(a->average, b->average - 1e-9);
}

TEST(MinSizeTest, TentativeRedundantMatchesCommit) {
  auto s = std::make_unique<AnswerSet>(
      testutil::MakeRandomAnswerSet(19, 80, 4, 3));
  auto u = ClusterUniverse::Build(s.get(), 10);
  ASSERT_TRUE(u.ok());
  GreedyState state(&*u, u->top_l(), true);
  state.AddCluster(u->singleton_id(0));
  int before = state.redundant_count();
  // A broad cluster: wildcard everything except attribute 0.
  Cluster broad = Cluster::Generalize(s->element(1).attrs, 0b1110);
  int id = u->FindId(broad);
  ASSERT_GE(id, 0);
  int predicted = state.TentativeRedundant(id);
  state.AddCluster(id);
  EXPECT_EQ(state.redundant_count() - before, predicted);
}

}  // namespace
}  // namespace qagview::core
