#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/bottom_up.h"
#include "core/brute_force.h"
#include "core/fixed_order.h"
#include "core/greedy_state.h"
#include "core/hybrid.h"
#include "core/kmeans.h"
#include "test_util.h"

namespace qagview::core {
namespace {

// The universe holds a pointer to the answer set, so keep the set at a
// stable address.
struct Instance {
  std::unique_ptr<AnswerSet> set;
  ClusterUniverse u;
  const AnswerSet& s() const { return *set; }
};

Instance MakeInstance(uint64_t seed, int n, int m, int domain, int top_l) {
  auto set = std::make_unique<AnswerSet>(
      testutil::MakeRandomAnswerSet(seed, n, m, domain));
  auto u = ClusterUniverse::Build(set.get(), top_l);
  QAG_CHECK(u.ok()) << u.status().ToString();
  return Instance{std::move(set), std::move(u).value()};
}

TEST(GreedyStateTest, CoverageAndAverageTracking) {
  AnswerSet s = testutil::MakeMovieExample();
  auto u = ClusterUniverse::Build(&s, 4);
  ASSERT_TRUE(u.ok());
  GreedyState state(&*u, u->top_l(), /*use_delta_judgment=*/true);
  EXPECT_EQ(state.size(), 0);
  EXPECT_DOUBLE_EQ(state.Average(), 0.0);

  state.AddCluster(u->singleton_id(0));
  EXPECT_EQ(state.size(), 1);
  EXPECT_EQ(state.covered_count(), 1);
  EXPECT_NEAR(state.Average(), s.value(0), 1e-9);
  EXPECT_TRUE(state.ElementCovered(0));
  EXPECT_FALSE(state.ElementCovered(1));

  // Tentative average of adding the top-2 singleton.
  double tentative = state.TentativeAverage(u->singleton_id(1));
  EXPECT_NEAR(tentative, (s.value(0) + s.value(1)) / 2.0, 1e-9);
  // Tentative does not mutate.
  EXPECT_EQ(state.covered_count(), 1);

  state.AddCluster(u->singleton_id(1));
  EXPECT_NEAR(state.Average(), (s.value(0) + s.value(1)) / 2.0, 1e-9);
}

TEST(GreedyStateTest, SubsumedClustersAreRemoved) {
  AnswerSet s = testutil::MakeMovieExample();
  auto u = ClusterUniverse::Build(&s, 4);
  ASSERT_TRUE(u.ok());
  GreedyState state(&*u, u->top_l(), true);
  state.AddCluster(u->singleton_id(0));
  state.AddCluster(u->singleton_id(1));
  int lca = u->LcaId(u->singleton_id(0), u->singleton_id(1));
  state.AddCluster(lca);
  EXPECT_EQ(state.size(), 1);
  EXPECT_EQ(state.clusters()[0], lca);
}

// Delta judgment must be externally invisible: the same call sequence with
// and without it yields identical tentative averages.
class DeltaEquivalenceTest : public testing::TestWithParam<uint64_t> {};

TEST_P(DeltaEquivalenceTest, TentativeAveragesMatchNaive) {
  Instance inst = MakeInstance(GetParam(), 80, 5, 3, 16);
  GreedyState with_delta(&inst.u, inst.u.top_l(), true);
  GreedyState without_delta(&inst.u, inst.u.top_l(), false);

  Rng rng(GetParam() ^ 0xDEADBEEF);
  // A fixed candidate pool evaluated every round — the access pattern the
  // greedy algorithms produce (all candidate LCAs each merge round).
  std::vector<int> pool;
  for (int i = 0; i < 25; ++i) {
    pool.push_back(static_cast<int>(rng.Index(inst.u.num_clusters())));
  }
  for (int round = 0; round < 10; ++round) {
    for (int id : pool) {
      double a = with_delta.TentativeAverage(id);
      double b = without_delta.TentativeAverage(id);
      ASSERT_NEAR(a, b, 1e-9) << "round " << round << " cluster " << id;
    }
    // Commit a random singleton (always a legal antichain add when not
    // already covered).
    int e = static_cast<int>(rng.Index(inst.u.top_l()));
    if (!with_delta.ElementCovered(e)) {
      with_delta.AddCluster(inst.u.singleton_id(e));
      without_delta.AddCluster(inst.u.singleton_id(e));
    }
    ASSERT_NEAR(with_delta.Average(), without_delta.Average(), 1e-9);
  }
  // Delta judgment must do less element-comparison work.
  EXPECT_LT(with_delta.comparison_count(),
            without_delta.comparison_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaEquivalenceTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// --- Feasibility invariants across algorithms and parameters. ---

struct AlgoCase {
  const char* name;
  int k, l, d;
};

class FeasibilityTest
    : public testing::TestWithParam<std::tuple<uint64_t, AlgoCase>> {};

TEST_P(FeasibilityTest, AllAlgorithmsProduceFeasibleSolutions) {
  auto [seed, c] = GetParam();
  Instance inst = MakeInstance(seed, 70, 5, 3, 20);
  Params params{c.k, c.l, c.d};

  auto bu = BottomUp::Run(inst.u, params);
  ASSERT_TRUE(bu.ok()) << bu.status().ToString();
  EXPECT_TRUE(CheckFeasible(inst.u, bu->cluster_ids, params).ok());

  auto fo = FixedOrder::Run(inst.u, params);
  ASSERT_TRUE(fo.ok()) << fo.status().ToString();
  EXPECT_TRUE(CheckFeasible(inst.u, fo->cluster_ids, params).ok());

  auto hy = Hybrid::Run(inst.u, params);
  ASSERT_TRUE(hy.ok()) << hy.status().ToString();
  EXPECT_TRUE(CheckFeasible(inst.u, hy->cluster_ids, params).ok());

  // Values are sane: no worse than the trivial lower bound, no better than
  // the max element value.
  double lower = inst.s().TrivialAverage();
  double upper = inst.s().value(0);
  for (const Solution* sol : {&*bu, &*fo, &*hy}) {
    EXPECT_GE(sol->average, lower - 1e-9);
    EXPECT_LE(sol->average, upper + 1e-9);
    EXPECT_GT(sol->covered_count, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FeasibilityTest,
    testing::Combine(testing::Values(1u, 2u, 3u),
                     testing::Values(AlgoCase{"easy", 8, 6, 1},
                                     AlgoCase{"tight_k", 2, 10, 2},
                                     AlgoCase{"diverse", 4, 8, 4},
                                     AlgoCase{"d0", 5, 5, 0},
                                     AlgoCase{"cover_all", 6, 20, 2},
                                     AlgoCase{"max_d", 3, 10, 5})));

TEST(BottomUpTest, DZeroKAtLeastLReturnsTopKSingletons) {
  // §4.3 case (1): with D=0 and k >= L the top-L singletons are optimal and
  // Bottom-Up performs no merges.
  Instance inst = MakeInstance(21, 60, 4, 3, 10);
  Params params{12, 10, 0};
  auto sol = BottomUp::Run(inst.u, params);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->size(), 10);
  EXPECT_NEAR(sol->average, inst.s().TopAverage(10), 1e-9);
}

TEST(BottomUpTest, VariantsAreFeasible) {
  Instance inst = MakeInstance(31, 60, 5, 3, 12);
  Params params{4, 12, 3};
  BottomUpOptions level_start;
  level_start.start = BottomUpOptions::Start::kLevelDMinus1;
  auto a = BottomUp::Run(inst.u, params, level_start);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(CheckFeasible(inst.u, a->cluster_ids, params).ok());

  BottomUpOptions lca_rule;
  lca_rule.merge_rule = BottomUpOptions::MergeRule::kLcaAverage;
  auto b = BottomUp::Run(inst.u, params, lca_rule);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(CheckFeasible(inst.u, b->cluster_ids, params).ok());
}

TEST(GreedyStateTest, MinTracking) {
  AnswerSet s = testutil::MakeMovieExample();
  auto u = ClusterUniverse::Build(&s, 4);
  ASSERT_TRUE(u.ok());
  GreedyState state(&*u, u->top_l(), true);
  EXPECT_TRUE(std::isinf(state.Min()));

  state.AddCluster(u->singleton_id(0));
  EXPECT_NEAR(state.Min(), s.value(0), 1e-12);

  // Tentative min of adding singleton 2 is the lower of the two values and
  // does not mutate the state.
  double tentative = state.TentativeMin(u->singleton_id(2));
  EXPECT_NEAR(tentative, s.value(2), 1e-12);
  EXPECT_NEAR(state.Min(), s.value(0), 1e-12);

  state.AddCluster(u->singleton_id(2));
  EXPECT_NEAR(state.Min(), s.value(2), 1e-12);

  // A cluster whose members are all above the current min leaves it alone.
  EXPECT_NEAR(state.TentativeMin(u->singleton_id(1)), s.value(2), 1e-12);
}

// A hand-built instance where the Max-Avg and Max-Min merge rules provably
// disagree: merging the top two elements into (a0,*) drags in high-valued
// extras plus one 6.0 element (best average, worst floor), while merging
// via (*,b0) picks up a single 6.5 element (lower average, higher floor).
TEST(BottomUpTest, MaxMinRuleGuardsTheFloorWhereMaxAvgDoesNot) {
  std::vector<std::string> attrs = {"A", "B"};
  std::vector<std::vector<std::string>> names = {
      {"a0", "a1", "a2"},
      {"b0", "b1", "b2", "b3", "b4", "b5"},
  };
  std::vector<Element> elements = {
      {{0, 0}, 10.0},  // top 1
      {{0, 1}, 9.96},  // top 2
      {{1, 0}, 9.93},  // top 3
      {{0, 2}, 9.9},   // (a0,*) extra
      {{0, 3}, 9.8},   // (a0,*) extra
      {{0, 4}, 9.7},   // (a0,*) extra
      {{2, 0}, 6.5},   // (*,b0) extra
      {{0, 5}, 6.0},   // (a0,*) extra — the low floor
  };
  auto s = AnswerSet::FromRaw(std::move(attrs), std::move(names),
                              std::move(elements));
  ASSERT_TRUE(s.ok());
  auto u = ClusterUniverse::Build(&*s, 3);
  ASSERT_TRUE(u.ok());
  Params params{2, 3, 0};

  auto by_avg = BottomUp::Run(*u, params);
  ASSERT_TRUE(by_avg.ok());
  BottomUpOptions maxmin;
  maxmin.merge_rule = BottomUpOptions::MergeRule::kMaxMin;
  auto by_min = BottomUp::Run(*u, params, maxmin);
  ASSERT_TRUE(by_min.ok());

  EXPECT_NEAR(by_avg->covered_min, 6.0, 1e-9);
  EXPECT_NEAR(by_min->covered_min, 6.5, 1e-9);
  EXPECT_GT(by_avg->average, by_min->average);
  EXPECT_TRUE(CheckFeasible(*u, by_avg->cluster_ids, params).ok());
  EXPECT_TRUE(CheckFeasible(*u, by_min->cluster_ids, params).ok());
}

// Max-Min stays feasible and self-consistent across random instances, for
// both Bottom-Up and the Hybrid pass-through.
class MaxMinRuleTest : public testing::TestWithParam<uint64_t> {};

TEST_P(MaxMinRuleTest, FeasibleAndMinIsConsistent) {
  Instance inst = MakeInstance(GetParam(), 70, 5, 3, 15);
  Params params{4, 15, 2};
  BottomUpOptions options;
  options.merge_rule = BottomUpOptions::MergeRule::kMaxMin;
  auto bu = BottomUp::Run(inst.u, params, options);
  ASSERT_TRUE(bu.ok()) << bu.status().ToString();
  EXPECT_TRUE(CheckFeasible(inst.u, bu->cluster_ids, params).ok());

  HybridOptions hybrid;
  hybrid.merge_rule = BottomUpOptions::MergeRule::kMaxMin;
  auto hy = Hybrid::Run(inst.u, params, hybrid);
  ASSERT_TRUE(hy.ok()) << hy.status().ToString();
  EXPECT_TRUE(CheckFeasible(inst.u, hy->cluster_ids, params).ok());

  // covered_min matches a naive recomputation over the covered union.
  for (const Solution* sol : {&*bu, &*hy}) {
    double naive = std::numeric_limits<double>::infinity();
    std::vector<char> seen(static_cast<size_t>(inst.s().size()), 0);
    for (int id : sol->cluster_ids) {
      for (int32_t e : inst.u.covered(id)) {
        if (!seen[static_cast<size_t>(e)]) {
          seen[static_cast<size_t>(e)] = 1;
          naive = std::min(naive, inst.s().value(e));
        }
      }
    }
    EXPECT_NEAR(sol->covered_min, naive, 1e-12);
    // The floor can never exceed the average.
    EXPECT_LE(sol->covered_min, sol->average + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinRuleTest,
                         testing::Values(101u, 102u, 103u, 104u));

TEST(BottomUpTest, DeltaJudgmentDoesNotChangeResult) {
  Instance inst = MakeInstance(41, 80, 5, 3, 16);
  Params params{5, 16, 2};
  BottomUpOptions with;
  with.use_delta_judgment = true;
  BottomUpOptions without;
  without.use_delta_judgment = false;
  auto a = BottomUp::Run(inst.u, params, with);
  auto b = BottomUp::Run(inst.u, params, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->cluster_ids, b->cluster_ids);
  EXPECT_NEAR(a->average, b->average, 1e-12);
}

TEST(FixedOrderTest, VariantsAreFeasible) {
  Instance inst = MakeInstance(51, 70, 5, 3, 14);
  Params params{4, 14, 2};
  for (auto seeding : {FixedOrderOptions::Seeding::kRandom,
                       FixedOrderOptions::Seeding::kKMeans}) {
    FixedOrderOptions options;
    options.seeding = seeding;
    options.seed = 99;
    auto sol = FixedOrder::Run(inst.u, params, options);
    ASSERT_TRUE(sol.ok()) << sol.status().ToString();
    EXPECT_TRUE(CheckFeasible(inst.u, sol->cluster_ids, params).ok());
  }
}

TEST(FixedOrderTest, CoversEachTopElementAsProcessed) {
  Instance inst = MakeInstance(61, 60, 4, 4, 15);
  Params params{3, 15, 2};
  auto sol = FixedOrder::Run(inst.u, params);
  ASSERT_TRUE(sol.ok());
  // All top-15 covered despite only 3 clusters.
  EXPECT_TRUE(CheckFeasible(inst.u, sol->cluster_ids, params).ok());
  EXPECT_LE(sol->size(), 3);
}

TEST(HybridTest, RejectsBadC) {
  Instance inst = MakeInstance(71, 40, 4, 3, 8);
  Params params{3, 8, 2};
  HybridOptions options;
  options.c = 1;
  EXPECT_FALSE(Hybrid::Run(inst.u, params, options).ok());
}

// c·k past INT_MAX: Fixed-Order holds at most L clusters, so any budget
// >= L gives the k = L answer.
TEST(HybridTest, HugeKEqualsKAtL) {
  Instance inst = MakeInstance(73, 90, 5, 3, 20);
  for (int d = 0; d <= 3; ++d) {
    auto at_l = Hybrid::Run(inst.u, Params{20, 20, d});
    ASSERT_TRUE(at_l.ok()) << at_l.status().ToString();
    HybridOptions huge_c;
    huge_c.c = std::numeric_limits<int>::max();
    for (auto huge : {Hybrid::Run(inst.u, Params{1500000000, 20, d}),
                      Hybrid::Run(inst.u, Params{20, 20, d}, huge_c)}) {
      ASSERT_TRUE(huge.ok()) << huge.status().ToString();
      EXPECT_EQ(huge->cluster_ids, at_l->cluster_ids) << "d=" << d;
      EXPECT_EQ(huge->average, at_l->average) << "d=" << d;
    }
  }
}

TEST(ParamsTest, Validation) {
  AnswerSet s = testutil::MakeMovieExample();
  EXPECT_TRUE(ValidateParams(s, {4, 8, 2}).ok());
  EXPECT_FALSE(ValidateParams(s, {0, 8, 2}).ok());
  EXPECT_FALSE(ValidateParams(s, {4, 0, 2}).ok());
  EXPECT_FALSE(ValidateParams(s, {4, 100, 2}).ok());
  EXPECT_FALSE(ValidateParams(s, {4, 8, -1}).ok());
  EXPECT_FALSE(ValidateParams(s, {4, 8, 5}).ok());  // D > m
}

TEST(CheckFeasibleTest, DetectsEachViolation) {
  AnswerSet s = testutil::MakeMovieExample();
  auto u = ClusterUniverse::Build(&s, 4);
  ASSERT_TRUE(u.ok());
  int s0 = u->singleton_id(0);
  int s1 = u->singleton_id(1);
  int trivial = u->FindId(Cluster::Trivial(4));

  // Size violation.
  EXPECT_EQ(
      CheckFeasible(*u, {s0, s1}, {1, 1, 0}).code(),
      StatusCode::kFailedPrecondition);
  // Coverage violation.
  EXPECT_EQ(CheckFeasible(*u, {s0}, {4, 4, 0}).code(),
            StatusCode::kFailedPrecondition);
  // Antichain violation (trivial covers the singleton).
  EXPECT_EQ(CheckFeasible(*u, {s0, trivial}, {4, 1, 0}).code(),
            StatusCode::kFailedPrecondition);
  // Distance violation: two top elements differing in < 4 attributes.
  int d = Distance(u->cluster(s0), u->cluster(s1));
  EXPECT_EQ(CheckFeasible(*u, {s0, s1}, {4, 2, d + 1}).code(),
            StatusCode::kFailedPrecondition);
  // A valid solution passes.
  EXPECT_TRUE(CheckFeasible(*u, {trivial}, {4, 4, 0}).ok());
}

// --- Brute force: exactness on small instances. ---

class BruteForceTest : public testing::TestWithParam<uint64_t> {};

TEST_P(BruteForceTest, HeuristicsNeverBeatBruteForce) {
  Instance inst = MakeInstance(GetParam(), 40, 4, 3, 5);
  for (int k : {2, 3}) {
    for (int d : {2, 3}) {
      Params params{k, 5, d};
      auto bf = BruteForce::Run(inst.u, params);
      ASSERT_TRUE(bf.ok()) << bf.status().ToString();
      ASSERT_TRUE(bf->exact);
      EXPECT_TRUE(
          CheckFeasible(inst.u, bf->solution.cluster_ids, params).ok());
      for (auto run : {&BottomUp::Run}) {
        auto heuristic = run(inst.u, params, BottomUpOptions());
        ASSERT_TRUE(heuristic.ok());
        EXPECT_LE(heuristic->average, bf->solution.average + 1e-9)
            << "heuristic beat 'optimal' at k=" << k << " D=" << d;
      }
      auto fo = FixedOrder::Run(inst.u, params);
      ASSERT_TRUE(fo.ok());
      EXPECT_LE(fo->average, bf->solution.average + 1e-9);
      auto hy = Hybrid::Run(inst.u, params);
      ASSERT_TRUE(hy.ok());
      EXPECT_LE(hy->average, bf->solution.average + 1e-9);
      // And brute force is at least the trivial lower bound.
      EXPECT_GE(bf->solution.average, inst.s().TrivialAverage() - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BruteForceTest,
                         testing::Values(11u, 22u, 33u, 44u));

TEST(BruteForceTest2, TimeBudgetAbortStillFeasible) {
  Instance inst = MakeInstance(77, 60, 5, 3, 10);
  Params params{4, 10, 2};
  BruteForceOptions options;
  options.time_budget_seconds = 0.0;  // abort immediately
  auto bf = BruteForce::Run(inst.u, params, options);
  ASSERT_TRUE(bf.ok());
  EXPECT_FALSE(bf->exact);
  EXPECT_TRUE(CheckFeasible(inst.u, bf->solution.cluster_ids, params).ok());
}

TEST(BruteForceTest2, RejectsLargeL) {
  Instance inst = MakeInstance(78, 80, 4, 3, 70);
  Params params{4, 70, 2};
  EXPECT_FALSE(BruteForce::Run(inst.u, params).ok());
}

// The running example (Figure 1, Example 1.2): k=4, L=8, D=2 on the
// Figure-1a-style fixture. Any feasible solution covers all top-8 elements,
// and covering anything else can only dilute the average, so
// TopAverage(8) is a provable optimum — which Bottom-Up, Hybrid, and brute
// force all attain with zero redundant coverage (the paper's Figure 1b/1c
// also covers exactly the top 8).
TEST(RunningExampleTest, GreedyHeuristicsAttainTheProvableOptimum) {
  AnswerSet s = testutil::MakeMovieExample();
  auto u = ClusterUniverse::Build(&s, 8);
  ASSERT_TRUE(u.ok());
  Params params{4, 8, 2};
  double optimum = s.TopAverage(8);

  auto bf = BruteForce::Run(*u, params);
  ASSERT_TRUE(bf.ok());
  ASSERT_TRUE(bf->exact);
  EXPECT_NEAR(bf->solution.average, optimum, 1e-9);

  for (auto solution : {BottomUp::Run(*u, params), Hybrid::Run(*u, params)}) {
    ASSERT_TRUE(solution.ok());
    EXPECT_NEAR(solution->average, optimum, 1e-9);
    EXPECT_EQ(solution->covered_count, 8);  // no redundant tuples
    EXPECT_LE(solution->size(), 4);
    EXPECT_TRUE(CheckFeasible(*u, solution->cluster_ids, params).ok());
  }

  // Fixed-Order is the weaker heuristic: still feasible, possibly below the
  // optimum, never above it.
  auto fo = FixedOrder::Run(*u, params);
  ASSERT_TRUE(fo.ok());
  EXPECT_TRUE(CheckFeasible(*u, fo->cluster_ids, params).ok());
  EXPECT_LE(fo->average, optimum + 1e-9);
  EXPECT_GE(fo->average, s.TrivialAverage());
}

// §4.1: "the optimal solution when D = 0 and k >= L is obtained by
// selecting top-k original elements" — verified against brute force across
// random instances.
class DZeroOptimalityTest : public testing::TestWithParam<uint64_t> {};

TEST_P(DZeroOptimalityTest, TopLSingletonsAreOptimal) {
  Instance inst = MakeInstance(GetParam(), 40, 4, 3, 5);
  Params params{6, 5, 0};
  auto bf = BruteForce::Run(inst.u, params);
  ASSERT_TRUE(bf.ok());
  ASSERT_TRUE(bf->exact);
  EXPECT_NEAR(bf->solution.average, inst.s().TopAverage(5), 1e-9);
  auto bu = BottomUp::Run(inst.u, params);
  ASSERT_TRUE(bu.ok());
  EXPECT_NEAR(bu->average, inst.s().TopAverage(5), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DZeroOptimalityTest,
                         testing::Values(201u, 202u, 203u));

// --- k-modes. ---

TEST(KModesTest, PartitionsPoints) {
  std::vector<std::vector<int32_t>> points = {
      {0, 0, 0}, {0, 0, 1}, {5, 5, 5}, {5, 5, 4}, {0, 1, 0}, {5, 4, 5},
  };
  KModesResult result = KModes(points, 2, /*seed=*/7);
  ASSERT_EQ(result.assignment.size(), points.size());
  // Points 0,1,4 (low block) should share a cluster; 2,3,5 the other.
  EXPECT_EQ(result.assignment[0], result.assignment[1]);
  EXPECT_EQ(result.assignment[0], result.assignment[4]);
  EXPECT_EQ(result.assignment[2], result.assignment[3]);
  EXPECT_EQ(result.assignment[2], result.assignment[5]);
  EXPECT_NE(result.assignment[0], result.assignment[2]);
}

TEST(KModesTest, SeedPatternsCoverTheirMembers) {
  AnswerSet s = testutil::MakeRandomAnswerSet(13, 50, 4, 3);
  auto patterns = KModesSeedPatterns(s, 12, 3, 5);
  EXPECT_FALSE(patterns.empty());
  EXPECT_LE(patterns.size(), 3u);
  // Every top-12 element is covered by at least one seed pattern.
  for (int i = 0; i < 12; ++i) {
    bool covered = false;
    for (const auto& p : patterns) {
      covered = covered || Cluster(p).CoversElement(s.element(i).attrs);
    }
    EXPECT_TRUE(covered) << "top element " << i;
  }
}

}  // namespace
}  // namespace qagview::core
