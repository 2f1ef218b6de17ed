// Standing randomized differential test for the core engine, extending the
// bit-identity philosophy of the parallel-precompute work into a property
// test: on seeded small instances,
//
//  * the cluster universe is bit-identical across its builds (both index
//    layouts, per-element and per-cluster coverage mapping), and so is
//    every algorithm result computed over it;
//  * in the singleton-optimal regime (k >= L, D <= 1) BottomUp, Hybrid,
//    and BruteForce must agree exactly — same weight, same (unique)
//    solution: the top-L singletons;
//  * in the general regime every algorithm's output is feasible
//    (Definition 4.1) and the exact BruteForce weight dominates both
//    greedy weights;
//  * every algorithm answers a request at L from a universe built for a
//    wider L' exactly as from one built at L: a session serves L from the
//    widest universe it has built, so the answer must not depend on which
//    levels other requests asked for.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/bottom_up.h"
#include "core/brute_force.h"
#include "core/fixed_order.h"
#include "core/hybrid.h"
#include "test_util.h"

namespace qagview::core {
namespace {

/// Universe-independent identity of a solution: the sorted cluster
/// patterns (ids are only meaningful within one universe) plus objective
/// stats.
std::vector<std::vector<int32_t>> Patterns(const ClusterUniverse& universe,
                                           const Solution& solution) {
  std::vector<std::vector<int32_t>> out;
  out.reserve(solution.cluster_ids.size());
  for (int id : solution.cluster_ids) {
    out.push_back(universe.cluster(id).pattern());
  }
  std::sort(out.begin(), out.end());
  return out;
}

ClusterUniverse BuildUniverse(const AnswerSet& answers, int top_l,
                              const UniverseOptions& options = {}) {
  auto universe = ClusterUniverse::Build(&answers, top_l, options);
  QAG_CHECK(universe.ok()) << universe.status().ToString();
  return std::move(universe).value();
}

class AlgorithmDifferentialTest : public testing::TestWithParam<int> {};

TEST_P(AlgorithmDifferentialTest, UniverseBitIdenticalAcrossBuilds) {
  for (int i = 0; i < 5; ++i) {
    const uint64_t seed = static_cast<uint64_t>(GetParam()) * 5 + i;
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed * 31 + 11);
    const int n = 24 + static_cast<int>(rng.Index(30));
    const int m = 3 + static_cast<int>(rng.Index(2));
    AnswerSet answers = testutil::MakeRandomAnswerSet(seed, n, m, 4);
    const int top_l = 5 + static_cast<int>(rng.Index(4));

    ClusterUniverse reference = BuildUniverse(answers, top_l);
    UniverseOptions unpacked;
    unpacked.force_unpacked = true;
    UniverseOptions naive;
    naive.naive_mapping = true;
    for (const UniverseOptions& options : {unpacked, naive}) {
      SCOPED_TRACE(StrCat("force_unpacked=", options.force_unpacked,
                          " naive_mapping=", options.naive_mapping));
      ClusterUniverse other = BuildUniverse(answers, top_l, options);
      ASSERT_EQ(other.num_clusters(), reference.num_clusters());
      for (int c = 0; c < reference.num_clusters(); ++c) {
        ASSERT_EQ(other.cluster(c).pattern(), reference.cluster(c).pattern());
        ASSERT_EQ(testutil::Covered(other, c), testutil::Covered(reference, c));
        ASSERT_EQ(other.covered_sum(c), reference.covered_sum(c));
      }
      // Algorithms over bit-identical universes give bit-identical
      // results, ids included.
      Params params{3, top_l, 2};
      auto expected = BottomUp::Run(reference, params);
      auto got = BottomUp::Run(other, params);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->cluster_ids, expected->cluster_ids);
      EXPECT_EQ(got->average, expected->average);
    }
  }
}

TEST_P(AlgorithmDifferentialTest, SingletonRegimeAllThreeAlgorithmsAgree) {
  for (int i = 0; i < 5; ++i) {
    const uint64_t seed = 500 + static_cast<uint64_t>(GetParam()) * 5 + i;
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed * 67 + 5);
    const int n = 24 + static_cast<int>(rng.Index(24));
    AnswerSet answers = testutil::MakeRandomAnswerSet(seed, n, 3, 4);
    const int top_l = 5 + static_cast<int>(rng.Index(3));
    ClusterUniverse universe = BuildUniverse(answers, top_l);

    // k >= L with no distance constraint to speak of (D = 1 is trivially
    // satisfied by distinct patterns): the optimum weight is TopAverage(L)
    // — every redundant covered element ranks below value(L-1) and values
    // are continuous, so covering anything beyond the top-L strictly
    // lowers the average. All three algorithms must agree on that weight.
    Params params{top_l, top_l, 1};
    auto bottom_up = BottomUp::Run(universe, params);
    auto hybrid = Hybrid::Run(universe, params);
    auto brute = BruteForce::Run(universe, params);
    ASSERT_TRUE(bottom_up.ok()) << bottom_up.status().ToString();
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
    ASSERT_TRUE(brute.ok()) << brute.status().ToString();
    ASSERT_TRUE(brute->exact);

    EXPECT_NEAR(bottom_up->average, answers.TopAverage(top_l), 1e-9);
    EXPECT_NEAR(hybrid->average, answers.TopAverage(top_l), 1e-9);
    EXPECT_NEAR(brute->solution.average, answers.TopAverage(top_l), 1e-9);
    EXPECT_EQ(bottom_up->covered_count, top_l);
    EXPECT_EQ(hybrid->covered_count, top_l);
    EXPECT_EQ(brute->solution.covered_count, top_l);

    // The optimum is the top-L singletons, uniquely — unless some
    // wildcarded cluster covers only top-L elements (swapping it for its
    // singletons keeps the average bit-identical, even when it covers just
    // one). Detect that and assert solution agreement exactly when
    // uniqueness holds.
    bool unique = true;
    for (int c = 0; c < universe.num_clusters(); ++c) {
      if (universe.cluster(c).level() > 0 &&
          universe.TopCoveredCount(c, universe.top_l()) ==
              universe.covered_count(c)) {
        unique = false;
        break;
      }
    }
    if (unique) {
      auto expected = Patterns(universe, *bottom_up);
      EXPECT_EQ(Patterns(universe, *hybrid), expected);
      EXPECT_EQ(Patterns(universe, brute->solution), expected);
      EXPECT_EQ(static_cast<int>(expected.size()), top_l);
    }
  }
}

TEST_P(AlgorithmDifferentialTest, GeneralRegimeFeasibleAndDominated) {
  for (int i = 0; i < 5; ++i) {
    const uint64_t seed = 900 + static_cast<uint64_t>(GetParam()) * 5 + i;
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed * 101 + 3);
    const int n = 20 + static_cast<int>(rng.Index(20));
    const int m = 3;
    AnswerSet answers = testutil::MakeRandomAnswerSet(seed, n, m, 4);
    const int top_l = 4 + static_cast<int>(rng.Index(4));
    const int k = 2 + static_cast<int>(rng.Index(3));
    const int d = 1 + static_cast<int>(rng.Index(m));
    Params params{k, top_l, d};
    SCOPED_TRACE(params.ToString());
    ClusterUniverse universe = BuildUniverse(answers, top_l);

    auto bottom_up = BottomUp::Run(universe, params);
    auto hybrid = Hybrid::Run(universe, params);
    BruteForceOptions brute_options;
    brute_options.time_budget_seconds = 10.0;
    auto brute = BruteForce::Run(universe, params, brute_options);
    // Tight (k, D) combinations can be infeasible; all solvers must then
    // agree there is no solution.
    if (!brute.ok()) {
      EXPECT_FALSE(bottom_up.ok());
      EXPECT_FALSE(hybrid.ok());
      continue;
    }
    ASSERT_TRUE(brute->exact);
    ASSERT_TRUE(bottom_up.ok()) << bottom_up.status().ToString();
    ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();

    // Every output is feasible under Definition 4.1...
    EXPECT_TRUE(
        CheckFeasible(universe, bottom_up->cluster_ids, params).ok());
    EXPECT_TRUE(CheckFeasible(universe, hybrid->cluster_ids, params).ok());
    EXPECT_TRUE(
        CheckFeasible(universe, brute->solution.cluster_ids, params).ok());
    // ...and the exact optimum dominates both greedy weights.
    EXPECT_GE(brute->solution.average, bottom_up->average - 1e-9);
    EXPECT_GE(brute->solution.average, hybrid->average - 1e-9);
  }
}

/// Asserts the two results equal, bit for bit. Universe(L)'s clusters are
/// a prefix of universe(L')'s, so the ids compare directly.
void ExpectSameResult(const Result<Solution>& wide,
                      const Result<Solution>& exact) {
  ASSERT_EQ(wide.ok(), exact.ok());
  if (!exact.ok()) return;
  EXPECT_EQ(wide->cluster_ids, exact->cluster_ids);
  EXPECT_EQ(wide->average, exact->average);
  EXPECT_EQ(wide->covered_count, exact->covered_count);
}

TEST_P(AlgorithmDifferentialTest, RequestLNotUniverseLDecidesTheAnswer) {
  const BottomUpOptions::MergeRule kRules[] = {
      BottomUpOptions::MergeRule::kSolutionAverage,
      BottomUpOptions::MergeRule::kLcaAverage,
      BottomUpOptions::MergeRule::kMinRedundant,
      BottomUpOptions::MergeRule::kMaxMin};
  for (int i = 0; i < 5; ++i) {
    const uint64_t seed = 1300 + static_cast<uint64_t>(GetParam()) * 5 + i;
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed * 17 + 9);
    AnswerSet answers = testutil::MakeRandomAnswerSet(seed, 150, 5, 4);
    for (int top_l : {8, 15, 25}) {
      ClusterUniverse exact = BuildUniverse(answers, top_l);
      ClusterUniverse wide = BuildUniverse(answers, top_l + 40);
      const Params params{2 + static_cast<int>(rng.Index(4)), top_l,
                          1 + static_cast<int>(rng.Index(5))};
      SCOPED_TRACE(params.ToString());
      for (BottomUpOptions::MergeRule rule : kRules) {
        SCOPED_TRACE(StrCat("merge rule ", static_cast<int>(rule)));
        for (BottomUpOptions::Start start :
             {BottomUpOptions::Start::kTopLSingletons,
              BottomUpOptions::Start::kLevelDMinus1}) {
          BottomUpOptions options;
          options.merge_rule = rule;
          options.start = start;
          ExpectSameResult(BottomUp::Run(wide, params, options),
                           BottomUp::Run(exact, params, options));
        }
        HybridOptions hybrid;
        hybrid.merge_rule = rule;
        ExpectSameResult(Hybrid::Run(wide, params, hybrid),
                         Hybrid::Run(exact, params, hybrid));
      }
      ExpectSameResult(FixedOrder::Run(wide, params),
                       FixedOrder::Run(exact, params));
    }
  }
}

// 8 blocks x 5 seeds per property = 160 instances total.
INSTANTIATE_TEST_SUITE_P(Seeds, AlgorithmDifferentialTest,
                         testing::Range(0, 8));

}  // namespace
}  // namespace qagview::core
