#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/bottom_up.h"
#include "core/interval_tree.h"
#include "core/fixed_order.h"
#include "core/precompute.h"
#include "core/solution_store_io.h"
#include "test_util.h"

namespace qagview::core {
namespace {

// --- Interval tree. ---

TEST(IntervalTreeTest, EmptyTree) {
  IntervalTree<int> tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Collect(5).empty());
}

TEST(IntervalTreeTest, BasicStabbing) {
  IntervalTree<int> tree({{1, 3, 100}, {2, 5, 200}, {7, 7, 300}});
  EXPECT_EQ(tree.Collect(0).size(), 0u);
  EXPECT_EQ(tree.Collect(1), std::vector<int>{100});
  auto at2 = tree.Collect(2);
  std::sort(at2.begin(), at2.end());
  EXPECT_EQ(at2, (std::vector<int>{100, 200}));
  EXPECT_EQ(tree.Collect(5), std::vector<int>{200});
  EXPECT_EQ(tree.Collect(6).size(), 0u);
  EXPECT_EQ(tree.Collect(7), std::vector<int>{300});
}

class IntervalTreePropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(IntervalTreePropertyTest, MatchesNaiveStabbing) {
  Rng rng(GetParam());
  std::vector<IntervalTree<int>::Entry> entries;
  int n = 200;
  for (int i = 0; i < n; ++i) {
    int lo = static_cast<int>(rng.Uniform(0, 100));
    int hi = lo + static_cast<int>(rng.Uniform(0, 30));
    entries.push_back({lo, hi, i});
  }
  IntervalTree<int> tree(entries);
  EXPECT_EQ(tree.size(), static_cast<size_t>(n));
  for (int q = -5; q <= 140; ++q) {
    std::vector<int> expected;
    for (const auto& e : entries) {
      if (e.lo <= q && q <= e.hi) expected.push_back(e.payload);
    }
    std::vector<int> actual = tree.Collect(q);
    std::sort(actual.begin(), actual.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(actual, expected) << "stab at " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalTreePropertyTest,
                         testing::Values(1u, 2u, 3u, 4u));

// --- Precompute + SolutionStore. ---

struct Instance {
  std::unique_ptr<AnswerSet> set;
  ClusterUniverse u;
};

Instance MakeInstance(uint64_t seed, int n, int m, int domain, int top_l) {
  auto set = std::make_unique<AnswerSet>(
      testutil::MakeRandomAnswerSet(seed, n, m, domain));
  auto u = ClusterUniverse::Build(set.get(), top_l);
  QAG_CHECK(u.ok()) << u.status().ToString();
  return Instance{std::move(set), std::move(u).value()};
}

PrecomputeOptions GridOptions(int k_min, int k_max, std::vector<int> ds) {
  PrecomputeOptions options;
  options.k_min = k_min;
  options.k_max = k_max;
  options.d_values = std::move(ds);
  return options;
}

TEST(PrecomputeTest, RetrievedSolutionsAreFeasible) {
  Instance inst = MakeInstance(5, 80, 5, 3, 20);
  auto store = Precompute::Run(inst.u, 20, GridOptions(2, 12, {1, 2, 3}));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (int d : {1, 2, 3}) {
    int min_k = store->MinK(d).value();
    for (int k = min_k; k <= 12; ++k) {
      auto sol = store->Retrieve(d, k);
      ASSERT_TRUE(sol.ok()) << "k=" << k << " d=" << d << ": "
                            << sol.status().ToString();
      Params params{k, 20, d};
      EXPECT_TRUE(CheckFeasible(inst.u, sol->cluster_ids, params).ok())
          << "k=" << k << " d=" << d;
      // Stored value matches the materialized solution.
      EXPECT_NEAR(store->Value(d, k).value(), sol->average, 1e-9);
    }
  }
}

TEST(PrecomputeTest, ValuesStayWithinElementBounds) {
  // Every stored objective value is an average over covered elements, so it
  // must lie within [min element value, max element value]. (Monotonicity
  // in k holds only approximately — Figure 2's curves can dip — so it is a
  // bench observation, not an invariant.)
  Instance inst = MakeInstance(9, 100, 5, 3, 25);
  auto store = Precompute::Run(inst.u, 25, GridOptions(2, 15, {1, 2}));
  ASSERT_TRUE(store.ok());
  double lo = inst.set->value(inst.set->size() - 1);
  double hi = inst.set->value(0);
  for (int d : {1, 2}) {
    int min_k = store->MinK(d).value();
    for (int k = min_k; k <= 15; ++k) {
      double v = store->Value(d, k).value();
      EXPECT_GE(v, lo - 1e-9);
      EXPECT_LE(v, hi + 1e-9);
    }
  }
}

TEST(PrecomputeTest, StoreIsMoreCompactThanNaive) {
  Instance inst = MakeInstance(13, 90, 5, 3, 24);
  auto store = Precompute::Run(inst.u, 24, GridOptions(2, 20, {1, 2, 3, 4}));
  ASSERT_TRUE(store.ok());
  EXPECT_GT(store->num_intervals(), 0);
  EXPECT_LT(store->num_intervals(), store->naive_entries())
      << "interval storage should beat storing every (k,D) cluster list";
}

TEST(PrecomputeTest, QueriesOutsideRangeBehave) {
  Instance inst = MakeInstance(17, 60, 4, 3, 12);
  auto store = Precompute::Run(inst.u, 12, GridOptions(2, 8, {2}));
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(store->Retrieve(5, 4).ok());  // unknown D
  // Below the smallest stored size (a merge can subsume several clusters,
  // so the trace may bottom out under k_min; query strictly below it).
  int min_k = store->MinK(2).value();
  EXPECT_FALSE(store->Retrieve(2, min_k - 1).ok());
  EXPECT_FALSE(store->Value(2, min_k - 1).ok());
  // k above k_max clamps to the largest stored state.
  auto big = store->Retrieve(2, 1000);
  ASSERT_TRUE(big.ok());
  auto at_max = store->Retrieve(2, 100);
  ASSERT_TRUE(at_max.ok());
  std::set<int> a(big->cluster_ids.begin(), big->cluster_ids.end());
  std::set<int> b(at_max->cluster_ids.begin(), at_max->cluster_ids.end());
  EXPECT_EQ(a, b);
}

TEST(PrecomputeTest, StatsArePopulated) {
  Instance inst = MakeInstance(19, 60, 4, 3, 12);
  PrecomputeStats stats;
  auto store =
      Precompute::Run(inst.u, 12, GridOptions(2, 8, {1, 2}), &stats);
  ASSERT_TRUE(store.ok());
  EXPECT_GT(stats.initial_clusters, 0);
  EXPECT_GE(stats.fixed_order_ms, 0.0);
  EXPECT_GE(stats.bottom_up_ms, 0.0);
}

TEST(PrecomputeTest, DefaultsAndValidation) {
  Instance inst = MakeInstance(23, 50, 4, 3, 10);
  // Defaults: d = 1..m, derived k_max.
  auto store = Precompute::Run(inst.u, 10);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->d_values().size(), 4u);

  EXPECT_FALSE(Precompute::Run(inst.u, 0).ok());
  EXPECT_FALSE(
      Precompute::Run(inst.u, 10, GridOptions(5, 3, {1})).ok());  // k_max<k_min
  EXPECT_FALSE(
      Precompute::Run(inst.u, 10, GridOptions(2, 8, {99})).ok());  // bad D
}

TEST(PrecomputeTest, ParallelReplaysAreBitIdenticalAcrossThreadCounts) {
  // The per-D replays run one pool task per D into pre-sized slots, so the
  // store must be exactly — not approximately — the serial store for any
  // worker count.
  Instance inst = MakeInstance(41, 120, 6, 3, 30);
  PrecomputeOptions options = GridOptions(2, 16, {1, 2, 3, 4, 5, 6});
  options.num_threads = 1;
  auto reference = Precompute::Run(inst.u, 30, options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    PrecomputeStats stats;
    auto store = Precompute::Run(inst.u, 30, options, &stats);
    ASSERT_TRUE(store.ok()) << threads << " threads";
    EXPECT_EQ(stats.num_threads, threads);
    ASSERT_EQ(store->d_values(), reference->d_values());
    for (int d : reference->d_values()) {
      // (size, value) ladders bit-identical (double ==, no tolerance).
      EXPECT_EQ(store->SizeValues(d).value(), reference->SizeValues(d).value())
          << "d=" << d << " threads=" << threads;
      // Interval sets identical (stored order is unspecified; sort).
      auto norm = [d](const Result<std::vector<SolutionStore::IntervalRecord>>&
                          recs) {
        std::vector<std::tuple<int, int, int>> out;
        for (const auto& r : recs.value()) {
          out.emplace_back(r.lo, r.hi, r.cluster_id);
        }
        std::sort(out.begin(), out.end());
        return out;
      };
      EXPECT_EQ(norm(store->Intervals(d)), norm(reference->Intervals(d)))
          << "d=" << d << " threads=" << threads;
    }
  }
}

TEST(PrecomputeTest, DZeroIsTheNoDistanceConstraintRow) {
  // d = 0 is accepted as the explicit "no distance constraint" row: its
  // distance phase is a no-op, so the widest stored state is exactly the
  // Fixed-Order output, and each stored solution matches a direct replay
  // with Params::D == 0 (which ValidateParams accepts everywhere else).
  Instance inst = MakeInstance(37, 80, 5, 3, 16);
  PrecomputeOptions options = GridOptions(2, 10, {0, 2});
  auto store = Precompute::Run(inst.u, 16, options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ(store->d_values(), (std::vector<int>{0, 2}));

  FixedOrderOptions fo;
  auto initial = FixedOrder::RunPhase(inst.u, options.c * 10, 16, 0, fo);
  ASSERT_TRUE(initial.ok());
  // The first stored state for d=0 is the untouched Fixed-Order pool.
  auto widest = store->Retrieve(0, 1000);
  ASSERT_TRUE(widest.ok());
  std::set<int> got(widest->cluster_ids.begin(), widest->cluster_ids.end());
  std::set<int> want(initial->begin(), initial->end());
  EXPECT_EQ(got, want);

  for (int k : {8, 4}) {
    auto direct = BottomUp::RunFrom(inst.u, {k, 16, 0}, *initial);
    ASSERT_TRUE(direct.ok());
    auto stored = store->Retrieve(0, k);
    ASSERT_TRUE(stored.ok());
    std::set<int> a(direct->cluster_ids.begin(), direct->cluster_ids.end());
    std::set<int> b(stored->cluster_ids.begin(), stored->cluster_ids.end());
    EXPECT_EQ(a, b) << "k=" << k;
  }

  // The default grid stays 1..m — no implicit d = 0 row.
  auto defaults = Precompute::Run(inst.u, 16, GridOptions(2, 10, {}));
  ASSERT_TRUE(defaults.ok());
  EXPECT_FALSE(defaults->Retrieve(0, 5).ok());
  // Negative d is still rejected.
  EXPECT_FALSE(Precompute::Run(inst.u, 16, GridOptions(2, 10, {-1})).ok());
}

TEST(PrecomputeTest, MatchesDirectReplayAtSampledPoints) {
  // The stored solution at every (k, D) equals Bottom-Up run directly, down
  // to k, from the same Fixed-Order initial set (the D-independent phase at
  // budget c·k_max), with delta judgment on and off. Cluster sets match
  // exactly; averages within rounding (the store keeps the replay's running
  // average, Retrieve re-sums its clusters).
  struct Shape {
    uint64_t seed;
    int n, m, domain, top_l, k_max;
  };
  for (const Shape& shape : {Shape{29, 80, 5, 3, 16, 10},
                             Shape{31, 120, 4, 4, 24, 8},
                             Shape{37, 60, 6, 2, 12, 12},
                             Shape{41, 150, 5, 3, 30, 6}}) {
    Instance inst = MakeInstance(shape.seed, shape.n, shape.m, shape.domain,
                                 shape.top_l);
    for (bool delta : {true, false}) {
      SCOPED_TRACE(StrCat("seed=", shape.seed, " delta=", delta));
      PrecomputeOptions options = GridOptions(1, shape.k_max, {});
      options.use_delta_judgment = delta;
      auto store = Precompute::Run(inst.u, shape.top_l, options);
      ASSERT_TRUE(store.ok()) << store.status().ToString();

      FixedOrderOptions fo;
      fo.use_delta_judgment = delta;
      auto initial = FixedOrder::RunPhase(inst.u, options.c * shape.k_max,
                                          shape.top_l, 0, fo);
      ASSERT_TRUE(initial.ok());
      BottomUpOptions bu;
      bu.use_delta_judgment = delta;
      ASSERT_EQ(store->d_values().size(), static_cast<size_t>(shape.m));
      for (int d : store->d_values()) {
        for (int k = store->MinK(d).value(); k <= shape.k_max; ++k) {
          Params params{k, shape.top_l, d};
          auto direct = BottomUp::RunFrom(inst.u, params, *initial, bu);
          ASSERT_TRUE(direct.ok());
          auto stored = store->Retrieve(d, k);
          ASSERT_TRUE(stored.ok());
          std::set<int> a(direct->cluster_ids.begin(),
                          direct->cluster_ids.end());
          std::set<int> b(stored->cluster_ids.begin(),
                          stored->cluster_ids.end());
          EXPECT_EQ(a, b) << "d=" << d << " k=" << k;
          EXPECT_NEAR(direct->average, stored->average, 1e-9);
          EXPECT_NEAR(direct->average, store->Value(d, k).value(), 1e-9);
        }
      }
    }
  }
}

// c·k_max past INT_MAX: Fixed-Order never holds more clusters than its L
// candidates, so any budget >= L gives the same grid, byte for byte.
TEST(PrecomputeTest, HugeBudgetsActAsL) {
  Instance inst = MakeInstance(43, 90, 5, 3, 18);
  PrecomputeOptions reaches_l = GridOptions(2, 10, {});
  reaches_l.c = 2;  // 2 · 10 >= 18
  auto reference = Precompute::Run(inst.u, 18, reaches_l);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  PrecomputeOptions huge_c = reaches_l;
  huge_c.c = std::numeric_limits<int>::max();
  auto wide = Precompute::Run(inst.u, 18, huge_c);
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  EXPECT_EQ(SerializeSolutionStore(*wide), SerializeSolutionStore(*reference));

  PrecomputeOptions huge_k = reaches_l;
  huge_k.k_max = std::numeric_limits<int>::max();
  auto tall = Precompute::Run(inst.u, 18, huge_k);
  ASSERT_TRUE(tall.ok()) << tall.status().ToString();
  EXPECT_EQ(tall->k_max(), std::numeric_limits<int>::max());
  for (int d : reference->d_values()) {
    for (int k = reference->MinK(d).value(); k <= 10; ++k) {
      EXPECT_EQ(tall->Value(d, k).value(), reference->Value(d, k).value())
          << "d=" << d << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace qagview::core
