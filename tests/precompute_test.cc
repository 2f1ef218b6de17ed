#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <thread>
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
  EXPECT_FALSE(Precompute::Run(inst.u, 10, GridOptions(0, 8, {1})).ok());

  // Run refuses exactly what Validate refuses, against the schema's m = 4.
  EXPECT_TRUE(GridOptions(2, 0, {}).Validate(4).ok());  // k_max derived
  EXPECT_TRUE(GridOptions(3, 3, {0, 4}).Validate(4).ok());
  EXPECT_EQ(GridOptions(0, 8, {1}).Validate(4).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GridOptions(5, 3, {1}).Validate(4).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GridOptions(2, 8, {5}).Validate(4).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GridOptions(2, 8, {-1}).Validate(4).code(),
            StatusCode::kInvalidArgument);
}

TEST(PrecomputeTest, ParallelReplaysAreBitIdenticalAcrossThreadCounts) {
  // The per-D replays run one ParallelFor index per D into pre-sized slots,
  // so the store must be exactly — not approximately — the serial store for
  // any width.
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

// Options that replay the same grid resolve alike: listed D rows are a set
// (sorted, one row per D), and c below 2 acts as 2. So they name one grid
// (and share one single-flight key), and a repeated D is stored once.
TEST(PrecomputeTest, ResolvedOptionsAreCanonical) {
  constexpr int kAttrs = 4;
  auto grid = [](const PrecomputeOptions& options) {
    return options.ResolvedFor(kAttrs).grid();
  };
  PrecomputeOptions ascending = GridOptions(2, 8, {1, 3});
  PrecomputeOptions descending = GridOptions(2, 8, {3, 1});
  EXPECT_EQ(grid(ascending), grid(descending));
  PrecomputeOptions c0 = ascending;
  c0.c = 0;
  PrecomputeOptions c1 = ascending;
  c1.c = 1;
  PrecomputeOptions c2 = ascending;
  c2.c = 2;
  EXPECT_EQ(grid(c0), grid(c2));
  EXPECT_EQ(grid(c1), grid(c2));
  EXPECT_NE(grid(ascending), grid(c2));  // c=3
  PrecomputeOptions threads = ascending;
  threads.num_threads = 3;
  EXPECT_EQ(grid(threads), grid(ascending));  // width never changes a store
  PrecomputeOptions resolved = GridOptions(2, 8, {2, 0, 2}).ResolvedFor(kAttrs);
  EXPECT_EQ(resolved.d_values, (std::vector<int>{0, 2}));
  EXPECT_EQ(resolved.ResolvedFor(kAttrs).d_values, resolved.d_values);

  Instance inst = MakeInstance(47, 90, kAttrs, 4, 24);
  auto once = Precompute::Run(inst.u, 24, GridOptions(2, 8, {2}));
  auto twice = Precompute::Run(inst.u, 24, GridOptions(2, 8, {2, 2}));
  ASSERT_TRUE(once.ok() && twice.ok());
  EXPECT_EQ(twice->num_intervals(), once->num_intervals());
  EXPECT_EQ(twice->naive_entries(), once->naive_entries());
  EXPECT_EQ(SerializeSolutionStore(*twice), SerializeSolutionStore(*once));
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Two grids are the same grid: L, k range, rows, every (size, value)
/// ladder and interval set, every (d, k) solution's ids and average bits,
/// and both space metrics.
void ExpectSameGrid(const SolutionStore& got, const SolutionStore& want) {
  ASSERT_EQ(got.l(), want.l());
  ASSERT_EQ(got.k_max(), want.k_max());
  ASSERT_EQ(got.d_values(), want.d_values());
  EXPECT_EQ(got.num_intervals(), want.num_intervals());
  EXPECT_EQ(got.naive_entries(), want.naive_entries());
  auto sorted = [](const SolutionStore& store, int d) {
    Result<std::vector<SolutionStore::IntervalRecord>> records =
        store.Intervals(d);
    std::vector<std::tuple<int, int, int>> out;
    for (const auto& r : records.value()) {
      out.emplace_back(r.lo, r.hi, r.cluster_id);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  for (int d : want.d_values()) {
    SCOPED_TRACE(StrCat("d=", d));
    EXPECT_EQ(got.MinK(d).value(), want.MinK(d).value());
    EXPECT_EQ(got.SizeValues(d).value(), want.SizeValues(d).value());
    EXPECT_EQ(sorted(got, d), sorted(want, d));
    for (int k = want.MinK(d).value(); k <= want.k_max(); ++k) {
      Result<Solution> a = got.Retrieve(d, k);
      Result<Solution> b = want.Retrieve(d, k);
      ASSERT_TRUE(a.ok() && b.ok()) << "k=" << k;
      EXPECT_EQ(a->cluster_ids, b->cluster_ids) << "k=" << k;
      EXPECT_EQ(Bits(a->average), Bits(b->average)) << "k=" << k;
      EXPECT_EQ(Bits(got.Value(d, k).value()), Bits(want.Value(d, k).value()))
          << "k=" << k;
    }
  }
}

/// Whether some seed of `grid` covers each element in [grid.l(), top_l).
bool SeedsCover(const SolutionStore& grid, const ClusterUniverse& u,
                int top_l) {
  for (int e = grid.l(); e < top_l; ++e) {
    bool covered = false;
    for (int id : grid.source()->seeds) {
      const auto& members = u.covered(id);
      covered = covered ||
                std::find(members.begin(), members.end(), e) != members.end();
    }
    if (!covered) return false;
  }
  return true;
}

// Derived ≡ cold: on seeded answer sets and option variants, every grid
// Widen returns equals a precompute at its L, and Widen returns one exactly
// when the seeds cover the answers in between. Each level is widened from
// each of the five levels below it, as a session widens from the widest
// grid it holds.
TEST(PrecomputeTest, WidenedGridEqualsColdPrecompute) {
  struct Variant {
    const char* name;
    PrecomputeOptions options;
  };
  auto with = [](PrecomputeOptions options, auto&& edit) {
    edit(options);
    return options;
  };
  const std::vector<Variant> variants = {
      {"k_max 4", GridOptions(2, 4, {})},
      {"k_max 8", GridOptions(2, 8, {})},
      {"c 2", with(GridOptions(2, 6, {}),
                   [](PrecomputeOptions& o) { o.c = 2; })},
      {"D {0, 2}", GridOptions(2, 5, {0, 2})},
      {"D {1, 3}", GridOptions(2, 5, {3, 1})},
      {"k_min 3", GridOptions(3, 6, {})},
      {"no delta", with(GridOptions(2, 5, {}),
                        [](PrecomputeOptions& o) {
                          o.use_delta_judgment = false;
                        })},
  };
  struct Shape {
    uint64_t seed;
    int n, m, domain;
  };
  constexpr int kFirstL = 12;
  constexpr int kLastL = 48;
  constexpr int kReach = 5;
  int derived = 0;
  int refused = 0;
  for (const Shape& shape : {Shape{53, 160, 4, 4}, Shape{59, 220, 5, 3},
                             Shape{61, 260, 6, 3}}) {
    Instance inst =
        MakeInstance(shape.seed, shape.n, shape.m, shape.domain, kLastL);
    for (const Variant& variant : variants) {
      SCOPED_TRACE(StrCat("seed=", shape.seed, " ", variant.name));
      std::vector<std::optional<SolutionStore>> cold(kLastL + 1);
      for (int l = kFirstL; l <= kLastL; ++l) {
        auto run = Precompute::Run(inst.u, l, variant.options);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        cold[static_cast<size_t>(l)].emplace(std::move(run).value());
      }
      for (int l = kFirstL; l < kLastL; ++l) {
        const SolutionStore& grid = *cold[static_cast<size_t>(l)];
        for (int top_l = l + 1; top_l <= std::min(l + kReach, kLastL);
             ++top_l) {
          SCOPED_TRACE(StrCat("l=", l, " top_l=", top_l));
          std::optional<SolutionStore> widened =
              Precompute::Widen(grid, inst.u, top_l, variant.options);
          ASSERT_EQ(widened.has_value(), SeedsCover(grid, inst.u, top_l));
          if (!widened.has_value()) {
            ++refused;
            continue;
          }
          ++derived;
          EXPECT_EQ(widened->source()->seeds, grid.source()->seeds);
          EXPECT_EQ(widened->universe(), &inst.u);
          ExpectSameGrid(*widened, *cold[static_cast<size_t>(top_l)]);
          // The seeds at top_l are the seeds at l.
          EXPECT_EQ(cold[static_cast<size_t>(top_l)]->source()->seeds,
                    grid.source()->seeds);
        }
      }
    }
  }
  EXPECT_GT(derived, 0);
  EXPECT_GT(refused, 0);
}

// Widen returns nothing where it cannot prove the grid: an answer in the gap
// that no seed covers, a loaded grid (no seeds), another grid shape, an L
// that is not wider, or one past the universe.
TEST(PrecomputeTest, WidenRefusesWhatItCannotProve) {
  Instance inst = MakeInstance(67, 200, 5, 3, 40);
  const PrecomputeOptions options = GridOptions(2, 6, {});
  // A level whose seeds cover the next answer, and one whose seeds do not.
  int covered_l = -1;
  int uncovered_l = -1;
  for (int l = 20; l < 40 && (covered_l < 0 || uncovered_l < 0); ++l) {
    auto grid = Precompute::Run(inst.u, l, options);
    ASSERT_TRUE(grid.ok());
    (SeedsCover(*grid, inst.u, l + 1) ? covered_l : uncovered_l) = l;
  }
  ASSERT_GE(covered_l, 0);
  ASSERT_GE(uncovered_l, 0);

  auto uncovered = Precompute::Run(inst.u, uncovered_l, options);
  ASSERT_TRUE(uncovered.ok());
  EXPECT_FALSE(
      Precompute::Widen(*uncovered, inst.u, uncovered_l + 1, options));
  // The gap fails on its one uncovered answer, wherever the gap ends.
  EXPECT_FALSE(
      Precompute::Widen(*uncovered, inst.u, uncovered_l + 3, options));

  auto grid = Precompute::Run(inst.u, covered_l, options);
  ASSERT_TRUE(grid.ok());
  ASSERT_TRUE(Precompute::Widen(*grid, inst.u, covered_l + 1, options));
  // The request's options resolve alike: widening with them works.
  PrecomputeOptions same = options;
  same.d_values = {5, 4, 3, 2, 1, 1};
  same.num_threads = 3;
  EXPECT_TRUE(Precompute::Widen(*grid, inst.u, covered_l + 1, same));

  auto loaded =
      DeserializeSolutionStore(&inst.u, SerializeSolutionStore(*grid));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->source(), nullptr);
  EXPECT_FALSE(Precompute::Widen(*loaded, inst.u, covered_l + 1, options));

  for (auto edit : std::vector<void (*)(PrecomputeOptions*)>{
           [](PrecomputeOptions* o) { o->k_max = 7; },
           [](PrecomputeOptions* o) { o->k_min = 3; },
           [](PrecomputeOptions* o) { o->c = 2; },
           [](PrecomputeOptions* o) { o->d_values = {1, 2}; },
           [](PrecomputeOptions* o) { o->use_delta_judgment = false; }}) {
    PrecomputeOptions other = options;
    edit(&other);
    EXPECT_FALSE(Precompute::Widen(*grid, inst.u, covered_l + 1, other));
  }
  EXPECT_FALSE(Precompute::Widen(*grid, inst.u, covered_l, options));
  EXPECT_FALSE(Precompute::Widen(*grid, inst.u, covered_l - 1, options));
  EXPECT_FALSE(Precompute::Widen(*grid, inst.u, 41, options));
}

// Eight callers each run Precompute::Run at width 4 over one shared
// universe at the same time: every call starts and joins its own threads,
// and every store equals the serial one (the TSan job runs this binary).
TEST(PrecomputeTest, ConcurrentRunsOverOneUniverseEqualTheSerialStore) {
  Instance inst = MakeInstance(41, 120, 6, 3, 30);
  PrecomputeOptions options = GridOptions(2, 16, {1, 2, 3, 4, 5, 6});
  options.num_threads = 1;
  auto serial = Precompute::Run(inst.u, 30, options);
  ASSERT_TRUE(serial.ok());
  options.num_threads = 4;
  constexpr int kCallers = 8;
  std::vector<std::optional<SolutionStore>> stores(kCallers);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      auto store = Precompute::Run(inst.u, 30, options);
      if (store.ok()) {
        stores[static_cast<size_t>(t)].emplace(std::move(store).value());
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int t = 0; t < kCallers; ++t) {
    SCOPED_TRACE(StrCat("caller ", t));
    ASSERT_TRUE(stores[static_cast<size_t>(t)].has_value());
    ExpectSameGrid(*stores[static_cast<size_t>(t)], *serial);
  }
}

}  // namespace
}  // namespace qagview::core
