#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/hybrid.h"
#include "core/precompute.h"
#include "core/session.h"
#include "test_util.h"
#include "viz/assignment.h"
#include "viz/param_grid.h"
#include "viz/sankey.h"

namespace qagview::viz {
namespace {

using core::AnswerSet;
using core::ClusterUniverse;

// --- Assignment. ---

TEST(AssignmentTest, TinyKnownInstance) {
  // Optimal: row0->col1 (1), row1->col0 (2) = 3 vs diagonal 5+5=10.
  std::vector<std::vector<double>> cost = {{5.0, 1.0}, {2.0, 5.0}};
  auto a = SolveAssignment(cost);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, (std::vector<int>{1, 0}));
  EXPECT_DOUBLE_EQ(AssignmentCost(cost, *a), 3.0);
}

TEST(AssignmentTest, Validation) {
  EXPECT_FALSE(SolveAssignment({}).ok());
  EXPECT_FALSE(SolveAssignment({{1.0, 2.0}}).ok());  // not square
  EXPECT_FALSE(SolveAssignmentBruteForce({{1.0, 2.0}}).ok());
}

class AssignmentPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(AssignmentPropertyTest, HungarianMatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    int n = 2 + static_cast<int>(rng.Index(6));  // up to 7x7
    std::vector<std::vector<double>> cost(
        static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
    for (auto& row : cost) {
      for (double& c : row) c = rng.UniformReal(0.0, 100.0);
    }
    auto fast = SolveAssignment(cost);
    auto slow = SolveAssignmentBruteForce(cost);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    // Costs must match (assignments may differ under ties).
    EXPECT_NEAR(AssignmentCost(cost, *fast), AssignmentCost(cost, *slow),
                1e-6);
    // Result is a permutation.
    std::vector<char> seen(static_cast<size_t>(n), 0);
    for (int c : *fast) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, n);
      ASSERT_FALSE(seen[static_cast<size_t>(c)]);
      seen[static_cast<size_t>(c)] = 1;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignmentPropertyTest,
                         testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Sankey. ---

struct Fixture {
  std::unique_ptr<AnswerSet> set;
  std::unique_ptr<ClusterUniverse> u;
  core::Solution old_solution;
  core::Solution new_solution;
};

Fixture MakeFixture(uint64_t seed) {
  Fixture f;
  f.set = std::make_unique<AnswerSet>(
      testutil::MakeRandomAnswerSet(seed, 100, 5, 3));
  auto u = ClusterUniverse::Build(f.set.get(), 20);
  QAG_CHECK(u.ok());
  f.u = std::make_unique<ClusterUniverse>(std::move(u).value());
  f.old_solution = core::Hybrid::Run(*f.u, core::Params{6, 20, 2}).value();
  f.new_solution = core::Hybrid::Run(*f.u, core::Params{4, 20, 2}).value();
  return f;
}

TEST(SankeyTest, OverlapMatrixIsConsistent) {
  Fixture f = MakeFixture(5);
  SankeyDiagram d = BuildSankey(*f.u, f.old_solution, f.new_solution);
  ASSERT_EQ(d.num_left(), f.old_solution.size());
  ASSERT_EQ(d.num_right(), f.new_solution.size());
  for (int i = 0; i < d.num_left(); ++i) {
    int row_sum = 0;
    for (int j = 0; j < d.num_right(); ++j) {
      int m = d.overlap[static_cast<size_t>(i)][static_cast<size_t>(j)];
      EXPECT_GE(m, 0);
      EXPECT_LE(m, std::min(d.left_sizes[static_cast<size_t>(i)],
                            d.right_sizes[static_cast<size_t>(j)]));
      row_sum += m;
    }
    // Overlaps out of a left cluster cannot exceed its size... unless the
    // right clusters overlap each other; then shared tuples count twice.
    // At minimum the row sum is bounded by size * num_right.
    EXPECT_LE(row_sum,
              d.left_sizes[static_cast<size_t>(i)] * d.num_right());
  }
}

TEST(SankeyTest, OptimizedPlacementNeverWorseThanDefault) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Fixture f = MakeFixture(seed);
    SankeyDiagram d = BuildSankey(*f.u, f.old_solution, f.new_solution);
    std::vector<int> left = IdentityPositions(d.num_left());
    std::vector<int> identity = IdentityPositions(d.num_right());
    auto optimized = OptimizeRightPositions(d, left);
    ASSERT_TRUE(optimized.ok());
    EXPECT_LE(PlacementDistance(d, left, *optimized),
              PlacementDistance(d, left, identity) + 1e-9);
  }
}

TEST(SankeyTest, HungarianPlacementMatchesBruteForce) {
  Fixture f = MakeFixture(7);
  SankeyDiagram d = BuildSankey(*f.u, f.old_solution, f.new_solution);
  std::vector<int> left = IdentityPositions(d.num_left());
  auto fast = OptimizeRightPositions(d, left);
  auto slow = OptimizeRightPositionsBruteForce(d, left);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_NEAR(PlacementDistance(d, left, *fast),
              PlacementDistance(d, left, *slow), 1e-9);
}

TEST(SankeyTest, CrossingCountBasics) {
  SankeyDiagram d;
  d.left_labels = {"A", "B"};
  d.right_labels = {"X", "Y"};
  d.left_sizes = {10, 10};
  d.right_sizes = {10, 10};
  d.left_top_counts = {1, 1};
  d.right_top_counts = {1, 1};
  d.overlap = {{5, 0}, {0, 5}};  // parallel bands
  std::vector<int> id2 = {0, 1};
  EXPECT_EQ(CountCrossings(d, id2, id2), 0);
  std::vector<int> swapped = {1, 0};
  EXPECT_EQ(CountCrossings(d, id2, swapped), 1);
  d.overlap = {{5, 5}, {5, 5}};  // full bipartite: one crossing pair
  EXPECT_EQ(CountCrossings(d, id2, id2), 1);
}

TEST(SankeyTest, TopCountsAreTakenAtTheDisplayedL) {
  // A session that holds a universe at L = 25 serves L = 10 from it. The
  // diagram at L = 10 must count top elements as a cold L = 10 universe
  // does, not against the universe's own L.
  auto session =
      core::Session::Create(testutil::MakeRandomAnswerSet(13, 100, 5, 3));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->UniverseFor(25).ok());
  const core::Params old_params{6, 10, 2};
  const core::Params new_params{4, 10, 2};
  std::shared_ptr<const ClusterUniverse> held;
  auto old_solution = (*session)->SummarizeWith(old_params, &held);
  auto new_solution = (*session)->Summarize(new_params);
  ASSERT_TRUE(old_solution.ok()) << old_solution.status().ToString();
  ASSERT_TRUE(new_solution.ok()) << new_solution.status().ToString();
  ASSERT_EQ(held->top_l(), 25);
  SankeyDiagram served =
      BuildSankey(*held, *old_solution, *new_solution, /*top_l=*/10);

  std::shared_ptr<const AnswerSet> answers = (*session)->answers();
  auto cold = ClusterUniverse::Build(answers.get(), 10);
  ASSERT_TRUE(cold.ok());
  auto cold_old = core::Hybrid::Run(*cold, old_params);
  auto cold_new = core::Hybrid::Run(*cold, new_params);
  ASSERT_TRUE(cold_old.ok() && cold_new.ok());
  SankeyDiagram expected = BuildSankey(*cold, *cold_old, *cold_new);
  EXPECT_EQ(served.left_labels, expected.left_labels);
  EXPECT_EQ(served.right_labels, expected.right_labels);
  EXPECT_EQ(served.left_top_counts, expected.left_top_counts);
  EXPECT_EQ(served.right_top_counts, expected.right_top_counts);
  EXPECT_EQ(served.left_sizes, expected.left_sizes);
  EXPECT_EQ(served.overlap, expected.overlap);
  // Counted at the universe's own L, the diagram would differ here.
  SankeyDiagram at_universe_l =
      BuildSankey(*held, *old_solution, *new_solution);
  EXPECT_NE(at_universe_l.left_top_counts, expected.left_top_counts);
}

TEST(SankeyTest, RenderShowsLabelsAndRibbons) {
  Fixture f = MakeFixture(9);
  SankeyDiagram d = BuildSankey(*f.u, f.old_solution, f.new_solution);
  std::vector<int> left = IdentityPositions(d.num_left());
  std::vector<int> right = IdentityPositions(d.num_right());
  std::string text = RenderSankey(d, left, right);
  EXPECT_NE(text.find("tuples"), std::string::npos);
  EXPECT_NE(text.find("|"), std::string::npos);
}

// --- Param grid. ---

TEST(ParamGridTest, BuildsFromStoreAndRoundTrips) {
  auto set = std::make_unique<AnswerSet>(
      testutil::MakeRandomAnswerSet(11, 90, 5, 3));
  auto u = ClusterUniverse::Build(set.get(), 20);
  ASSERT_TRUE(u.ok());
  core::PrecomputeOptions options;
  options.k_min = 2;
  options.k_max = 10;
  options.d_values = {1, 2, 3};
  auto store = core::Precompute::Run(*u, 20, options);
  ASSERT_TRUE(store.ok());
  auto grid = BuildParamGrid(*store, 2, 10);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->d_values, (std::vector<int>{1, 2, 3}));
  // Non-NaN entries match the store.
  for (size_t di = 0; di < grid->d_values.size(); ++di) {
    for (int k = 2; k <= 10; ++k) {
      double v = grid->Value(static_cast<int>(di), k);
      auto expected = store->Value(grid->d_values[di], k);
      if (expected.ok()) {
        EXPECT_NEAR(v, *expected, 1e-12);
      } else {
        EXPECT_TRUE(std::isnan(v));
      }
    }
  }
  // Renderings include the axes.
  EXPECT_NE(grid->ToCsv().find("k,D=1,D=2,D=3"), std::string::npos);
  EXPECT_NE(grid->ToTextChart().find("D=2"), std::string::npos);
}

TEST(ParamGridTest, KneeDetectionFindsSharpElbow) {
  ParamGrid grid;
  grid.l = 10;
  grid.k_min = 1;
  grid.k_max = 6;
  grid.d_values = {1};
  // Flat, then a jump at k=4, then flat: knee at 4.
  grid.values = {{1.0, 1.01, 1.02, 2.0, 2.01, 2.02}};
  EXPECT_EQ(grid.KneePoints(0), (std::vector<int>{4}));
}

TEST(ParamGridTest, RedundantDValuesDetected) {
  ParamGrid grid;
  grid.l = 10;
  grid.k_min = 1;
  grid.k_max = 3;
  grid.d_values = {1, 2, 3};
  grid.values = {{1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}, {0.5, 1.0, 1.5}};
  EXPECT_EQ(grid.RedundantDValues(), (std::vector<int>{2}));
}

TEST(ParamGridTest, Validation) {
  auto set = std::make_unique<AnswerSet>(
      testutil::MakeRandomAnswerSet(13, 50, 4, 3));
  auto u = ClusterUniverse::Build(set.get(), 10);
  ASSERT_TRUE(u.ok());
  auto store = core::Precompute::Run(*u, 10);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(BuildParamGrid(*store, 0, 5).ok());
  EXPECT_FALSE(BuildParamGrid(*store, 5, 2).ok());
}

}  // namespace
}  // namespace qagview::viz
