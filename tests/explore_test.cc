#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/bottom_up.h"
#include "core/explore.h"
#include "core/hybrid.h"
#include "test_util.h"

namespace qagview::core {
namespace {

TEST(ExploreTest, TwoLayerViewAggregatesPerCluster) {
  AnswerSet s = testutil::MakeMovieExample();
  auto u = ClusterUniverse::Build(&s, 8);
  ASSERT_TRUE(u.ok());
  Params params{4, 8, 2};
  auto sol = BottomUp::Run(*u, params);
  ASSERT_TRUE(sol.ok());

  TwoLayerView view = BuildTwoLayerView(*u, *sol);
  EXPECT_EQ(view.clusters.size(), sol->cluster_ids.size());
  EXPECT_NEAR(view.solution_average, sol->average, 1e-9);
  double prev = 1e18;
  for (const ClusterView& cv : view.clusters) {
    EXPECT_LE(cv.average, prev);  // sorted by average desc
    prev = cv.average;
    EXPECT_GT(cv.count, 0);
    EXPECT_EQ(static_cast<int>(cv.member_ranks.size()), cv.count);
    EXPECT_GE(cv.top_count, 1);  // universe clusters cover >=1 top element
    for (int rank : cv.member_ranks) {
      EXPECT_GE(rank, 1);
      EXPECT_LE(rank, s.size());
    }
  }
}

TEST(ExploreTest, SummaryRendersPatternsAndAverages) {
  AnswerSet s = testutil::MakeMovieExample();
  auto u = ClusterUniverse::Build(&s, 8);
  ASSERT_TRUE(u.ok());
  auto sol = BottomUp::Run(*u, Params{4, 8, 2});
  ASSERT_TRUE(sol.ok());
  std::string text = RenderSummary(*u, *sol);
  EXPECT_NE(text.find("hdec"), std::string::npos);
  EXPECT_NE(text.find("avg val"), std::string::npos);
  EXPECT_NE(text.find("solution avg"), std::string::npos);
}

// A value name may hold ", " or edge spaces: each summary cell is one
// attribute's value (or *), so every row has as many cells as the header.
TEST(ExploreTest, SummaryCellsAreWholeValueNames) {
  auto s = AnswerSet::FromRaw(
      {"city", "kind"}, {{"Durham, NC", " Cary ", "Apex"}, {"shop", "cafe"}},
      {{{0, 0}, 5.0}, {{1, 0}, 4.0}, {{2, 1}, 3.0}, {{0, 1}, 2.0}});
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  auto u = ClusterUniverse::Build(&*s, s->size());
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  Solution solution;
  solution.cluster_ids = {u->singleton_id(0), u->singleton_id(1),
                          u->FindId(Cluster::Generalize({2, 1}, 0b01))};
  ASSERT_GE(solution.cluster_ids.back(), 0);

  std::vector<std::string> lines = Split(RenderSummary(*u, solution), '\n');
  ASSERT_GE(lines.size(), 4u);
  const size_t cells = Split(lines[0], '\t').size();
  EXPECT_EQ(cells, 4u);  // city, kind, avg val, #tuples
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 1; i <= 3; ++i) {
    rows.push_back(Split(lines[i], '\t'));
    EXPECT_EQ(rows.back().size(), cells) << lines[i];
  }
  // Rows are sorted by average: (Durham, NC, shop), ( Cary , shop), then
  // (*, cafe) at (3 + 2) / 2.
  EXPECT_EQ(rows[0][0], "Durham, NC");
  EXPECT_EQ(rows[0][1], "shop");
  EXPECT_EQ(rows[1][0], " Cary ");
  EXPECT_EQ(rows[2][0], "*");
  EXPECT_EQ(rows[2][1], "cafe");
  EXPECT_EQ(rows[2][3], "2");
}

TEST(ExploreTest, ExpandedViewListsMembersWithRanks) {
  AnswerSet s = testutil::MakeMovieExample();
  auto u = ClusterUniverse::Build(&s, 8);
  ASSERT_TRUE(u.ok());
  auto sol = BottomUp::Run(*u, Params{4, 8, 2});
  ASSERT_TRUE(sol.ok());
  std::string text = RenderExpanded(*u, *sol);
  // Rank-1 tuple (1975 20s M Student, 4.24) must appear with its rank.
  EXPECT_NE(text.find("4.24"), std::string::npos);
  EXPECT_NE(text.find("1975"), std::string::npos);
  // Member lines are indented under cluster headers.
  EXPECT_NE(text.find("▼"), std::string::npos);

  // max_members truncation note appears when limiting to one member if any
  // cluster has more than one member.
  std::string truncated = RenderExpanded(*u, *sol, /*max_members=*/1);
  bool has_multi = false;
  for (const ClusterView& cv : BuildTwoLayerView(*u, *sol).clusters) {
    has_multi = has_multi || cv.count > 1;
  }
  if (has_multi) {
    EXPECT_NE(truncated.find("more)"), std::string::npos);
  }
}

TEST(ExploreTest, PaperExampleSummaryIsDiscriminative) {
  // The headline behaviour from Example 1.2: with k=4, L=8, D=2 the
  // summary's clusters should all have high averages — strictly above the
  // trivial all-tuples average — because Max-Avg avoids patterns shared
  // with low-valued tuples.
  AnswerSet s = testutil::MakeMovieExample();
  auto u = ClusterUniverse::Build(&s, 8);
  ASSERT_TRUE(u.ok());
  auto sol = Hybrid::Run(*u, Params{4, 8, 2});
  ASSERT_TRUE(sol.ok());
  EXPECT_GT(sol->average, s.TrivialAverage());
  // And the solution's covered tuples skew to the top: its average must be
  // closer to the top-8 average than the trivial baseline is.
  double top8 = s.TopAverage(8);
  EXPECT_LT(top8 - sol->average, top8 - s.TrivialAverage());
}

}  // namespace
}  // namespace qagview::core
