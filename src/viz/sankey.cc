#include "viz/sankey.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/string_util.h"
#include "viz/assignment.h"

namespace qagview::viz {

SankeyDiagram BuildSankey(const core::ClusterUniverse& universe,
                          const core::Solution& old_solution,
                          const core::Solution& new_solution, int top_l) {
  if (top_l <= 0) top_l = universe.top_l();
  SankeyDiagram d;
  const core::AnswerSet& s = universe.answer_set();
  auto fill_side = [&](const core::Solution& solution,
                       std::vector<std::string>* labels,
                       std::vector<int>* sizes, std::vector<int>* tops) {
    for (int id : solution.cluster_ids) {
      labels->push_back(universe.cluster(id).ToString(s));
      sizes->push_back(universe.covered_count(id));
      tops->push_back(universe.TopCoveredCount(id, top_l));
    }
  };
  fill_side(old_solution, &d.left_labels, &d.left_sizes, &d.left_top_counts);
  fill_side(new_solution, &d.right_labels, &d.right_sizes,
            &d.right_top_counts);

  d.overlap.assign(static_cast<size_t>(d.num_left()),
                   std::vector<int>(static_cast<size_t>(d.num_right()), 0));
  for (int i = 0; i < d.num_left(); ++i) {
    const Span<int32_t> a =
        universe.covered(old_solution.cluster_ids[static_cast<size_t>(i)]);
    for (int j = 0; j < d.num_right(); ++j) {
      const Span<int32_t> b =
          universe.covered(new_solution.cluster_ids[static_cast<size_t>(j)]);
      // Sorted-list intersection count.
      size_t x = 0;
      size_t y = 0;
      int shared = 0;
      while (x < a.size() && y < b.size()) {
        if (a[x] < b[y]) {
          ++x;
        } else if (a[x] > b[y]) {
          ++y;
        } else {
          ++shared;
          ++x;
          ++y;
        }
      }
      d.overlap[static_cast<size_t>(i)][static_cast<size_t>(j)] = shared;
    }
  }
  return d;
}

double PlacementDistance(const SankeyDiagram& diagram,
                         const std::vector<int>& left_positions,
                         const std::vector<int>& right_positions) {
  double total = 0.0;
  for (int i = 0; i < diagram.num_left(); ++i) {
    for (int j = 0; j < diagram.num_right(); ++j) {
      int m = diagram.overlap[static_cast<size_t>(i)][static_cast<size_t>(j)];
      if (m == 0) continue;
      total += m * std::abs(left_positions[static_cast<size_t>(i)] -
                            right_positions[static_cast<size_t>(j)]);
    }
  }
  return total;
}

int CountCrossings(const SankeyDiagram& diagram,
                   const std::vector<int>& left_positions,
                   const std::vector<int>& right_positions) {
  // Bands as (left position, right position) pairs; two bands cross iff
  // their left and right orders disagree strictly.
  std::vector<std::pair<int, int>> bands;
  for (int i = 0; i < diagram.num_left(); ++i) {
    for (int j = 0; j < diagram.num_right(); ++j) {
      if (diagram.overlap[static_cast<size_t>(i)][static_cast<size_t>(j)] >
          0) {
        bands.emplace_back(left_positions[static_cast<size_t>(i)],
                           right_positions[static_cast<size_t>(j)]);
      }
    }
  }
  int crossings = 0;
  for (size_t a = 0; a < bands.size(); ++a) {
    for (size_t b = a + 1; b < bands.size(); ++b) {
      int dl = bands[a].first - bands[b].first;
      int dr = bands[a].second - bands[b].second;
      crossings += (dl > 0 && dr < 0) || (dl < 0 && dr > 0);
    }
  }
  return crossings;
}

std::vector<int> IdentityPositions(int n) {
  std::vector<int> out(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out[static_cast<size_t>(i)] = i;
  return out;
}

Result<std::vector<int>> OptimizeRightPositions(
    const SankeyDiagram& diagram, const std::vector<int>& left_positions) {
  int n = diagram.num_right();
  if (n == 0) return Status::InvalidArgument("no right-side clusters");
  // cost[j][q] = Σ_i overlap[i][j] * |pos_left[i] - q|.
  std::vector<std::vector<double>> cost(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
  for (int j = 0; j < n; ++j) {
    for (int q = 0; q < n; ++q) {
      double c = 0.0;
      for (int i = 0; i < diagram.num_left(); ++i) {
        c += diagram.overlap[static_cast<size_t>(i)][static_cast<size_t>(j)] *
             std::abs(left_positions[static_cast<size_t>(i)] - q);
      }
      cost[static_cast<size_t>(j)][static_cast<size_t>(q)] = c;
    }
  }
  return SolveAssignment(cost);
}

Result<std::vector<int>> OptimizeRightPositionsBruteForce(
    const SankeyDiagram& diagram, const std::vector<int>& left_positions) {
  int n = diagram.num_right();
  if (n == 0) return Status::InvalidArgument("no right-side clusters");
  std::vector<std::vector<double>> cost(
      static_cast<size_t>(n), std::vector<double>(static_cast<size_t>(n)));
  for (int j = 0; j < n; ++j) {
    for (int q = 0; q < n; ++q) {
      double c = 0.0;
      for (int i = 0; i < diagram.num_left(); ++i) {
        c += diagram.overlap[static_cast<size_t>(i)][static_cast<size_t>(j)] *
             std::abs(left_positions[static_cast<size_t>(i)] - q);
      }
      cost[static_cast<size_t>(j)][static_cast<size_t>(q)] = c;
    }
  }
  return SolveAssignmentBruteForce(cost);
}

std::string RenderSankey(const SankeyDiagram& diagram,
                         const std::vector<int>& left_positions,
                         const std::vector<int>& right_positions) {
  // Invert positions to display order.
  std::vector<int> left_at(static_cast<size_t>(diagram.num_left()));
  std::vector<int> right_at(static_cast<size_t>(diagram.num_right()));
  for (int i = 0; i < diagram.num_left(); ++i) {
    left_at[static_cast<size_t>(left_positions[static_cast<size_t>(i)])] = i;
  }
  for (int j = 0; j < diagram.num_right(); ++j) {
    right_at[static_cast<size_t>(right_positions[static_cast<size_t>(j)])] =
        j;
  }
  std::ostringstream out;
  int rows = std::max(diagram.num_left(), diagram.num_right());
  for (int r = 0; r < rows; ++r) {
    std::string left = "";
    std::string right = "";
    if (r < diagram.num_left()) {
      int i = left_at[static_cast<size_t>(r)];
      left = StrCat(diagram.left_labels[static_cast<size_t>(i)], " [",
                    diagram.left_top_counts[static_cast<size_t>(i)], "/",
                    diagram.left_sizes[static_cast<size_t>(i)], "]");
    }
    if (r < diagram.num_right()) {
      int j = right_at[static_cast<size_t>(r)];
      right = StrCat(diagram.right_labels[static_cast<size_t>(j)], " [",
                     diagram.right_top_counts[static_cast<size_t>(j)], "/",
                     diagram.right_sizes[static_cast<size_t>(j)], "]");
    }
    left.resize(std::max<size_t>(left.size(), 42), ' ');
    out << left << " | " << right << "\n";
    // Ribbons leaving this left row.
    if (r < diagram.num_left()) {
      int i = left_at[static_cast<size_t>(r)];
      for (int j = 0; j < diagram.num_right(); ++j) {
        int m =
            diagram.overlap[static_cast<size_t>(i)][static_cast<size_t>(j)];
        if (m > 0) {
          out << "    ~~ " << m << " tuples ~> right row "
              << right_positions[static_cast<size_t>(j)] << "\n";
        }
      }
    }
  }
  return out.str();
}

}  // namespace qagview::viz
