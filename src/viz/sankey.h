#ifndef QAGVIEW_VIZ_SANKEY_H_
#define QAGVIEW_VIZ_SANKEY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/solution.h"

namespace qagview::viz {

/// \brief The data behind the solution-comparison visualization (Appendix
/// A.7.1, Figures 14/15): old clusters on the left, new clusters on the
/// right, ribbons proportional to shared tuples.
struct SankeyDiagram {
  std::vector<std::string> left_labels;
  std::vector<std::string> right_labels;
  std::vector<int> left_sizes;        // tuples per old cluster
  std::vector<int> right_sizes;       // tuples per new cluster
  std::vector<int> left_top_counts;   // of which in top-L (darker box part)
  std::vector<int> right_top_counts;
  /// overlap[i][j] = tuples shared by old cluster i and new cluster j.
  std::vector<std::vector<int>> overlap;

  int num_left() const { return static_cast<int>(left_sizes.size()); }
  int num_right() const { return static_cast<int>(right_sizes.size()); }
};

/// Builds the diagram for two consecutive solutions over the same universe.
/// The top counts count covered ranks within the top `top_l`; 0 means the
/// universe's L. A session serves a request at L from a universe built for
/// any L' >= L, so pass the L on display.
SankeyDiagram BuildSankey(const core::ClusterUniverse& universe,
                          const core::Solution& old_solution,
                          const core::Solution& new_solution, int top_l = 0);

/// The weighted earth-mover objective of Definition A.3:
/// D = Σ_ij overlap[i][j] · |pos_left[i] - pos_right[j]|.
/// `left_order` / `right_order` give each box's vertical position
/// (a permutation of 0..n-1, by side).
double PlacementDistance(const SankeyDiagram& diagram,
                         const std::vector<int>& left_positions,
                         const std::vector<int>& right_positions);

/// Number of crossing ribbon pairs under the given placement (the second
/// metric of Figure 16b).
int CountCrossings(const SankeyDiagram& diagram,
                   const std::vector<int>& left_positions,
                   const std::vector<int>& right_positions);

/// Identity placement 0..n-1 (the "default visualization": clusters listed
/// by solution order, i.e. by value).
std::vector<int> IdentityPositions(int n);

/// Optimal right-side placement for a fixed left placement, via
/// minimum-cost perfect matching (Appendix A.7.2). cost(cluster j at
/// position q) = Σ_i overlap[i][j] · |pos_left[i] - q|.
Result<std::vector<int>> OptimizeRightPositions(
    const SankeyDiagram& diagram, const std::vector<int>& left_positions);

/// Exhaustive reference optimizer (A.7.3's brute-force comparison).
Result<std::vector<int>> OptimizeRightPositionsBruteForce(
    const SankeyDiagram& diagram, const std::vector<int>& left_positions);

/// ASCII rendering of the diagram under a placement (for the CLI examples).
std::string RenderSankey(const SankeyDiagram& diagram,
                         const std::vector<int>& left_positions,
                         const std::vector<int>& right_positions);

}  // namespace qagview::viz

#endif  // QAGVIEW_VIZ_SANKEY_H_
