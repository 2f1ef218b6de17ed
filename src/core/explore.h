#ifndef QAGVIEW_CORE_EXPLORE_H_
#define QAGVIEW_CORE_EXPLORE_H_

#include <string>
#include <vector>

#include "core/solution.h"

namespace qagview::core {

/// One first-layer row of the two-layer output (Figure 1b): a cluster, its
/// rendered pattern, and the statistics of the elements it covers.
struct ClusterView {
  int cluster_id = -1;
  std::string pattern;            // "(1980, *, M, *)"
  double average = 0.0;           // avg value of covered elements
  int count = 0;                  // elements covered
  int top_count = 0;              // of which in the top L
  std::vector<int> member_ranks;  // 1-based ranks of covered elements
};

/// The two-layer view of a solution: clusters (sorted by average
/// descending, as the paper displays them) plus the solution objective.
struct TwoLayerView {
  std::vector<ClusterView> clusters;
  double solution_average = 0.0;
  int solution_count = 0;
};

/// Builds the display structures for a solution. `top_count` counts
/// covered ranks within the top `top_l`; 0 means the universe's L. A
/// session serves a request at L from a universe built for any L' >= L, so
/// pass the request's L.
TwoLayerView BuildTwoLayerView(const ClusterUniverse& universe,
                               const Solution& solution, int top_l = 0);

/// Renders the collapsed first layer (Figure 1b) of a view built over
/// `universe`: one row per cluster, one cell per attribute (its value name,
/// or * for a wildcard), then the average value and the covered count.
std::string RenderSummary(const ClusterUniverse& universe,
                          const TwoLayerView& view);

/// Renders the expanded view (Figure 1c) of a view over answer set `s`, built
/// at `top_l`: each cluster followed by the original result tuples it
/// covers, with their global ranks. Clusters list at most `max_members`
/// members each (0 = all).
std::string RenderExpanded(const AnswerSet& s, const TwoLayerView& view,
                           int max_members, int top_l);

/// RenderSummary of BuildTwoLayerView(universe, solution).
std::string RenderSummary(const ClusterUniverse& universe,
                          const Solution& solution);

/// RenderExpanded of BuildTwoLayerView(universe, solution, top_l); `top_l`
/// is as in BuildTwoLayerView.
std::string RenderExpanded(const ClusterUniverse& universe,
                           const Solution& solution, int max_members = 0,
                           int top_l = 0);

}  // namespace qagview::core

#endif  // QAGVIEW_CORE_EXPLORE_H_
