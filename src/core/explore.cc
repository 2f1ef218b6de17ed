#include "core/explore.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"

namespace qagview::core {

TwoLayerView BuildTwoLayerView(const ClusterUniverse& universe,
                               const Solution& solution, int top_l) {
  if (top_l <= 0) top_l = universe.top_l();
  TwoLayerView view;
  view.solution_average = solution.average;
  view.solution_count = solution.covered_count;
  const AnswerSet& s = universe.answer_set();
  for (int id : solution.cluster_ids) {
    ClusterView cv;
    cv.cluster_id = id;
    cv.pattern = universe.cluster(id).ToString(s);
    cv.average = universe.Average(id);
    cv.count = universe.covered_count(id);
    cv.top_count = universe.TopCoveredCount(id, top_l);
    for (int32_t e : universe.covered(id)) cv.member_ranks.push_back(e + 1);
    view.clusters.push_back(std::move(cv));
  }
  std::sort(view.clusters.begin(), view.clusters.end(),
            [](const ClusterView& a, const ClusterView& b) {
              if (a.average != b.average) return a.average > b.average;
              return a.pattern < b.pattern;
            });
  return view;
}

std::string RenderSummary(const ClusterUniverse& universe,
                          const TwoLayerView& view) {
  const AnswerSet& s = universe.answer_set();
  std::ostringstream out;
  out << Join(s.attr_names(), "\t") << "\tavg val\t#tuples\n";
  for (const ClusterView& cv : view.clusters) {
    // One cell per attribute, from the cluster's codes: a value name may
    // itself contain ", " or edge spaces.
    const Cluster& cluster = universe.cluster(cv.cluster_id);
    for (int a = 0; a < s.num_attrs(); ++a) {
      out << (cluster.IsWildcard(a) ? "*" : s.ValueName(a, cluster[a]))
          << "\t";
    }
    out << FormatDouble(cv.average, 2) << "\t" << cv.count << "\n";
  }
  out << "solution avg = " << FormatDouble(view.solution_average, 4)
      << " over " << view.solution_count << " covered tuples\n";
  return out.str();
}

std::string RenderExpanded(const AnswerSet& s, const TwoLayerView& view,
                           int max_members, int top_l) {
  std::ostringstream out;
  out << Join(s.attr_names(), "\t") << "\tval\trank\n";
  for (const ClusterView& cv : view.clusters) {
    out << "▼ " << cv.pattern << "\tavg " << FormatDouble(cv.average, 2)
        << "\t(" << cv.count << " tuples, " << cv.top_count << " in top-"
        << top_l << ")\n";
    int shown = 0;
    for (int rank : cv.member_ranks) {
      if (max_members > 0 && shown >= max_members) {
        out << "    ... (" << cv.member_ranks.size() - shown
            << " more)\n";
        break;
      }
      const Element& e = s.element(rank - 1);
      out << "    ";
      for (int a = 0; a < s.num_attrs(); ++a) {
        if (a) out << "\t";
        out << s.ValueName(a, e.attrs[static_cast<size_t>(a)]);
      }
      out << "\t" << FormatDouble(e.value, 2) << "\t" << rank << "\n";
      ++shown;
    }
  }
  return out.str();
}

std::string RenderSummary(const ClusterUniverse& universe,
                          const Solution& solution) {
  return RenderSummary(universe, BuildTwoLayerView(universe, solution));
}

std::string RenderExpanded(const ClusterUniverse& universe,
                           const Solution& solution, int max_members,
                           int top_l) {
  if (top_l <= 0) top_l = universe.top_l();
  return RenderExpanded(universe.answer_set(),
                        BuildTwoLayerView(universe, solution, top_l),
                        max_members, top_l);
}

}  // namespace qagview::core
