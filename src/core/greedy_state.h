#ifndef QAGVIEW_CORE_GREEDY_STATE_H_
#define QAGVIEW_CORE_GREEDY_STATE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/semilattice.h"

namespace qagview::core {

/// \brief Mutable solution state shared by the greedy algorithms
/// (Bottom-Up, Fixed-Order, Hybrid), with the paper's delta-judgment
/// optimization (§6.3, Algorithm 2).
///
/// The state holds the current cluster set O, the covered-element union
/// T = cov(O) with its sum/count, and per-candidate marginal benefits
/// Δ(c) = (sum, count) of Tc \ T. Candidate evaluation
/// (TentativeAverage) asks "what would avg(O ∪ {c}) be?"; with delta
/// judgment enabled, Δ(c) is cached with a round stamp and refreshed
/// incrementally against the last round's difference list T_j \ T_{j-1}
/// (Algorithm 2) instead of rescanning Tc against T. Deltas live in a flat
/// array indexed by cluster id, and Algorithm 2's membership probe "is e in
/// Tc?" is ClusterUniverse::CoversElement — O(1) on packed universes, and
/// the same boolean as a search of Tc, so every score is bit-identical.
///
/// Every mutation is an AddCluster (merges add the LCA, which subsumes the
/// merged clusters): coverage only grows, so rounds form the monotone
/// chain Proposition 6.1 relies on.
///
/// The state counts top-L membership against the request's `top_l`, not
/// the universe's own L: a session serves a request at L from its one
/// universe, built for some L' >= L, and the answer must not depend on L'.
class GreedyState {
 public:
  /// `top_l` must lie in [0, universe->top_l()].
  GreedyState(const ClusterUniverse* universe, int top_l,
              bool use_delta_judgment);

  const ClusterUniverse& universe() const { return *universe_; }
  const std::vector<int>& clusters() const { return clusters_; }
  int size() const { return static_cast<int>(clusters_.size()); }

  double covered_sum() const { return covered_sum_; }
  int covered_count() const { return covered_count_; }
  /// avg(O); 0 when empty.
  double Average() const {
    return covered_count_ == 0 ? 0.0 : covered_sum_ / covered_count_;
  }

  bool ElementCovered(int e) const {
    return covered_[static_cast<size_t>(e)] != 0;
  }

  /// Minimum value among covered elements; +infinity when empty. Coverage
  /// only grows, so this is monotonically non-increasing across rounds.
  double Min() const { return covered_min_; }

  /// avg(O ∪ {cluster id}) — the UpdateSolution candidate score.
  double TentativeAverage(int id);

  /// min value of cov(O ∪ {cluster id}) — the Max-Min objective score
  /// (§9 "objective functions other than average"). O(1): covered lists
  /// are sorted descending by value, so a cluster's min is its last entry.
  double TentativeMin(int id) const;

  /// Number of *redundant* elements (outside the top `top_l`) the cluster
  /// would newly cover — the Min-Size objective of footnote 5 counts these.
  int TentativeRedundant(int id);

  /// Redundant elements currently covered.
  int redundant_count() const { return covered_count_ - covered_top_count_; }

  /// Commits cluster `id` into the solution: extends coverage (recording the
  /// difference list for delta judgment), removes clusters covered by it,
  /// and appends it. One round in the paper's terminology.
  void AddCluster(int id);

  /// Number of element-level comparisons performed by TentativeAverage so
  /// far (work metric for the Figure-8b ablation).
  int64_t comparison_count() const { return comparisons_; }

  int round() const { return round_; }

 private:
  struct Delta {
    double sum = 0.0;
    int count = 0;
    int count_top = 0;  // of which in the top L
    int stamp = -1;  // round this delta is valid for; -1 = never computed
  };

  void RefreshDelta(int id, Delta* delta);
  Delta& DeltaFor(int id, Delta* scratch);

  const ClusterUniverse* universe_;
  int top_l_;
  bool use_delta_;
  std::vector<int> clusters_;
  std::vector<char> covered_;       // element -> covered?
  double covered_sum_ = 0.0;
  double covered_min_ = std::numeric_limits<double>::infinity();
  int covered_count_ = 0;
  int covered_top_count_ = 0;
  int round_ = 0;                   // number of AddCluster commits
  std::vector<int32_t> last_diff_;  // T_round \ T_{round-1}
  std::vector<Delta> deltas_;       // by cluster id (delta judgment only)
  int64_t comparisons_ = 0;
};

}  // namespace qagview::core

#endif  // QAGVIEW_CORE_GREEDY_STATE_H_
