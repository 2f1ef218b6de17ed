#ifndef QAGVIEW_CORE_BOTTOM_UP_H_
#define QAGVIEW_CORE_BOTTOM_UP_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "core/solution.h"

namespace qagview::core {

class GreedyState;

struct BottomUpOptions {
  /// §6.3 delta-judgment optimization (disable for the Fig-8b ablation).
  bool use_delta_judgment = true;

  /// Where the merge process starts (§5.1 variants).
  enum class Start {
    /// The L top elements as singleton clusters (the basic algorithm).
    kTopLSingletons,
    /// Variant (i): level-(D-1) ancestors of the top-L elements.
    kLevelDMinus1,
  };
  Start start = Start::kTopLSingletons;

  /// How UpdateSolution scores a candidate merge (§5.1 variants plus the
  /// footnote-5 alternative objective).
  enum class MergeRule {
    /// avg of the whole solution after the merge (the basic algorithm,
    /// Max-Avg).
    kSolutionAverage,
    /// Variant (ii): avg(LCA(C1, C2)) of the merged cluster alone.
    kLcaAverage,
    /// Min-Size (footnote 5): fewest redundant (non-top-L) elements added,
    /// solution average as the tie-breaker.
    kMinRedundant,
    /// Max-Min (§9 "objective functions other than average"): maximize the
    /// minimum covered value after the merge, solution average as the
    /// tie-breaker. Guards the worst covered tuple instead of the mean.
    kMaxMin,
  };
  MergeRule merge_rule = MergeRule::kSolutionAverage;
};

/// \brief The Bottom-Up greedy algorithm (Algorithm 1).
///
/// Starts from the top-L singletons; phase 1 greedily merges pairs at
/// distance < D until the distance constraint holds, phase 2 merges
/// arbitrary pairs until at most k clusters remain. Each merge replaces a
/// pair with its LCA (dropping any other subsumed cluster), chosen to
/// maximize the resulting solution average. The coverage, incomparability,
/// and distance-monotonicity invariants of §5.1 hold throughout, so the
/// result is always feasible.
class BottomUp {
 public:
  /// Runs the full algorithm for the given parameters.
  static Result<Solution> Run(const ClusterUniverse& universe,
                              const Params& params,
                              const BottomUpOptions& options = {});

  /// Runs the two merge phases starting from the given antichain of
  /// clusters (used by Hybrid and by the precomputation layer). `initial`
  /// must cover the top-L elements.
  static Result<Solution> RunFrom(const ClusterUniverse& universe,
                                  const Params& params,
                                  const std::vector<int>& initial,
                                  const BottomUpOptions& options = {});
};

namespace internal {

/// Algorithm 1's merge process, shared by BottomUp::RunFrom and the (k, D)
/// precompute: seeds a GreedyState for the top `top_l` elements with
/// `initial`, merges pairs at distance < `d` until none is left, then any
/// pairs until at most `k` clusters remain, and returns the final cluster
/// ids. `on_state`, when set, sees the state after the distance phase and
/// after every size-phase merge; the precompute records each one as a grid
/// state (§6.2).
std::vector<int> MergeDown(
    const ClusterUniverse& universe, int top_l, const std::vector<int>& initial,
    int d, int k, const BottomUpOptions& options,
    const std::function<void(const GreedyState&)>& on_state = nullptr);

}  // namespace internal

}  // namespace qagview::core

#endif  // QAGVIEW_CORE_BOTTOM_UP_H_
