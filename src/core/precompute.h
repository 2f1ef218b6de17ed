#ifndef QAGVIEW_CORE_PRECOMPUTE_H_
#define QAGVIEW_CORE_PRECOMPUTE_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "core/precompute_options.h"
#include "core/solution_store.h"

namespace qagview::core {

/// Wall-clock breakdown of one precompute run (Figures 7c-7f bars).
struct PrecomputeStats {
  double fixed_order_ms = 0.0;
  double bottom_up_ms = 0.0;
  int initial_clusters = 0;
  /// Width the Bottom-Up replays were given: PrecomputeOptions::num_threads,
  /// or AvailableCpus() for <= 0, and 1 for a grid of one D row. At most
  /// min(this, number of D rows) threads ran them.
  int num_threads = 1;
  double total_ms() const { return fixed_order_ms + bottom_up_ms; }
};

/// \brief Incremental computation of solutions for all (k, D) combinations
/// at a fixed L (§6.2, Figure 4a).
///
/// Exploits the two-level incremental structure of Hybrid: the Fixed-Order
/// phase is D-independent when run without a distance constraint, so it
/// runs once; its output cluster set is then replayed through the Bottom-Up
/// merge process once per D, and because every round merges clusters, the
/// states visited on the way down are exactly the solutions for every k
/// from c·k_max down to k_min. The traces feed the interval-tree
/// SolutionStore, which keeps the resolved options and the Fixed-Order
/// output (the grid's *seeds*) beside them.
///
/// **The grid depends on L only through its seeds.** Let S be the seeds at
/// l, and let S cover every element in [l, L). Then the grid at L is the
/// grid at l:
///  * Fixed-Order at L processes the top l elements exactly as at l. Before
///    the i-th candidate its state holds at most i clusters (each step adds
///    at most one), so a budget min(c·k_max, l) = l that differs from
///    min(c·k_max, L) never binds in the first l steps. After them the
///    state is S, and each element in [l, L) is skipped as covered without
///    touching the state, so the output at L is S.
///  * Neither phase's choices read L: Fixed-Order and the default-rule
///    Bottom-Up replays score candidates by the average over all covered
///    elements, and only the Min-Size rule, which the precompute never
///    uses, counts elements outside the top L. The same seeds therefore
///    give the same traces, k_max and value ladders.
/// Widen applies this, so a session widening L one step at a time replays
/// only where the new answers fall outside the seeds.
class Precompute {
 public:
  static Result<SolutionStore> Run(const ClusterUniverse& universe, int top_l,
                                   const PrecomputeOptions& options =
                                       PrecomputeOptions(),
                                   PrecomputeStats* stats = nullptr);

  /// `grid` at the wider `top_l`, bound to `universe`, when Run(universe,
  /// top_l, options) would replay `grid`'s seeds: `grid` was replayed by
  /// Run (a loaded grid has no seeds), its options resolve alike (equal
  /// grid()), l = grid.l() < top_l, and its seeds cover every element in
  /// [l, top_l). The result shares the grid's trees and seeds and is
  /// bit-identical to Run's. Nothing otherwise. `universe` must be a
  /// universe of `grid`'s answer set with top_l() >= top_l. Costs at most
  /// (top_l − l) × |seeds| CoversElement probes, each O(1) on a packed
  /// universe; a precompute at top_l would sweep the same elements against
  /// as many clusters, then replay every D.
  static std::optional<SolutionStore> Widen(const SolutionStore& grid,
                                            const ClusterUniverse& universe,
                                            int top_l,
                                            const PrecomputeOptions& options);
};

}  // namespace qagview::core

#endif  // QAGVIEW_CORE_PRECOMPUTE_H_
