#ifndef QAGVIEW_CORE_PRECOMPUTE_OPTIONS_H_
#define QAGVIEW_CORE_PRECOMPUTE_OPTIONS_H_

#include <tuple>
#include <vector>

#include "common/status.h"

namespace qagview::core {

class SolutionStore;

/// The shape of one (k, D) grid (§6.2), as a request names it. Implemented
/// in core/precompute.cc; declared apart from Precompute so that a
/// SolutionStore can record the resolved options it was replayed with.
struct PrecomputeOptions {
  /// k range of interest (grid x-axis of Figure 2). k_max <= 0 derives a
  /// default from the Fixed-Order phase output size.
  int k_min = 2;
  int k_max = 0;
  /// D values to precompute (one Bottom-Up replay each). Empty derives
  /// 1..m — the §6.2 grid rows. D = 0 is additionally accepted as the
  /// explicit "no distance constraint" row (the distance phase is a no-op,
  /// matching Params::D == 0 elsewhere); it is never part of the default.
  std::vector<int> d_values;
  /// Fixed-Order phase budget multiplier (runs once with c·k_max, D=0).
  /// Values below 2 act as 2.
  int c = 3;
  bool use_delta_judgment = true;
  /// Width of the per-D Bottom-Up replays (each replay is an independent
  /// read-only pass over the shared universe, run through one ParallelFor
  /// call). <= 0 uses the CPUs this process may run on (AvailableCpus); 1
  /// runs every replay on the calling thread. The resulting store is
  /// bit-identical for every width.
  int num_threads = 0;

  /// OK when Precompute::Run accepts these options for a schema of
  /// `num_attrs` grouping attributes: k_min >= 1, every listed D in
  /// [0, num_attrs], and a k_max that is either <= 0 (derived) or at least
  /// k_min. Run calls it before any work and core::Session::Guidance before
  /// any lookup, so a request is refused alike whatever a session caches.
  Status Validate(int num_attrs) const;

  /// Copy with the derived defaults materialized against a schema of
  /// `num_attrs` grouping attributes — exactly what Precompute::Run
  /// replays: empty `d_values` becomes 1..m, listed ones are sorted with
  /// duplicates dropped (the grid holds one row per D), `k_max <= 0`
  /// becomes max(k_min, 20), and `c` below 2 becomes 2. Two option sets
  /// whose resolved copies have equal grid() produce bit-identical stores
  /// for a given (universe, top_l). Idempotent. core::Session's lock-free warm
  /// path resolves a request once, against the schema of the answer-set
  /// generation it pinned, and probes every cached store with the same
  /// resolved copy.
  PrecomputeOptions ResolvedFor(int num_attrs) const;

  /// The fields that name a grid: every field but `num_threads`, which
  /// never changes a store. Two resolved option sets with equal grid()
  /// describe the same grid at any L: Precompute::Widen compares a cached
  /// grid's options by it, and core::Session keys its single-flight grid
  /// builds by (top_l, grid()) of the resolved options.
  using Grid = std::tuple<int, int, std::vector<int>, int, bool>;
  Grid grid() const { return {k_min, k_max, d_values, c, use_delta_judgment}; }

  /// Whether a cached store can serve a request with these options: every
  /// requested D row present, the k range at least as wide on both ends.
  /// `*this` must already be validated (Validate) and resolved
  /// (ResolvedFor) — the check is allocation-free and lock-free, as
  /// required on the warm Guidance hit path, where it runs once per cached
  /// candidate on every request.
  bool CoveredBy(const SolutionStore& store) const;
};

}  // namespace qagview::core

#endif  // QAGVIEW_CORE_PRECOMPUTE_OPTIONS_H_
