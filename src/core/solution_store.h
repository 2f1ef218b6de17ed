#ifndef QAGVIEW_CORE_SOLUTION_STORE_H_
#define QAGVIEW_CORE_SOLUTION_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "core/interval_tree.h"
#include "core/precompute_options.h"
#include "core/solution.h"

namespace qagview::core {

/// \brief Space-efficient storage of precomputed solutions for all (k, D)
/// combinations at a fixed L (§6.2).
///
/// Instead of one cluster list per (k, D) — O(N_k × N_D) lists with heavy
/// overlap — the store keeps one interval tree per D: by Proposition 6.1
/// (continuity), once a cluster is merged away during the k-descending
/// Bottom-Up replay it never returns, so the set of k values for which a
/// cluster is in the solution is one contiguous interval. Retrieval is a
/// stabbing query at k.
///
/// A store reads its cluster ids in the universe it is bound to. Ids are
/// prefix ids: a universe grown from another keeps every id it held, with
/// the same pattern and coverage. So BoundTo moves a store onto any wider
/// universe of the same answer set, and every retrieval stays bit-identical.
/// The per-D trees, and what the grid was replayed from, are shared between
/// such copies, and are immutable.
class SolutionStore {
 public:
  /// Per-D replay trace handed over by the precompute layer: the solution
  /// state after each merge round, largest size first.
  struct Trace {
    int d = 0;
    /// states[r] = cluster ids after round r (strictly decreasing sizes).
    std::vector<std::vector<int>> states;
    /// avg(O) of each state.
    std::vector<double> values;
  };

  /// What Precompute::Run replayed the traces from. Precompute::Widen reads
  /// it to derive the grid at a wider L without replaying.
  struct Source {
    /// The resolved options (PrecomputeOptions::ResolvedFor).
    PrecomputeOptions options;
    /// The Fixed-Order output every per-D replay starts from: at most
    /// c·k_max ids.
    std::vector<int> seeds;
  };

  /// Builds interval trees from replay traces. `k_max` caps the stored k
  /// range (queries above it return the first state). The universe must
  /// outlive the store.
  SolutionStore(const ClusterUniverse* universe, int l, int k_max,
                std::vector<Trace> traces, Source source);

  /// This grid bound to `universe`, which must be a universe of the same
  /// answer set at least as wide as the one the store reads now; it must
  /// outlive the copy. O(1): the copy shares the per-D trees.
  SolutionStore BoundTo(const ClusterUniverse* universe) const;

  /// One stored (cluster, k-interval) record (inspection/serialization).
  struct IntervalRecord {
    int lo = 0;
    int hi = 0;
    int cluster_id = -1;
  };

  /// Reconstructed per-D innards, as produced by Intervals()/SizeValues()
  /// or a deserializer.
  struct PartsPerD {
    int d = 0;
    /// (solution size, avg value) per replay state, sizes strictly
    /// decreasing.
    std::vector<std::pair<int, double>> size_value;
    std::vector<IntervalRecord> intervals;
  };

  /// Rebuilds a store from previously extracted parts (the deserialization
  /// path); validates size monotonicity and interval sanity, and that every
  /// cluster covers at least one of the top `l` elements, as every cluster
  /// a precompute at `l` can pick does. The store has no source().
  static Result<SolutionStore> FromParts(const ClusterUniverse* universe,
                                         int l, int k_max,
                                         std::vector<PartsPerD> parts);

  /// The (size, value) ladder of the replay for a given D.
  Result<std::vector<std::pair<int, double>>> SizeValues(int d) const;

  /// The stored intervals for a given D (order unspecified).
  Result<std::vector<IntervalRecord>> Intervals(int d) const;

  int l() const { return l_; }
  int k_max() const { return k_max_; }
  /// What the grid was replayed from; null for a loaded grid (FromParts).
  const Source* source() const {
    return shared_->source ? &*shared_->source : nullptr;
  }
  /// The universe this store is bound to: the one its cluster ids index
  /// into, which may be wider than the one it was built over (BoundTo).
  const ClusterUniverse* universe() const { return universe_; }
  /// Attribute count of the underlying answer set (serialization header).
  int num_attrs() const;
  /// The pattern of a stored cluster id (serialization renders patterns,
  /// which are stable across universe rebuilds, instead of raw ids).
  const std::vector<int32_t>& ClusterPattern(int cluster_id) const;
  /// Smallest k with a stored solution for the given D.
  Result<int> MinK(int d) const;
  std::vector<int> d_values() const;

  /// The precomputed solution for (k, D): an interval-tree stabbing query
  /// plus objective-stat reconstruction. k above k_max is clamped; k below
  /// the smallest stored size is an error.
  Result<Solution> Retrieve(int d, int k) const;

  /// Objective value avg(O) for (k, D) without materializing the solution.
  Result<double> Value(int d, int k) const;

  /// Total number of stored (cluster, k-interval) entries (space metric;
  /// compare against storing full per-(k,D) cluster lists).
  int64_t num_intervals() const { return num_intervals_; }
  /// Sum over (k, D) of solution sizes if stored naively (for comparison).
  int64_t naive_entries() const { return naive_entries_; }

 private:
  SolutionStore() = default;

  struct PerD {
    IntervalTree<int> tree;  // payload: cluster id
    /// (size, value) per state, sizes strictly decreasing.
    std::vector<std::pair<int, double>> size_value;
    int min_size = 0;
  };

  /// The per-D trees and the source, built once, then shared by every
  /// copy BoundTo or WidenedTo makes.
  struct Shared {
    std::map<int, PerD> per_d;
    std::optional<Source> source;
  };

  Result<const PerD*> FindD(int d) const;

  /// This grid as the grid at `l`, bound to `universe` (top_l() >= l).
  /// Only Precompute::Widen, which proves the two equal, calls it.
  SolutionStore WidenedTo(const ClusterUniverse* universe, int l) const;
  friend class Precompute;

  const ClusterUniverse* universe_;
  int l_;
  int k_max_;
  std::shared_ptr<const Shared> shared_;
  int64_t num_intervals_ = 0;
  int64_t naive_entries_ = 0;
};

}  // namespace qagview::core

#endif  // QAGVIEW_CORE_SOLUTION_STORE_H_
