#ifndef QAGVIEW_CORE_SEMILATTICE_H_
#define QAGVIEW_CORE_SEMILATTICE_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "common/result.h"
#include "common/span.h"
#include "core/answer_set.h"
#include "core/cluster.h"

namespace qagview::core {

/// \brief The materialized, relevant fragment of the cluster semilattice for
/// one (answer set, L) pair, with cluster -> covered-element mappings.
///
/// This encapsulates the paper's two initialization-time optimizations
/// (§6.3 "Cluster generation and mapping to tuples"):
///
///  * Cluster generation: instead of the full product lattice
///    prod_i (D_i ∪ {*}), only clusters that cover at least one top-L
///    element are generated — exactly the 2^m generalizations of each
///    top-L element, deduplicated. This set is closed under LCA of
///    top-L-covering clusters, so every cluster any algorithm can form
///    (merges always produce LCAs of covering clusters) has an id here.
///
///  * Mapping to tuples: each of the n elements probes the generated-cluster
///    hash index with its own 2^m generalization masks ("tuples generate
///    matching expressions for their target clusters"), instead of each
///    cluster scanning all n elements. Options::naive_mapping selects the
///    per-cluster scan for the Figure-8a ablation.
///
/// Coverage is stored in CSR form: per-cluster 64-bit offsets into one
/// element-id array. One serial scan fills it: the probes record each
/// element's hits and count them per cluster, prefix sums give every
/// cluster its slice, and a scatter writes each element into its slices in
/// ascending element order.
///
/// **Growing across L.** L enters only through which elements seed
/// clusters: ids follow discovery order over the top-L elements and
/// coverage spans all n, so universe(L0)'s clusters are a prefix of
/// universe(L)'s for L0 <= L, with the same patterns, coverage and sums.
/// Grow(base, L) therefore copies base, runs the same generation loop over
/// elements [L0, L) so the new clusters take the next ids, and maps only
/// the new clusters. A grown universe is bit-identical to a cold Build at L
/// (grid_golden_test pins both against the same fingerprints).
///
/// **Any L up to the universe's.** Nothing stored depends on L beyond which
/// clusters exist: every algorithm takes the request's L, and a cluster's
/// top count is taken at the caller's L (TopCoveredCount). So the universe
/// for L' serves every L <= L', and a session keeps only its widest one.
///
/// All cluster ids used by algorithms/solutions index into this universe.
/// The universe is immutable after Build or Grow, so any number of threads
/// may read it (including LcaId and CoversElement) without synchronization.
struct UniverseOptions {
  /// Ablation switch: per-cluster scans over all n elements.
  bool naive_mapping = false;
  /// Ignored: the coverage scan is serial. Kept only so callers that still
  /// set it compile.
  int num_threads = 0;
  /// Test/ablation switch: skip the packed-uint64 index even when the
  /// schema fits it, forcing the vector-keyed fallback.
  bool force_unpacked = false;
};

class ClusterUniverse {
 public:
  using Options = UniverseOptions;

  /// Build refuses schemas with more grouping attributes than this: cluster
  /// generation enumerates 2^m generalizations per top-L element.
  static constexpr int kMaxAttrs = 24;

  /// Builds the universe for the top `top_l` elements of `s`. The answer
  /// set must outlive the universe.
  static Result<ClusterUniverse> Build(const AnswerSet* s, int top_l,
                                       const Options& options = Options());

  /// The universe for the top `top_l` elements, grown from `base`, a
  /// universe over the same answer set for some L0 <= top_l: bit-identical
  /// to Build(&base.answer_set(), top_l), in base's index layout. Fails
  /// unless L0 <= top_l <= n.
  static Result<ClusterUniverse> Grow(const ClusterUniverse& base, int top_l);

  const AnswerSet& answer_set() const { return *answer_set_; }
  int top_l() const { return top_l_; }
  /// Whether the packed-uint64 index fast path is in use (see CanPack).
  bool packed_index() const { return packed_; }

  int num_clusters() const { return static_cast<int>(clusters_.size()); }
  const Cluster& cluster(int id) const {
    return clusters_[static_cast<size_t>(id)];
  }

  /// Elements of S covered by the cluster, ascending by element id (i.e.,
  /// descending by value; the top-L members form a prefix). The span views
  /// the universe's storage and lives as long as the universe.
  Span<int32_t> covered(int id) const {
    const size_t i = static_cast<size_t>(id);
    return Span<int32_t>(
        covered_elements_.data() + covered_offsets_[i],
        static_cast<size_t>(covered_offsets_[i + 1] - covered_offsets_[i]));
  }
  int covered_count(int id) const {
    const size_t i = static_cast<size_t>(id);
    return static_cast<int>(covered_offsets_[i + 1] - covered_offsets_[i]);
  }
  double covered_sum(int id) const {
    return covered_sum_[static_cast<size_t>(id)];
  }
  /// Average value of the covered elements (avg(C) in the paper).
  double Average(int id) const {
    return covered_sum(id) / covered_count(id);
  }
  /// How many of the top `top_l` elements the cluster covers, for any
  /// top_l: the caller's L, which may be below this universe's (a session
  /// serves every L up to its widest universe's from that universe). One
  /// binary search on the ascending covered list.
  int TopCoveredCount(int id, int top_l) const {
    const Span<int32_t> elements = covered(id);
    return static_cast<int>(
        std::lower_bound(elements.begin(), elements.end(), top_l) -
        elements.begin());
  }

  /// Id lookup by pattern; -1 if the pattern is not in the universe.
  int FindId(const Cluster& c) const;

  /// Id of the singleton cluster of top-L element i (0 <= i < L).
  int singleton_id(int i) const {
    return singleton_ids_[static_cast<size_t>(i)];
  }

  /// Whether cluster `id` covers element `e` of the answer set — the
  /// membership probe of delta judgment (Algorithm 2). O(1) on a packed
  /// universe: one AND and one compare of the element's key against the
  /// cluster's concrete lanes.
  bool CoversElement(int id, int e) const {
    if (packed_) {
      return (element_keys_[static_cast<size_t>(e)] &
              concrete_lanes_[static_cast<size_t>(id)]) ==
             cluster_keys_[static_cast<size_t>(id)];
    }
    return cluster(id).CoversElement(answer_set_->element(e).attrs);
  }

  /// Id of LCA(cluster(a), cluster(b)); always present by closure. On a
  /// packed universe this is lane arithmetic on the two keys plus one index
  /// probe; otherwise a pattern LCA plus FindId. Symmetric in (a, b).
  int LcaId(int a, int b) const;

  /// Ids of the level-(level) generalizations of each of the top `top_l`
  /// elements (top_l <= this universe's L) obtained by wildcarding its
  /// trailing `level` attributes (deduplicated). Used by the Bottom-Up
  /// "start at level D-1" variant.
  std::vector<int> LevelStartIds(int level, int top_l) const;

 private:
  ClusterUniverse() = default;

  /// Packed-key fast path: with m <= 8 attributes whose domains fit a byte,
  /// a pattern packs into one uint64 (code+1 per byte lane, wildcard = 0),
  /// so index probes avoid vector hashing/allocation entirely and a
  /// generalization mask applies as a single AND. Larger schemas fall back
  /// to the vector-keyed index.
  static bool CanPack(const AnswerSet& s);
  static uint64_t PackPattern(const std::vector<int32_t>& pattern);
  /// Clears every byte lane in which a and b differ: a lane is kept only
  /// where both keys hold the same code (a wildcard on one side only
  /// differs, so it becomes a wildcard, as in Cluster::Lca).
  static uint64_t LcaKey(uint64_t a, uint64_t b);

  /// The two index layouts (semilattice.cc). Each supplies the insert of
  /// cluster generation and the per-element key and probe of the probe
  /// scan; Populate runs the loops, written once and instantiated per
  /// layout.
  class PackedIndex;
  class VectorIndex;
  /// How Populate maps its new clusters to the elements they cover: every
  /// element probes its 2^m masks, or every new cluster tests all n
  /// elements, or whichever of the two costs less (semilattice.cc).
  enum class Scan { kProbe, kPerCluster, kCheaper };
  /// Generates the clusters of top elements [base's L, top_l_) (all of
  /// them when `base` is null) and maps them, after base's coverage.
  void Extend(const ClusterUniverse* base, Scan scan);
  template <typename Index>
  void Populate(Index& index, const ClusterUniverse* base, Scan scan);

  const AnswerSet* answer_set_ = nullptr;
  int top_l_ = 0;
  bool packed_ = false;
  std::vector<Cluster> clusters_;
  std::unordered_map<std::vector<int32_t>, int, VectorHash<int32_t>> ids_;
  FlatMap64 packed_ids_;
  // Packed universes only: the key of every answer-set element, and per
  // cluster id its key and the mask of its concrete (non-wildcard) lanes.
  std::vector<uint64_t> element_keys_;
  std::vector<uint64_t> cluster_keys_;
  std::vector<uint64_t> concrete_lanes_;
  // Coverage (CSR): cluster id covers covered_elements_[covered_offsets_[id]
  // .. covered_offsets_[id + 1]), ascending; num_clusters + 1 offsets.
  std::vector<int64_t> covered_offsets_;
  std::vector<int32_t> covered_elements_;
  std::vector<double> covered_sum_;
  std::vector<int> singleton_ids_;
};

}  // namespace qagview::core

#endif  // QAGVIEW_CORE_SEMILATTICE_H_
