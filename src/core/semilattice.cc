#include "core/semilattice.h"

#include <algorithm>

#include "common/flat_map.h"
#include "common/string_util.h"

namespace qagview::core {

namespace {

/// Writes generalization `mask` of `attrs` (wildcards where mask bits are
/// set) into `pattern`, which holds m entries.
void GeneralizeInto(const std::vector<int32_t>& attrs, uint32_t mask,
                    std::vector<int32_t>* pattern) {
  for (size_t a = 0; a < attrs.size(); ++a) {
    (*pattern)[a] = (mask & (1u << a)) ? kWildcard : attrs[a];
  }
}

}  // namespace

bool ClusterUniverse::CanPack(const AnswerSet& s) {
  int m = s.num_attrs();
  if (m > 8) return false;
  // The packed lane stores code+1 (wildcard = 0), so codes 0..254 — a
  // domain of exactly 255 values — fit a byte.
  bool every_lane_can_saturate = (m == 8);
  for (int a = 0; a < m; ++a) {
    if (s.domain_size(a) > 255) return false;
    if (s.domain_size(a) < 255) every_lane_can_saturate = false;
  }
  // Corner: with 8 attributes all at the full 255-value domain, a pattern
  // holding the maximal code 254 in every position would pack to all-ones —
  // FlatMap64's reserved empty marker. Only then fall back.
  return !every_lane_can_saturate;
}

uint64_t ClusterUniverse::PackPattern(const std::vector<int32_t>& pattern) {
  uint64_t key = 0;
  for (size_t a = 0; a < pattern.size(); ++a) {
    uint64_t lane =
        pattern[a] == kWildcard ? 0 : static_cast<uint64_t>(pattern[a]) + 1;
    key |= lane << (8 * a);
  }
  return key;
}

/// Packed keys: every element is packed once, and its generalization under
/// `mask` is its key with the mask's byte lanes cleared — one AND-NOT and
/// one packed_ids_ lookup, with the pattern built only for a new cluster.
class ClusterUniverse::PackedIndex {
 public:
  explicit PackedIndex(ClusterUniverse* u) : u_(u) {
    const AnswerSet& s = *u->answer_set_;
    const int m = s.num_attrs();
    const uint32_t num_masks = 1u << m;
    // 0xFF in every wildcarded byte lane of each mask.
    for (uint32_t mask = 0; mask < num_masks; ++mask) {
      lane_mask_[mask] = 0;
      for (int a = 0; a < m; ++a) {
        if (mask & (1u << a)) lane_mask_[mask] |= 0xFFULL << (8 * a);
      }
    }
    u->element_keys_.resize(static_cast<size_t>(s.size()));
    for (int e = 0; e < s.size(); ++e) {
      u->element_keys_[static_cast<size_t>(e)] =
          PackPattern(s.element(e).attrs);
    }
    u->packed_ids_.Reset(static_cast<size_t>(u->top_l_) * num_masks);
  }

  int Insert(int i, uint32_t mask, std::vector<int32_t>* /*pattern*/) {
    const uint64_t key = Key(i) & ~lane_mask_[mask];
    auto [id, inserted] = u_->packed_ids_.FindOrInsert(
        key, static_cast<int32_t>(u_->clusters_.size()));
    if (inserted) {
      u_->clusters_.push_back(
          Cluster::Generalize(u_->answer_set_->element(i).attrs, mask));
      u_->cluster_keys_.push_back(key);
      u_->concrete_lanes_.push_back(~lane_mask_[mask]);
    }
    return id;
  }

  /// What every probe of element e starts from: its packed key.
  uint64_t Key(int e) const {
    return u_->element_keys_[static_cast<size_t>(e)];
  }

  int Probe(uint64_t key, uint32_t mask,
            std::vector<int32_t>* /*pattern*/) const {
    return u_->packed_ids_.FindOr(key & ~lane_mask_[mask], -1);
  }

 private:
  ClusterUniverse* u_;
  uint64_t lane_mask_[256];  // m <= 8 on a packed universe
};

/// Vector patterns (m > 8 or domains wider than a byte): the generalization
/// is written into the caller's scratch pattern and looked up in ids_.
class ClusterUniverse::VectorIndex {
 public:
  explicit VectorIndex(ClusterUniverse* u) : u_(u) {
    u->ids_.reserve(static_cast<size_t>(u->top_l_) *
                    (1u << u->answer_set_->num_attrs()));
  }

  int Insert(int i, uint32_t mask, std::vector<int32_t>* pattern) {
    GeneralizeInto(Key(i), mask, pattern);
    auto [it, inserted] =
        u_->ids_.try_emplace(*pattern, static_cast<int>(u_->clusters_.size()));
    if (inserted) u_->clusters_.emplace_back(*pattern);
    return it->second;
  }

  /// What every probe of element e starts from: its attribute codes.
  const std::vector<int32_t>& Key(int e) const {
    return u_->answer_set_->element(e).attrs;
  }

  int Probe(const std::vector<int32_t>& attrs, uint32_t mask,
            std::vector<int32_t>* pattern) const {
    GeneralizeInto(attrs, mask, pattern);
    auto it = u_->ids_.find(*pattern);
    return it == u_->ids_.end() ? -1 : it->second;
  }

 private:
  ClusterUniverse* u_;
};

Result<ClusterUniverse> ClusterUniverse::Build(const AnswerSet* s, int top_l,
                                               const Options& options) {
  QAG_CHECK(s != nullptr);
  int m = s->num_attrs();
  if (m > kMaxAttrs) {
    return Status::InvalidArgument(
        StrCat("refusing to enumerate 2^", m,
               " generalizations per element; reduce the number of "
               "group-by attributes (max ", kMaxAttrs, ")"));
  }
  if (top_l < 1 || top_l > s->size()) {
    return Status::InvalidArgument(
        StrCat("L must be in [1, n=", s->size(), "], got ", top_l));
  }

  ClusterUniverse u;
  u.answer_set_ = s;
  u.top_l_ = top_l;
  u.packed_ = !options.force_unpacked && CanPack(*s);
  u.input_fingerprint_ = s->content_fingerprint();
  if (u.packed_) {
    PackedIndex index(&u);
    u.Populate(index, options);
  } else {
    VectorIndex index(&u);
    u.Populate(index, options);
  }
  return u;
}

template <typename Index>
void ClusterUniverse::Populate(Index& index, const Options& options) {
  const AnswerSet& s = *answer_set_;
  const int n = s.size();
  const int m = s.num_attrs();
  const uint32_t num_masks = 1u << m;
  std::vector<int32_t> pattern(static_cast<size_t>(m));

  // Cluster generation: the 2^m generalizations of each top-L element,
  // serial so that ids follow discovery order.
  singleton_ids_.resize(static_cast<size_t>(top_l_));
  for (int i = 0; i < top_l_; ++i) {
    for (uint32_t mask = 0; mask < num_masks; ++mask) {
      int id = index.Insert(i, mask, &pattern);
      if (mask == 0) singleton_ids_[static_cast<size_t>(i)] = id;
    }
  }

  const size_t num_clusters = clusters_.size();
  covered_offsets_.assign(num_clusters + 1, 0);
  covered_sum_.assign(num_clusters, 0.0);
  top_covered_count_.assign(num_clusters, 0);

  if (options.naive_mapping) {
    // Ablation (Figure 8a): each cluster scans every element and appends
    // its slice after the previous cluster's.
    for (size_t id = 0; id < num_clusters; ++id) {
      for (int e = 0; e < n; ++e) {
        if (clusters_[id].CoversElement(s.element(e).attrs)) {
          covered_elements_.push_back(e);
          covered_sum_[id] += s.value(e);
          if (e < top_l_) ++top_covered_count_[id];
        }
      }
      covered_offsets_[id + 1] =
          static_cast<int64_t>(covered_elements_.size());
    }
    return;
  }

  // Optimized mapping: each element probes the index with its own masks. A
  // cluster covers element e iff it equals one generalization of e, so
  // every (cluster, element) pair is found exactly once, in element order.
  // The probe pass records the hit ids element by element and counts them
  // per cluster (in covered_offsets_[id + 1]).
  std::vector<int32_t> hits;
  std::vector<int32_t> hits_per_element(static_cast<size_t>(n));
  for (int e = 0; e < n; ++e) {
    const auto& key = index.Key(e);
    const size_t first_hit = hits.size();
    for (uint32_t mask = 0; mask < num_masks; ++mask) {
      const int id = index.Probe(key, mask, &pattern);
      if (id < 0) continue;
      hits.push_back(id);
      ++covered_offsets_[static_cast<size_t>(id) + 1];
    }
    hits_per_element[static_cast<size_t>(e)] =
        static_cast<int32_t>(hits.size() - first_hit);
  }
  // Prefix sums turn the counts into slice bounds. The scatter then writes
  // each element into its clusters' slices in ascending element order, so
  // every slice ascends and every sum accumulates in element order.
  for (size_t id = 0; id < num_clusters; ++id) {
    covered_offsets_[id + 1] += covered_offsets_[id];
  }
  std::vector<int64_t> cursor(covered_offsets_.begin(),
                              covered_offsets_.end() - 1);
  covered_elements_.resize(hits.size());
  size_t h = 0;
  for (int e = 0; e < n; ++e) {
    const double value = s.value(e);
    for (int32_t j = 0; j < hits_per_element[static_cast<size_t>(e)]; ++j) {
      const size_t id = static_cast<size_t>(hits[h++]);
      covered_elements_[static_cast<size_t>(cursor[id]++)] = e;
      covered_sum_[id] += value;
      if (e < top_l_) ++top_covered_count_[id];
    }
  }
}

int ClusterUniverse::FindId(const Cluster& c) const {
  if (packed_) {
    return packed_ids_.FindOr(PackPattern(c.pattern()), -1);
  }
  auto it = ids_.find(c.pattern());
  return it == ids_.end() ? -1 : it->second;
}

uint64_t ClusterUniverse::LcaKey(uint64_t a, uint64_t b) {
  constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  constexpr uint64_t kHigh = 0x8080808080808080ULL;
  const uint64_t x = a ^ b;
  // Sets the top bit of every nonzero lane of x. Adding 0x7F to a lane's
  // low seven bits carries into its top bit iff they are nonzero and never
  // past it; OR-ing x back in catches lanes whose only difference is the
  // top bit itself (codes >= 127, and code 254 packing to 0xFF).
  const uint64_t differs = (((x & kLow7) + kLow7) | x) & kHigh;
  return a & ~((differs >> 7) * 0xFF);
}

int ClusterUniverse::LcaId(int a, int b) const {
  int id;
  if (packed_) {
    id = packed_ids_.FindOr(LcaKey(cluster_keys_[static_cast<size_t>(a)],
                                   cluster_keys_[static_cast<size_t>(b)]),
                            -1);
  } else {
    id = FindId(Cluster::Lca(cluster(a), cluster(b)));
  }
  QAG_CHECK(id >= 0) << "LCA closure violated for " << cluster(a).ToString()
                     << " and " << cluster(b).ToString();
  return id;
}

std::vector<int> ClusterUniverse::LevelStartIds(int level) const {
  QAG_CHECK(level >= 0 && level <= answer_set_->num_attrs());
  int m = answer_set_->num_attrs();
  uint32_t mask = 0;
  for (int a = 0; a < level; ++a) mask |= 1u << (m - 1 - a);
  std::vector<int> out;
  std::vector<char> seen(static_cast<size_t>(num_clusters()), 0);
  for (int i = 0; i < top_l_; ++i) {
    Cluster c = Cluster::Generalize(answer_set_->element(i).attrs, mask);
    int id = FindId(c);
    QAG_CHECK(id >= 0);
    if (!seen[static_cast<size_t>(id)]) {
      seen[static_cast<size_t>(id)] = 1;
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace qagview::core
