#include "core/semilattice.h"

#include <algorithm>
#include <memory>

#include "common/flat_map.h"
#include "common/string_util.h"

namespace qagview::core {

namespace {

/// Append-only int32 list kept in fixed-size chunks. Growing it never
/// copies what it holds and leaves at most one chunk unused, so a scan's
/// hit list costs its own size, where a doubling vector cost up to twice
/// that; held beside the coverage array it fills, it sets a build's peak
/// memory. (A std::deque, whose blocks hold 128 entries, made the fig7
/// smoke build 15-20% slower.)
class HitList {
 public:
  void push_back(int32_t value) {
    if (end_ == limit_) {
      chunks_.emplace_back(new int32_t[kChunk]);
      end_ = chunks_.back().get();
      limit_ = end_ + kChunk;
    }
    *end_++ = value;
  }

  /// Reads the list back in order.
  class Reader {
   public:
    explicit Reader(const HitList& list) : chunks_(list.chunks_) {}
    int32_t Next() {
      if (next_ == limit_) {
        next_ = chunks_[chunk_++].get();
        limit_ = next_ + kChunk;
      }
      return *next_++;
    }

   private:
    const std::vector<std::unique_ptr<int32_t[]>>& chunks_;
    size_t chunk_ = 0;
    const int32_t* next_ = nullptr;
    const int32_t* limit_ = nullptr;
  };

 private:
  static constexpr size_t kChunk = size_t{1} << 14;
  std::vector<std::unique_ptr<int32_t[]>> chunks_;
  int32_t* end_ = nullptr;
  int32_t* limit_ = nullptr;
};

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

// Each index layout sets kElementTestsPerProbe, what one probe costs in
// element tests: growth maps its new clusters with one pass over all n
// elements per cluster while new clusters < kElementTestsPerProbe * 2^m,
// and probes every element's 2^m masks otherwise. Measured in Release on
// one CPU of a 4-vCPU Xeon VM, growing `drilldown`'s two store_sales answer
// sets (n 11,864 and 13,674, m = 6) to L = 175 from L0 = 140..170 with each
// scan forced, each grow timed between cold builds: the scans broke even
// at 600-700 new clusters packed (a ratio of 9.4-10.5) and 360-440 unpacked
// (5.6-6.9), a new cluster's pass costing about 19 us packed and 85-110 us
// unpacked. Each constant takes about the low end of its layout's range,
// so the per-cluster pass runs only where it costs about as much as probing
// or less, and growth never costs more than a cold build (whose probe pass
// maps every cluster, old ones included).

/// Packed keys: every element is packed once, and its generalization under
/// `mask` is its key with the mask's byte lanes cleared — one AND-NOT and
/// one packed_ids_ lookup, with the pattern built only for a new cluster.
class ClusterUniverse::PackedIndex {
 public:
  static constexpr size_t kElementTestsPerProbe = 9;

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
    if (u->element_keys_.empty()) {  // a grown universe inherits them
      u->element_keys_.resize(static_cast<size_t>(s.size()));
      for (int e = 0; e < s.size(); ++e) {
        u->element_keys_[static_cast<size_t>(e)] =
            PackPattern(s.element(e).attrs);
      }
    }
    u->packed_ids_.Reserve(static_cast<size_t>(u->top_l_) * num_masks);
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
  static constexpr size_t kElementTestsPerProbe = 6;

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
  u.Extend(/*base=*/nullptr,
           options.naive_mapping ? Scan::kPerCluster : Scan::kProbe);
  return u;
}

Result<ClusterUniverse> ClusterUniverse::Grow(const ClusterUniverse& base,
                                              int top_l) {
  const int n = base.answer_set_->size();
  if (top_l < base.top_l_ || top_l > n) {
    return Status::InvalidArgument(
        StrCat("a universe for L=", base.top_l_, " grows to an L in [",
               base.top_l_, ", n=", n, "], got ", top_l));
  }
  ClusterUniverse u;
  u.answer_set_ = base.answer_set_;
  u.top_l_ = top_l;
  u.packed_ = base.packed_;
  // What cluster generation extends. Populate copies base's coverage
  // arrays itself, once it knows their final sizes.
  u.clusters_ = base.clusters_;
  u.ids_ = base.ids_;
  u.packed_ids_ = base.packed_ids_;
  u.element_keys_ = base.element_keys_;
  u.cluster_keys_ = base.cluster_keys_;
  u.concrete_lanes_ = base.concrete_lanes_;
  u.singleton_ids_ = base.singleton_ids_;
  u.Extend(&base, Scan::kCheaper);
  return u;
}

void ClusterUniverse::Extend(const ClusterUniverse* base, Scan scan) {
  if (packed_) {
    PackedIndex index(this);
    Populate(index, base, scan);
  } else {
    VectorIndex index(this);
    Populate(index, base, scan);
  }
}

template <typename Index>
void ClusterUniverse::Populate(Index& index, const ClusterUniverse* base,
                               Scan scan) {
  const AnswerSet& s = *answer_set_;
  const int n = s.size();
  const int m = s.num_attrs();
  const uint32_t num_masks = 1u << m;
  std::vector<int32_t> pattern(static_cast<size_t>(m));

  // Cluster generation: the 2^m generalizations of each new top element,
  // serial so that ids follow discovery order; mask 0 is the element's
  // singleton.
  const size_t first_id = clusters_.size();
  singleton_ids_.reserve(static_cast<size_t>(top_l_));
  singleton_ids_.resize(static_cast<size_t>(top_l_));
  for (int i = base == nullptr ? 0 : base->top_l_; i < top_l_; ++i) {
    singleton_ids_[static_cast<size_t>(i)] = index.Insert(i, 0, &pattern);
    for (uint32_t mask = 1; mask < num_masks; ++mask) {
      index.Insert(i, mask, &pattern);
    }
  }
  if (base != nullptr) {
    // Growth appended to exact copies of base's arrays, which doubled them.
    // Drop the slack: a grown universe is never larger than a cold one.
    clusters_.shrink_to_fit();
    cluster_keys_.shrink_to_fit();
    concrete_lanes_.shrink_to_fit();
  }

  // Per-cluster coverage arrays: base's entries, then the new ids', whose
  // counts the scans below gather in covered_offsets_[id + 1].
  const size_t num_clusters = clusters_.size();
  covered_offsets_.reserve(num_clusters + 1);
  covered_sum_.reserve(num_clusters);
  if (base != nullptr) {
    covered_offsets_.assign(base->covered_offsets_.begin(),
                            base->covered_offsets_.end());
    covered_sum_.assign(base->covered_sum_.begin(), base->covered_sum_.end());
  } else {
    covered_offsets_.assign(1, 0);
  }
  covered_offsets_.resize(num_clusters + 1, 0);
  covered_sum_.resize(num_clusters, 0.0);

  if (scan == Scan::kCheaper) {
    scan = num_clusters - first_id < Index::kElementTestsPerProbe * num_masks
               ? Scan::kPerCluster
               : Scan::kProbe;
  }
  HitList hits;
  std::vector<int32_t> hits_per_element;
  if (scan == Scan::kPerCluster) {
    // Each new cluster tests every element (the Figure-8a ablation when it
    // maps a whole cold build): its hits are its slice, in element order,
    // and its sum accumulates in element order. The test loop compacts
    // without a branch, so its cost does not depend on how many hit.
    std::vector<int32_t> found(static_cast<size_t>(n));
    for (size_t id = first_id; id < num_clusters; ++id) {
      size_t count = 0;
      for (int e = 0; e < n; ++e) {
        found[count] = e;
        count += CoversElement(static_cast<int>(id), e) ? 1 : 0;
      }
      for (size_t j = 0; j < count; ++j) {
        hits.push_back(found[j]);
        covered_sum_[id] += s.value(found[j]);
      }
      covered_offsets_[id + 1] = static_cast<int64_t>(count);
    }
  } else {
    // Each element probes the index with its own masks. A cluster covers
    // element e iff it equals one generalization of e, so every (cluster,
    // element) pair is found exactly once, in element order. The probe
    // pass records the new ids hit, element by element; it keeps them
    // without a branch, because whether a hit is new or old (or absent)
    // does not follow a pattern the branch predictor can learn.
    hits_per_element.resize(static_cast<size_t>(n));
    std::vector<int32_t> element_hits(num_masks);
    for (int e = 0; e < n; ++e) {
      const auto& key = index.Key(e);
      size_t count = 0;
      for (uint32_t mask = 0; mask < num_masks; ++mask) {
        const int id = index.Probe(key, mask, &pattern);
        element_hits[count] = id;
        count += id >= static_cast<int>(first_id) ? 1 : 0;  // absent is -1
      }
      for (size_t j = 0; j < count; ++j) {
        hits.push_back(element_hits[j]);
        ++covered_offsets_[static_cast<size_t>(element_hits[j]) + 1];
      }
      hits_per_element[static_cast<size_t>(e)] = static_cast<int32_t>(count);
    }
  }
  // Prefix sums turn the counts into slice bounds after base's slices.
  for (size_t id = first_id; id < num_clusters; ++id) {
    covered_offsets_[id + 1] += covered_offsets_[id];
  }
  const size_t total = static_cast<size_t>(covered_offsets_[num_clusters]);
  covered_elements_.reserve(total);
  if (base != nullptr) {
    covered_elements_.assign(base->covered_elements_.begin(),
                             base->covered_elements_.end());
  }
  covered_elements_.resize(total);
  HitList::Reader next_hit(hits);
  if (scan == Scan::kPerCluster) {
    for (size_t i = static_cast<size_t>(covered_offsets_[first_id]);
         i < total; ++i) {
      covered_elements_[i] = next_hit.Next();
    }
    return;
  }
  // The scatter writes each element into its clusters' slices in ascending
  // element order, so every slice ascends and every sum accumulates in
  // element order.
  std::vector<int64_t> cursor(covered_offsets_.begin() + first_id,
                              covered_offsets_.end() - 1);
  for (int e = 0; e < n; ++e) {
    const double value = s.value(e);
    for (int32_t j = 0; j < hits_per_element[static_cast<size_t>(e)]; ++j) {
      const size_t id = static_cast<size_t>(next_hit.Next());
      covered_elements_[static_cast<size_t>(cursor[id - first_id]++)] = e;
      covered_sum_[id] += value;
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

std::vector<int> ClusterUniverse::LevelStartIds(int level, int top_l) const {
  QAG_CHECK(level >= 0 && level <= answer_set_->num_attrs());
  QAG_CHECK(top_l >= 0 && top_l <= top_l_);
  int m = answer_set_->num_attrs();
  uint32_t mask = 0;
  for (int a = 0; a < level; ++a) mask |= 1u << (m - 1 - a);
  std::vector<int> out;
  std::vector<char> seen(static_cast<size_t>(num_clusters()), 0);
  for (int i = 0; i < top_l; ++i) {
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
