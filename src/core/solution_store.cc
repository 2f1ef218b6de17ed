#include "core/solution_store.h"

#include <algorithm>
#include <unordered_map>

#include "common/string_util.h"

namespace qagview::core {

SolutionStore::SolutionStore(const ClusterUniverse* universe, int l,
                             int k_max, std::vector<Trace> traces,
                             Source source)
    : universe_(universe), l_(l), k_max_(k_max) {
  QAG_CHECK(universe != nullptr);
  auto shared = std::make_shared<Shared>();
  shared->source = std::move(source);
  std::map<int, PerD>& per_d_values = shared->per_d;
  for (Trace& trace : traces) {
    QAG_CHECK(!trace.states.empty());
    QAG_CHECK(trace.states.size() == trace.values.size());
    PerD per_d;

    // Per-state (size, value), sizes strictly decreasing by construction.
    int num_states = static_cast<int>(trace.states.size());
    for (int r = 0; r < num_states; ++r) {
      int sz = static_cast<int>(trace.states[static_cast<size_t>(r)].size());
      if (r > 0) {
        QAG_CHECK(sz <
                  per_d.size_value[static_cast<size_t>(r - 1)].first)
            << "state sizes must strictly decrease";
      }
      per_d.size_value.emplace_back(sz,
                                    trace.values[static_cast<size_t>(r)]);
      naive_entries_ += sz;  // what a per-(k,D) copy would store per state
    }
    per_d.min_size = per_d.size_value.back().first;

    // Continuity (Prop 6.1): each cluster appears in a contiguous run of
    // states [first, last]. Map state runs to k-intervals: state r serves
    // k in [size_r, size_{r-1} - 1]; state 0 serves [size_0, k_max].
    std::unordered_map<int, std::pair<int, int>> runs;  // id -> [first,last]
    for (int r = 0; r < num_states; ++r) {
      for (int id : trace.states[static_cast<size_t>(r)]) {
        auto [it, inserted] = runs.try_emplace(id, r, r);
        if (!inserted) {
          QAG_CHECK(it->second.second == r - 1)
              << "continuity violated: cluster " << id
              << " reappeared at state " << r;
          it->second.second = r;
        }
      }
    }

    auto state_k_hi = [&](int r) {
      return r == 0 ? std::max(k_max_, per_d.size_value[0].first)
                    : per_d.size_value[static_cast<size_t>(r - 1)].first - 1;
    };
    auto state_k_lo = [&](int r) {
      return per_d.size_value[static_cast<size_t>(r)].first;
    };

    std::vector<IntervalTree<int>::Entry> entries;
    entries.reserve(runs.size());
    for (const auto& [id, run] : runs) {
      int lo = state_k_lo(run.second);   // smallest k it serves
      int hi = state_k_hi(run.first);    // largest k it serves
      QAG_CHECK(lo <= hi);
      entries.push_back({lo, hi, id});
    }
    num_intervals_ += static_cast<int64_t>(entries.size());
    per_d.tree = IntervalTree<int>(std::move(entries));
    per_d_values.emplace(trace.d, std::move(per_d));
  }
  shared_ = std::move(shared);
}

SolutionStore SolutionStore::BoundTo(const ClusterUniverse* universe) const {
  QAG_DCHECK(universe != nullptr &&
             &universe->answer_set() == &universe_->answer_set() &&
             universe->num_clusters() >= universe_->num_clusters());
  SolutionStore bound = *this;
  bound.universe_ = universe;
  return bound;
}

SolutionStore SolutionStore::WidenedTo(const ClusterUniverse* universe,
                                       int l) const {
  QAG_DCHECK(universe != nullptr &&
             &universe->answer_set() == &universe_->answer_set() &&
             universe->top_l() >= l && l >= l_);
  SolutionStore widened = *this;
  widened.universe_ = universe;
  widened.l_ = l;
  return widened;
}

Result<SolutionStore> SolutionStore::FromParts(
    const ClusterUniverse* universe, int l, int k_max,
    std::vector<PartsPerD> parts) {
  if (universe == nullptr) {
    return Status::InvalidArgument("universe must not be null");
  }
  SolutionStore store;
  store.universe_ = universe;
  store.l_ = l;
  store.k_max_ = k_max;
  auto shared = std::make_shared<Shared>();
  std::map<int, PerD>& per_d_values = shared->per_d;
  for (PartsPerD& part : parts) {
    if (part.size_value.empty()) {
      return Status::InvalidArgument(
          StrCat("D=", part.d, " has no replay states"));
    }
    for (size_t r = 1; r < part.size_value.size(); ++r) {
      if (part.size_value[r].first >= part.size_value[r - 1].first) {
        return Status::InvalidArgument(
            StrCat("D=", part.d, " state sizes must strictly decrease"));
      }
    }
    if (per_d_values.count(part.d) != 0) {
      return Status::InvalidArgument(StrCat("duplicate D=", part.d));
    }
    PerD per_d;
    per_d.size_value = std::move(part.size_value);
    per_d.min_size = per_d.size_value.back().first;
    for (const auto& [sz, unused] : per_d.size_value) {
      store.naive_entries_ += sz;
    }
    std::vector<IntervalTree<int>::Entry> entries;
    entries.reserve(part.intervals.size());
    for (const IntervalRecord& record : part.intervals) {
      if (record.lo > record.hi || record.cluster_id < 0 ||
          record.cluster_id >= universe->num_clusters()) {
        return Status::InvalidArgument(
            StrCat("D=", part.d, " has a malformed interval record"));
      }
      // A cluster outside the top l would load only where a wider universe
      // happens to hold it.
      if (universe->TopCoveredCount(record.cluster_id, l) == 0) {
        return Status::InvalidArgument(
            StrCat("D=", part.d, " names a cluster that covers none of the "
                   "top L=", l, " elements"));
      }
      entries.push_back({record.lo, record.hi, record.cluster_id});
    }
    store.num_intervals_ += static_cast<int64_t>(entries.size());
    per_d.tree = IntervalTree<int>(std::move(entries));
    per_d_values.emplace(part.d, std::move(per_d));
  }
  store.shared_ = std::move(shared);
  return store;
}

int SolutionStore::num_attrs() const {
  return universe_->answer_set().num_attrs();
}

const std::vector<int32_t>& SolutionStore::ClusterPattern(
    int cluster_id) const {
  return universe_->cluster(cluster_id).pattern();
}

Result<std::vector<std::pair<int, double>>> SolutionStore::SizeValues(
    int d) const {
  QAG_ASSIGN_OR_RETURN(const PerD* per_d, FindD(d));
  return per_d->size_value;
}

Result<std::vector<SolutionStore::IntervalRecord>> SolutionStore::Intervals(
    int d) const {
  QAG_ASSIGN_OR_RETURN(const PerD* per_d, FindD(d));
  std::vector<IntervalRecord> out;
  out.reserve(per_d->tree.entries().size());
  for (const IntervalTree<int>::Entry& e : per_d->tree.entries()) {
    out.push_back({e.lo, e.hi, e.payload});
  }
  return out;
}

Result<const SolutionStore::PerD*> SolutionStore::FindD(int d) const {
  auto it = shared_->per_d.find(d);
  if (it == shared_->per_d.end()) {
    return Status::NotFound(StrCat("no precomputed solutions for D=", d));
  }
  return &it->second;
}

std::vector<int> SolutionStore::d_values() const {
  std::vector<int> out;
  out.reserve(shared_->per_d.size());
  for (const auto& [d, unused] : shared_->per_d) out.push_back(d);
  return out;
}

Result<int> SolutionStore::MinK(int d) const {
  QAG_ASSIGN_OR_RETURN(const PerD* per_d, FindD(d));
  return per_d->min_size;
}

Result<Solution> SolutionStore::Retrieve(int d, int k) const {
  QAG_ASSIGN_OR_RETURN(const PerD* per_d, FindD(d));
  if (k < per_d->min_size) {
    return Status::OutOfRange(
        StrCat("no precomputed solution for k=", k, " at D=", d,
               " (smallest stored size is ", per_d->min_size, ")"));
  }
  // Queries above the stored range clamp to the largest-k state.
  int hi_cap = std::max(k_max_, per_d->size_value.front().first);
  std::vector<int> ids = per_d->tree.Collect(std::min(k, hi_cap));
  return MakeSolution(*universe_, std::move(ids));
}

Result<double> SolutionStore::Value(int d, int k) const {
  QAG_ASSIGN_OR_RETURN(const PerD* per_d, FindD(d));
  if (k < per_d->min_size) {
    return Status::OutOfRange(
        StrCat("no precomputed value for k=", k, " at D=", d));
  }
  // First state (descending sizes) with size <= k.
  const auto& sv = per_d->size_value;
  auto it = std::lower_bound(
      sv.begin(), sv.end(), k,
      [](const std::pair<int, double>& a, int key) { return a.first > key; });
  QAG_CHECK(it != sv.end());
  return it->second;
}

}  // namespace qagview::core
