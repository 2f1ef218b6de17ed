#include "core/greedy_state.h"

#include <algorithm>

namespace qagview::core {

GreedyState::GreedyState(const ClusterUniverse* universe, int top_l,
                         bool use_delta_judgment)
    : universe_(universe), top_l_(top_l), use_delta_(use_delta_judgment) {
  QAG_CHECK(universe != nullptr);
  QAG_CHECK(top_l >= 0 && top_l <= universe->top_l());
  covered_.assign(static_cast<size_t>(universe->answer_set().size()), 0);
  if (use_delta_) deltas_.resize(static_cast<size_t>(universe->num_clusters()));
}

void GreedyState::RefreshDelta(int id, Delta* delta) {
  const AnswerSet& s = universe_->answer_set();
  const int top_l = top_l_;
  if (delta->stamp == round_) return;  // up to date
  if (use_delta_ && delta->stamp == round_ - 1 && round_ >= 1) {
    // Incremental path (Algorithm 2): only the elements that became covered
    // last round can leave Tc \ T. Probe each against the cluster.
    for (int32_t e : last_diff_) {
      ++comparisons_;
      if (universe_->CoversElement(id, e)) {
        delta->sum -= s.value(e);
        --delta->count;
        if (e < top_l) --delta->count_top;
      }
    }
  } else {
    // Full recomputation: scan Tc against the covered set.
    delta->sum = 0.0;
    delta->count = 0;
    delta->count_top = 0;
    for (int32_t e : universe_->covered(id)) {
      ++comparisons_;
      if (!covered_[static_cast<size_t>(e)]) {
        delta->sum += s.value(e);
        ++delta->count;
        if (e < top_l) ++delta->count_top;
      }
    }
  }
  delta->stamp = round_;
}

GreedyState::Delta& GreedyState::DeltaFor(int id, Delta* scratch) {
  if (!use_delta_) {
    // Naive evaluation: rescan the candidate's tuple list every time.
    scratch->stamp = -1;
    RefreshDelta(id, scratch);
    return *scratch;
  }
  Delta& delta = deltas_[static_cast<size_t>(id)];
  RefreshDelta(id, &delta);
  return delta;
}

double GreedyState::TentativeAverage(int id) {
  Delta scratch;
  const Delta& delta = DeltaFor(id, &scratch);
  int total = covered_count_ + delta.count;
  return total == 0 ? 0.0 : (covered_sum_ + delta.sum) / total;
}

int GreedyState::TentativeRedundant(int id) {
  Delta scratch;
  const Delta& delta = DeltaFor(id, &scratch);
  return delta.count - delta.count_top;
}

double GreedyState::TentativeMin(int id) const {
  const Span<int32_t> tc = universe_->covered(id);
  QAG_DCHECK(!tc.empty());
  // min is idempotent, so taking the cluster's own min (its last covered
  // element) is exact even when some of its elements are already covered.
  double cluster_min = universe_->answer_set().value(tc.back());
  return std::min(covered_min_, cluster_min);
}

void GreedyState::AddCluster(int id) {
  const AnswerSet& s = universe_->answer_set();
  // Extend coverage, recording this round's difference list.
  last_diff_.clear();
  for (int32_t e : universe_->covered(id)) {
    if (!covered_[static_cast<size_t>(e)]) {
      covered_[static_cast<size_t>(e)] = 1;
      covered_sum_ += s.value(e);
      covered_min_ = std::min(covered_min_, s.value(e));
      ++covered_count_;
      if (e < top_l_) ++covered_top_count_;
      last_diff_.push_back(e);
    }
  }
  ++round_;

  // Incomparability: drop clusters subsumed by the newcomer. The newcomer
  // cannot itself be covered by a member (that would mean the member already
  // covered both merge endpoints, contradicting the antichain invariant).
  const Cluster& newcomer = universe_->cluster(id);
  clusters_.erase(std::remove_if(clusters_.begin(), clusters_.end(),
                                 [&](int other) {
                                   return newcomer.Covers(
                                       universe_->cluster(other));
                                 }),
                  clusters_.end());
  for (int other : clusters_) {
    QAG_DCHECK(!universe_->cluster(other).Covers(newcomer))
        << "newcomer covered by existing cluster";
  }
  clusters_.push_back(id);
}

}  // namespace qagview::core
