#include "core/bottom_up.h"

#include <limits>

#include "core/greedy_state.h"

namespace qagview::core {

namespace {

// Finds the best pair to merge among `pairs` (positions into
// state.clusters()) under the configured rule and commits it.
void MergeBestPair(GreedyState* state,
                   const std::vector<std::pair<int, int>>& pairs,
                   BottomUpOptions::MergeRule rule) {
  QAG_DCHECK(!pairs.empty());
  const ClusterUniverse& u = state->universe();
  double best_score = -std::numeric_limits<double>::infinity();
  double best_tie = -std::numeric_limits<double>::infinity();
  int best_lca = -1;
  for (const auto& [i, j] : pairs) {
    int lca = u.LcaId(state->clusters()[static_cast<size_t>(i)],
                      state->clusters()[static_cast<size_t>(j)]);
    double score = 0.0;
    double tie = 0.0;
    switch (rule) {
      case BottomUpOptions::MergeRule::kSolutionAverage:
        score = state->TentativeAverage(lca);
        break;
      case BottomUpOptions::MergeRule::kLcaAverage:
        score = u.Average(lca);
        break;
      case BottomUpOptions::MergeRule::kMinRedundant:
        score = -state->TentativeRedundant(lca);
        tie = state->TentativeAverage(lca);
        break;
      case BottomUpOptions::MergeRule::kMaxMin:
        score = state->TentativeMin(lca);
        tie = state->TentativeAverage(lca);
        break;
    }
    if (score > best_score || (score == best_score && tie > best_tie)) {
      best_score = score;
      best_tie = tie;
      best_lca = lca;
    }
  }
  state->AddCluster(best_lca);
}

std::vector<std::pair<int, int>> PairsCloserThan(const GreedyState& state,
                                                 int min_distance) {
  const ClusterUniverse& u = state.universe();
  std::vector<std::pair<int, int>> pairs;
  int n = state.size();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (Distance(u.cluster(state.clusters()[static_cast<size_t>(i)]),
                   u.cluster(state.clusters()[static_cast<size_t>(j)])) <
          min_distance) {
        pairs.emplace_back(i, j);
      }
    }
  }
  return pairs;
}

std::vector<std::pair<int, int>> AllPairs(int n) {
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<size_t>(n) * (n - 1) / 2);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

}  // namespace

Result<Solution> BottomUp::Run(const ClusterUniverse& universe,
                               const Params& params,
                               const BottomUpOptions& options) {
  QAG_RETURN_IF_ERROR(ValidateParams(universe.answer_set(), params));
  if (params.L > universe.top_l()) {
    return Status::InvalidArgument(
        "universe was built for a smaller L than requested");
  }
  std::vector<int> initial;
  if (options.start == BottomUpOptions::Start::kLevelDMinus1 &&
      params.D >= 1) {
    initial = universe.LevelStartIds(params.D - 1, params.L);
  } else {
    initial.reserve(static_cast<size_t>(params.L));
    for (int i = 0; i < params.L; ++i) {
      initial.push_back(universe.singleton_id(i));
    }
  }
  return RunFrom(universe, params, initial, options);
}

Result<Solution> BottomUp::RunFrom(const ClusterUniverse& universe,
                                   const Params& params,
                                   const std::vector<int>& initial,
                                   const BottomUpOptions& options) {
  QAG_RETURN_IF_ERROR(ValidateParams(universe.answer_set(), params));
  if (params.L > universe.top_l()) {
    return Status::InvalidArgument(
        "universe was built for a smaller L than requested");
  }
  Solution solution = MakeSolution(
      universe,
      internal::MergeDown(universe, params.L, initial, params.D, params.k,
                          options));
  QAG_CHECK_OK(CheckFeasible(universe, solution.cluster_ids, params));
  return solution;
}

namespace internal {

std::vector<int> MergeDown(
    const ClusterUniverse& universe, int top_l, const std::vector<int>& initial,
    int d, int k, const BottomUpOptions& options,
    const std::function<void(const GreedyState&)>& on_state) {
  GreedyState state(&universe, top_l, options.use_delta_judgment);
  for (int id : initial) state.AddCluster(id);

  // Phase 1: enforce the distance constraint.
  while (true) {
    std::vector<std::pair<int, int>> pairs = PairsCloserThan(state, d);
    if (pairs.empty()) break;
    MergeBestPair(&state, pairs, options.merge_rule);
  }
  if (on_state) on_state(state);

  // Phase 2: enforce the size constraint.
  while (state.size() > k) {
    MergeBestPair(&state, AllPairs(state.size()), options.merge_rule);
    if (on_state) on_state(state);
  }
  return state.clusters();
}

}  // namespace internal

}  // namespace qagview::core
