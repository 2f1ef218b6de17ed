#include "core/fixed_order.h"

#include <limits>

#include "common/random.h"
#include "core/greedy_state.h"
#include "core/kmeans.h"

namespace qagview::core {

namespace {

// Merges candidate cluster `id` into the best existing cluster among the
// positions in `partners` (tentative-solution-average rule) and commits.
void MergeInto(GreedyState* state, int id, const std::vector<int>& partners) {
  QAG_DCHECK(!partners.empty());
  const ClusterUniverse& u = state->universe();
  double best_score = -std::numeric_limits<double>::infinity();
  int best_lca = -1;
  for (int pos : partners) {
    int lca =
        u.LcaId(state->clusters()[static_cast<size_t>(pos)], id);
    double score = state->TentativeAverage(lca);
    if (score > best_score) {
      best_score = score;
      best_lca = lca;
    }
  }
  state->AddCluster(best_lca);
}

// Processes one candidate cluster id through the Fixed-Order state machine.
void ProcessCandidate(GreedyState* state, int id, int budget,
                      int distance_d) {
  const ClusterUniverse& u = state->universe();
  const Cluster& c = u.cluster(id);

  // Skip when an existing cluster subsumes the candidate.
  for (int other : state->clusters()) {
    if (u.cluster(other).Covers(c)) return;
  }

  if (state->size() < budget) {
    // Collect clusters violating the distance constraint against c.
    std::vector<int> violating;
    for (int pos = 0; pos < state->size(); ++pos) {
      if (Distance(u.cluster(state->clusters()[static_cast<size_t>(pos)]),
                   c) < distance_d) {
        violating.push_back(pos);
      }
    }
    if (violating.empty()) {
      state->AddCluster(id);
    } else {
      MergeInto(state, id, violating);
    }
    return;
  }

  // At capacity: merge into the best cluster overall.
  std::vector<int> all(static_cast<size_t>(state->size()));
  for (int pos = 0; pos < state->size(); ++pos) {
    all[static_cast<size_t>(pos)] = pos;
  }
  MergeInto(state, id, all);
}

}  // namespace

Result<std::vector<int>> FixedOrder::RunPhase(const ClusterUniverse& universe,
                                              int budget, int top_l,
                                              int distance_d,
                                              const FixedOrderOptions& options) {
  if (budget < 1) return Status::InvalidArgument("budget must be >= 1");
  if (top_l < 1 || top_l > universe.top_l()) {
    return Status::InvalidArgument(
        "top_l out of range for this cluster universe");
  }
  GreedyState state(&universe, top_l, options.use_delta_judgment);

  // Seed processing (§5.2 variants).
  if (options.seeding == FixedOrderOptions::Seeding::kRandom) {
    Rng rng(options.seed);
    std::vector<int> indices(static_cast<size_t>(top_l));
    for (int i = 0; i < top_l; ++i) indices[static_cast<size_t>(i)] = i;
    rng.Shuffle(&indices);
    int seeds = std::min(budget, top_l);
    for (int i = 0; i < seeds; ++i) {
      int e = indices[static_cast<size_t>(i)];
      if (!state.ElementCovered(e)) {
        ProcessCandidate(&state, universe.singleton_id(e), budget, distance_d);
      }
    }
  } else if (options.seeding == FixedOrderOptions::Seeding::kKMeans) {
    std::vector<std::vector<int32_t>> patterns = KModesSeedPatterns(
        universe.answer_set(), top_l, budget, options.seed);
    for (const std::vector<int32_t>& pattern : patterns) {
      int id = universe.FindId(Cluster(pattern));
      QAG_CHECK(id >= 0) << "k-modes pattern missing from universe";
      ProcessCandidate(&state, id, budget, distance_d);
    }
  }

  // Main sweep over the top-L elements in descending-value order.
  for (int i = 0; i < top_l; ++i) {
    if (state.ElementCovered(i)) continue;
    ProcessCandidate(&state, universe.singleton_id(i), budget, distance_d);
  }
  return state.clusters();
}

Result<Solution> FixedOrder::Run(const ClusterUniverse& universe,
                                 const Params& params,
                                 const FixedOrderOptions& options) {
  QAG_RETURN_IF_ERROR(ValidateParams(universe.answer_set(), params));
  if (params.L > universe.top_l()) {
    return Status::InvalidArgument(
        "universe was built for a smaller L than requested");
  }
  QAG_ASSIGN_OR_RETURN(
      std::vector<int> ids,
      RunPhase(universe, params.k, params.L, params.D, options));
  Solution solution = MakeSolution(universe, std::move(ids));
  QAG_CHECK_OK(CheckFeasible(universe, solution.cluster_ids, params));
  return solution;
}

}  // namespace qagview::core
