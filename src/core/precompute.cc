#include "core/precompute.h"

#include <algorithm>
#include <cstdint>

#include "common/cpu.h"
#include "common/parallel_for.h"
#include "common/timer.h"
#include "core/bottom_up.h"
#include "core/fixed_order.h"
#include "core/greedy_state.h"

namespace qagview::core {

PrecomputeOptions PrecomputeOptions::ResolvedFor(int num_attrs) const {
  PrecomputeOptions resolved = *this;
  if (resolved.k_max <= 0) resolved.k_max = std::max(resolved.k_min, 20);
  std::vector<int>& ds = resolved.d_values;
  if (ds.empty()) {
    for (int d = 1; d <= num_attrs; ++d) ds.push_back(d);
  }
  std::sort(ds.begin(), ds.end());
  ds.erase(std::unique(ds.begin(), ds.end()), ds.end());
  resolved.c = std::max(2, resolved.c);
  return resolved;
}

Status PrecomputeOptions::Validate(int num_attrs) const {
  if (k_min < 1) return Status::InvalidArgument("k_min must be >= 1");
  for (int d : d_values) {
    // d = 0 is the explicit "no distance constraint" row (no-op distance
    // phase); the default grid itself is 1..m per §6.2.
    if (d < 0 || d > num_attrs) {
      return Status::InvalidArgument("D values must lie in [0, m]");
    }
  }
  // k_max <= 0 resolves to max(k_min, 20).
  if (k_max > 0 && k_max < k_min) {
    return Status::InvalidArgument("k_max must be >= k_min");
  }
  return Status::OK();
}

bool PrecomputeOptions::CoveredBy(const SolutionStore& store) const {
  if (store.k_max() < k_max) return false;
  for (int d : d_values) {
    // MinK doubles as the presence probe: an error means the store has no
    // row for this D. A fresh build merges down to k_min, so the cached row
    // must reach at least as low.
    Result<int> min_k = store.MinK(d);
    if (!min_k.ok()) return false;
    if (*min_k > k_min) return false;
  }
  return true;
}

Result<SolutionStore> Precompute::Run(const ClusterUniverse& universe,
                                      int top_l,
                                      const PrecomputeOptions& options,
                                      PrecomputeStats* stats) {
  if (top_l < 1 || top_l > universe.top_l()) {
    return Status::InvalidArgument("top_l out of range for this universe");
  }
  const int m = universe.answer_set().num_attrs();
  QAG_RETURN_IF_ERROR(options.Validate(m));
  const PrecomputeOptions resolved = options.ResolvedFor(m);
  const std::vector<int>& d_values = resolved.d_values;
  const int k_max = resolved.k_max;

  // Fixed-Order phase: once, distance-free, with the largest budget. It
  // never holds more clusters than its top_l candidates, so a budget past
  // top_l acts as top_l; the 64-bit cap keeps c·k_max from overflowing.
  WallTimer timer;
  FixedOrderOptions fo;
  fo.use_delta_judgment = resolved.use_delta_judgment;
  const int budget = static_cast<int>(
      std::min<int64_t>(int64_t{resolved.c} * k_max, top_l));
  QAG_ASSIGN_OR_RETURN(std::vector<int> initial,
                       FixedOrder::RunPhase(universe, budget, top_l,
                                            /*distance_d=*/0, fo));
  double fixed_order_ms = timer.ElapsedMillis();

  // Bottom-Up replays, one per D, each recording the state after the
  // distance phase and after every merge on the way down to k_min. Each
  // replay is an independent read-only pass over the universe, so they run
  // as one ParallelFor index per D; every index writes only its own
  // pre-sized slot, making the store bit-identical to the serial order for
  // any width.
  timer.Restart();
  const int width =
      options.num_threads > 0 ? options.num_threads : AvailableCpus();
  std::vector<SolutionStore::Trace> traces(d_values.size());
  BottomUpOptions bu;
  bu.use_delta_judgment = resolved.use_delta_judgment;
  auto replay = [&](int64_t i) {
    SolutionStore::Trace& trace = traces[static_cast<size_t>(i)];
    trace.d = d_values[static_cast<size_t>(i)];
    internal::MergeDown(universe, top_l, initial, trace.d, resolved.k_min, bu,
                        [&trace](const GreedyState& state) {
                          trace.states.push_back(state.clusters());
                          trace.values.push_back(state.Average());
                        });
  };
  ParallelFor(width, 0, static_cast<int64_t>(d_values.size()), replay);
  double bottom_up_ms = timer.ElapsedMillis();

  if (stats != nullptr) {
    stats->fixed_order_ms = fixed_order_ms;
    stats->bottom_up_ms = bottom_up_ms;
    stats->initial_clusters = static_cast<int>(initial.size());
    stats->num_threads = d_values.size() == 1 ? 1 : width;
  }
  return SolutionStore(&universe, top_l, k_max, std::move(traces),
                       {resolved, std::move(initial)});
}

std::optional<SolutionStore> Precompute::Widen(
    const SolutionStore& grid, const ClusterUniverse& universe, int top_l,
    const PrecomputeOptions& options) {
  const SolutionStore::Source* source = grid.source();
  if (source == nullptr || grid.l() >= top_l || top_l > universe.top_l()) {
    return std::nullopt;
  }
  QAG_DCHECK(&universe.answer_set() == &grid.universe()->answer_set());
  if (options.ResolvedFor(universe.answer_set().num_attrs()).grid() !=
      source->options.grid()) {
    return std::nullopt;
  }
  // The seeds are ids of universe(grid.l()), a prefix of `universe`.
  for (int e = grid.l(); e < top_l; ++e) {
    if (std::none_of(source->seeds.begin(), source->seeds.end(),
                     [&](int id) { return universe.CoversElement(id, e); })) {
      return std::nullopt;
    }
  }
  return grid.WidenedTo(&universe, top_l);
}

}  // namespace qagview::core
