#include "core/hybrid.h"

#include <algorithm>
#include <cstdint>

namespace qagview::core {

Result<Solution> Hybrid::Run(const ClusterUniverse& universe,
                             const Params& params,
                             const HybridOptions& options) {
  QAG_RETURN_IF_ERROR(ValidateParams(universe.answer_set(), params));
  if (options.c < 2) {
    return Status::InvalidArgument("Hybrid needs c >= 2");
  }
  FixedOrderOptions fo;
  fo.use_delta_judgment = options.use_delta_judgment;
  // Fixed-Order never holds more clusters than its L candidates, so a
  // budget past L acts as L; the 64-bit cap keeps c·k from overflowing.
  const int budget = static_cast<int>(
      std::min<int64_t>(int64_t{options.c} * params.k, params.L));
  QAG_ASSIGN_OR_RETURN(
      std::vector<int> initial,
      FixedOrder::RunPhase(universe, budget, params.L, params.D, fo));
  BottomUpOptions bu;
  bu.use_delta_judgment = options.use_delta_judgment;
  bu.merge_rule = options.merge_rule;
  return BottomUp::RunFrom(universe, params, initial, bu);
}

}  // namespace qagview::core
