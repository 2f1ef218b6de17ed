#ifndef QAGVIEW_PERFBENCH_LAYERS_H_
#define QAGVIEW_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Calls each layer's public functions in-process on the workload's own
/// inputs (its CSV, query, coverage level and parameters), recording a
/// span per call, and appends the storage / sql / core / common metrics:
/// medians over a few repetitions, outside every measured window.
qagview::Status ProbeLayers(const LayerSpec& spec, Tracer* tracer,
                            std::vector<Metric>* out);

/// One request/response pair the traced run kept.
struct Exchange {
  std::string target;
  std::string request;
  std::string response;
};

/// Times the server layer's serde on the run's own bodies:
/// server.decode_ms (json::Json::Parse + *RequestFromJson of a request) and
/// server.encode_ms (server::ToJson(response).Dump()), medians per body.
qagview::Status ProbeSerde(const std::vector<Exchange>& sample,
                           Tracer* tracer, std::vector<Metric>* out);

}  // namespace perfbench

#endif  // QAGVIEW_PERFBENCH_LAYERS_H_
