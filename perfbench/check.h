#ifndef QAGVIEW_PERFBENCH_CHECK_H_
#define QAGVIEW_PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "service/query_service.h"

namespace perfbench {

/// A response body without its per-request "stats" member — the part the
/// output checks compare. Every service response serializes "stats" last,
/// so this is the prefix before the final `,"stats":`.
std::string_view WithoutStats(std::string_view body);

/// 64-bit FNV-1a of `bytes`: what the load loop keeps of each response.
uint64_t Fingerprint(std::string_view bytes);

/// `stats.latency_ms` of a response body (the service's own time), or -1.
double ServiceLatencyMs(std::string_view body);

/// The catalog version in an /append_rows response body, or -1.
int64_t AppendedVersion(std::string_view body);

/// Serves one POST request (endpoint path + JSON body) with an in-process
/// QueryService and returns the JSON body the HTTP server would send.
/// This is the reference side of every output check.
qagview::Result<std::string> CallInProcess(
    qagview::service::QueryService* service, std::string_view target,
    std::string_view body);

}  // namespace perfbench

#endif  // QAGVIEW_PERFBENCH_CHECK_H_
