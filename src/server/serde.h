#ifndef QAGVIEW_SERVER_SERDE_H_
#define QAGVIEW_SERVER_SERDE_H_

#include "common/json.h"
#include "common/result.h"
#include "service/api.h"

/// \file
/// \brief Bidirectional JSON (de)serialization of the service/api.h
/// request/response structs — the server's wire format, shared with the
/// load generator.
///
/// Round-trip fidelity is the contract: ToJson followed by FromJson yields
/// a struct that compares field-for-field (bit-for-bit for doubles, via
/// json::FormatJsonNumber's shortest round-trip form) with the original,
/// which is what lets server_test assert bit-identity between an HTTP
/// response and a direct QueryService call. FromJson validates types,
/// required fields, and `int` range, and returns InvalidArgument naming the
/// field — never crashes — on hostile documents; unknown fields are ignored
/// (forward compatibility).
///
/// Each struct's fields are listed once, in wire order, in serde.cc; one
/// generic encoder and one generic decoder walk those lists, and every
/// function below is a one-line forward to them.

namespace qagview::server {

// --- Requests (parsed by the server, written by clients) -----------------

json::Json ToJson(const service::QueryRequest& request);
json::Json ToJson(const service::SummarizeRequest& request);
json::Json ToJson(const service::GuidanceRequest& request);
json::Json ToJson(const service::RetrieveRequest& request);
json::Json ToJson(const service::ExploreRequest& request);
json::Json ToJson(const service::RefineRequest& request);
json::Json ToJson(const service::AppendRowsRequest& request);

Result<service::QueryRequest> QueryRequestFromJson(const json::Json& doc);
Result<service::SummarizeRequest> SummarizeRequestFromJson(
    const json::Json& doc);
Result<service::GuidanceRequest> GuidanceRequestFromJson(
    const json::Json& doc);
Result<service::RetrieveRequest> RetrieveRequestFromJson(
    const json::Json& doc);
Result<service::ExploreRequest> ExploreRequestFromJson(const json::Json& doc);
Result<service::RefineRequest> RefineRequestFromJson(const json::Json& doc);
Result<service::AppendRowsRequest> AppendRowsRequestFromJson(
    const json::Json& doc);

// --- Responses (written by the server, parsed by clients/tests) ----------

json::Json ToJson(const service::QueryResponse& response);
json::Json ToJson(const service::SummarizeResponse& response);
json::Json ToJson(const service::GuidanceResponse& response);
json::Json ToJson(const service::RetrieveResponse& response);
json::Json ToJson(const service::ExploreResponse& response);
json::Json ToJson(const service::RefineResponse& response);
json::Json ToJson(const service::AppendRowsResponse& response);
json::Json ToJson(const service::ServiceStats& stats);

Result<service::QueryResponse> QueryResponseFromJson(const json::Json& doc);
Result<service::SummarizeResponse> SummarizeResponseFromJson(
    const json::Json& doc);
Result<service::GuidanceResponse> GuidanceResponseFromJson(
    const json::Json& doc);
Result<service::RetrieveResponse> RetrieveResponseFromJson(
    const json::Json& doc);
Result<service::ExploreResponse> ExploreResponseFromJson(
    const json::Json& doc);
Result<service::RefineResponse> RefineResponseFromJson(const json::Json& doc);
Result<service::AppendRowsResponse> AppendRowsResponseFromJson(
    const json::Json& doc);
Result<service::ServiceStats> ServiceStatsFromJson(const json::Json& doc);

/// The per-request cost block every response embeds (also used alone by
/// the build smoke test).
json::Json ToJson(const service::RequestStats& stats);

/// The transport counters: the "server" object of GET /stats and the
/// qagview_server drain line.
struct ServerStats;
json::Json ToJson(const ServerStats& stats);

}  // namespace qagview::server

#endif  // QAGVIEW_SERVER_SERDE_H_
