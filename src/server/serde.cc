#include "server/serde.h"

#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "server/server.h"

namespace qagview::server {

using json::Json;

namespace {

enum Presence { kRequired, kOptional };  // kOptional: absent = the default

/// The wire schema: one list per struct calling `f(key, member[, kOptional])`
/// per field, in wire order. Put and Get below are its only two walkers, so
/// a field listed here is both serialized and parsed.
template <typename S, typename F>
void Fields(S& s, F&& f) {
  using T = std::remove_const_t<S>;
  if constexpr (std::is_same_v<T, service::QueryOptions>) {
    f("mode", s.mode);
    f("confidence", s.confidence);
  } else if constexpr (std::is_same_v<T, core::PrecomputeOptions>) {
    f("k_min", s.k_min);
    f("k_max", s.k_max);
    f("d_values", s.d_values);
    f("c", s.c);
    f("use_delta_judgment", s.use_delta_judgment);
    // num_threads stays off the wire: it never changes the resulting store.
  } else if constexpr (std::is_same_v<T, core::Params>) {
    f("k", s.k);
    f("L", s.L);
    f("D", s.D);
  } else if constexpr (std::is_same_v<T, service::RequestStats>) {
    f("latency_ms", s.latency_ms);
    f("cache_hit", s.cache_hit);
    f("coalesced", s.coalesced);
    f("built", s.built);
    f("refreshed", s.refreshed);
  } else if constexpr (std::is_same_v<T, service::ApproxMeta>) {
    f("is_exact", s.is_exact);
    f("sample_fraction", s.sample_fraction);
    f("max_bound", s.max_bound);
  } else if constexpr (std::is_same_v<T, core::Solution>) {
    f("cluster_ids", s.cluster_ids);
    f("covered_sum", s.covered_sum);
    f("covered_count", s.covered_count);
    f("average", s.average);
    f("covered_min", s.covered_min);
  } else if constexpr (std::is_same_v<T, core::ClusterView>) {
    f("cluster_id", s.cluster_id);
    f("pattern", s.pattern);
    f("average", s.average);
    f("count", s.count);
    f("top_count", s.top_count);
    f("member_ranks", s.member_ranks);
  } else if constexpr (std::is_same_v<T, core::TwoLayerView>) {
    f("clusters", s.clusters);
    f("solution_average", s.solution_average);
    f("solution_count", s.solution_count);
    // --- Requests ----------------------------------------------------------
  } else if constexpr (std::is_same_v<T, service::QueryRequest>) {
    f("sql", s.sql);
    f("value_column", s.value_column);
    f("options", s.options, kOptional);  // absent: exact-only
  } else if constexpr (std::is_same_v<T, service::SummarizeRequest>) {
    f("handle", s.handle);
    f("params", s.params);
  } else if constexpr (std::is_same_v<T, service::GuidanceRequest>) {
    f("handle", s.handle);
    f("top_l", s.top_l);
    f("options", s.options, kOptional);
  } else if constexpr (std::is_same_v<T, service::RetrieveRequest>) {
    f("handle", s.handle);
    f("top_l", s.top_l);
    f("d", s.d);
    f("k", s.k);
  } else if constexpr (std::is_same_v<T, service::ExploreRequest>) {
    f("handle", s.handle);
    f("params", s.params);
    f("max_members", s.max_members, kOptional);
  } else if constexpr (std::is_same_v<T, service::RefineRequest>) {
    f("handle", s.handle);
  } else if constexpr (std::is_same_v<T, service::AppendRowsRequest>) {
    f("dataset", s.dataset);
    f("rows", s.rows);
    // --- Responses: "stats" last (clients strip it by suffix) --------------
  } else if constexpr (std::is_same_v<T, service::QueryResponse>) {
    f("handle", s.handle);
    f("num_answers", s.num_answers);
    f("num_attrs", s.num_attrs);
    f("confidence", s.confidence);
    f("approx", s.approx);
    f("stats", s.stats);
  } else if constexpr (std::is_same_v<T, service::SummarizeResponse> ||
                       std::is_same_v<T, service::RetrieveResponse>) {
    f("solution", s.solution);
    f("approx", s.approx);
    f("stats", s.stats);
  } else if constexpr (std::is_same_v<T, service::GuidanceResponse>) {
    f("store_l", s.store_l);
    f("k_max", s.k_max);
    f("d_values", s.d_values);
    f("min_ks", s.min_ks);
    f("num_intervals", s.num_intervals);
    f("naive_entries", s.naive_entries);
    f("approx", s.approx);
    f("stats", s.stats);
  } else if constexpr (std::is_same_v<T, service::ExploreResponse>) {
    f("solution", s.solution);
    f("view", s.view);
    f("summary", s.summary);
    f("expanded", s.expanded);
    f("approx", s.approx);
    f("stats", s.stats);
  } else if constexpr (std::is_same_v<T, service::RefineResponse>) {
    f("approx", s.approx);
    f("stats", s.stats);
  } else if constexpr (std::is_same_v<T, service::AppendRowsResponse>) {
    f("version", s.version);
    f("stats", s.stats);
  } else if constexpr (std::is_same_v<T, service::ServiceStats>) {
    f("datasets", s.datasets);
    f("sessions", s.sessions);
    f("queries", s.queries);
    f("query_cache_hits", s.query_cache_hits);
    f("query_coalesced", s.query_coalesced);
    f("summarize_requests", s.summarize_requests);
    f("guidance_requests", s.guidance_requests);
    f("retrieve_requests", s.retrieve_requests);
    f("explore_requests", s.explore_requests);
    f("cache_hits", s.cache_hits);
    f("coalesced_waits", s.coalesced_waits);
    f("builds", s.builds);
    f("refreshes", s.refreshes);
    f("refresh_full_reuses", s.refresh_full_reuses);
    f("approx_queries", s.approx_queries);
    f("approx_served", s.approx_served);
    f("refine_requests", s.refine_requests);
    f("refinements", s.refinements);
    f("refinements_superseded", s.refinements_superseded);
    f("graveyard_size", s.graveyard_size);
    f("live_generations", s.live_generations);
    f("generations_evicted", s.generations_evicted);
    f("prefetch_issued", s.prefetch_issued);
    f("prefetch_hits", s.prefetch_hits);
    f("total_latency_ms", s.total_latency_ms);
    f("max_latency_ms", s.max_latency_ms);
  } else if constexpr (std::is_same_v<T, ServerStats>) {
    f("accepted", s.accepted);
    f("admitted", s.admitted);
    f("rejected_503", s.rejected_503);
    f("served_2xx", s.served_2xx);
    f("client_errors_4xx", s.client_errors_4xx);
    f("server_errors_5xx", s.server_errors_5xx);
    f("io_errors", s.io_errors);
  } else {
    static_assert(sizeof(T) == 0, "a wire struct without a field list");
  }
}

constexpr std::pair<service::QueryMode, const char*> kModeNames[] = {
    {service::QueryMode::kExactOnly, "exact_only"},
    {service::QueryMode::kApproxFirst, "approx_first"},
    {service::QueryMode::kApproxOnly, "approx_only"},
};

// --- Encoding: one Put per leaf type; structs walk their field list --------

Json Put(bool v) { return Json::Bool(v); }
Json Put(int v) { return Json::Int(v); }
Json Put(int64_t v) { return Json::Int(v); }
Json Put(uint64_t v) { return Json::Int(static_cast<int64_t>(v)); }
Json Put(double v) { return Json::Number(v); }
Json Put(const std::string& v) { return Json::Str(v); }

Json Put(service::QueryMode v) {
  for (const auto& [mode, name] : kModeNames) {
    if (mode == v) return Json::Str(name);
  }
  return Json::Str(kModeNames[0].second);
}

Json Put(const storage::Value& v) {
  switch (v.type()) {
    case storage::ValueType::kNull: return Json::Null();
    case storage::ValueType::kInt64: return Json::Int(v.as_int());
    case storage::ValueType::kDouble: return Json::Number(v.as_double());
    case storage::ValueType::kString: return Json::Str(v.as_string());
  }
  return Json::Null();
}

template <typename S>
Json Put(const S& s);

template <typename T>
Json Put(const std::vector<T>& v) {
  Json out = Json::Array();
  for (const T& item : v) out.Append(Put(item));
  return out;
}

template <typename S>
Json Put(const S& s) {
  Json out = Json::Object();
  Fields(s, [&out](const char* key, const auto& member, Presence = kRequired) {
    out.Set(key, Put(member));
  });
  return out;
}

// --- Decoding: one Get per leaf type, each error naming the field `key` ---

Status Invalid(std::string_view key, std::string_view what) {
  return Status::InvalidArgument(StrCat("field \"", key, "\" ", what));
}

Status Get(const Json& v, std::string_view key, bool* out) {
  if (!v.is_bool()) return Invalid(key, "must be a boolean");
  *out = v.AsBool();
  return Status::OK();
}

Status Get(const Json& v, std::string_view key, int64_t* out) {
  if (!v.is_int()) return Invalid(key, "must be an integer");
  *out = v.AsInt();
  return Status::OK();
}

Status Get(const Json& v, std::string_view key, int* out) {
  int64_t wide = 0;
  QAG_RETURN_IF_ERROR(Get(v, key, &wide));
  // Truncating would serve a different request (k = 2^32 + 4 as k = 4).
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    return Invalid(key, "is out of range for a 32-bit integer");
  }
  *out = static_cast<int>(wide);
  return Status::OK();
}

Status Get(const Json& v, std::string_view key, uint64_t* out) {
  int64_t wide = 0;
  QAG_RETURN_IF_ERROR(Get(v, key, &wide));
  *out = static_cast<uint64_t>(wide);
  return Status::OK();
}

Status Get(const Json& v, std::string_view key, double* out) {
  if (!v.is_number()) return Invalid(key, "must be a number");
  *out = v.AsDouble();
  return Status::OK();
}

Status Get(const Json& v, std::string_view key, std::string* out) {
  if (!v.is_string()) return Invalid(key, "must be a string");
  *out = v.AsString();
  return Status::OK();
}

Status Get(const Json& v, std::string_view key, service::QueryMode* out) {
  std::string name;
  QAG_RETURN_IF_ERROR(Get(v, key, &name));
  for (const auto& [mode, mode_name] : kModeNames) {
    if (name == mode_name) {
      *out = mode;
      return Status::OK();
    }
  }
  return Status::InvalidArgument(StrCat("unknown query mode \"", name, "\""));
}

Status Get(const Json& v, std::string_view key, storage::Value* out) {
  if (v.is_null()) {
    *out = storage::Value::Null();
  } else if (v.is_string()) {
    *out = storage::Value::Str(v.AsString());
  } else if (v.is_int()) {
    *out = storage::Value::Int(v.AsInt());
  } else if (v.is_number()) {
    *out = storage::Value::Real(v.AsDouble());
  } else {
    return Invalid(key, "cells must be null, string, or number");
  }
  return Status::OK();
}

template <typename S>
Status Get(const Json& v, std::string_view key, S* out);

template <typename T>
Status Get(const Json& v, std::string_view key, std::vector<T>* out) {
  if (!v.is_array()) return Invalid(key, "must be an array");
  out->reserve(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    QAG_RETURN_IF_ERROR(Get(v.at(i), key, &out->emplace_back()));
  }
  return Status::OK();
}

/// Reads object `v` into `out` in field-list order; the first bad field wins.
template <typename S>
Status Get(const Json& v, std::string_view key, S* out) {
  if (!v.is_object()) return Invalid(key, "must be an object");
  Status status;
  Fields(*out, [&](const char* field, auto& member,
                   Presence presence = kRequired) {
    if (!status.ok()) return;
    const Json* found = v.Find(field);
    if (found != nullptr) {
      status = Get(*found, field, &member);
    } else if (presence == kRequired) {
      status = Status::InvalidArgument(StrCat("missing field \"", field, "\""));
    }
  });
  return status;
}

template <typename S>
Result<S> Decode(const Json& d) {
  if (!d.is_object()) return Status::InvalidArgument("expected a JSON object");
  S out;
  QAG_RETURN_IF_ERROR(Get(d, /*key=*/"", &out));
  return out;
}

}  // namespace

// --- Public entry points: one-line forwards to the two walkers -------------

Json ToJson(const service::QueryRequest& v) { return Put(v); }
Json ToJson(const service::SummarizeRequest& v) { return Put(v); }
Json ToJson(const service::GuidanceRequest& v) { return Put(v); }
Json ToJson(const service::RetrieveRequest& v) { return Put(v); }
Json ToJson(const service::ExploreRequest& v) { return Put(v); }
Json ToJson(const service::RefineRequest& v) { return Put(v); }
Json ToJson(const service::AppendRowsRequest& v) { return Put(v); }
Json ToJson(const service::QueryResponse& v) { return Put(v); }
Json ToJson(const service::SummarizeResponse& v) { return Put(v); }
Json ToJson(const service::GuidanceResponse& v) { return Put(v); }
Json ToJson(const service::RetrieveResponse& v) { return Put(v); }
Json ToJson(const service::ExploreResponse& v) { return Put(v); }
Json ToJson(const service::RefineResponse& v) { return Put(v); }
Json ToJson(const service::AppendRowsResponse& v) { return Put(v); }
Json ToJson(const service::RequestStats& v) { return Put(v); }
Json ToJson(const ServerStats& v) { return Put(v); }

Json ToJson(const service::ServiceStats& v) {
  Json out = Put(v);
  out.Set("requests", Json::Int(v.requests()));  // derived: encode only
  return out;
}

Result<service::QueryRequest> QueryRequestFromJson(const Json& d) {
  return Decode<service::QueryRequest>(d);
}
Result<service::SummarizeRequest> SummarizeRequestFromJson(const Json& d) {
  return Decode<service::SummarizeRequest>(d);
}
Result<service::GuidanceRequest> GuidanceRequestFromJson(const Json& d) {
  return Decode<service::GuidanceRequest>(d);
}
Result<service::RetrieveRequest> RetrieveRequestFromJson(const Json& d) {
  return Decode<service::RetrieveRequest>(d);
}
Result<service::ExploreRequest> ExploreRequestFromJson(const Json& d) {
  return Decode<service::ExploreRequest>(d);
}
Result<service::RefineRequest> RefineRequestFromJson(const Json& d) {
  return Decode<service::RefineRequest>(d);
}
Result<service::AppendRowsRequest> AppendRowsRequestFromJson(const Json& d) {
  return Decode<service::AppendRowsRequest>(d);
}
Result<service::QueryResponse> QueryResponseFromJson(const Json& d) {
  return Decode<service::QueryResponse>(d);
}
Result<service::SummarizeResponse> SummarizeResponseFromJson(const Json& d) {
  return Decode<service::SummarizeResponse>(d);
}
Result<service::GuidanceResponse> GuidanceResponseFromJson(const Json& d) {
  return Decode<service::GuidanceResponse>(d);
}
Result<service::RetrieveResponse> RetrieveResponseFromJson(const Json& d) {
  return Decode<service::RetrieveResponse>(d);
}
Result<service::ExploreResponse> ExploreResponseFromJson(const Json& d) {
  return Decode<service::ExploreResponse>(d);
}
Result<service::RefineResponse> RefineResponseFromJson(const Json& d) {
  return Decode<service::RefineResponse>(d);
}
Result<service::AppendRowsResponse> AppendRowsResponseFromJson(const Json& d) {
  return Decode<service::AppendRowsResponse>(d);
}
Result<service::ServiceStats> ServiceStatsFromJson(const Json& d) {
  return Decode<service::ServiceStats>(d);
}

}  // namespace qagview::server
