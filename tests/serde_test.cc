// The server's JSON codec (server/serde.h) in isolation, over populated
// instances of every request and response struct and of ServiceStats:
//
//  * golden bytes: each encoding is pinned to the exact wire string, with
//    escaped and UTF-8 strings, an INT64_MAX cell, the doubles 0.1 + 0.2
//    and 1e-300, all three query modes, and null and empty rows;
//  * round trip: decoding an encoding and re-encoding it gives the same
//    bytes;
//  * "stats" is the last key of every response (clients strip it by
//    suffix);
//  * hostile requests: a missing required field, a wrong-typed field, and
//    an integer outside `int` range each return InvalidArgument naming the
//    field, and absent optional fields decode to their defaults.

#include "server/serde.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/string_util.h"

namespace qagview::server {
namespace {

using json::Json;

// --- Populated instances ---------------------------------------------------

service::RequestStats SampleStats() {
  service::RequestStats stats;
  stats.latency_ms = 0.1 + 0.2;
  stats.cache_hit = true;
  stats.built = false;
  stats.coalesced = true;
  stats.refreshed = true;
  return stats;
}

service::ApproxMeta SampleApprox() {
  service::ApproxMeta approx;
  approx.is_exact = false;
  approx.sample_fraction = 0.1 + 0.2;
  approx.max_bound = 1e-300;
  return approx;
}

core::Solution SampleSolution() {
  core::Solution solution;
  solution.cluster_ids = {4, 0, 17};
  solution.covered_sum = 12.5;
  solution.covered_count = 5;
  solution.average = 0.1 + 0.2;
  solution.covered_min = 1e-300;
  return solution;
}

service::QueryRequest SampleQueryRequest(service::QueryMode mode) {
  service::QueryRequest request;
  request.sql =
      "SELECT g0, avg(rating) AS \"val\"\n\tFROM t -- café \\ \x01";
  request.value_column = "val";
  request.options.mode = mode;
  request.options.confidence = 0.1 + 0.2;
  return request;
}

service::SummarizeRequest SampleSummarizeRequest() {
  service::SummarizeRequest request;
  request.handle = 3;
  request.params = core::Params{5, 20, 2};
  return request;
}

service::GuidanceRequest SampleGuidanceRequest() {
  service::GuidanceRequest request;
  request.handle = 7;
  request.top_l = 40;
  request.options.k_min = 2;
  request.options.k_max = 12;
  request.options.d_values = {0, 1, 3};
  request.options.c = 4;
  request.options.use_delta_judgment = false;
  request.options.num_threads = 6;  // an execution knob: never on the wire
  return request;
}

service::RetrieveRequest SampleRetrieveRequest() {
  service::RetrieveRequest request;
  request.handle = 1;
  request.top_l = 40;
  request.d = 2;
  request.k = 9;
  return request;
}

service::ExploreRequest SampleExploreRequest() {
  service::ExploreRequest request;
  request.handle = 2;
  request.params = core::Params{4, 16, 1};
  request.max_members = 0;
  return request;
}

service::RefineRequest SampleRefineRequest() {
  service::RefineRequest request;
  request.handle = 9007199254740993;  // 2^53 + 1: not a double
  return request;
}

service::AppendRowsRequest SampleAppendRowsRequest() {
  service::AppendRowsRequest request;
  request.dataset = "Events";
  request.rows.push_back(
      {storage::Value::Str("g0v1"),
       storage::Value::Int(std::numeric_limits<int64_t>::max()),
       storage::Value::Real(0.1 + 0.2), storage::Value::Null()});
  request.rows.push_back({});
  request.rows.push_back({storage::Value::Null()});
  request.rows.push_back(
      {storage::Value::Str("café \"q\" \\ \x01\t→"),
       storage::Value::Int(-7), storage::Value::Real(1e-300)});
  return request;
}

service::QueryResponse SampleQueryResponse() {
  service::QueryResponse response;
  response.handle = 0;
  response.num_answers = 1234;
  response.num_attrs = 3;
  response.confidence = 0.95;
  response.approx = SampleApprox();
  response.stats = SampleStats();
  return response;
}

service::SummarizeResponse SampleSummarizeResponse() {
  service::SummarizeResponse response;
  response.solution = SampleSolution();
  response.stats = SampleStats();
  return response;
}

service::GuidanceResponse SampleGuidanceResponse() {
  service::GuidanceResponse response;
  response.store_l = 40;
  response.k_max = 12;
  response.d_values = {1, 2};
  response.min_ks = {2, 3};
  response.num_intervals = std::numeric_limits<int64_t>::max();
  response.naive_entries = 96;
  response.approx = SampleApprox();
  response.stats = SampleStats();
  return response;
}

service::RetrieveResponse SampleRetrieveResponse() {
  service::RetrieveResponse response;
  response.solution.cluster_ids = {};
  response.stats = SampleStats();
  return response;
}

service::ExploreResponse SampleExploreResponse() {
  service::ExploreResponse response;
  response.solution = SampleSolution();
  core::ClusterView first;
  first.cluster_id = 4;
  first.pattern = "(g0v1, *, \"x\")";
  first.average = 0.1 + 0.2;
  first.count = 7;
  first.top_count = 3;
  first.member_ranks = {1, 3, 6};
  core::ClusterView second;
  second.cluster_id = 0;
  second.pattern = "(*, café, *)";
  second.average = 1e-300;
  second.count = 1;
  second.top_count = 0;
  response.view.clusters = {first, second};
  response.view.solution_average = 2.5;
  response.view.solution_count = 8;
  response.summary = "→ café\n\t1. (g0v1, *)";
  response.expanded = "line\r\n\x1f";
  response.approx = SampleApprox();
  response.stats = SampleStats();
  return response;
}

service::RefineResponse SampleRefineResponse() {
  service::RefineResponse response;
  response.stats = SampleStats();
  return response;
}

service::AppendRowsResponse SampleAppendRowsResponse() {
  service::AppendRowsResponse response;
  response.version = uint64_t{1} << 40;
  response.stats = SampleStats();
  return response;
}

service::ServiceStats SampleServiceStats() {
  service::ServiceStats stats;
  int64_t next = 1;
  for (int64_t* field :
       {&stats.datasets, &stats.sessions, &stats.queries,
        &stats.query_cache_hits, &stats.query_coalesced,
        &stats.summarize_requests, &stats.guidance_requests,
        &stats.retrieve_requests, &stats.explore_requests, &stats.cache_hits,
        &stats.coalesced_waits, &stats.builds, &stats.refreshes,
        &stats.refresh_full_reuses, &stats.approx_queries,
        &stats.approx_served, &stats.refine_requests, &stats.refinements,
        &stats.refinements_superseded, &stats.graveyard_size,
        &stats.live_generations, &stats.generations_evicted,
        &stats.prefetch_issued, &stats.prefetch_hits,
        &stats.warm_start_loads}) {
    *field = next++;
  }
  stats.total_latency_ms = 0.1 + 0.2;
  stats.max_latency_ms = 1e-300;
  return stats;
}

// --- Golden bytes ----------------------------------------------------------
//
// Recorded from the two-pass serde the field-list codec replaced. The only
// hand edit: every "stats" object lost its "approximate", "sample_fraction"
// and "max_bound" keys, which repeated the response's "approx" block.

TEST(SerdeGoldenTest, Requests) {
  EXPECT_EQ(ToJson(SampleQueryRequest(service::QueryMode::kExactOnly)).Dump(),
            R"json({"sql":"SELECT g0, avg(rating) AS \"val\"\n\tFROM t -- café \\ \u0001","value_column":"val","options":{"mode":"exact_only","confidence":0.30000000000000004}})json");
  EXPECT_EQ(ToJson(SampleQueryRequest(service::QueryMode::kApproxFirst)).Dump(),
            R"json({"sql":"SELECT g0, avg(rating) AS \"val\"\n\tFROM t -- café \\ \u0001","value_column":"val","options":{"mode":"approx_first","confidence":0.30000000000000004}})json");
  EXPECT_EQ(ToJson(SampleQueryRequest(service::QueryMode::kApproxOnly)).Dump(),
            R"json({"sql":"SELECT g0, avg(rating) AS \"val\"\n\tFROM t -- café \\ \u0001","value_column":"val","options":{"mode":"approx_only","confidence":0.30000000000000004}})json");
  EXPECT_EQ(ToJson(SampleSummarizeRequest()).Dump(),
            R"json({"handle":3,"params":{"k":5,"L":20,"D":2}})json");
  EXPECT_EQ(ToJson(SampleGuidanceRequest()).Dump(),
            R"json({"handle":7,"top_l":40,"options":{"k_min":2,"k_max":12,"d_values":[0,1,3],"c":4,"use_delta_judgment":false}})json");
  EXPECT_EQ(ToJson(SampleRetrieveRequest()).Dump(),
            R"json({"handle":1,"top_l":40,"d":2,"k":9})json");
  EXPECT_EQ(ToJson(SampleExploreRequest()).Dump(),
            R"json({"handle":2,"params":{"k":4,"L":16,"D":1},"max_members":0})json");
  EXPECT_EQ(ToJson(SampleRefineRequest()).Dump(),
            R"json({"handle":9007199254740993})json");
  EXPECT_EQ(ToJson(SampleAppendRowsRequest()).Dump(),
            R"json({"dataset":"Events","rows":[["g0v1",9223372036854775807,0.30000000000000004,null],[],[null],["café \"q\" \\ \u0001\t→",-7,1e-300]]})json");
}

TEST(SerdeGoldenTest, Responses) {
  EXPECT_EQ(ToJson(SampleQueryResponse()).Dump(),
            R"json({"handle":0,"num_answers":1234,"num_attrs":3,"confidence":0.95,"approx":{"is_exact":false,"sample_fraction":0.30000000000000004,"max_bound":1e-300},"stats":{"latency_ms":0.30000000000000004,"cache_hit":true,"coalesced":true,"built":false,"refreshed":true}})json");
  EXPECT_EQ(ToJson(SampleSummarizeResponse()).Dump(),
            R"json({"solution":{"cluster_ids":[4,0,17],"covered_sum":12.5,"covered_count":5,"average":0.30000000000000004,"covered_min":1e-300},"approx":{"is_exact":true,"sample_fraction":1,"max_bound":0},"stats":{"latency_ms":0.30000000000000004,"cache_hit":true,"coalesced":true,"built":false,"refreshed":true}})json");
  EXPECT_EQ(ToJson(SampleGuidanceResponse()).Dump(),
            R"json({"store_l":40,"k_max":12,"d_values":[1,2],"min_ks":[2,3],"num_intervals":9223372036854775807,"naive_entries":96,"approx":{"is_exact":false,"sample_fraction":0.30000000000000004,"max_bound":1e-300},"stats":{"latency_ms":0.30000000000000004,"cache_hit":true,"coalesced":true,"built":false,"refreshed":true}})json");
  EXPECT_EQ(ToJson(SampleRetrieveResponse()).Dump(),
            R"json({"solution":{"cluster_ids":[],"covered_sum":0,"covered_count":0,"average":0,"covered_min":0},"approx":{"is_exact":true,"sample_fraction":1,"max_bound":0},"stats":{"latency_ms":0.30000000000000004,"cache_hit":true,"coalesced":true,"built":false,"refreshed":true}})json");
  EXPECT_EQ(ToJson(SampleExploreResponse()).Dump(),
            R"json({"solution":{"cluster_ids":[4,0,17],"covered_sum":12.5,"covered_count":5,"average":0.30000000000000004,"covered_min":1e-300},"view":{"clusters":[{"cluster_id":4,"pattern":"(g0v1, *, \"x\")","average":0.30000000000000004,"count":7,"top_count":3,"member_ranks":[1,3,6]},{"cluster_id":0,"pattern":"(*, café, *)","average":1e-300,"count":1,"top_count":0,"member_ranks":[]}],"solution_average":2.5,"solution_count":8},"summary":"→ café\n\t1. (g0v1, *)","expanded":"line\r\n\u001f","approx":{"is_exact":false,"sample_fraction":0.30000000000000004,"max_bound":1e-300},"stats":{"latency_ms":0.30000000000000004,"cache_hit":true,"coalesced":true,"built":false,"refreshed":true}})json");
  EXPECT_EQ(ToJson(SampleRefineResponse()).Dump(),
            R"json({"approx":{"is_exact":true,"sample_fraction":1,"max_bound":0},"stats":{"latency_ms":0.30000000000000004,"cache_hit":true,"coalesced":true,"built":false,"refreshed":true}})json");
  EXPECT_EQ(ToJson(SampleAppendRowsResponse()).Dump(),
            R"json({"version":1099511627776,"stats":{"latency_ms":0.30000000000000004,"cache_hit":true,"coalesced":true,"built":false,"refreshed":true}})json");
  EXPECT_EQ(ToJson(SampleStats()).Dump(),
            R"json({"latency_ms":0.30000000000000004,"cache_hit":true,"coalesced":true,"built":false,"refreshed":true})json");
}

TEST(SerdeGoldenTest, ServiceStats) {
  EXPECT_EQ(ToJson(SampleServiceStats()).Dump(),
            R"json({"datasets":1,"sessions":2,"queries":3,"query_cache_hits":4,"query_coalesced":5,"summarize_requests":6,"guidance_requests":7,"retrieve_requests":8,"explore_requests":9,"cache_hits":10,"coalesced_waits":11,"builds":12,"refreshes":13,"refresh_full_reuses":14,"approx_queries":15,"approx_served":16,"refine_requests":17,"refinements":18,"refinements_superseded":19,"graveyard_size":20,"live_generations":21,"generations_evicted":22,"prefetch_issued":23,"prefetch_hits":24,"warm_start_loads":25,"total_latency_ms":0.30000000000000004,"max_latency_ms":1e-300,"requests":50})json");
}

// --- Round trip --------------------------------------------------------------

/// Decodes the encoding of `value` and re-encodes it: the bytes must match.
template <typename T>
void ExpectRoundTrip(const T& value, Result<T> (*from_json)(const Json&)) {
  const std::string bytes = ToJson(value).Dump();
  Result<Json> doc = Json::Parse(bytes);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Result<T> decoded = from_json(*doc);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString() << "\n" << bytes;
  EXPECT_EQ(ToJson(*decoded).Dump(), bytes);
}

TEST(SerdeRoundTripTest, EveryStructReencodesToTheSameBytes) {
  for (service::QueryMode mode :
       {service::QueryMode::kExactOnly, service::QueryMode::kApproxFirst,
        service::QueryMode::kApproxOnly}) {
    ExpectRoundTrip(SampleQueryRequest(mode), &QueryRequestFromJson);
  }
  ExpectRoundTrip(SampleSummarizeRequest(), &SummarizeRequestFromJson);
  ExpectRoundTrip(SampleGuidanceRequest(), &GuidanceRequestFromJson);
  ExpectRoundTrip(SampleRetrieveRequest(), &RetrieveRequestFromJson);
  ExpectRoundTrip(SampleExploreRequest(), &ExploreRequestFromJson);
  ExpectRoundTrip(SampleRefineRequest(), &RefineRequestFromJson);
  ExpectRoundTrip(SampleAppendRowsRequest(), &AppendRowsRequestFromJson);
  ExpectRoundTrip(SampleQueryResponse(), &QueryResponseFromJson);
  ExpectRoundTrip(SampleSummarizeResponse(), &SummarizeResponseFromJson);
  ExpectRoundTrip(SampleGuidanceResponse(), &GuidanceResponseFromJson);
  ExpectRoundTrip(SampleRetrieveResponse(), &RetrieveResponseFromJson);
  ExpectRoundTrip(SampleExploreResponse(), &ExploreResponseFromJson);
  ExpectRoundTrip(SampleRefineResponse(), &RefineResponseFromJson);
  ExpectRoundTrip(SampleAppendRowsResponse(), &AppendRowsResponseFromJson);
  ExpectRoundTrip(SampleServiceStats(), &ServiceStatsFromJson);
}

TEST(SerdeRoundTripTest, StatsIsTheLastKeyOfEveryResponse) {
  for (const Json& doc :
       {ToJson(SampleQueryResponse()), ToJson(SampleSummarizeResponse()),
        ToJson(SampleGuidanceResponse()), ToJson(SampleRetrieveResponse()),
        ToJson(SampleExploreResponse()), ToJson(SampleRefineResponse()),
        ToJson(SampleAppendRowsResponse())}) {
    ASSERT_FALSE(doc.items().empty());
    EXPECT_EQ(doc.items().back().first, "stats") << doc.Dump();
  }
}

// --- Hostile requests --------------------------------------------------------

/// A copy of object `doc` with the member at `path` replaced by `value`, or
/// removed when `value` is empty. Members keep their order.
Json Edit(const Json& doc, const std::vector<std::string>& path,
          const std::optional<Json>& value, size_t depth = 0) {
  Json out = Json::Object();
  for (const auto& [key, member] : doc.items()) {
    if (key != path[depth]) {
      out.Set(key, member);
    } else if (depth + 1 < path.size()) {
      out.Set(key, Edit(member, path, value, depth + 1));
    } else if (value.has_value()) {
      out.Set(key, *value);
    }
  }
  return out;
}

/// Every object-member path in `doc`, nested objects included.
void MemberPaths(const Json& doc, std::vector<std::string>* prefix,
                 std::vector<std::vector<std::string>>* out) {
  for (const auto& [key, member] : doc.items()) {
    prefix->push_back(key);
    out->push_back(*prefix);
    if (member.is_object()) MemberPaths(member, prefix, out);
    prefix->pop_back();
  }
}

struct RequestCase {
  std::string name;
  Json doc;
  std::function<Status(const Json&)> decode;
};

template <typename T>
RequestCase Case(std::string name, const T& request,
                 Result<T> (*from_json)(const Json&)) {
  return {std::move(name), ToJson(request),
          [from_json](const Json& doc) { return from_json(doc).status(); }};
}

std::vector<RequestCase> AllRequests() {
  return {
      Case("query", SampleQueryRequest(service::QueryMode::kApproxFirst),
           &QueryRequestFromJson),
      Case("summarize", SampleSummarizeRequest(), &SummarizeRequestFromJson),
      Case("guidance", SampleGuidanceRequest(), &GuidanceRequestFromJson),
      Case("retrieve", SampleRetrieveRequest(), &RetrieveRequestFromJson),
      Case("explore", SampleExploreRequest(), &ExploreRequestFromJson),
      Case("refine", SampleRefineRequest(), &RefineRequestFromJson),
      Case("append_rows", SampleAppendRowsRequest(),
           &AppendRowsRequestFromJson),
  };
}

void ExpectRejectedNaming(const Status& status, const std::string& key,
                          const std::string& context) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << context << ": " << status.ToString();
  EXPECT_NE(status.message().find(StrCat("\"", key, "\"")), std::string::npos)
      << context << ": " << status.ToString();
}

TEST(SerdeHostileTest, MissingRequiredFieldIsRejectedNamingIt) {
  for (const RequestCase& request : AllRequests()) {
    ASSERT_TRUE(request.decode(request.doc).ok()) << request.name;
    std::vector<std::string> prefix;
    std::vector<std::vector<std::string>> paths;
    MemberPaths(request.doc, &prefix, &paths);
    for (const std::vector<std::string>& path : paths) {
      const std::string& key = path.back();
      // The two optional request members decode to their defaults instead
      // (DecodesAbsentOptionalFieldsToDefaults).
      if (path.size() == 1 && (key == "options" || key == "max_members")) {
        continue;
      }
      ExpectRejectedNaming(request.decode(Edit(request.doc, path, {})), key,
                           StrCat(request.name, " without ", key));
    }
  }
}

TEST(SerdeHostileTest, WrongTypedFieldIsRejectedNamingIt) {
  for (const RequestCase& request : AllRequests()) {
    std::vector<std::string> prefix;
    std::vector<std::vector<std::string>> paths;
    MemberPaths(request.doc, &prefix, &paths);
    for (const std::vector<std::string>& path : paths) {
      const std::string& key = path.back();
      const Json* member = &request.doc;
      for (const std::string& step : path) member = member->Find(step);
      // Strings become numbers; everything else becomes a string.
      Json wrong = member->is_string() ? Json::Int(7) : Json::Str("7");
      ExpectRejectedNaming(request.decode(Edit(request.doc, path, wrong)), key,
                           StrCat(request.name, " with a wrong-typed ", key));
    }
  }
  // Wrong-typed array elements name their array.
  const Json guidance = ToJson(SampleGuidanceRequest());
  Json bad_d = Json::Array();
  bad_d.Append(Json::Str("1"));
  ExpectRejectedNaming(
      GuidanceRequestFromJson(Edit(guidance, {"options", "d_values"}, bad_d))
          .status(),
      "d_values", "string d_values element");
  const Json append = ToJson(SampleAppendRowsRequest());
  Json flat_rows = Json::Array();
  flat_rows.Append(Json::Int(1));
  ExpectRejectedNaming(
      AppendRowsRequestFromJson(Edit(append, {"rows"}, flat_rows)).status(),
      "rows", "row that is not an array");
  Json object_cell = Json::Array();
  object_cell.Append(Json::Array()).Append(Json::Object());
  ExpectRejectedNaming(
      AppendRowsRequestFromJson(Edit(append, {"rows"}, object_cell)).status(),
      "rows", "object cell");
  EXPECT_EQ(QueryRequestFromJson(Json::Array()).status().code(),
            StatusCode::kInvalidArgument);
  Json unknown_mode = Edit(ToJson(SampleQueryRequest(
                               service::QueryMode::kExactOnly)),
                           {"options", "mode"}, Json::Str("sometimes"));
  EXPECT_EQ(QueryRequestFromJson(unknown_mode).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SerdeHostileTest, DecodesAbsentOptionalFieldsToDefaults) {
  Result<service::QueryRequest> query = QueryRequestFromJson(
      Edit(ToJson(SampleQueryRequest(service::QueryMode::kApproxOnly)),
           {"options"}, {}));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->options.mode, service::QueryOptions().mode);
  EXPECT_EQ(query->options.confidence, service::QueryOptions().confidence);

  Result<service::GuidanceRequest> guidance = GuidanceRequestFromJson(
      Edit(ToJson(SampleGuidanceRequest()), {"options"}, {}));
  ASSERT_TRUE(guidance.ok()) << guidance.status().ToString();
  const core::PrecomputeOptions defaults;
  EXPECT_EQ(guidance->top_l, 40);
  EXPECT_EQ(guidance->options.k_min, defaults.k_min);
  EXPECT_EQ(guidance->options.k_max, defaults.k_max);
  EXPECT_EQ(guidance->options.d_values, defaults.d_values);
  EXPECT_EQ(guidance->options.c, defaults.c);
  EXPECT_EQ(guidance->options.use_delta_judgment,
            defaults.use_delta_judgment);
  EXPECT_EQ(guidance->options.num_threads, defaults.num_threads);

  Result<service::ExploreRequest> explore = ExploreRequestFromJson(
      Edit(ToJson(SampleExploreRequest()), {"max_members"}, {}));
  ASSERT_TRUE(explore.ok()) << explore.status().ToString();
  EXPECT_EQ(explore->max_members, service::ExploreRequest().max_members);
}

TEST(SerdeHostileTest, IntegersOutsideIntRangeAreRejectedNamingTheField) {
  struct IntField {
    const char* name;
    Json doc;
    std::vector<std::string> path;
    std::function<Status(const Json&)> decode;
  };
  const RequestCase summarize =
      Case("summarize", SampleSummarizeRequest(), &SummarizeRequestFromJson);
  const RequestCase guidance =
      Case("guidance", SampleGuidanceRequest(), &GuidanceRequestFromJson);
  const RequestCase retrieve =
      Case("retrieve", SampleRetrieveRequest(), &RetrieveRequestFromJson);
  const RequestCase explore =
      Case("explore", SampleExploreRequest(), &ExploreRequestFromJson);
  const std::vector<IntField> fields = {
      {"k", summarize.doc, {"params", "k"}, summarize.decode},
      {"L", summarize.doc, {"params", "L"}, summarize.decode},
      {"D", explore.doc, {"params", "D"}, explore.decode},
      {"max_members", explore.doc, {"max_members"}, explore.decode},
      {"top_l", guidance.doc, {"top_l"}, guidance.decode},
      {"k_min", guidance.doc, {"options", "k_min"}, guidance.decode},
      {"k_max", guidance.doc, {"options", "k_max"}, guidance.decode},
      {"c", guidance.doc, {"options", "c"}, guidance.decode},
      {"top_l", retrieve.doc, {"top_l"}, retrieve.decode},
      {"d", retrieve.doc, {"d"}, retrieve.decode},
      {"k", retrieve.doc, {"k"}, retrieve.decode},
  };
  const int64_t int_max = std::numeric_limits<int>::max();
  const int64_t int_min = std::numeric_limits<int>::min();
  for (const IntField& field : fields) {
    const std::string context = StrCat(field.name, " in ", field.doc.Dump());
    // 2^32 + 4 used to be truncated to 4 and served as a different request.
    for (int64_t wide : {int64_t{4294967300}, int_max + 1, int_min - 1}) {
      ExpectRejectedNaming(
          field.decode(Edit(field.doc, field.path, Json::Int(wide))),
          field.name, StrCat(context, " = ", wide));
    }
    for (int64_t edge : {int_max, int_min}) {
      EXPECT_TRUE(
          field.decode(Edit(field.doc, field.path, Json::Int(edge))).ok())
          << context << " = " << edge;
    }
  }
  // A d_values element is an int too.
  Json wide_d = Json::Array();
  wide_d.Append(Json::Int(1));
  wide_d.Append(Json::Int(4294967297));
  ExpectRejectedNaming(
      guidance.decode(Edit(guidance.doc, {"options", "d_values"}, wide_d)),
      "d_values", "d_values element 2^32 + 1");
}

}  // namespace
}  // namespace qagview::server
