#include "check.h"

#include <cstdlib>

#include "common/json.h"
#include "common/string_util.h"
#include "server/serde.h"

namespace perfbench {

using qagview::Result;
using qagview::Status;
using qagview::json::Json;
namespace service = qagview::service;
namespace server = qagview::server;

namespace {

/// Parses `body`, decodes it with `from_json`, calls the service, and
/// serializes the response exactly as the server's dispatcher does.
template <typename Request, typename Response>
Result<std::string> Serve(std::string_view body,
                          Result<Request> (*from_json)(const Json&),
                          Result<Response> (*call)(service::QueryService*,
                                                   const Request&),
                          service::QueryService* service) {
  QAG_ASSIGN_OR_RETURN(Json doc, Json::Parse(body));
  QAG_ASSIGN_OR_RETURN(Request request, from_json(doc));
  QAG_ASSIGN_OR_RETURN(Response response, call(service, request));
  return server::ToJson(response).Dump();
}

double NumberAfter(std::string_view body, std::string_view key) {
  const size_t at = body.rfind(key);
  if (at == std::string_view::npos) return -1.0;
  return std::strtod(std::string(body.substr(at + key.size(), 32)).c_str(),
                     nullptr);
}

}  // namespace

std::string_view WithoutStats(std::string_view body) {
  const size_t at = body.rfind(",\"stats\":");
  return at == std::string_view::npos ? body : body.substr(0, at);
}

uint64_t Fingerprint(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

double ServiceLatencyMs(std::string_view body) {
  return NumberAfter(body, "\"stats\":{\"latency_ms\":");
}

int64_t AppendedVersion(std::string_view body) {
  const double version = NumberAfter(body, "{\"version\":");
  return version < 0 ? -1 : static_cast<int64_t>(version);
}

Result<std::string> CallInProcess(service::QueryService* service,
                                  std::string_view target,
                                  std::string_view body) {
  if (target == "/query") {
    return Serve<service::QueryRequest, service::QueryResponse>(
        body, &server::QueryRequestFromJson,
        +[](service::QueryService* s, const service::QueryRequest& r) {
          return s->Query(r);
        },
        service);
  }
  if (target == "/summarize") {
    return Serve<service::SummarizeRequest, service::SummarizeResponse>(
        body, &server::SummarizeRequestFromJson,
        +[](service::QueryService* s, const service::SummarizeRequest& r) {
          return s->Summarize(r);
        },
        service);
  }
  if (target == "/guidance") {
    return Serve<service::GuidanceRequest, service::GuidanceResponse>(
        body, &server::GuidanceRequestFromJson,
        +[](service::QueryService* s, const service::GuidanceRequest& r) {
          return s->Guidance(r);
        },
        service);
  }
  if (target == "/retrieve") {
    return Serve<service::RetrieveRequest, service::RetrieveResponse>(
        body, &server::RetrieveRequestFromJson,
        +[](service::QueryService* s, const service::RetrieveRequest& r) {
          return s->Retrieve(r);
        },
        service);
  }
  if (target == "/explore") {
    return Serve<service::ExploreRequest, service::ExploreResponse>(
        body, &server::ExploreRequestFromJson,
        +[](service::QueryService* s, const service::ExploreRequest& r) {
          return s->Explore(r);
        },
        service);
  }
  if (target == "/append_rows") {
    return Serve<service::AppendRowsRequest, service::AppendRowsResponse>(
        body, &server::AppendRowsRequestFromJson,
        +[](service::QueryService* s, const service::AppendRowsRequest& r) {
          return s->AppendRows(r);
        },
        service);
  }
  return Status::InvalidArgument(
      qagview::StrCat("no in-process endpoint for ", target));
}

}  // namespace perfbench
