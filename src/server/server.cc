#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/json.h"
#include "common/string_util.h"
#include "server/serde.h"

namespace qagview::server {

using json::Json;

namespace {

int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kUnimplemented:
      return 501;
    default:
      return 500;
  }
}

HttpResponse JsonResponse(int status, Json body) {
  HttpResponse out;
  out.status = status;
  out.headers.emplace_back("Content-Type", "application/json");
  out.body = body.Dump();
  return out;
}

HttpResponse ErrorResponse(int status, std::string_view code,
                           std::string_view message) {
  Json error = Json::Object();
  error.Set("code", Json::Str(std::string(code)));
  error.Set("message", Json::Str(std::string(message)));
  Json body = Json::Object();
  body.Set("error", std::move(error));
  return JsonResponse(status, std::move(body));
}

HttpResponse ErrorResponse(const Status& status) {
  return ErrorResponse(HttpStatusFor(status.code()),
                       StatusCodeToString(status.code()), status.message());
}

/// Parses the request body, applies FromJson, calls the service, and
/// serializes the response — the one shape every POST endpoint shares.
template <typename Request, typename Response>
HttpResponse HandleJson(const HttpRequest& request,
                        Result<Request> (*from_json)(const Json&),
                        Result<Response> (service::QueryService::*call)(
                            const Request&),
                        service::QueryService* service) {
  Result<Json> doc = Json::Parse(request.body);
  if (!doc.ok()) return ErrorResponse(doc.status());
  Result<Request> parsed = from_json(*doc);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  Result<Response> response = (service->*call)(*parsed);
  if (!response.ok()) return ErrorResponse(response.status());
  return JsonResponse(200, ToJson(*response));
}

}  // namespace

HttpServer::HttpServer(service::QueryService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrCat("socket: ", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(
        StrCat("bad bind address \"", options_.bind_address, "\""));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Status::IOError(StrCat("bind: ", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  // The listen backlog sits in front of our own admission queue; keep it
  // modest so overload reaches the 503 path quickly instead of pooling in
  // the kernel.
  if (::listen(listen_fd_, 64) != 0) {
    Status status = Status::IOError(StrCat("listen: ", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    Status status =
        Status::IOError(StrCat("getsockname: ", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(bound.sin_port);

  // A timed accept() (SO_RCVTIMEO applies to accept) lets the acceptor
  // notice `stopping_` without the close-the-fd-under-accept race.
  SetSocketTimeouts(listen_fd_, /*timeout_ms=*/100);

  started_ = true;
  stopping_.store(false, std::memory_order_relaxed);
  int num_workers = options_.num_workers > 0 ? options_.num_workers : 1;
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Shutdown() {
  if (!started_) return;
  started_ = false;

  // 1. Stop admissions. The acceptor polls `stopping_` on its accept
  //    timeout; shutdown() is a best-effort immediate wake. The fd is only
  //    closed after the join so the acceptor never races a reused fd.
  stopping_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Drain: workers keep serving until the queue is empty, then exit on
  //    the stop signal. Every admitted connection gets its response.
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

ServerStats HttpServer::stats() const {
  ServerStats out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.rejected_503 = rejected_503_.load(std::memory_order_relaxed);
  out.served_2xx = served_2xx_.load(std::memory_order_relaxed);
  out.client_errors_4xx = client_errors_4xx_.load(std::memory_order_relaxed);
  out.server_errors_5xx = server_errors_5xx_.load(std::memory_order_relaxed);
  out.io_errors = io_errors_.load(std::memory_order_relaxed);
  return out;
}

void HttpServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;  // accept timeout tick: re-check stopping_ and wait again
      }
      // Hard error on the listening socket: no more admissions.
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    SetSocketTimeouts(fd, options_.limits.io_timeout_ms);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (static_cast<int>(queue_.size()) < options_.max_queue &&
          !stopping_.load(std::memory_order_acquire)) {
        queue_.push_back(fd);
        admitted = true;
      }
    }
    if (admitted) {
      admitted_.fetch_add(1, std::memory_order_relaxed);
      queue_cv_.notify_one();
      continue;
    }

    // Shed at the door: the acceptor itself writes the canned 503 so a
    // saturated worker pool cannot delay the rejection.
    rejected_503_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse response = ErrorResponse(
        503, "Unavailable", "server overloaded: admission queue full");
    response.headers.emplace_back("Retry-After",
                                  StrCat(options_.retry_after_seconds));
    WriteFull(fd, SerializeResponse(response));
    ::close(fd);
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) return;  // stopping and drained
      fd = queue_.front();
      queue_.pop_front();
    }
    ServeConnection(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  int error_status = 0;
  Result<HttpRequest> request =
      ReadHttpRequest(fd, options_.limits, &error_status);
  if (!request.ok()) {
    if (error_status == 0) {
      // Peer vanished before saying anything; nothing to answer.
      io_errors_.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (error_status >= 500) {
        server_errors_5xx_.fetch_add(1, std::memory_order_relaxed);
      } else {
        client_errors_4xx_.fetch_add(1, std::memory_order_relaxed);
      }
      WriteFull(fd, SerializeResponse(ErrorResponse(
                        error_status, "BadRequest",
                        request.status().message())));
    }
    ::close(fd);
    return;
  }

  // Exactly one counter per admitted connection (a peer that resets while
  // we write still counts in its response class, not as an io_error), so
  // `admitted == served_2xx + 4xx + 5xx + io_errors` holds — the zero-drop
  // invariant the graceful-drain test asserts.
  HttpResponse response = Dispatch(*request);
  if (response.status >= 500) {
    server_errors_5xx_.fetch_add(1, std::memory_order_relaxed);
  } else if (response.status >= 400) {
    client_errors_4xx_.fetch_add(1, std::memory_order_relaxed);
  } else {
    served_2xx_.fetch_add(1, std::memory_order_relaxed);
  }
  WriteFull(fd, SerializeResponse(response));
  ::close(fd);
}

HttpResponse HttpServer::Dispatch(const HttpRequest& request) {
  const std::string& target = request.target;
  const bool is_post = request.method == "POST";
  const bool is_get = request.method == "GET";

  if (target == "/healthz") {
    if (!is_get) return ErrorResponse(405, "MethodNotAllowed", "use GET");
    HttpResponse out;
    out.headers.emplace_back("Content-Type", "text/plain");
    out.body = "ok\n";
    return out;
  }
  if (target == "/stats") {
    if (!is_get) return ErrorResponse(405, "MethodNotAllowed", "use GET");
    Json body = Json::Object();
    body.Set("service", ToJson(service_->stats()));
    ServerStats transport = stats();
    Json server = Json::Object();
    server.Set("accepted", Json::Int(transport.accepted));
    server.Set("admitted", Json::Int(transport.admitted));
    server.Set("rejected_503", Json::Int(transport.rejected_503));
    server.Set("served_2xx", Json::Int(transport.served_2xx));
    server.Set("client_errors_4xx", Json::Int(transport.client_errors_4xx));
    server.Set("server_errors_5xx", Json::Int(transport.server_errors_5xx));
    server.Set("io_errors", Json::Int(transport.io_errors));
    body.Set("server", std::move(server));
    return JsonResponse(200, std::move(body));
  }

  // Everything below is POST-with-JSON-body.
  static const char* kPostEndpoints[] = {"/query",   "/summarize",
                                         "/guidance", "/retrieve",
                                         "/explore",  "/refine",
                                         "/append_rows"};
  bool known_post = false;
  for (const char* endpoint : kPostEndpoints) {
    if (target == endpoint) known_post = true;
  }
  if (!known_post) {
    return ErrorResponse(404, "NotFound",
                         StrCat("no such endpoint: ", target));
  }
  if (!is_post) return ErrorResponse(405, "MethodNotAllowed", "use POST");

  using service::QueryService;
  if (target == "/query") {
    return HandleJson(request, &QueryRequestFromJson, &QueryService::Query,
                      service_);
  }
  if (target == "/summarize") {
    return HandleJson(request, &SummarizeRequestFromJson,
                      &QueryService::Summarize, service_);
  }
  if (target == "/guidance") {
    return HandleJson(request, &GuidanceRequestFromJson,
                      &QueryService::Guidance, service_);
  }
  if (target == "/retrieve") {
    return HandleJson(request, &RetrieveRequestFromJson,
                      &QueryService::Retrieve, service_);
  }
  if (target == "/explore") {
    return HandleJson(request, &ExploreRequestFromJson, &QueryService::Explore,
                      service_);
  }
  if (target == "/refine") {
    return HandleJson(request, &RefineRequestFromJson, &QueryService::Refine,
                      service_);
  }
  // target == "/append_rows"
  return HandleJson(request, &AppendRowsRequestFromJson,
                    &QueryService::AppendRows, service_);
}

}  // namespace qagview::server
