#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"
#include "server/serde.h"

namespace qagview::server {

using json::Json;

namespace {

/// How often the poller retries an accept a transient error put off, and
/// sweeps connections idle past `limits.io_timeout_ms`.
constexpr std::chrono::milliseconds kTick(100);

/// Seconds a shed request's 503 asks its client to wait (Retry-After).
constexpr char kRetryAfterSeconds[] = "1";

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

/// Parses the request body, applies `from_json`, calls the service, and
/// serializes the response — the one shape every POST endpoint shares.
template <auto from_json, auto call>
HttpResponse HandleJson(const HttpRequest& request,
                        service::QueryService* service) {
  Result<Json> doc = Json::Parse(request.body);
  if (!doc.ok()) return ErrorResponse(doc.status());
  auto parsed = from_json(*doc);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  auto response = (service->*call)(*parsed);
  if (!response.ok()) return ErrorResponse(response.status());
  return JsonResponse(200, ToJson(*response));
}

/// The POST-with-JSON-body endpoints: each target once, with its handler.
struct PostRoute {
  const char* target;
  HttpResponse (*handle)(const HttpRequest&, service::QueryService*);
};

using service::QueryService;
constexpr PostRoute kPostRoutes[] = {
    {"/query", &HandleJson<&QueryRequestFromJson, &QueryService::Query>},
    {"/summarize",
     &HandleJson<&SummarizeRequestFromJson, &QueryService::Summarize>},
    {"/guidance",
     &HandleJson<&GuidanceRequestFromJson, &QueryService::Guidance>},
    {"/retrieve",
     &HandleJson<&RetrieveRequestFromJson, &QueryService::Retrieve>},
    {"/explore", &HandleJson<&ExploreRequestFromJson, &QueryService::Explore>},
    {"/refine", &HandleJson<&RefineRequestFromJson, &QueryService::Refine>},
    {"/append_rows",
     &HandleJson<&AppendRowsRequestFromJson, &QueryService::AppendRows>},
};

}  // namespace

HttpServer::HttpServer(service::QueryService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument(
        StrCat("port ", options_.port, " outside [0, 65535]"));
  }
  if (options_.max_queue < 1) {
    return Status::InvalidArgument(
        StrCat("max_queue ", options_.max_queue, " below 1"));
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument(
        StrCat("bad bind address \"", options_.bind_address, "\""));
  }
  // The poller drains the backlog until accept() would block.
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrCat("socket: ", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Status::IOError(StrCat("bind: ", std::strerror(errno)));
    CloseFds();
    return status;
  }
  // The listen backlog sits in front of our own admission queue; keep it
  // modest so overload reaches the 503 path quickly instead of pooling in
  // the kernel.
  if (::listen(listen_fd_, 64) != 0) {
    Status status = Status::IOError(StrCat("listen: ", std::strerror(errno)));
    CloseFds();
    return status;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    Status status =
        Status::IOError(StrCat("getsockname: ", std::strerror(errno)));
    CloseFds();
    return status;
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event listen_event{};
  listen_event.events = EPOLLIN;
  listen_event.data.ptr = &listen_fd_;
  epoll_event wake_event{};
  wake_event.events = EPOLLIN;
  wake_event.data.ptr = &wake_fd_;
  if (epoll_fd_ < 0 || wake_fd_ < 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &listen_event) != 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake_event) != 0) {
    Status status = Status::IOError(StrCat("epoll: ", std::strerror(errno)));
    CloseFds();
    return status;
  }
  port_ = ntohs(bound.sin_port);

  started_ = true;
  stopping_.store(false, std::memory_order_relaxed);
  int num_workers = options_.num_workers > 0 ? options_.num_workers : 1;
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  poller_ = std::thread([this] { PollLoop(); });
  return Status::OK();
}

void HttpServer::Shutdown() {
  if (!started_) return;
  started_ = false;

  // 1. Stop admissions. Set under the lock, so every admission and
  //    hand-back decided under it sees either the old or the new state.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true, std::memory_order_release);
  }
  // An eventfd write fails only on counter overflow, and the poller's tick
  // notices stopping_ regardless.
  const uint64_t wake = 1;
  [[maybe_unused]] const ssize_t woke = ::write(wake_fd_, &wake, sizeof(wake));
  // The poller closes every idle connection on its way out. Closing the
  // listening socket right after refuses the backlog instead of leaving it
  // waiting for the drain.
  if (poller_.joinable()) poller_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 2. Drain: workers keep serving until the queue is empty, then exit on
  //    the stop signal. Every admitted request gets its response, and each
  //    connection closes after it.
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  CloseFds();
}

void HttpServer::CloseFds() {
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
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

void HttpServer::PollLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  Clock::time_point next_tick = Clock::now() + kTick;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents,
                               static_cast<int>(kTick.count()));
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == &listen_fd_) {
        AcceptPending();
      } else if (tag != &wake_fd_) {  // a wake only ends the loop
        OnReadable(static_cast<Connection*>(tag));
      }
    }
    const Clock::time_point now = Clock::now();
    if (now >= next_tick) {
      next_tick = now + kTick;
      SetListening(true);
      // A timeout of 0 or less means none, as for SO_RCVTIMEO.
      if (options_.limits.io_timeout_ms > 0) {
        CloseIdle(now -
                  std::chrono::milliseconds(options_.limits.io_timeout_ms));
      }
    }
  }
  CloseIdle(Clock::time_point::max());
}

void HttpServer::AcceptPending() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        // EMFILE, ENFILE, ENOBUFS, ENOMEM, ECONNABORTED, or a network error
        // accept(2) says to retry: the listening socket stays readable, so
        // leave the backlog until the next tick instead of spinning on it.
        // Kept-alive connections hold fds, so fd pressure is normal.
        SetListening(false);
      }
      return;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    SetSocketTimeouts(fd, options_.limits.io_timeout_ms);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection* conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conn = &connections_[fd];
      conn->fd = fd;
      conn->idle = true;
      conn->idle_since = Clock::now();
    }
    if (!Arm(conn, EPOLL_CTL_ADD)) Close(conn);
  }
}

void HttpServer::SetListening(bool on) {
  epoll_event event{};
  if (on) event.events = EPOLLIN;
  event.data.ptr = &listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &event);
}

void HttpServer::OnReadable(Connection* conn) {
  char chunk[4096];
  const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
  if (n > 0) {
    Admit(conn, std::string_view(chunk, static_cast<size_t>(n)));
  } else if (n < 0 &&
             (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    if (!Arm(conn, EPOLL_CTL_MOD)) Close(conn);  // woken with nothing to read
  } else {
    Close(conn);  // the peer closed or reset between requests: no request
  }
}

void HttpServer::Admit(Connection* conn, std::string_view received) {
  bool stopping = false;
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn->idle = false;
    conn->buffer.append(received);
    stopping = stopping_.load(std::memory_order_relaxed);
    if (!stopping && static_cast<int>(queue_.size()) < options_.max_queue) {
      queue_.push_back(conn);
      admitted = true;
    }
  }
  if (admitted) {
    admitted_.fetch_add(1, std::memory_order_relaxed);
    queue_cv_.notify_one();
    return;
  }
  if (!stopping) {
    // Shed at the door. One non-blocking send: the poller must not wait on
    // a peer that stopped reading, and the connection closes right after.
    rejected_503_.fetch_add(1, std::memory_order_relaxed);
    HttpResponse response = ErrorResponse(
        503, "Unavailable", "server overloaded: admission queue full");
    response.headers.emplace_back("Retry-After", kRetryAfterSeconds);
    const std::string bytes = SerializeResponse(response, /*close=*/true);
    ::send(conn->fd, bytes.data(), bytes.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
  }
  // During shutdown the request is refused without a reply, as the drain
  // refuses new connections, so rejected_503 counts only a full queue.
  Close(conn);
}

void HttpServer::WorkerLoop() {
  for (;;) {
    Connection* conn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) return;  // stopping and drained
      conn = queue_.front();
      queue_.pop_front();
    }
    ServeRequest(conn);
  }
}

void HttpServer::ServeRequest(Connection* conn) {
  int error_status = 0;
  Result<HttpRequest> request = ReadHttpRequest(
      conn->fd, options_.limits, &conn->buffer, &error_status);
  if (!request.ok()) {
    if (error_status == 0) {
      // Peer vanished mid-request; nothing to answer.
      io_errors_.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (error_status >= 500) {
        server_errors_5xx_.fetch_add(1, std::memory_order_relaxed);
      } else {
        client_errors_4xx_.fetch_add(1, std::memory_order_relaxed);
      }
      WriteFull(conn->fd,
                SerializeResponse(ErrorResponse(error_status, "BadRequest",
                                                request.status().message()),
                                  /*close=*/true));
    }
    Close(conn);
    return;
  }

  // Exactly one counter per admitted request (a peer that resets while we
  // write still counts in its response class, not as an io_error), so
  // `admitted == served_2xx + 4xx + 5xx + io_errors` holds — the zero-drop
  // invariant the graceful-drain tests assert.
  HttpResponse response = Dispatch(*request);
  if (response.status >= 500) {
    server_errors_5xx_.fetch_add(1, std::memory_order_relaxed);
  } else if (response.status >= 400) {
    client_errors_4xx_.fetch_add(1, std::memory_order_relaxed);
  } else {
    served_2xx_.fetch_add(1, std::memory_order_relaxed);
  }
  // A health probe gets a new connection each time, so it also checks the
  // path a new client takes: a probe on a kept-alive connection would go on
  // reading "ok" while the poller accepts no one.
  const bool close = !request->KeepAlive() || request->target == "/healthz" ||
                     stopping_.load(std::memory_order_acquire);
  if (WriteFull(conn->fd, SerializeResponse(response, close)) && !close) {
    Release(conn);
  } else {
    Close(conn);
  }
}

void HttpServer::Release(Connection* conn) {
  // Pipelined bytes already buffered: the next request goes through the
  // door like any other.
  if (!conn->buffer.empty()) {
    Admit(conn, {});
    return;
  }
  // An idle connection holds no request memory: a 1 MiB body must not stay
  // allocated for as long as its client keeps the connection open.
  conn->buffer.shrink_to_fit();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Armed and marked idle under the lock: the drain, which closes idle
    // connections, must see this one either armed and idle or not at all,
    // and the poller, woken for it at once, waits here to admit it.
    if (!stopping_.load(std::memory_order_relaxed) &&
        Arm(conn, EPOLL_CTL_MOD)) {
      conn->idle = true;
      conn->idle_since = Clock::now();
      return;
    }
  }
  Close(conn);
}

bool HttpServer::Arm(Connection* conn, int op) {
  epoll_event event{};
  event.events = EPOLLIN | EPOLLONESHOT;
  event.data.ptr = conn;
  return ::epoll_ctl(epoll_fd_, op, conn->fd, &event) == 0;
}

void HttpServer::Close(Connection* conn) {
  const int fd = conn->fd;
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections_.erase(fd);
  }
  ::close(fd);
}

void HttpServer::CloseIdle(Clock::time_point cutoff) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->second.idle && it->second.idle_since <= cutoff) {
        fds.push_back(it->first);
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (int fd : fds) {
    // Leave the epoll set explicitly: the connection is armed, and its
    // entry would outlive close() if a fork left the fd open elsewhere.
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
  }
}

HttpResponse HttpServer::Dispatch(const HttpRequest& request) {
  const std::string& target = request.target;
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
    body.Set("server", ToJson(stats()));
    return JsonResponse(200, std::move(body));
  }

  for (const PostRoute& route : kPostRoutes) {
    if (target != route.target) continue;
    if (request.method != "POST") {
      return ErrorResponse(405, "MethodNotAllowed", "use POST");
    }
    return route.handle(request, service_);
  }
  return ErrorResponse(404, "NotFound", StrCat("no such endpoint: ", target));
}

}  // namespace qagview::server
