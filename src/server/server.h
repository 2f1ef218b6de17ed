#ifndef QAGVIEW_SERVER_SERVER_H_
#define QAGVIEW_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "server/http.h"
#include "service/query_service.h"

namespace qagview::server {

/// Knobs of the HTTP front end, fixed at Start().
struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks a free port, read it back via port().
  /// Start() rejects anything outside [0, 65535].
  int port = 0;
  /// Fixed worker pool; a worker serves one request at a time.
  int num_workers = 4;
  /// Admission bound: requests waiting for a worker. A connection that
  /// turns readable while the queue is full is answered 503 + Retry-After
  /// and closed at once — overload sheds load at the door instead of
  /// growing an unbounded backlog whose tail latency lies to every client.
  /// Start() rejects values below 1.
  int max_queue = 64;
  /// Wire limits; `limits.io_timeout_ms` is also how long a kept-alive
  /// connection may sit idle before the server closes it.
  HttpLimits limits;
};

/// Monotonic counters of the transport layer (the service keeps its own
/// request-mix counters; these cover what the service never sees: admission,
/// rejection, and wire failures). `accepted` counts connections; every other
/// counter counts requests, so a kept-alive connection adds to `admitted`
/// once per request. Each admitted request lands in exactly one response
/// class, so `admitted == served_2xx + client_errors_4xx + server_errors_5xx
/// + io_errors` once the workers are idle. Readable at any time; exact after
/// Shutdown() joined the workers.
struct ServerStats {
  int64_t accepted = 0;       // connections accept() handed us
  int64_t admitted = 0;       // requests that made it into the worker queue
  int64_t rejected_503 = 0;   // requests shed at the door (queue full)
  int64_t served_2xx = 0;
  int64_t client_errors_4xx = 0;
  int64_t server_errors_5xx = 0;  // includes 501s written by workers
  int64_t io_errors = 0;  // peers gone mid-request; no response written
};

/// \brief Dependency-free HTTP/1.1 front end over QueryService: one poller
/// thread feeding a fixed worker pool through a bounded request queue.
///
/// Connections persist (HTTP/1.1 keep-alive, pipelining answered in order)
/// and admission is per request. One epoll set holds the listening socket
/// and every idle connection, each armed for one event (`EPOLLONESHOT`).
/// When a connection turns readable the poller queues it as one request,
/// or answers 503 + Retry-After and closes it when the queue is full. A
/// worker serves exactly one request, then hands the connection back:
/// re-queued when its buffer already holds the next request's bytes, else
/// re-armed in the epoll set. So idle kept-alive clients hold no worker,
/// and the door check sees every request. A peer that closes between
/// requests is closed without being counted; a connection idle for
/// `limits.io_timeout_ms` is closed. A response carries `Connection: close`
/// only when the request asked for it or was HTTP/1.0, when the request
/// could not be read (the stream is then unparsable), on a 503, on
/// `/healthz`, or during the drain.
///
/// Endpoints (all bodies JSON, Content-Type: application/json):
///
///   POST /query /summarize /guidance /retrieve /explore /refine
///        /append_rows   — the request/response pairs of service/api.h,
///                         (de)serialized by server/serde.h
///   GET  /stats          — service::ServiceStats + the ServerStats above
///   GET  /healthz        — 200 "ok" (load-balancer probe); the connection
///                          closes after it, so each probe connects anew
///                          and also checks that new clients are accepted
///
/// Error mapping: a Status from the service becomes
/// `{"error":{"code":"...","message":"..."}}` with InvalidArgument /
/// ParseError / OutOfRange / FailedPrecondition → 400, NotFound → 404,
/// Unimplemented → 501, anything else → 500. Malformed HTTP is answered
/// with the status ReadHttpRequest suggests and NEVER crashes the server
/// (the malformed-request corpus in server_test drives this).
///
/// **Shutdown is a graceful drain**: Shutdown() stops the poller (no new
/// connections or requests), closes every idle connection without a reply,
/// lets the workers finish every request already admitted, joins all
/// threads, and only then returns — zero admitted requests are dropped,
/// which server_test asserts by counting responses across a SIGTERM-shaped
/// shutdown.
///
/// The server owns no service state: it borrows a QueryService and speaks
/// JSON over sockets. Transport stays out of the core library (DESIGN
/// layering rules) — nothing under src/core or src/service includes this.
class HttpServer {
 public:
  HttpServer(service::QueryService* service, ServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and launches the poller + workers. Fails
  /// (InvalidArgument) on a port outside [0, 65535], a `max_queue` below 1
  /// or a malformed bind address, and (IOError) if the address/port cannot
  /// be bound.
  Status Start();

  /// Graceful drain: stop accepting, close idle connections, finish every
  /// admitted request, join all threads. Idempotent; also run by the
  /// destructor.
  void Shutdown();

  /// The bound port (the kernel's pick when options.port == 0). Valid
  /// after Start() succeeds.
  int port() const { return port_; }

  ServerStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One client connection. One thread owns it at a time: the poller while
  /// it is idle in the epoll set, then the queue, then the worker serving
  /// its request.
  struct Connection {
    int fd = -1;
    /// Bytes received but not yet parsed (see ReadHttpRequest).
    std::string buffer;
    // Armed in the epoll set, waiting for its next request, and since
    // when. Guarded by mu_: the idle sweep reads them from the poller.
    bool idle = false;
    Clock::time_point idle_since;
  };

  void PollLoop();
  void AcceptPending();
  /// Turns accepting on or off; off leaves the backlog to the next tick.
  void SetListening(bool on);
  void OnReadable(Connection* conn);
  /// Queues `conn` for one request, with `received` appended to its
  /// buffer; sheds it with 503 when the queue is full.
  void Admit(Connection* conn, std::string_view received);
  void WorkerLoop();
  /// Reads, dispatches and answers one request, then releases or closes.
  void ServeRequest(Connection* conn);
  /// Hands `conn` back after a kept-alive response.
  void Release(Connection* conn);
  /// Arms `conn` for one readable event in the epoll set: `op` is
  /// EPOLL_CTL_ADD for a new connection, EPOLL_CTL_MOD to re-arm.
  bool Arm(Connection* conn, int op);
  void Close(Connection* conn);
  /// Closes, without a reply, every idle connection idle since `cutoff`
  /// or earlier.
  void CloseIdle(Clock::time_point cutoff);
  void CloseFds();
  HttpResponse Dispatch(const HttpRequest& request);

  service::QueryService* const service_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd in the epoll set: Shutdown() wakes the poller
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::mutex mu_;  // guards queue_, connections_ and Connection::idle*
  std::condition_variable queue_cv_;
  std::deque<Connection*> queue_;  // admitted requests awaiting a worker
  // Every open connection, by fd. Nodes never move, so a Connection* stays
  // valid until its entry is erased, which happens just before its close.
  std::unordered_map<int, Connection> connections_;

  std::thread poller_;
  std::vector<std::thread> workers_;

  // Transport counters; relaxed is fine, they are independent monotonics.
  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> admitted_{0};
  std::atomic<int64_t> rejected_503_{0};
  std::atomic<int64_t> served_2xx_{0};
  std::atomic<int64_t> client_errors_4xx_{0};
  std::atomic<int64_t> server_errors_5xx_{0};
  std::atomic<int64_t> io_errors_{0};
};

}  // namespace qagview::server

#endif  // QAGVIEW_SERVER_SERVER_H_
