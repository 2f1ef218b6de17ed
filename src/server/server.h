#ifndef QAGVIEW_SERVER_SERVER_H_
#define QAGVIEW_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
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
  /// Fixed worker pool draining the accepted-connection queue.
  int num_workers = 4;
  /// Admission bound: accepted connections waiting for a worker. When the
  /// queue is full the *acceptor* answers 503 + Retry-After immediately —
  /// overload sheds load at the door instead of growing an unbounded
  /// backlog whose tail latency lies to every client.
  int max_queue = 64;
  /// Seconds advertised in the 503 Retry-After header.
  int retry_after_seconds = 1;
  HttpLimits limits;
};

/// Monotonic counters of the transport layer (the service keeps its own
/// request-mix counters; these cover what the service never sees: admission,
/// rejection, and wire failures). Readable at any time; exact after
/// Shutdown() joined the workers.
struct ServerStats {
  int64_t accepted = 0;       // connections accept() handed us
  int64_t admitted = 0;       // ... that made it into the worker queue
  int64_t rejected_503 = 0;   // ... shed at the door (queue full)
  int64_t served_2xx = 0;
  int64_t client_errors_4xx = 0;
  int64_t server_errors_5xx = 0;  // includes 501/503 written by workers
  int64_t io_errors = 0;  // peers gone mid-request; no response written
};

/// \brief Dependency-free HTTP/1.1 front end over QueryService: a blocking
/// acceptor thread feeding a fixed worker pool through a bounded queue.
///
/// Endpoints (all bodies JSON, Content-Type: application/json):
///
///   POST /query /summarize /guidance /retrieve /explore /refine
///        /append_rows   — the request/response pairs of service/api.h,
///                         (de)serialized by server/serde.h
///   GET  /stats          — service::ServiceStats + the ServerStats above
///   GET  /healthz        — 200 "ok" (load-balancer probe)
///
/// Error mapping: a Status from the service becomes
/// `{"error":{"code":"...","message":"..."}}` with InvalidArgument /
/// ParseError / OutOfRange / FailedPrecondition → 400, NotFound → 404,
/// Unimplemented → 501, anything else → 500. Malformed HTTP is answered
/// with the status ReadHttpRequest suggests and NEVER crashes the server
/// (the malformed-request corpus in server_test drives this).
///
/// **Shutdown is a graceful drain**: Shutdown() closes the listening
/// socket (no new admissions), lets the workers finish every connection
/// already admitted, joins all threads, and only then returns — zero
/// admitted requests are dropped, which server_test asserts by counting
/// responses across a SIGTERM-shaped shutdown.
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

  /// Binds, listens, and launches the acceptor + workers. Fails
  /// (InvalidArgument) on a port outside [0, 65535] or a malformed bind
  /// address, and (IOError) if the address/port cannot be bound.
  Status Start();

  /// Graceful drain: stop accepting, finish every admitted connection,
  /// join all threads. Idempotent; also run by the destructor.
  void Shutdown();

  /// The bound port (the kernel's pick when options.port == 0). Valid
  /// after Start() succeeds.
  int port() const { return port_; }

  ServerStats stats() const;

 private:
  void AcceptLoop();
  void WorkerLoop();
  /// Serves one connection end to end: read, dispatch, write, close.
  void ServeConnection(int fd);
  HttpResponse Dispatch(const HttpRequest& request);

  service::QueryService* const service_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;  // accepted fds awaiting a worker

  std::thread acceptor_;
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
