#ifndef QAGVIEW_PERFBENCH_HTTP_CLIENT_H_
#define QAGVIEW_PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace perfbench {

/// \brief One analyst's HTTP/1.1 connection to the server, used the way a
/// browser uses one: the connection stays open for the next request unless
/// the response says `Connection: close` (or carries no Content-Length),
/// in which case the next request connects afresh.
///
/// A response is complete once Content-Length body bytes arrived, so the
/// client never waits for the server's close. connects() over the number
/// of requests is the benchmark's server.connections_per_request.
class HttpClient {
 public:
  HttpClient(std::string host, int port);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  struct Response {
    int status = 0;
    std::string body;
    /// The server asked to close (or the body ran to EOF).
    bool close = false;
  };

  /// Sends one request and reads its response. A request that finds a
  /// kept-alive connection already closed by the server, before any
  /// response byte, is sent once more on a fresh connection.
  qagview::Result<Response> Send(std::string_view method,
                                 std::string_view target,
                                 std::string_view body);

  int64_t connects() const { return connects_; }
  int64_t requests() const { return requests_; }

 private:
  qagview::Status Connect();
  void Close();
  /// Sends on the open connection and reads the response. `*no_reply` is
  /// set when the peer was gone before the first response byte.
  qagview::Status Exchange(const std::string& request, Response* response,
                           bool* no_reply);

  const std::string host_;
  const int port_;
  int fd_ = -1;
  int64_t connects_ = 0;
  int64_t requests_ = 0;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // QAGVIEW_PERFBENCH_HTTP_CLIENT_H_
