#ifndef QAGVIEW_SERVER_HTTP_H_
#define QAGVIEW_SERVER_HTTP_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace qagview::server {

/// Wire limits of the dependency-free HTTP/1.1 transport. Every limit
/// exists to keep a hostile or broken peer from holding a worker hostage:
/// oversized headers/bodies are rejected with the matching 4xx, and a peer
/// that stops sending trips the socket timeout instead of hanging a
/// worker forever.
struct HttpLimits {
  int max_header_bytes = 16 * 1024;
  int max_body_bytes = 1 << 20;
  /// SO_RCVTIMEO / SO_SNDTIMEO on the connection, per syscall. The server
  /// also closes a kept-alive connection that sat idle this long.
  int io_timeout_ms = 5000;
};

/// One parsed request. The server speaks a minimal interoperable subset of
/// HTTP/1.1: persistent connections with pipelining (requests are answered
/// in order), Content-Length bodies only, no chunked transfer encoding.
struct HttpRequest {
  std::string method;   // "GET", "POST" — uppercase as received
  std::string target;   // "/query" — as received, no normalization
  std::string version;  // "HTTP/1.1" or "HTTP/1.0"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header with the given name (case-insensitive), or nullptr.
  const std::string* FindHeader(std::string_view name) const;

  /// Whether the client lets the connection carry another request after
  /// this one: HTTP/1.1 without a `close` token in its Connection header.
  /// HTTP/1.0 requests always close.
  bool KeepAlive() const;
};

struct HttpResponse {
  int status = 200;
  /// Extra headers; Content-Length, Connection, and the reason phrase are
  /// filled by SerializeResponse.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
};

/// Reads one request from a connected socket, enforcing `limits`.
/// `*buffer` holds the connection's bytes received but not yet parsed: the
/// request starts at its first byte, and on success it keeps whatever
/// arrived past the request's end — the start of a pipelined next
/// request. On failure, `*error_status` suggests the HTTP status to answer
/// with — 400 malformed, 408 timeout, 411 missing Content-Length, 413 body
/// too large, 431 headers too large, 501 Transfer-Encoding — or 0 when the
/// peer is gone (EOF before the first byte, reset) and no response should
/// be written; either way the stream cannot be parsed further and the
/// connection must close. Never crashes on hostile bytes; the
/// malformed-request corpus in server_test drives byte soups through this
/// path.
Result<HttpRequest> ReadHttpRequest(int fd, const HttpLimits& limits,
                                    std::string* buffer, int* error_status);

/// Serializes a response with Content-Length and the standard reason
/// phrase, plus `Connection: close` when `close` is set (HTTP/1.1
/// connections persist otherwise).
std::string SerializeResponse(const HttpResponse& response, bool close);

/// The reason phrase for a status code ("OK", "Service Unavailable", ...).
const char* ReasonPhrase(int status);

/// Writes all of `data` to `fd`, retrying on EINTR and honoring the socket
/// send timeout. Returns false if the peer went away or the timeout hit.
bool WriteFull(int fd, std::string_view data);

/// Sets SO_RCVTIMEO and SO_SNDTIMEO on a socket.
void SetSocketTimeouts(int fd, int timeout_ms);

/// One full client exchange against a loopback server: connect, send
/// `raw_request` verbatim, read until the peer closes, return the raw
/// response bytes. The test-side primitive for both well-formed requests
/// and the malformed corpus (which must be sent byte-for-byte, unfixed).
Result<std::string> HttpExchangeRaw(const std::string& host, int port,
                                    const std::string& raw_request,
                                    const HttpLimits& limits = HttpLimits());

/// A parsed client-side response.
struct HttpClientResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  const std::string* FindHeader(std::string_view name) const;
};

/// Convenience one-shot client: issues `method target` with `body` (POST
/// bodies get a Content-Length) and `Connection: close`, so the exchange
/// ends when the server closes after its response, and parses the status
/// line, headers, and body.
Result<HttpClientResponse> HttpFetch(const std::string& host, int port,
                                     const std::string& method,
                                     const std::string& target,
                                     const std::string& body,
                                     const HttpLimits& limits = HttpLimits());

}  // namespace qagview::server

#endif  // QAGVIEW_SERVER_HTTP_H_
