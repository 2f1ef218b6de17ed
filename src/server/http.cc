#include "server/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>

#include "common/string_util.h"

namespace qagview::server {

namespace {

/// Receives up to `len` bytes, retrying on EINTR. Returns -2 on timeout,
/// -1 on other errors, 0 on orderly EOF.
ssize_t RecvSome(int fd, char* buf, size_t len) {
  while (true) {
    ssize_t n = ::recv(fd, buf, len, 0);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -2;
    return -1;
  }
}

bool ParseStatusInt(std::string_view text, int* out) {
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                   *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

/// Splits "Name: value" header lines out of the header block (which
/// excludes the request/status line). Returns false on a malformed line.
bool ParseHeaderLines(std::string_view block,
                      std::vector<std::pair<std::string, std::string>>* out) {
  size_t pos = 0;
  while (pos < block.size()) {
    size_t eol = block.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = block.size();
    std::string_view line = block.substr(pos, eol - pos);
    pos = (eol == block.size()) ? eol : eol + 2;
    if (line.empty()) continue;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    std::string_view name = StripWhitespace(line.substr(0, colon));
    std::string_view value = StripWhitespace(line.substr(colon + 1));
    if (name.empty()) return false;
    out->emplace_back(std::string(name), std::string(value));
  }
  return true;
}

const std::string* FindIn(
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

/// Connects to host:port with the configured timeouts; -1 on failure.
int ConnectTo(const std::string& host, int port, const HttpLimits& limits) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  SetSocketTimeouts(fd, limits.io_timeout_ms);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Reads until EOF (or the cap); used by the raw client exchange.
Result<std::string> ReadToEof(int fd, size_t cap) {
  std::string out;
  char buf[4096];
  while (out.size() < cap) {
    ssize_t n = RecvSome(fd, buf, sizeof(buf));
    if (n == 0) return out;
    if (n == -2) return Status::IOError("client read timed out");
    if (n < 0) {
      // A peer that already sent its full response may reset on close
      // (ECONNRESET after we saw bytes): treat what arrived as the answer.
      if (!out.empty()) return out;
      return Status::IOError(StrCat("recv: ", std::strerror(errno)));
    }
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  return FindIn(headers, name);
}

const std::string* HttpClientResponse::FindHeader(
    std::string_view name) const {
  return FindIn(headers, name);
}

void SetSocketTimeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool HttpRequest::KeepAlive() const {
  if (version != "HTTP/1.1") return false;
  const std::string* connection = FindHeader("Connection");
  if (connection == nullptr) return true;
  // A comma-separated token list, e.g. "keep-alive, close".
  for (const std::string& token : Split(*connection, ',')) {
    if (EqualsIgnoreCase(StripWhitespace(token), "close")) return false;
  }
  return true;
}

Result<HttpRequest> ReadHttpRequest(int fd, const HttpLimits& limits,
                                    std::string* buffer, int* error_status) {
  *error_status = 400;
  std::string& buf = *buffer;
  char chunk[4096];
  // Phase 1: read until the end of the header block ("\r\n\r\n").
  size_t header_end = std::string::npos;
  size_t scanned = 0;  // bytes already known not to start the terminator
  while (true) {
    // Re-scan from just before the previously scanned tail so a terminator
    // split across reads is still found.
    size_t from = scanned < 3 ? 0 : scanned - 3;
    header_end = buf.find("\r\n\r\n", from);
    if (header_end != std::string::npos) {
      // The limit applies to the header block itself, not just to how much
      // arrived per read — a complete oversized block is still oversized.
      if (header_end + 4 > static_cast<size_t>(limits.max_header_bytes)) {
        *error_status = 431;
        return Status::InvalidArgument("request headers exceed limit");
      }
      break;
    }
    scanned = buf.size();
    if (buf.size() > static_cast<size_t>(limits.max_header_bytes)) {
      *error_status = 431;
      return Status::InvalidArgument("request headers exceed limit");
    }
    ssize_t n = RecvSome(fd, chunk, sizeof(chunk));
    if (n == 0) {
      if (buf.empty()) {
        *error_status = 0;  // clean EOF before any bytes: peer gone
        return Status::IOError("connection closed before request");
      }
      return Status::InvalidArgument("connection closed mid-headers");
    }
    if (n == -2) {
      *error_status = buf.empty() ? 0 : 408;
      return Status::IOError("timed out reading request headers");
    }
    if (n < 0) {
      *error_status = 0;
      return Status::IOError(StrCat("recv: ", std::strerror(errno)));
    }
    buf.append(chunk, static_cast<size_t>(n));
  }

  // Request line: METHOD SP TARGET SP VERSION.
  size_t line_end = buf.find("\r\n");
  std::string_view line(buf.data(), line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 = (sp1 == std::string_view::npos)
                   ? std::string_view::npos
                   : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp1 == 0 || sp2 == sp1 + 1 || sp2 + 1 >= line.size()) {
    return Status::InvalidArgument("malformed request line");
  }
  HttpRequest request;
  request.method = std::string(line.substr(0, sp1));
  request.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  request.version = std::string(line.substr(sp2 + 1));
  if (request.version != "HTTP/1.1" && request.version != "HTTP/1.0") {
    return Status::InvalidArgument("unsupported HTTP version");
  }
  for (char c : request.method) {
    if (c < 'A' || c > 'Z') {
      return Status::InvalidArgument("malformed method");
    }
  }

  // A request with no headers has line_end == header_end; guard the
  // subtraction (an unsigned underflow here would build a wild view).
  std::string_view header_block;
  if (header_end > line_end) {
    header_block = std::string_view(buf.data() + line_end + 2,
                                    header_end - line_end - 2);
  }
  if (!ParseHeaderLines(header_block, &request.headers)) {
    return Status::InvalidArgument("malformed header line");
  }

  if (request.FindHeader("Transfer-Encoding") != nullptr) {
    *error_status = 501;
    return Status::Unimplemented("Transfer-Encoding is not supported");
  }

  // Phase 2: the body, exactly Content-Length bytes; bytes past it belong
  // to the next request and stay in the buffer.
  const size_t body_start = header_end + 4;
  const std::string* content_length = request.FindHeader("Content-Length");
  size_t body_len = 0;
  if (content_length != nullptr) {
    int parsed = 0;
    if (!ParseStatusInt(*content_length, &parsed) || parsed < 0) {
      return Status::InvalidArgument("malformed Content-Length");
    }
    if (parsed > limits.max_body_bytes) {
      *error_status = 413;
      return Status::InvalidArgument("request body exceeds limit");
    }
    body_len = static_cast<size_t>(parsed);
  } else if (request.method == "POST" || request.method == "PUT") {
    *error_status = 411;
    return Status::InvalidArgument("Content-Length required");
  }
  const size_t request_end = body_start + body_len;
  while (buf.size() < request_end) {
    ssize_t n = RecvSome(fd, chunk,
                         std::min(sizeof(chunk), request_end - buf.size()));
    if (n == 0) {
      return Status::InvalidArgument("connection closed mid-body");
    }
    if (n == -2) {
      *error_status = 408;
      return Status::IOError("timed out reading request body");
    }
    if (n < 0) {
      *error_status = 0;
      return Status::IOError(StrCat("recv: ", std::strerror(errno)));
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
  request.body.assign(buf, body_start, body_len);
  buf.erase(0, request_end);
  *error_status = 200;
  return request;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response, bool close) {
  std::string out = StrCat("HTTP/1.1 ", response.status, " ",
                           ReasonPhrase(response.status), "\r\n");
  for (const auto& [name, value] : response.headers) {
    out += StrCat(name, ": ", value, "\r\n");
  }
  out += StrCat("Content-Length: ", response.body.size(), "\r\n");
  if (close) out += "Connection: close\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

bool WriteFull(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // peer gone or send timeout
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

Result<std::string> HttpExchangeRaw(const std::string& host, int port,
                                    const std::string& raw_request,
                                    const HttpLimits& limits) {
  int fd = ConnectTo(host, port, limits);
  if (fd < 0) {
    return Status::IOError(
        StrCat("connect ", host, ":", port, ": ", std::strerror(errno)));
  }
  if (!WriteFull(fd, raw_request)) {
    ::close(fd);
    return Status::IOError("send failed");
  }
  // Half-close: tells servers reading to EOF that the request is done.
  ::shutdown(fd, SHUT_WR);
  Result<std::string> response = ReadToEof(
      fd, static_cast<size_t>(limits.max_header_bytes) +
              static_cast<size_t>(limits.max_body_bytes) + 4096);
  ::close(fd);
  return response;
}

Result<HttpClientResponse> HttpFetch(const std::string& host, int port,
                                     const std::string& method,
                                     const std::string& target,
                                     const std::string& body,
                                     const HttpLimits& limits) {
  std::string raw = StrCat(method, " ", target, " HTTP/1.1\r\n",
                           "Host: ", host, "\r\nConnection: close\r\n");
  if (!body.empty() || method == "POST" || method == "PUT") {
    raw += "Content-Type: application/json\r\n";
    raw += StrCat("Content-Length: ", body.size(), "\r\n");
  }
  raw += "\r\n";
  raw += body;
  QAG_ASSIGN_OR_RETURN(std::string bytes,
                       HttpExchangeRaw(host, port, raw, limits));

  size_t header_end = bytes.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::ParseError("response missing header terminator");
  }
  size_t line_end = bytes.find("\r\n");
  std::string_view line(bytes.data(), line_end);
  // Status line: HTTP/1.1 SP CODE SP REASON.
  size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) {
    return Status::ParseError("malformed status line");
  }
  size_t sp2 = line.find(' ', sp1 + 1);
  std::string_view code = line.substr(
      sp1 + 1, sp2 == std::string_view::npos ? std::string_view::npos
                                             : sp2 - sp1 - 1);
  HttpClientResponse response;
  if (!ParseStatusInt(code, &response.status)) {
    return Status::ParseError("malformed status code");
  }
  std::string_view header_block(bytes.data() + line_end + 2,
                                header_end - line_end - 2);
  if (!ParseHeaderLines(header_block, &response.headers)) {
    return Status::ParseError("malformed response header");
  }
  response.body = bytes.substr(header_end + 4);
  const std::string* content_length = response.FindHeader("Content-Length");
  if (content_length != nullptr) {
    int expected = 0;
    if (ParseStatusInt(*content_length, &expected) &&
        response.body.size() != static_cast<size_t>(expected)) {
      return Status::ParseError("response body truncated");
    }
  }
  return response;
}

}  // namespace qagview::server
