#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/string_util.h"

namespace perfbench {

using qagview::Result;
using qagview::Status;
using qagview::StrCat;

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

HttpClient::HttpClient(std::string host, int port)
    : host_(std::move(host)), port_(port) {}

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

Status HttpClient::Connect() {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IOError(StrCat("socket: ", std::strerror(errno)));
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Longer than any op: a stuck server fails the op instead of the run.
  timeval tv{};
  tv.tv_sec = 60;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument(StrCat("bad host ", host_));
  }
  int rc;
  do {
    rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    Status status = Status::IOError(StrCat("connect: ", std::strerror(errno)));
    Close();
    return status;
  }
  ++connects_;
  return Status::OK();
}

Result<HttpClient::Response> HttpClient::Send(std::string_view method,
                                              std::string_view target,
                                              std::string_view body) {
  std::string request = StrCat(method, " ", target, " HTTP/1.1\r\nHost: ",
                               host_, ":", port_, "\r\n");
  if (method != "GET") {
    request += StrCat("Content-Type: application/json\r\nContent-Length: ",
                      body.size(), "\r\n");
  }
  request += "\r\n";
  request.append(body);
  ++requests_;

  const bool reused = fd_ >= 0;
  if (!reused) {
    Status status = Connect();
    if (!status.ok()) return status;
  }
  Response response;
  bool no_reply = false;
  Status status = Exchange(request, &response, &no_reply);
  if (!status.ok() && no_reply && reused) {
    // The server closed the kept-alive connection between requests.
    status = Connect();
    if (status.ok()) status = Exchange(request, &response, &no_reply);
  }
  if (!status.ok()) {
    Close();
    return status;
  }
  if (response.close) Close();
  return response;
}

Status HttpClient::Exchange(const std::string& request, Response* response,
                            bool* no_reply) {
  *no_reply = true;
  if (!WriteAll(fd_, request)) {
    return Status::IOError(StrCat("send: ", std::strerror(errno)));
  }
  char chunk[64 * 1024];
  // Reads more bytes into buffer_; 0 at EOF, -1 on error.
  auto fill = [&]() -> ssize_t {
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n > 0) buffer_.append(chunk, static_cast<size_t>(n));
      return n;
    }
  };

  size_t header_end;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = fill();
    if (n <= 0) {
      return Status::IOError(n == 0 ? "connection closed before response"
                                    : StrCat("recv: ", std::strerror(errno)));
    }
    *no_reply = false;
  }
  *no_reply = false;

  const std::string_view head(buffer_.data(), header_end);
  const size_t line_end = head.find("\r\n");
  const std::string_view status_line = head.substr(0, line_end);
  const size_t space = status_line.find(' ');
  if (status_line.rfind("HTTP/1.", 0) != 0 || space == std::string::npos) {
    return Status::IOError(StrCat("bad status line: ", status_line));
  }
  response->status =
      std::atoi(std::string(status_line.substr(space + 1, 3)).c_str());

  int64_t content_length = -1;
  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t end = head.find("\r\n", pos);
    if (end == std::string_view::npos) end = head.size();
    const std::string_view line = head.substr(pos, end - pos);
    const size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      const std::string_view name = Trim(line.substr(0, colon));
      const std::string_view value = Trim(line.substr(colon + 1));
      if (EqualsIgnoreCase(name, "Content-Length")) {
        content_length = std::atoll(std::string(value).c_str());
      } else if (EqualsIgnoreCase(name, "Connection") &&
                 EqualsIgnoreCase(value, "close")) {
        response->close = true;
      } else if (EqualsIgnoreCase(name, "Transfer-Encoding")) {
        return Status::Unimplemented("chunked responses are not supported");
      }
    }
    pos = end + 2;
  }

  const size_t body_start = header_end + 4;
  if (content_length < 0) {
    // No length: the body runs to EOF, and the connection cannot be reused.
    response->close = true;
    ssize_t n;
    while ((n = fill()) > 0) {
    }
    if (n < 0) return Status::IOError(StrCat("recv: ", std::strerror(errno)));
    response->body = buffer_.substr(body_start);
    buffer_.clear();
    return Status::OK();
  }
  const size_t total = body_start + static_cast<size_t>(content_length);
  while (buffer_.size() < total) {
    const ssize_t n = fill();
    if (n <= 0) return Status::IOError("connection closed mid-body");
  }
  response->body = buffer_.substr(body_start, total - body_start);
  buffer_.erase(0, total);
  return Status::OK();
}

}  // namespace perfbench
