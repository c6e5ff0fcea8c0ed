// Copyright 2026 The GraphRARE Authors.
//
// Minimal blocking HTTP/1.1 client for the loopback server suites
// (http_server_test, chaos_test): one TCP connection, requests written in
// full, responses read back one per call. Leftover bytes stay buffered, so
// pipelined responses read back in order. Send and reads retry EINTR.

#ifndef GRAPHRARE_TESTS_HTTP_TEST_CLIENT_H_
#define GRAPHRARE_TESTS_HTTP_TEST_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace graphrare {

struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased names
  std::string body;
};

class TestClient {
 public:
  /// Connects to 127.0.0.1:`port`; reads give up after
  /// `recv_timeout_s` seconds without data.
  TestClient(int port, int recv_timeout_s) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    struct timeval tv = {recv_timeout_s, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  /// Closes with a TCP reset (SO_LINGER 0), so the server sees the
  /// connection fail rather than a half-close it would still answer.
  void Abort() {
    struct linger lg = {1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd_);
    fd_ = -1;
  }

  /// Half-closes the sending side (FIN); the server can still respond.
  void HalfClose() { ::shutdown(fd_, SHUT_WR); }

  /// True once the server closes the connection (read returns 0).
  bool WaitClosed() {
    char tmp[256];
    while (true) {
      const ssize_t n = ::read(fd_, tmp, sizeof(tmp));
      if (n == 0) return true;
      if (n < 0) return false;  // timeout — still open
    }
  }

  /// Writes all of `bytes`; gives up quietly if the server has closed the
  /// connection (MSG_NOSIGNAL: a failed write is not a SIGPIPE that kills
  /// the test binary), so the missing response fails the read instead.
  void Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;
      }
      off += static_cast<size_t>(n);
    }
  }

  void Request(const std::string& method, const std::string& target,
               const std::string& body = "") {
    RequestWithHeaders(method, target, {}, body);
  }

  void RequestWithHeaders(
      const std::string& method, const std::string& target,
      const std::vector<std::pair<std::string, std::string>>& headers,
      const std::string& body = "") {
    std::string wire = method + " " + target + " HTTP/1.1\r\n";
    for (const auto& h : headers) {
      wire += h.first + ": " + h.second + "\r\n";
    }
    if (!body.empty() || method == "POST") {
      wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    }
    wire += "\r\n" + body;
    Send(wire);
  }

  /// Reads one complete response off the connection.
  bool ReadResponse(ClientResponse* out) {
    while (buf_.find("\r\n\r\n") == std::string::npos) {
      if (!Fill()) return false;
    }
    const size_t head_end = buf_.find("\r\n\r\n");
    const std::string head = buf_.substr(0, head_end);
    buf_.erase(0, head_end + 4);

    out->headers.clear();
    size_t line_start = 0;
    size_t line_end = head.find("\r\n");
    const std::string status_line = head.substr(0, line_end);
    if (std::sscanf(status_line.c_str(), "HTTP/1.1 %d", &out->status) != 1) {
      return false;
    }
    while (line_end != std::string::npos) {
      line_start = line_end + 2;
      line_end = head.find("\r\n", line_start);
      std::string line = head.substr(
          line_start, line_end == std::string::npos ? std::string::npos
                                                    : line_end - line_start);
      const size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      std::string value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.erase(0, 1);
      out->headers[name] = value;
    }
    size_t content_length = 0;
    const auto it = out->headers.find("content-length");
    if (it != out->headers.end()) {
      content_length = static_cast<size_t>(std::stoul(it->second));
    }
    while (buf_.size() < content_length) {
      if (!Fill()) return false;
    }
    out->body = buf_.substr(0, content_length);
    buf_.erase(0, content_length);
    return true;
  }

 private:
  bool Fill() {
    char tmp[4096];
    while (true) {
      const ssize_t n = ::read(fd_, tmp, sizeof(tmp));
      if (n > 0) {
        buf_.append(tmp, static_cast<size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

  int fd_ = -1;
  std::string buf_;
};

}  // namespace graphrare

#endif  // GRAPHRARE_TESTS_HTTP_TEST_CLIENT_H_
