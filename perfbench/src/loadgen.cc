#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Connects (blocking), then switches the socket to non-blocking.
int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() to the benchmark server failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  /// Request ids in send order (open loop: schedule index; closed loop:
  /// pool index).
  std::deque<size_t> inflight;
  ResponseReader reader;

  bool open() const { return fd >= 0; }
  bool want_write() const { return out_off < out.size(); }
  void Close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  /// Writes what the socket takes now. False on a write error.
  bool Flush() {
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        return false;
      }
    }
    out.clear();
    out_off = 0;
    return true;
  }
  /// Reads everything available and hands each complete response to
  /// `on_response`. False once the peer closed or framing broke.
  template <typename F>
  bool Read(F&& on_response) {
    char buf[1 << 16];
    bool alive = true;
    while (true) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        if (!reader.Feed(buf, static_cast<size_t>(n))) return false;
        if (static_cast<size_t>(n) < sizeof(buf)) break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        alive = false;
        break;
      }
    }
    ResponseReader::Response r;
    while (!inflight.empty() && reader.Next(&r)) {
      const size_t index = inflight.front();
      inflight.pop_front();
      on_response(index, r);
    }
    return alive && !reader.error();
  }
};

/// Waits for socket readiness, at most `wait_s` seconds.
void Poll(std::vector<Conn>* conns, double wait_s,
          const std::function<void(Conn*, short)>& ready) {
  std::vector<pollfd> fds;
  std::vector<Conn*> owners;
  for (Conn& c : *conns) {
    if (!c.open()) continue;
    pollfd p;
    p.fd = c.fd;
    p.events = static_cast<short>(POLLIN | (c.want_write() ? POLLOUT : 0));
    p.revents = 0;
    fds.push_back(p);
    owners.push_back(&c);
  }
  wait_s = std::max(0.0, std::min(wait_s, 0.1));
  timespec ts;
  ts.tv_sec = static_cast<time_t>(wait_s);
  ts.tv_nsec = static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) *
                                 1e9);
  const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (n <= 0) return;
  for (size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents != 0) ready(owners[i], fds[i].revents);
  }
}

std::vector<Conn> OpenConnections(int port, int count) {
  std::vector<Conn> conns(static_cast<size_t>(std::max(1, count)));
  for (Conn& c : conns) c.fd = Connect(port);
  return conns;
}

}  // namespace

bool ResponseReader::Feed(const char* data, size_t n) {
  if (error_) return false;
  if (pos_ > (1u << 16) && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
  return true;
}

bool ResponseReader::Next(Response* out) {
  if (error_) return false;
  const size_t head_end = buf_.find("\r\n\r\n", pos_);
  if (head_end == std::string::npos) return false;
  static const char kPrefix[] = "HTTP/1.1 ";
  if (buf_.compare(pos_, sizeof(kPrefix) - 1, kPrefix) != 0 ||
      head_end < pos_ + sizeof(kPrefix) + 2) {
    error_ = true;
    return false;
  }
  const int status = std::atoi(buf_.c_str() + pos_ + sizeof(kPrefix) - 1);
  size_t content_length = 0;
  static const char kHeader[] = "\r\ncontent-length:";
  const size_t header_len = sizeof(kHeader) - 1;
  for (size_t i = pos_; i + header_len <= head_end; ++i) {
    bool match = true;
    for (size_t k = 0; k < header_len && match; ++k) {
      match = std::tolower(static_cast<unsigned char>(buf_[i + k])) ==
              kHeader[k];
    }
    if (match) {
      content_length = static_cast<size_t>(
          std::strtoull(buf_.c_str() + i + header_len, nullptr, 10));
      break;
    }
  }
  const size_t body_begin = head_end + 4;
  if (buf_.size() < body_begin + content_length) return false;
  out->status = status;
  out->body.assign(buf_, body_begin, content_length);
  pos_ = body_begin + content_length;
  return true;
}

OpenLoopResult RunOpenLoop(int port,
                           const std::vector<ScheduledRequest>& schedule,
                           const OpenLoopOptions& options,
                           const ResponseCheck& check) {
  OpenLoopResult result;
  result.outcomes.resize(schedule.size());
  std::vector<Conn> conns = OpenConnections(port, options.connections);
  const double deadline =
      (schedule.empty() ? 0.0 : schedule.back().due_s) +
      options.drain_timeout_s;
  const Clock::time_point t0 = Clock::now();

  auto on_response = [&](size_t index, const ResponseReader::Response& r) {
    RequestOutcome& o = result.outcomes[index];
    o.status = r.status;
    o.latency_ms = (SecondsSince(t0) - schedule[index].due_s) * 1e3;
    o.check_ok = check(index, r.status, r.body);
  };
  auto ready = [&](Conn* c, short revents) {
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        !c->Read(on_response)) {
      c->Close();  // requests still in flight on it stay unanswered
      return;
    }
    if ((revents & POLLOUT) != 0 && !c->Flush()) c->Close();
  };

  size_t next = 0;
  while (true) {
    const double now = SecondsSince(t0);
    while (next < schedule.size() && schedule[next].due_s <= now) {
      Conn& c = conns[next % conns.size()];
      result.outcomes[next].late_ms = (now - schedule[next].due_s) * 1e3;
      if (c.open()) {
        c.out += schedule[next].wire;
        c.inflight.push_back(next);
      }
      ++next;
    }
    bool inflight = false;
    for (Conn& c : conns) {
      if (c.open() && c.want_write() && !c.Flush()) c.Close();
      inflight = inflight || (c.open() && !c.inflight.empty());
    }
    if (next == schedule.size() && (!inflight || now >= deadline)) break;
    const double wait = next < schedule.size()
                            ? schedule[next].due_s - now
                            : deadline - now;
    Poll(&conns, wait, ready);
  }
  result.wall_s = SecondsSince(t0);
  for (Conn& c : conns) c.Close();
  for (const RequestOutcome& o : result.outcomes) {
    if (o.status == 0) ++result.unanswered;
  }
  return result;
}

ClosedLoopResult RunClosedLoop(int port, const std::vector<std::string>& pool,
                               const ClosedLoopOptions& options,
                               const ResponseCheck& check) {
  ClosedLoopResult result;
  result.seconds = options.seconds;
  if (pool.empty()) return result;
  std::vector<Conn> conns = OpenConnections(port, options.connections);
  const Clock::time_point t0 = Clock::now();
  size_t next = 0;
  auto send = [&](Conn* c) {
    const size_t index = next++ % pool.size();
    c->out += pool[index];
    c->inflight.push_back(index);
    ++result.sent;
  };
  for (Conn& c : conns) {
    for (int d = 0; d < options.depth; ++d) send(&c);
  }

  bool sending = true;
  int64_t answered = 0;
  Conn* current = nullptr;
  auto on_response = [&](size_t index, const ResponseReader::Response& r) {
    ++answered;
    const double now = SecondsSince(t0);
    const bool in_window = now <= options.seconds;
    const bool correct = check(index, r.status, r.body);
    if (!correct || (r.status != 200 && r.status != 503)) {
      ++result.failed;
    } else if (r.status == 503) {
      ++result.refused;
    } else if (in_window) {
      ++result.ok;
      result.ok_times_s.push_back(now);
    }
    if (sending && in_window) send(current);
  };
  auto ready = [&](Conn* c, short revents) {
    current = c;
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
        !c->Read(on_response)) {
      c->Close();
      return;
    }
    if ((revents & POLLOUT) != 0 && !c->Flush()) c->Close();
  };

  const double deadline = options.seconds + options.drain_timeout_s;
  while (true) {
    const double now = SecondsSince(t0);
    if (now >= options.seconds) sending = false;
    bool inflight = false;
    for (Conn& c : conns) {
      if (c.open() && c.want_write() && !c.Flush()) c.Close();
      inflight = inflight || (c.open() && !c.inflight.empty());
    }
    if (!inflight || now >= deadline) break;
    Poll(&conns, sending ? options.seconds - now : deadline - now, ready);
  }
  for (Conn& c : conns) c.Close();
  result.failed += result.sent - answered;
  return result;
}

}  // namespace perfbench
