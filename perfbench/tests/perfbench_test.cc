// Tests of the benchmark's own machinery: the percentile rule, goodput
// counting, generator lateness, and how the load generator ends a run
// against a stub server that answers, stalls, or hangs up.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "loadgen.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(99), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000), 99.99);
}

TEST(PercentileRule, NearestRankQuantileAndDescribe) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // any order
  EXPECT_EQ(Quantile(v, 0.5), 50.0);
  EXPECT_EQ(Quantile(v, 0.9), 90.0);
  EXPECT_EQ(Quantile(v, 1.0), 100.0);
  EXPECT_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  const Distribution d = Describe(v);
  EXPECT_EQ(d.count, 100);
  EXPECT_EQ(d.p50, 50.0);
  EXPECT_EQ(d.tail_pct, 90.0);
  EXPECT_EQ(d.tail, 90.0);  // exactly ten samples lie beyond it
}

TEST(Goodput, CountsOnlyCorrect200sWithinTheLimit) {
  auto outcome = [](int status, bool ok, double ms) {
    RequestOutcome o;
    o.status = status;
    o.check_ok = ok;
    o.latency_ms = ms;
    return o;
  };
  const std::vector<RequestOutcome> outcomes = {
      outcome(200, true, 10.0),   // good
      outcome(200, true, 50.0),   // good: at the limit
      outcome(200, true, 50.5),   // too slow
      outcome(200, false, 1.0),   // wrong body
      outcome(503, true, 1.0),    // refused
      outcome(500, false, 1.0),   // error
      outcome(0, false, 0.0),     // never answered
  };
  EXPECT_EQ(CountGood(outcomes, 50.0), 2);
  EXPECT_EQ(OkLatencies(outcomes).size(), 4u);
}

// ---- Stub server -----------------------------------------------------------

/// Answers pipelined requests in order with a fixed 200 body. It can
/// withhold answers from the `silent_from`-th request on, or close the
/// connection after `close_after` requests.
class StubServer {
 public:
  StubServer(int silent_from, int close_after)
      : silent_from_(silent_from), close_after_(close_after) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)), 0);
    EXPECT_EQ(::listen(listen_fd_, 16), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~StubServer() {
    stop_ = true;
    thread_.join();
    ::close(listen_fd_);
  }
  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;

  int port() const { return port_; }
  int requests_seen() const { return seen_; }

 private:
  void Serve() {
    struct Client {
      int fd;
      std::string in;
    };
    std::vector<Client> clients;
    while (!stop_) {
      std::vector<pollfd> fds = {{listen_fd_, POLLIN, 0}};
      for (const Client& c : clients) fds.push_back({c.fd, POLLIN, 0});
      if (::poll(fds.data(), fds.size(), 10) <= 0) continue;
      if (fds[0].revents & POLLIN) {
        clients.push_back({::accept(listen_fd_, nullptr, nullptr), ""});
      }
      for (size_t i = 1; i < fds.size(); ++i) {
        Client& c = clients[i - 1];
        if (c.fd < 0 || !(fds[i].revents & (POLLIN | POLLHUP))) continue;
        char buf[4096];
        const ssize_t n = ::read(c.fd, buf, sizeof(buf));
        if (n <= 0) {
          ::close(c.fd);
          c.fd = -1;
          continue;
        }
        c.in.append(buf, static_cast<size_t>(n));
        size_t end;
        while ((end = c.in.find("\r\n\r\n")) != std::string::npos) {
          const size_t cl = c.in.find("Content-Length: ");
          const size_t body =
              cl < end ? std::strtoul(c.in.c_str() + cl + 16, nullptr, 10)
                       : 0;
          if (c.in.size() < end + 4 + body) break;
          c.in.erase(0, end + 4 + body);
          const int index = seen_++;
          if (close_after_ >= 0 && index >= close_after_) {
            ::close(c.fd);
            c.fd = -1;
            break;
          }
          if (silent_from_ >= 0 && index >= silent_from_) continue;
          const std::string reply =
              "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
              "Content-Length: 2\r\n\r\n{}";
          EXPECT_EQ(::write(c.fd, reply.data(), reply.size()),
                    static_cast<ssize_t>(reply.size()));
        }
      }
    }
    for (const Client& c : clients) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }

  int silent_from_;
  int close_after_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<int> seen_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::vector<ScheduledRequest> Schedule(int count, double qps) {
  std::vector<ScheduledRequest> s;
  for (int i = 0; i < count; ++i) {
    s.push_back({i / qps,
                 "POST /v1/predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"});
  }
  return s;
}

bool AlwaysOk(size_t, int status, const std::string&) {
  return status == 200;
}

TEST(Generator, EndsAsSoonAsEveryRequestIsAnswered) {
  StubServer stub(/*silent_from=*/-1, /*close_after=*/-1);
  OpenLoopOptions options;
  options.connections = 3;
  options.drain_timeout_s = 10.0;
  const auto schedule = Schedule(200, 2000.0);
  const OpenLoopResult r =
      RunOpenLoop(stub.port(), schedule, options, AlwaysOk);
  EXPECT_EQ(r.unanswered, 0);
  for (const RequestOutcome& o : r.outcomes) {
    EXPECT_EQ(o.status, 200);
    EXPECT_TRUE(o.check_ok);
    EXPECT_GE(o.latency_ms, 0.0);
  }
  // No read blocks after the last answer: the run does not wait for the
  // drain deadline or an idle timeout.
  EXPECT_LT(r.wall_s, schedule.back().due_s + 2.0);
}

TEST(Generator, UnansweredRequestsFailAtTheDrainDeadline) {
  StubServer stub(/*silent_from=*/90, /*close_after=*/-1);
  OpenLoopOptions options;
  options.connections = 2;
  options.drain_timeout_s = 0.5;
  const auto schedule = Schedule(100, 1000.0);
  const OpenLoopResult r =
      RunOpenLoop(stub.port(), schedule, options, AlwaysOk);
  EXPECT_EQ(r.unanswered, 10);
  EXPECT_GE(r.wall_s, schedule.back().due_s + 0.5);
  EXPECT_LT(r.wall_s, schedule.back().due_s + 1.5);
}

TEST(Generator, RequestsStrandedOnAClosedConnectionFail) {
  StubServer stub(/*silent_from=*/-1, /*close_after=*/50);
  OpenLoopOptions options;
  options.connections = 1;
  options.drain_timeout_s = 5.0;
  const auto schedule = Schedule(100, 1000.0);
  const OpenLoopResult r =
      RunOpenLoop(stub.port(), schedule, options, AlwaysOk);
  int64_t answered = 0;
  for (const RequestOutcome& o : r.outcomes) answered += o.status == 200;
  EXPECT_EQ(answered, 50);
  EXPECT_EQ(r.unanswered, 50);
  EXPECT_LT(r.wall_s, schedule.back().due_s + 2.0);  // no drain wait
}

TEST(Generator, RecordsHowLateItRan) {
  StubServer stub(/*silent_from=*/-1, /*close_after=*/-1);
  OpenLoopOptions options;
  options.connections = 1;
  const auto schedule = Schedule(60, 1000.0);
  // The first response handler stalls the generator for 30 ms, so the
  // requests due in the meantime go out late.
  bool stalled = false;
  const OpenLoopResult r = RunOpenLoop(
      stub.port(), schedule, options,
      [&](size_t, int status, const std::string&) {
        if (!stalled) {
          stalled = true;
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
        }
        return status == 200;
      });
  EXPECT_EQ(r.unanswered, 0);
  double max_late = 0.0;
  for (const RequestOutcome& o : r.outcomes) {
    EXPECT_GE(o.late_ms, 0.0);
    max_late = std::max(max_late, o.late_ms);
  }
  EXPECT_GE(max_late, 20.0);
  // Lateness is charged to latency: it runs from the scheduled time.
  for (const RequestOutcome& o : r.outcomes) EXPECT_GE(o.latency_ms, o.late_ms);
}

TEST(Generator, ClosedLoopKeepsTheDepthAndDrains) {
  StubServer stub(/*silent_from=*/-1, /*close_after=*/-1);
  ClosedLoopOptions options;
  options.connections = 2;
  options.depth = 4;
  options.seconds = 0.3;
  const ClosedLoopResult r = RunClosedLoop(
      stub.port(), {"POST /v1/predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"},
      options, AlwaysOk);
  EXPECT_GT(r.ok, 8);
  EXPECT_EQ(r.failed, 0);
  EXPECT_EQ(r.refused, 0);
  EXPECT_EQ(stub.requests_seen(), r.sent);
}

TEST(Generator, ClosedLoopCountsUnansweredAsFailed) {
  StubServer stub(/*silent_from=*/5, /*close_after=*/-1);
  ClosedLoopOptions options;
  options.connections = 1;
  options.depth = 2;
  options.seconds = 0.2;
  options.drain_timeout_s = 0.3;
  const ClosedLoopResult r = RunClosedLoop(
      stub.port(), {"POST /v1/predict HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"},
      options, AlwaysOk);
  EXPECT_EQ(r.ok, 5);
  EXPECT_EQ(r.failed, r.sent - 5);
}

TEST(ResponseReader, FramesPipelinedResponsesAndRejectsGarbage) {
  ResponseReader reader;
  const std::string two =
      "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"
      "HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
  ASSERT_TRUE(reader.Feed(two.data(), 10));
  ResponseReader::Response r;
  EXPECT_FALSE(reader.Next(&r));
  ASSERT_TRUE(reader.Feed(two.data() + 10, two.size() - 10));
  ASSERT_TRUE(reader.Next(&r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "abc");
  ASSERT_TRUE(reader.Next(&r));
  EXPECT_EQ(r.status, 503);
  EXPECT_EQ(r.body, "");
  EXPECT_FALSE(reader.Next(&r));

  ResponseReader bad;
  ASSERT_TRUE(bad.Feed("garbage\r\n\r\n", 11));
  EXPECT_FALSE(bad.Next(&r));
  EXPECT_TRUE(bad.error());
}

}  // namespace
}  // namespace perfbench
