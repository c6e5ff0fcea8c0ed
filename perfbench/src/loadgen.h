// Single-threaded HTTP/1.1 load generator for the serving workloads.
//
// One thread drives at most a handful of non-blocking keep-alive
// connections through ppoll. Requests are pipelined: a connection carries
// many in-flight requests and the server answers them in order, so
// response k on a connection belongs to the k-th request sent on it.
//
// Open loop: every request has a scheduled send time and is sent then
// (or as soon after as the generator can), whether or not earlier
// responses have arrived. Latency runs from the scheduled time, so a
// server stall also charges the requests queued behind it, and the
// generator's own lateness is recorded per request.
//
// Closed loop: each connection keeps a fixed number of requests in flight
// and sends the next one as each response arrives.
//
// End of run: no read ever blocks. A run ends when every sent request is
// answered, or when the drain deadline passes; requests still unanswered
// then (or stranded on a connection the server closed) are failed.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// One request of an open-loop schedule.
struct ScheduledRequest {
  double due_s = 0.0;  ///< send time, seconds from the start of the run
  std::string wire;    ///< the full request bytes
};

/// Checks one response body for request `index`; true = correct.
using ResponseCheck =
    std::function<bool(size_t index, int status, const std::string& body)>;

/// Incremental parser for the responses of one connection: status code
/// and Content-Length body. Anything it cannot frame is a protocol error.
class ResponseReader {
 public:
  struct Response {
    int status = 0;
    std::string body;
  };
  /// Appends bytes; returns false on a framing error.
  bool Feed(const char* data, size_t n);
  /// Pops the next complete response, if any.
  bool Next(Response* out);
  bool error() const { return error_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
  bool error_ = false;
};

struct OpenLoopOptions {
  int connections = 4;
  /// After the last scheduled send, wait at most this long for answers.
  double drain_timeout_s = 5.0;
};

struct OpenLoopResult {
  std::vector<RequestOutcome> outcomes;  ///< one per scheduled request
  int64_t unanswered = 0;  ///< failed: timed out or stranded
  double wall_s = 0.0;     ///< start to last answer (or drain deadline)
};

/// Sends `schedule` (sorted by due_s) to 127.0.0.1:`port` over
/// round-robin connections.
OpenLoopResult RunOpenLoop(int port,
                           const std::vector<ScheduledRequest>& schedule,
                           const OpenLoopOptions& options,
                           const ResponseCheck& check);

struct ClosedLoopOptions {
  int connections = 4;
  int depth = 8;  ///< requests in flight per connection
  double seconds = 1.0;
  double drain_timeout_s = 5.0;
};

struct ClosedLoopResult {
  int64_t sent = 0;
  int64_t ok = 0;       ///< 200 + check passed, answered within `seconds`
  std::vector<double> ok_times_s;  ///< arrival time of each of those
  int64_t refused = 0;  ///< 503
  int64_t failed = 0;   ///< other status, failed check, or no answer
  double seconds = 0.0;
};

/// Cycles through `pool` (request i uses pool[i % size]); the check sees
/// the pool index.
ClosedLoopResult RunClosedLoop(int port, const std::vector<std::string>& pool,
                               const ClosedLoopOptions& options,
                               const ResponseCheck& check);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
