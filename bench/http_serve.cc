// HTTP serving-tier bench: end-to-end request latency and sustained
// throughput of the epoll front-end + continuous batcher over loopback,
// under a Zipfian query trace with open-loop (exponential) arrivals —
// clients send on a fixed schedule whether or not earlier responses have
// come back, so queueing delay shows up in the percentiles instead of
// being absorbed by a closed loop.
//
// Two scheduler shapes at each offered load:
//   batch1      max_batch=1, no fill wait — a plain request-per-engine-call
//               server (the baseline)
//   continuous  max_batch=16, 2ms fill wait — arrivals join the next free
//               slot and ride one PredictBatchWithSeeds call
//
// The headline figure is goodput-at-SLO: the highest offered load whose
// p99 stays under the SLO, per shape, and their ratio. Continuous batching
// wins by running the in-flight requests through one OpenMP-parallel
// engine call, so the speedup tracks the core count — on a single-core
// runner the two shapes are expected to tie (the batch is drained serially
// there), which the JSON records honestly via the threads field.
//
// Writes BENCH_http_serve.json for the cross-PR perf trajectory.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench/bench_util.h"
#include "common/failpoint.h"
#include "common/stats.h"
#include "net/server.h"

using namespace graphrare;

namespace {

int MaxThreads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

// ---- Minimal pipelined loopback client ------------------------------------

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  GR_CHECK(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)) == 0)
      << "connect to bench server failed";
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    GR_CHECK(n > 0) << "bench client write failed";
    off += static_cast<size_t>(n);
  }
}

/// Counts complete HTTP responses (header block + Content-Length body) in
/// a byte stream fed incrementally. The server answers pipelined requests
/// in order, so response k on a connection is request k's answer.
class ResponseCounter {
 public:
  /// Returns how many complete responses this chunk finished.
  int Feed(const char* data, size_t n) {
    buf_.append(data, n);
    int completed = 0;
    while (true) {
      const size_t head_end = buf_.find("\r\n\r\n");
      if (head_end == std::string::npos) return completed;
      const size_t content_length = ParseContentLength(buf_, head_end);
      const size_t total = head_end + 4 + content_length;
      if (buf_.size() < total) return completed;
      ok_ = ok_ && buf_.compare(0, 12, "HTTP/1.1 200") == 0;
      buf_.erase(0, total);
      ++completed;
    }
  }
  bool all_ok() const { return ok_; }

 private:
  static size_t ParseContentLength(const std::string& head, size_t limit) {
    const size_t pos = head.find("Content-Length: ");
    if (pos == std::string::npos || pos > limit) return 0;
    return static_cast<size_t>(
        std::strtoul(head.c_str() + pos + 16, nullptr, 10));
  }
  std::string buf_;
  bool ok_ = true;
};

// ---- Trace generation ------------------------------------------------------

/// Zipfian node ids (exponent ~1.1) over [0, n): rank r is queried with
/// probability proportional to 1/(r+1)^s — a few hot nodes dominate, the
/// realistic shape for serving traffic.
std::vector<int64_t> ZipfianTrace(int64_t n, int count, Rng* rng) {
  const double s = 1.1;
  std::vector<double> cdf(static_cast<size_t>(n));
  double total = 0.0;
  for (int64_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[static_cast<size_t>(r)] = total;
  }
  // Ranks map to shuffled ids so "hot" nodes are spread over the graph.
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  rng->Shuffle(&ids);
  std::vector<int64_t> trace(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double u = rng->Uniform() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    trace[static_cast<size_t>(i)] =
        ids[static_cast<size_t>(it - cdf.begin())];
  }
  return trace;
}

/// Open-loop arrival offsets (seconds): exponential interarrivals at
/// `offered_qps`.
std::vector<double> ArrivalSchedule(int count, double offered_qps,
                                    Rng* rng) {
  std::vector<double> at(static_cast<size_t>(count));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    double u = rng->Uniform();
    while (u <= 1e-12) u = rng->Uniform();
    t += -std::log(u) / offered_qps;
    at[static_cast<size_t>(i)] = t;
  }
  return at;
}

// ---- One open-loop run -----------------------------------------------------

struct RunResult {
  double achieved_qps = 0.0;
  LatencySummary latency_ms;
  int64_t batches = 0;
  int64_t max_batch_seen = 0;
};

/// Drives `trace` at the scheduled arrival times over `num_conns`
/// pipelined connections and reports end-to-end latency measured from the
/// *scheduled* arrival (open-loop: sender lateness counts as latency).
RunResult RunOpenLoop(int port, const std::vector<int64_t>& trace,
                      const std::vector<double>& schedule, int num_conns) {
  struct Conn {
    int fd = -1;
    std::mutex mu;
    std::deque<double> scheduled;  // arrival time of each in-flight request
    std::vector<double> latencies_ms;
    std::thread reader;
    size_t expected = 0;  // responses this connection will receive
  };
  std::vector<Conn> conns(static_cast<size_t>(num_conns));
  // Requests go out round-robin, so each connection's share is known
  // before sending; a reader stops once it has read exactly that many.
  for (size_t i = 0; i < trace.size(); ++i) {
    ++conns[i % conns.size()].expected;
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto now_s = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  for (Conn& conn : conns) {
    conn.fd = ConnectLoopback(port);
    conn.reader = std::thread([&conn, &now_s] {
      ResponseCounter counter;
      char buf[8192];
      while (conn.latencies_ms.size() < conn.expected) {
        const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
        if (n <= 0) break;
        const int completed = counter.Feed(buf, static_cast<size_t>(n));
        if (completed > 0) {
          const double t = now_s();
          std::lock_guard<std::mutex> lock(conn.mu);
          for (int i = 0; i < completed; ++i) {
            conn.latencies_ms.push_back((t - conn.scheduled.front()) * 1e3);
            conn.scheduled.pop_front();
          }
        }
      }
      GR_CHECK(counter.all_ok()) << "bench saw a non-200 response";
    });
  }

  // The sender: one thread paces every connection (requests are tiny and
  // pipelined; the schedule, not the sender, is the bottleneck).
  for (size_t i = 0; i < trace.size(); ++i) {
    const double due = schedule[i];
    double now = now_s();
    if (now < due) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(due - now));
    }
    Conn& conn = conns[i % conns.size()];
    const std::string body =
        "{\"nodes\":[" + std::to_string(trace[i]) + "]}";
    const std::string wire =
        "POST /v1/predict HTTP/1.1\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.scheduled.push_back(due);
    }
    WriteAll(conn.fd, wire);
  }

  RunResult result;
  std::vector<double> all_ms;
  for (Conn& conn : conns) {
    conn.reader.join();
    ::close(conn.fd);
    all_ms.insert(all_ms.end(), conn.latencies_ms.begin(),
                  conn.latencies_ms.end());
  }
  GR_CHECK(all_ms.size() == trace.size())
      << "dropped responses: " << all_ms.size() << " of " << trace.size();
  const double wall_s = now_s();
  result.achieved_qps = static_cast<double>(trace.size()) / wall_s;
  result.latency_ms = Summarize(all_ms);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // --chaos: rerun the continuous shape with ~1% transient I/O faults
  // (EINTR storms plus short reads/writes on every socket syscall) and
  // record goodput-at-SLO under faults. The faults are recoverable by
  // construction, so the zero-drops / all-200 assertions still hold — the
  // question the row answers is what the retry paths cost.
  bool chaos = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chaos") == 0) chaos = true;
  }

  bench::PrintBanner("HTTP serving tier (epoll + continuous batching)",
                     "network serving front-end over InferenceEngine");

  const data::Dataset ds = bench::LoadBenchDataset("cora");
  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 64;
  mo.num_classes = ds.num_classes;
  mo.seed = 7;
  auto model = nn::MakeModel(nn::BackboneKind::kSage, mo);
  auto artifact_or = core::PackageArtifact(*model, nn::BackboneKind::kSage,
                                           mo, 7, ds.graph, ds);
  GR_CHECK(artifact_or.ok()) << artifact_or.status().ToString();

  // Sampled mode: per-request work is real compute, which is what the
  // batcher parallelises. (Full-graph mode is a row lookup — nothing for
  // a batch to win there.)
  serve::EngineOptions engine_opts;
  engine_opts.fanouts = {10, 10};
  auto engine_or = serve::InferenceEngine::FromArtifact(
      std::move(artifact_or).value(), engine_opts);
  GR_CHECK(engine_or.ok()) << engine_or.status().ToString();
  auto handle = std::make_shared<serve::EngineHandle>(
      std::make_shared<const serve::InferenceEngine>(
          std::move(engine_or).value()));

  // Calibrate the per-request service time with a few direct serial calls;
  // offered loads are multiples of the serial capacity.
  Rng rng(123);
  {  // warm-up
    GR_CHECK(handle->Get()->Predict({0}).ok());
  }
  const int kCalibrate = 40;
  Stopwatch calibration;
  for (int i = 0; i < kCalibrate; ++i) {
    const int64_t node =
        static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(
            ds.num_nodes())));
    GR_CHECK(handle->Get()->Predict({node}).ok());
  }
  const double serial_qps =
      static_cast<double>(kCalibrate) / calibration.ElapsedSeconds();

  const int num_requests = core::BenchFullScale() ? 2000 : 400;
  const int num_conns = 4;
  const double slo_ms = 50.0;
  const std::vector<double> load_factors = {0.5, 0.8, 1.2, 1.8, 2.5};

  struct Shape {
    const char* name;
    net::BatcherOptions batcher;
    bool chaos = false;
  };
  std::vector<Shape> shapes(2);
  shapes[0].name = "batch1";
  shapes[0].batcher.max_batch = 1;
  shapes[0].batcher.max_queue_delay_ms = 0.0;
  shapes[1].name = "continuous";
  shapes[1].batcher.max_batch = 16;
  shapes[1].batcher.max_queue_delay_ms = 2.0;
  if (chaos) {
    Shape c = shapes[1];
    c.name = "continuous_chaos";
    c.chaos = true;
    shapes.push_back(c);
  }

  std::printf("dataset=%s nodes=%lld threads=%d serial_qps=%.0f "
              "requests/run=%d conns=%d slo=%.0fms\n\n",
              ds.name.c_str(), static_cast<long long>(ds.num_nodes()),
              MaxThreads(), serial_qps, num_requests, num_conns, slo_ms);
  bench::PrintRow("shape", {"offered", "achieved", "p50 ms", "p99 ms",
                            "batch(avg)", "slo"});

  bench::BenchJson json("http_serve");
  std::vector<double> goodput(shapes.size(), 0.0);
  for (size_t s = 0; s < shapes.size(); ++s) {
    const Shape& shape = shapes[s];
    net::HttpServerOptions options;
    options.batcher = shape.batcher;
    options.slo_ms = slo_ms;
    net::HttpServer server(handle, nullptr, options);
    GR_CHECK(server.Start().ok());
    if (shape.chaos) {
      failpoint::SetSeed(20260807);
      // One spec per site: interrupted reads, partial writes.
      GR_CHECK_OK(failpoint::ConfigureFromList(
          "net.read=1%eintr; net.write=1%short"));
    }
    std::thread loop([&server] { server.Run(); });

    int64_t prev_batches = 0, prev_requests = 0;
    for (const double factor : load_factors) {
      const double offered = serial_qps * factor;
      // Identical trace + schedule per (shape, factor) pair: both shapes
      // see the same arrivals.
      Rng trace_rng(1000 + static_cast<uint64_t>(factor * 100));
      const auto trace =
          ZipfianTrace(ds.num_nodes(), num_requests, &trace_rng);
      const auto schedule =
          ArrivalSchedule(num_requests, offered, &trace_rng);
      const RunResult run =
          RunOpenLoop(server.port(), trace, schedule, num_conns);

      const net::BatcherStats stats = server.batcher().Stats();
      const int64_t run_batches = stats.batches - prev_batches;
      const int64_t run_requests = stats.batched_requests - prev_requests;
      prev_batches = stats.batches;
      prev_requests = stats.batched_requests;
      const double avg_batch =
          run_batches > 0 ? static_cast<double>(run_requests) /
                                static_cast<double>(run_batches)
                          : 0.0;
      const bool slo_ok = run.latency_ms.p99 <= slo_ms;
      if (slo_ok) goodput[s] = std::max(goodput[s], run.achieved_qps);

      bench::PrintRow(shape.name,
                      {StrFormat("%.0f", offered),
                       StrFormat("%.0f", run.achieved_qps),
                       StrFormat("%.2f", run.latency_ms.p50),
                       StrFormat("%.2f", run.latency_ms.p99),
                       StrFormat("%.1f", avg_batch),
                       slo_ok ? "ok" : "MISS"});
      json.BeginConfig()
          .Field("shape", shape.name)
          .Field("max_batch", shape.batcher.max_batch)
          .Field("load_factor", factor)
          .Field("offered_qps", offered)
          .Field("achieved_qps", run.achieved_qps)
          .Field("p50_ms", run.latency_ms.p50)
          .Field("p99_ms", run.latency_ms.p99)
          .Field("max_ms", run.latency_ms.max)
          .Field("avg_batch", avg_batch)
          .Field("slo_ms", slo_ms)
          .Field("slo_ok", slo_ok)
          .Field("num_requests", static_cast<int64_t>(num_requests))
          .Field("threads", MaxThreads())
          .Field("chaos", shape.chaos)
          .Field("peak_rss_mib", bench::PeakRssMiB());
    }
    server.Shutdown();
    loop.join();
    if (shape.chaos) {
      std::printf("  faults injected: net.read eintr=%lld, net.write "
                  "short=%lld (every response still 200, none dropped)\n",
                  static_cast<long long>(failpoint::Fired("net.read")),
                  static_cast<long long>(failpoint::Fired("net.write")));
      failpoint::DisableAll();
    }
    std::printf("\n");
  }

  const double speedup =
      goodput[0] > 0.0 ? goodput[1] / goodput[0] : 0.0;
  std::printf("goodput at p99<=%.0fms: batch1 %.0f qps, continuous %.0f "
              "qps -> %.2fx\n",
              slo_ms, goodput[0], goodput[1], speedup);
  if (chaos) {
    std::printf("goodput under 1%% transient I/O faults: %.0f qps "
                "(%.2fx of fault-free continuous)\n",
                goodput[2], goodput[1] > 0.0 ? goodput[2] / goodput[1] : 0.0);
  }
  if (MaxThreads() <= 1) {
    std::printf("note: single-core host — continuous batching drains its "
                "batch serially here, so ~1x is expected; the win tracks "
                "the core count.\n");
  }
  bench::BenchJson& summary = json.BeginConfig();
  summary.Field("shape", "summary")
      .Field("goodput_batch1_qps", goodput[0])
      .Field("goodput_continuous_qps", goodput[1])
      .Field("speedup", speedup)
      .Field("threads", MaxThreads());
  if (chaos) summary.Field("goodput_continuous_chaos_qps", goodput[2]);
  json.Write();
  return 0;
}
