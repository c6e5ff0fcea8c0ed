// Serving phase: open-loop Poisson POST /v1/predict traffic with Zipfian
// node ids against an in-process net::HttpServer, at two fixed offered
// rates ("low": batches rarely fill; "high": about 3/4 of the closed-loop
// capacity measured at the commit that introduced the benchmark), then a
// closed-loop phase that measures the capacity itself.
//
// The rates are absolute numbers fixed here, not multiples of a
// calibration taken at run time: calibrating would move the offered load
// along with the code under test. Every phase sends several times the
// batcher's 1024-deep admission queue, so overload shows up as 503s.
//
// The benchmark sets no OpenMP variable: the engine's OpenMP team shares
// the cores with the reactor and with this generator, as it does when the
// daemon runs as shipped.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/graphrare.h"
#include "loadgen.h"
#include "net/http.h"
#include "net/json.h"
#include "net/server.h"
#include "phases.h"

namespace perfbench {
namespace {

using namespace graphrare;

struct ServeConfig {
  const char* name;
  std::vector<int64_t> fanouts;  ///< empty = the daemon's full-graph engine
  int max_ids_per_request;
  double low_qps;
  double high_qps;
  int reloads_per_phase;
};

ServeConfig ConfigFor(ServeMode mode) {
  if (mode == ServeMode::kSampled) {
    return {"serve-sampled", {10, 10}, 1, 2000.0, 19000.0, 0};
  }
  return {"serve-lookup", {}, 16, 2000.0, 9200.0, 4};
}

constexpr double kSloMs = 50.0;
constexpr double kZipfExponent = 1.1;
constexpr int kConnections = 4;
constexpr int kClosedLoopDepth = 8;
/// Distinct requests the closed loop cycles through.
constexpr int kClosedLoopPool = 4096;
/// Every phase is cut into windows of this length; the end-to-end figures
/// are medians over the windows, so one stall moves one window's figure,
/// and each window's figure is printed.
constexpr double kWindowS = 1.0;

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Zipfian node ids: rank r has weight 1/(r+1)^s, and ranks map to a
/// seeded permutation of the ids so hot nodes are spread over the graph.
class ZipfIds {
 public:
  ZipfIds(int64_t n, double s, Rng* rng) : cdf_(static_cast<size_t>(n)) {
    double total = 0.0;
    for (int64_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[static_cast<size_t>(r)] = total;
    }
    ids_.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) ids_[static_cast<size_t>(i)] = i;
    rng->Shuffle(&ids_);
  }
  int64_t Sample(Rng* rng) const {
    const double u = rng->Uniform() * cdf_.back();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return ids_[std::min(rank, ids_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int64_t> ids_;
};

std::string PostWire(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: perfbench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string NodesBody(const std::vector<int64_t>& ids) {
  std::string body = "{\"nodes\":[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) body += ",";
    body += std::to_string(ids[i]);
  }
  return body + "]}";
}

/// A sampled-mode answer is well formed: one prediction for the asked
/// node, a probability row that sums to 1, and the argmax as the class.
bool WellFormedPrediction(const std::string& body, int64_t node,
                          int64_t num_classes) {
  auto doc = net::JsonValue::Parse(body);
  if (!doc.ok()) return false;
  const net::JsonValue* preds = doc->Find("predictions");
  if (preds == nullptr || !preds->is_array() || preds->items().size() != 1) {
    return false;
  }
  const net::JsonValue& p = preds->items()[0];
  const net::JsonValue* id = p.Find("node");
  const net::JsonValue* cls = p.Find("class");
  const net::JsonValue* probs = p.Find("probabilities");
  if (id == nullptr || cls == nullptr || probs == nullptr ||
      !probs->is_array() ||
      static_cast<int64_t>(probs->items().size()) != num_classes) {
    return false;
  }
  auto id_or = id->AsInt64();
  auto cls_or = cls->AsInt64();
  if (!id_or.ok() || *id_or != node || !cls_or.ok() || *cls_or < 0 ||
      *cls_or >= num_classes) {
    return false;
  }
  double sum = 0.0;
  int64_t argmax = 0;
  for (size_t c = 0; c < probs->items().size(); ++c) {
    const double v = probs->items()[c].AsNumber();
    if (!probs->items()[c].is_number() || !(v >= 0.0 && v <= 1.0)) {
      return false;
    }
    sum += v;
    if (v > probs->items()[static_cast<size_t>(argmax)].AsNumber()) {
      argmax = static_cast<int64_t>(c);
    }
  }
  return std::fabs(sum - 1.0) <= 1e-5 && argmax == *cls_or;
}

/// An in-process server whose reactor runs on its own thread.
class RunningServer {
 public:
  explicit RunningServer(std::shared_ptr<serve::EngineHandle> engine)
      : server_(std::move(engine), nullptr, net::HttpServerOptions()) {
    const Status started = server_.Start();
    if (!started.ok()) throw std::runtime_error(started.ToString());
    loop_ = std::thread([this] { server_.Run(); });
  }
  ~RunningServer() {
    server_.Shutdown();
    loop_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  net::HttpServer& server() { return server_; }

 private:
  net::HttpServer server_;
  std::thread loop_;
};

/// One open-loop phase's requests.
struct Traffic {
  std::vector<ScheduledRequest> schedule;
  std::vector<std::vector<int64_t>> ids;  ///< empty for reloads
  std::vector<std::string> bodies;
};

/// One request's node ids: 1..max_ids_per_request Zipfian ids.
std::vector<int64_t> RequestIds(const ServeConfig& cfg, const ZipfIds& zipf,
                                Rng* rng) {
  const int count = 1 + static_cast<int>(rng->UniformInt(
                            static_cast<uint64_t>(cfg.max_ids_per_request)));
  std::vector<int64_t> ids;
  for (int i = 0; i < count; ++i) ids.push_back(zipf.Sample(rng));
  return ids;
}

Traffic MakeTraffic(const ServeConfig& cfg, double qps, double seconds,
                    const ZipfIds& zipf, const std::string& artifact_path,
                    Rng* rng) {
  Traffic t;
  double at = 0.0;
  while (true) {
    double u = rng->Uniform();
    while (u <= 1e-12) u = rng->Uniform();
    at += -std::log(u) / qps;
    if (at >= seconds) break;
    t.ids.push_back(RequestIds(cfg, zipf, rng));
    t.bodies.push_back(NodesBody(t.ids.back()));
    t.schedule.push_back({at, PostWire("/v1/predict", t.bodies.back())});
  }
  // Reloads of the same artifact, spaced evenly through the phase.
  const std::string reload_body =
      "{\"path\":\"" + net::JsonEscape(artifact_path) + "\"}";
  for (int k = 0; k < cfg.reloads_per_phase; ++k) {
    const double due = seconds * (k + 0.5) / cfg.reloads_per_phase;
    const auto pos = std::lower_bound(
        t.schedule.begin(), t.schedule.end(), due,
        [](const ScheduledRequest& r, double d) { return r.due_s < d; });
    const size_t i = static_cast<size_t>(pos - t.schedule.begin());
    t.schedule.insert(pos, {due, PostWire("/v1/reload", reload_body)});
    t.ids.insert(t.ids.begin() + static_cast<long>(i), std::vector<int64_t>());
    t.bodies.insert(t.bodies.begin() + static_cast<long>(i), reload_body);
  }
  return t;
}

/// Checks responses: lookup bodies byte-exact against the direct engine,
/// sampled bodies well formed, reloads acknowledged. A 503 is a correct
/// refusal (counted apart, never as goodput).
class Checker {
 public:
  Checker(const serve::InferenceEngine& engine, bool exact)
      : engine_(engine), exact_(exact) {}

  /// Precomputes what `requests` must be answered with.
  void Expect(const std::vector<std::vector<int64_t>>& requests) {
    requests_ = &requests;
    expected_.assign(requests.size(), 0);
    if (!exact_) return;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].empty()) continue;
      auto preds = engine_.Predict(requests[i]);
      if (!preds.ok()) throw std::runtime_error(preds.status().ToString());
      expected_[i] = Fnv1a(net::PredictionsToJson(*preds));
    }
  }

  bool operator()(size_t i, int status, const std::string& body) const {
    if (status == 503) return true;
    if (status != 200) return false;
    const std::vector<int64_t>& ids = (*requests_)[i];
    if (ids.empty()) return body.find("\"status\":\"ok\"") != std::string::npos;
    if (exact_) return Fnv1a(body) == expected_[i];
    return WellFormedPrediction(body, ids[0], engine_.num_classes());
  }

 private:
  const serve::InferenceEngine& engine_;
  bool exact_;
  const std::vector<std::vector<int64_t>>* requests_ = nullptr;
  std::vector<uint64_t> expected_;
};

struct OpenPhase {
  Traffic traffic;
  OpenLoopResult run;
  net::BatcherStats batcher;
  net::RouteStats route;
  std::vector<double> predict_ms;  ///< 200 latencies of predict requests
  std::vector<double> reload_ms;
  int64_t refused = 0;
  int64_t good = 0;
};

OpenPhase RunOpen(const ServeConfig& cfg, double qps, double seconds,
                  const ZipfIds& zipf, const std::string& artifact_path,
                  std::shared_ptr<serve::EngineHandle> handle,
                  Checker* checker, Rng* rng, PhaseContext* ctx,
                  const char* label) {
  OpenPhase p;
  p.traffic = MakeTraffic(cfg, qps, seconds, zipf, artifact_path, rng);
  checker->Expect(p.traffic.ids);
  {
    RunningServer server(handle);
    OpenLoopOptions options;
    options.connections = kConnections;
    p.run = RunOpenLoop(server.server().port(), p.traffic.schedule, options,
                        *checker);
    p.batcher = server.server().batcher().Stats();
    for (const net::RouteStats& r : server.server().AllRouteStats()) {
      if (r.route == "/v1/predict") p.route = r;
    }
  }
  int64_t failed = 0;
  std::vector<RequestOutcome> predict_outcomes;
  for (size_t i = 0; i < p.run.outcomes.size(); ++i) {
    const RequestOutcome& o = p.run.outcomes[i];
    const bool reload = p.traffic.ids[i].empty();
    if (o.status == 0 || !o.check_ok ||
        (o.status != 200 && o.status != 503)) {
      ++failed;
    }
    if (o.status == 503) ++p.refused;
    if (reload) {
      if (o.status == 200) p.reload_ms.push_back(o.latency_ms);
      continue;
    }
    predict_outcomes.push_back(o);
  }
  p.predict_ms = OkLatencies(predict_outcomes);
  p.good = CountGood(predict_outcomes, kSloMs);
  ctx->Count(static_cast<int64_t>(p.run.outcomes.size()) - failed, true, "");
  ctx->Count(failed, false,
             std::string(label) + ": requests failed (no answer, "
                                  "unexpected status, or wrong body)");

  std::printf("  %s phase: offered %.0f qps for %.1f s: %lld requests, "
              "%lld refused (503), %lld failed, %lld good (200 within "
              "%.0f ms)\n",
              label, qps, seconds,
              static_cast<long long>(p.run.outcomes.size()),
              static_cast<long long>(p.refused),
              static_cast<long long>(failed), static_cast<long long>(p.good),
              kSloMs);
  PrintTiming(std::string("latency_ms.") + label, "ms", p.predict_ms);
  PrintTiming(std::string("gen.late_ms.") + label, "ms",
              Lateness(p.run.outcomes));
  if (!p.reload_ms.empty()) {
    PrintTiming(std::string("reload_latency_ms.") + label, "ms",
                p.reload_ms);
  }
  std::printf("  batcher: %lld batches, mean batch %.2f, queue wait p50 "
              "%.3f ms p99 %.3f ms, rejected %lld, shed %lld\n",
              static_cast<long long>(p.batcher.batches),
              p.batcher.batches > 0
                  ? static_cast<double>(p.batcher.batched_requests) /
                        static_cast<double>(p.batcher.batches)
                  : 0.0,
              p.batcher.queue_delay_ms.p50, p.batcher.queue_delay_ms.p99,
              static_cast<long long>(p.batcher.rejected),
              static_cast<long long>(p.batcher.shed));
  return p;
}

/// Per-window figures of an open-loop phase: windows are cut by scheduled
/// send time, so a window holds the requests offered during it.
struct WindowFigures {
  std::vector<double> p50_ms, p99_ms, goodput_qps;
};

WindowFigures PerWindow(const OpenPhase& p, double phase_s) {
  const int windows = std::max(1, static_cast<int>(phase_s / kWindowS));
  const double width = phase_s / windows;
  std::vector<std::vector<RequestOutcome>> by_window(
      static_cast<size_t>(windows));
  for (size_t i = 0; i < p.run.outcomes.size(); ++i) {
    if (p.traffic.ids[i].empty()) continue;  // reloads
    const int w = std::min(
        windows - 1, static_cast<int>(p.traffic.schedule[i].due_s / width));
    by_window[static_cast<size_t>(w)].push_back(p.run.outcomes[i]);
  }
  WindowFigures f;
  for (const auto& outcomes : by_window) {
    const std::vector<double> ms = OkLatencies(outcomes);
    f.p50_ms.push_back(Median(ms));
    f.p99_ms.push_back(Quantile(ms, 0.99));
    f.goodput_qps.push_back(static_cast<double>(CountGood(outcomes, kSloMs)) /
                            width);
  }
  return f;
}

std::string Join(const std::vector<double>& v, const char* fmt) {
  std::string out;
  char buf[64];
  for (const double x : v) {
    std::snprintf(buf, sizeof(buf), fmt, x);
    out += (out.empty() ? "" : " ") + std::string(buf);
  }
  return out;
}

template <typename F>
double TimeMs(F&& f) {
  Stopwatch w;
  f();
  return w.ElapsedMillis();
}

}  // namespace

void RunServePhase(ServeMode mode, PhaseContext* ctx) {
  const ServeConfig cfg = ConfigFor(mode);
  std::printf("\n== phase %s ==\n", cfg.name);

  // Fixture: a cora-scale dataset and an (untrained) SAGE backbone
  // packaged as an artifact file. Latency does not depend on the weights.
  auto ds_or = data::MakeDatasetScaled("cora", 1, ctx->seed);
  if (!ds_or.ok()) throw std::runtime_error(ds_or.status().ToString());
  const data::Dataset ds = std::move(ds_or).value();
  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 64;
  mo.num_classes = ds.num_classes;
  mo.seed = ctx->seed;
  auto model = nn::MakeModel(nn::BackboneKind::kSage, mo);
  auto artifact_or = core::PackageArtifact(*model, nn::BackboneKind::kSage,
                                           mo, ctx->seed, ds.graph, ds);
  if (!artifact_or.ok()) {
    throw std::runtime_error(artifact_or.status().ToString());
  }
  const std::string artifact_path = ctx->workdir + "/model.grare";
  const Status saved = artifact_or->Save(artifact_path);
  if (!saved.ok()) throw std::runtime_error(saved.ToString());

  // Set-up: load the artifact and build the engine (in full-graph mode
  // this runs the whole forward pass).
  serve::EngineOptions engine_opts;
  engine_opts.fanouts = cfg.fanouts;
  std::shared_ptr<const serve::InferenceEngine> engine;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Stopwatch w;
    auto e = serve::InferenceEngine::LoadFrom(artifact_path, engine_opts);
    if (!e.ok()) throw std::runtime_error(e.status().ToString());
    engine = std::make_shared<const serve::InferenceEngine>(
        std::move(e).value());
    setups.push_back(w.ElapsedSeconds());
  }
  ctx->setup_s = Median(setups);
  auto handle = std::make_shared<serve::EngineHandle>(engine);

  Rng rng(ctx->seed * 0x9E3779B97F4A7C15ULL + 17);
  const ZipfIds zipf(engine->num_nodes(), kZipfExponent, &rng);
  Checker checker(*engine, /*exact=*/engine->full_graph_mode());
  const double phase_s = ctx->seconds / 3.0;

  OpenPhase low = RunOpen(cfg, cfg.low_qps, phase_s, zipf, artifact_path,
                          handle, &checker, &rng, ctx, "low");
  OpenPhase high = RunOpen(cfg, cfg.high_qps, phase_s, zipf, artifact_path,
                           handle, &checker, &rng, ctx, "high");

  // Closed loop: nproc connections, each with a fixed pipeline depth.
  std::vector<std::vector<int64_t>> pool_ids;
  std::vector<std::string> pool;
  for (int i = 0; i < kClosedLoopPool; ++i) {
    pool_ids.push_back(RequestIds(cfg, zipf, &rng));
    pool.push_back(PostWire("/v1/predict", NodesBody(pool_ids.back())));
  }
  checker.Expect(pool_ids);
  ClosedLoopResult closed;
  {
    RunningServer server(handle);
    ClosedLoopOptions options;
    options.connections = kConnections;
    options.depth = kClosedLoopDepth;
    options.seconds = phase_s;
    closed = RunClosedLoop(server.server().port(), pool, options, checker);
  }
  ctx->Count(closed.sent - closed.failed, true, "");
  ctx->Count(closed.failed, false, "closed loop: requests failed");
  const int windows = std::max(1, static_cast<int>(phase_s / kWindowS));
  std::vector<double> window_qps(static_cast<size_t>(windows), 0.0);
  for (const double t : closed.ok_times_s) {
    window_qps[static_cast<size_t>(
        std::min(windows - 1, static_cast<int>(t * windows / phase_s)))] +=
        windows / phase_s;
  }
  const double max_qps = Median(window_qps);
  std::printf("  closed loop: %d connections x depth %d for %.1f s: %lld "
              "sent, %lld ok in window, %lld refused, %lld failed -> "
              "%.0f qps (median window)\n",
              kConnections, kClosedLoopDepth, closed.seconds,
              static_cast<long long>(closed.sent),
              static_cast<long long>(closed.ok),
              static_cast<long long>(closed.refused),
              static_cast<long long>(closed.failed), max_qps);
  std::printf("    per-window qps: %s\n", Join(window_qps, "%.0f").c_str());

  const WindowFigures lw = PerWindow(low, phase_s);
  const WindowFigures hw = PerWindow(high, phase_s);
  for (const auto& [label, w] :
       {std::make_pair("low", &lw), std::make_pair("high", &hw)}) {
    std::printf("  %s per-window p50 ms: %s\n", label,
                Join(w->p50_ms, "%.3f").c_str());
    std::printf("  %s per-window p99 ms: %s\n", label,
                Join(w->p99_ms, "%.3f").c_str());
    std::printf("  %s per-window goodput qps: %s\n", label,
                Join(w->goodput_qps, "%.0f").c_str());
  }

  // Only goodput at the low rate is steady enough across runs on a shared
  // 4-vCPU machine to be gated; the latency and capacity figures move with
  // the CPU time other guests take and with the OpenMP stall (README.md,
  // "Steadiness"), so they are printed but not gated.
  constexpr bool kUngated = false;
  ctx->e2e->Add("p50_ms.low", Median(lw.p50_ms), "ms", kUngated);
  ctx->e2e->Add("p99_ms.low", Median(lw.p99_ms), "ms", kUngated);
  ctx->e2e->Add("goodput_qps.low", Median(lw.goodput_qps), "1/s");
  ctx->e2e->Add("p50_ms.high", Median(hw.p50_ms), "ms", kUngated);
  ctx->e2e->Add("p99_ms.high", Median(hw.p99_ms), "ms", kUngated);
  ctx->e2e->Add("goodput_qps.high", Median(hw.goodput_qps), "1/s", kUngated);
  ctx->e2e->Add("max_qps", max_qps, "1/s", kUngated);

  if (!ctx->trace) return;

  // ---- Per-layer figures, measured by replaying this run's own traffic
  // through each layer's public entry point after the timed phases (so
  // the phases themselves run untraced).
  std::vector<std::string> bodies;
  std::vector<std::vector<int64_t>> requests;
  std::string wire;
  for (size_t i = 0; i < high.traffic.ids.size(); ++i) {
    if (high.traffic.ids[i].empty()) continue;
    bodies.push_back(high.traffic.bodies[i]);
    requests.push_back(high.traffic.ids[i]);
    wire += high.traffic.schedule[i].wire;
  }
  const double n = static_cast<double>(requests.size());

  int64_t parsed = 0;
  const double parse_ms = TimeMs([&] {
    net::HttpParser parser;
    for (size_t off = 0; off < wire.size(); off += 1 << 16) {
      parser.Feed(wire.data() + off, std::min<size_t>(1 << 16,
                                                      wire.size() - off));
      while (parser.Next() == net::HttpParser::State::kReady) ++parsed;
    }
  });
  int64_t json_ok = 0;
  const double json_ms = TimeMs([&] {
    for (const std::string& b : bodies) {
      if (net::JsonValue::Parse(b).ok()) ++json_ok;
    }
  });
  std::vector<std::vector<serve::Prediction>> predictions;
  for (const auto& ids : requests) predictions.push_back(*engine->Predict(ids));
  size_t serialized_bytes = 0;
  const double serialize_ms = TimeMs([&] {
    for (const auto& p : predictions) {
      serialized_bytes += net::PredictionsToJson(p).size();
    }
  });
  ctx->Count(1, parsed == static_cast<int64_t>(requests.size()) &&
                    json_ok == static_cast<int64_t>(bodies.size()) &&
                    serialized_bytes > 0,
             "replayed wire bytes did not parse back");

  const double mean_batch =
      high.batcher.batches > 0
          ? static_cast<double>(high.batcher.batched_requests) /
                static_cast<double>(high.batcher.batches)
          : 1.0;
  const size_t batch = static_cast<size_t>(std::max(1.0, std::round(mean_batch)));
  int64_t engine_calls = 0;
  uint64_t next_seed = 0;
  const double engine_ms = TimeMs([&] {
    for (size_t at = 0; at + batch <= requests.size() && engine_calls < 2000;
         at += batch, ++engine_calls) {
      std::vector<std::vector<int64_t>> group(
          requests.begin() + static_cast<long>(at),
          requests.begin() + static_cast<long>(at + batch));
      std::vector<uint64_t> seeds;
      for (size_t k = 0; k < batch; ++k) seeds.push_back(next_seed++);
      if (!engine->PredictBatchWithSeeds(group, seeds).ok()) {
        throw std::runtime_error("PredictBatchWithSeeds failed");
      }
    }
  });
  std::vector<double> reloads;
  for (int i = 0; i < kSetupRepeats; ++i) {
    reloads.push_back(TimeMs([&] {
      auto a = serve::ModelArtifact::Load(artifact_path);
      if (!a.ok()) throw std::runtime_error(a.status().ToString());
      auto e = serve::InferenceEngine::FromArtifact(std::move(a).value(),
                                                    engine_opts);
      if (!e.ok()) throw std::runtime_error(e.status().ToString());
    }));
  }

  const double parse_us = 1e3 * parse_ms / n;
  const double json_us = 1e3 * json_ms / n;
  const double serialize_us = 1e3 * serialize_ms / n;
  const double engine_us =
      engine_calls > 0 ? 1e3 * engine_ms / static_cast<double>(engine_calls)
                       : 0.0;
  const double e2e_p50 = Median(high.predict_ms);
  Metrics* l = ctx->layers;
  l->Add("net.parse_us", parse_us, "us");
  l->Add("net.json_us", json_us, "us");
  l->Add("net.serialize_us", serialize_us, "us");
  l->Add("serve.engine_us", engine_us, "us");
  l->Add("net.queue_wait_ms.p50", low.batcher.queue_delay_ms.p50, "ms");
  l->Add("net.queue_wait_ms.p99", high.batcher.queue_delay_ms.p99, "ms");
  l->Add("net.batch_size", mean_batch, "count");
  l->Add("net.shed", static_cast<double>(high.batcher.shed), "count");
  l->Add("net.rejected", static_cast<double>(high.batcher.rejected),
         "count");
  l->Add("net.route_ms.p50", high.route.latency_ms.p50, "ms");
  l->Add("net.route_ms.p99", high.route.latency_ms.p99, "ms");
  l->Add("net.wire_ms", e2e_p50 - high.route.latency_ms.p50, "ms");
  l->Add("serve.reload_ms", Median(reloads), "ms");
  l->Add("gen.late_ms", Quantile(Lateness(high.run.outcomes), 0.99), "ms");

  // Where a high-phase request's time goes: each row is a layer's
  // per-request cost times the answered requests; the wall is the summed
  // end-to-end latency of those requests. The layers were measured by
  // replay, so the timed phase itself carried no tracing.
  const double answered = static_cast<double>(high.predict_ms.size());
  double wall_ms = 0.0;
  for (const double v : high.predict_ms) wall_ms += v;
  const int64_t calls = static_cast<int64_t>(answered);
  PrintLayerTable(
      std::string("per-layer table: ") + cfg.name +
          " high phase (per-request layer cost x answered requests)",
      {{"net.parse", calls, answered * parse_us / 1e3},
       {"net.json", calls, answered * json_us / 1e3},
       {"net.queue_wait", calls, answered * high.batcher.queue_delay_ms.mean},
       {"serve.engine (one batch call)", calls, answered * engine_us / 1e3},
       {"net.serialize", calls, answered * serialize_us / 1e3}},
      wall_ms, wall_ms);
}

}  // namespace perfbench
