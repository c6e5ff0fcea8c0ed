// Chaos suite: fault injection against the serving stack through the
// fail-point framework. Covers the spec grammar and deterministic
// probability streams, crash-safe artifact saves (the incumbent file is
// byte-identical after a failed overwrite at any injectable stage),
// per-section checksum detection of torn/corrupt artifacts, EINTR storms
// and short reads/writes on both the artifact and socket paths (including
// zero drops under pipelined concurrent load through the continuous
// batcher), deadline shedding with 503 + Retry-After, the overload
// watchdog, reload rollback under concurrent load at every injectable
// failure stage, the reload circuit breaker lifecycle, and the accounting
// of responses whose client has gone. Run alone with `ctest -L chaos`.

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "core/graphrare.h"
#include "net/server.h"

#include "http_test_client.h"

namespace graphrare {
namespace {

using failpoint::Action;

// Fail points are process-global; every test starts and ends clean.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisableAll();
    failpoint::SetSeed(0x6368616F73ULL);  // deterministic chaos
  }
  void TearDown() override { failpoint::DisableAll(); }
};

// ---- Fail-point framework -------------------------------------------------

TEST_F(ChaosTest, SpecGrammarParsesEveryAction) {
  ASSERT_TRUE(failpoint::Configure("t.err", "error(EIO)").ok());
  Action a = failpoint::Consult("t.err");
  EXPECT_EQ(a.kind, Action::Kind::kError);
  EXPECT_EQ(a.err, EIO);
  EXPECT_EQ(failpoint::Fired("t.err"), 1);

  ASSERT_TRUE(failpoint::Configure("t.num", "error(13)").ok());
  EXPECT_EQ(failpoint::Consult("t.num").err, 13);

  ASSERT_TRUE(failpoint::Configure("t.eintr", "eintr").ok());
  EXPECT_EQ(failpoint::Consult("t.eintr").kind, Action::Kind::kEintr);

  ASSERT_TRUE(failpoint::Configure("t.short", "short").ok());
  EXPECT_EQ(failpoint::Consult("t.short").kind, Action::Kind::kShort);

  ASSERT_TRUE(failpoint::Configure("t.delay", "delay(7)").ok());
  a = failpoint::Consult("t.delay");
  EXPECT_EQ(a.kind, Action::Kind::kDelay);
  EXPECT_EQ(a.delay_ms, 7);

  // "off" removes the site.
  ASSERT_TRUE(failpoint::Configure("t.err", "off").ok());
  EXPECT_EQ(failpoint::Consult("t.err").kind, Action::Kind::kNone);

  // Malformed specs are rejected, not half-applied.
  EXPECT_FALSE(failpoint::Configure("t.bad", "explode").ok());
  EXPECT_FALSE(failpoint::Configure("t.bad", "error(EBOGUS)").ok());
  EXPECT_FALSE(failpoint::Configure("t.bad", "").ok());
  EXPECT_EQ(failpoint::Consult("t.bad").kind, Action::Kind::kNone);
}

TEST_F(ChaosTest, AfterAndMaxHitsModifiers) {
  // after(2): the first two evaluations pass untouched.
  ASSERT_TRUE(failpoint::Configure("t.after", "after(2)error(EIO)").ok());
  EXPECT_EQ(failpoint::Consult("t.after").kind, Action::Kind::kNone);
  EXPECT_EQ(failpoint::Consult("t.after").kind, Action::Kind::kNone);
  EXPECT_EQ(failpoint::Consult("t.after").kind, Action::Kind::kError);
  EXPECT_EQ(failpoint::Fired("t.after"), 1);

  // 2*: fires at most twice, then falls dormant.
  ASSERT_TRUE(failpoint::Configure("t.twice", "2*eintr").ok());
  EXPECT_EQ(failpoint::Consult("t.twice").kind, Action::Kind::kEintr);
  EXPECT_EQ(failpoint::Consult("t.twice").kind, Action::Kind::kEintr);
  EXPECT_EQ(failpoint::Consult("t.twice").kind, Action::Kind::kNone);
  EXPECT_EQ(failpoint::Fired("t.twice"), 2);

  // Combined: skip 1, then fire once.
  ASSERT_TRUE(failpoint::Configure("t.combo", "after(1)1*error(ENOSPC)").ok());
  EXPECT_EQ(failpoint::Consult("t.combo").kind, Action::Kind::kNone);
  EXPECT_EQ(failpoint::Consult("t.combo").err, ENOSPC);
  EXPECT_EQ(failpoint::Consult("t.combo").kind, Action::Kind::kNone);
}

TEST_F(ChaosTest, ProbabilityStreamIsDeterministicPerSeed) {
  auto draw_pattern = [] {
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(failpoint::Consult("t.prob").kind !=
                      Action::Kind::kNone);
    }
    return fired;
  };
  failpoint::SetSeed(1234);
  ASSERT_TRUE(failpoint::Configure("t.prob", "50%eintr").ok());
  const std::vector<bool> first = draw_pattern();
  failpoint::SetSeed(1234);
  ASSERT_TRUE(failpoint::Configure("t.prob", "50%eintr").ok());
  EXPECT_EQ(draw_pattern(), first);

  // A different seed gives a different stream (64 coin flips colliding
  // would mean the seed is ignored).
  failpoint::SetSeed(99);
  ASSERT_TRUE(failpoint::Configure("t.prob", "50%eintr").ok());
  EXPECT_NE(draw_pattern(), first);

  // The rate is roughly honoured.
  int hits = 0;
  for (bool b : first) hits += b ? 1 : 0;
  EXPECT_GT(hits, 16);
  EXPECT_LT(hits, 48);
}

TEST_F(ChaosTest, ConfiguresFromEnvironment) {
  ::setenv("GRAPHRARE_FAILPOINTS", "t.env1 = eintr ; t.env2 = 2*error(EIO)",
           1);
  EXPECT_EQ(failpoint::ConfigureFromEnv(), 2);
  ::unsetenv("GRAPHRARE_FAILPOINTS");
  EXPECT_EQ(failpoint::Consult("t.env1").kind, Action::Kind::kEintr);
  EXPECT_EQ(failpoint::Consult("t.env2").err, EIO);
  EXPECT_EQ(failpoint::ConfigureFromEnv(), 0);  // unset -> no-op
}

TEST_F(ChaosTest, DisabledFrameworkIsIdle) {
  failpoint::DisableAll();
  EXPECT_FALSE(failpoint::AnyActive());
  EXPECT_EQ(failpoint::Consult("t.anything").kind, Action::Kind::kNone);
  ASSERT_TRUE(failpoint::Configure("t.one", "eintr").ok());
  EXPECT_TRUE(failpoint::AnyActive());
  failpoint::Disable("t.one");
  EXPECT_FALSE(failpoint::AnyActive());
}

// ---- Artifact fixtures ----------------------------------------------------

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

serve::ModelArtifact MakeArtifact(uint64_t model_seed) {
  auto ds_or = data::MakeDatasetScaled("cornell", /*shrink=*/1, 3);
  GR_CHECK(ds_or.ok()) << ds_or.status().ToString();
  const data::Dataset& ds = *ds_or;
  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 16;
  mo.num_classes = ds.num_classes;
  mo.seed = model_seed;
  auto model = nn::MakeModel(nn::BackboneKind::kGcn, mo);
  auto artifact_or = core::PackageArtifact(*model, nn::BackboneKind::kGcn,
                                           mo, model_seed, ds.graph, ds);
  GR_CHECK(artifact_or.ok()) << artifact_or.status().ToString();
  return std::move(artifact_or).value();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GR_CHECK(in.good()) << "cannot read " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  GR_CHECK(out.good()) << "cannot write " << path;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

// ---- Crash-safe artifact saves --------------------------------------------

TEST_F(ChaosTest, FailedSaveLeavesIncumbentByteIdentical) {
  const std::string path = TempPath("chaos_incumbent.grare");
  ASSERT_TRUE(MakeArtifact(7).Save(path).ok());
  const std::string incumbent = ReadFileBytes(path);
  const serve::ModelArtifact replacement = MakeArtifact(8);

  // Probe how many raw write(2) calls one save issues (the 256 KiB flush
  // buffer makes this small), so the mid-file stage can target the last
  // one instead of guessing an offset.
  ASSERT_TRUE(failpoint::Configure("artifact.write", "delay(1)").ok());
  ASSERT_TRUE(replacement.Save(TempPath("chaos_probe.grare")).ok());
  const int64_t write_calls = failpoint::Fired("artifact.write");
  failpoint::Disable("artifact.write");
  ASSERT_GE(write_calls, 1);

  struct Stage {
    std::string site;
    std::string spec;
    std::string syscall_name;
  };
  std::vector<Stage> stages = {
      {"artifact.write", "error(ENOSPC)", "write"},
      {"artifact.fsync", "error(EIO)", "fsync"},
      {"artifact.rename", "error(EIO)", "rename"},
  };
  if (write_calls >= 2) {
    // Fail the final flush: everything before it hit the disk, the file
    // is torn at the tail — the classic mid-file crash.
    stages.push_back({"artifact.write",
                      "after(" + std::to_string(write_calls - 1) +
                          ")error(EIO)",
                      "write"});
  }
  for (const Stage& stage : stages) {
    SCOPED_TRACE(stage.site + "=" + stage.spec);
    ASSERT_TRUE(failpoint::Configure(stage.site, stage.spec).ok());
    const Status s = replacement.Save(path);
    failpoint::Disable(stage.site);

    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find(stage.syscall_name), std::string::npos)
        << s.ToString();
    // The temp file is unlinked, the incumbent is untouched and loadable.
    EXPECT_FALSE(FileExists(path + ".tmp"));
    EXPECT_EQ(ReadFileBytes(path), incumbent);
    EXPECT_TRUE(serve::ModelArtifact::Load(path).ok());
  }
}

TEST_F(ChaosTest, SaveSurvivesEintrStormAndShortWrites) {
  const std::string path = TempPath("chaos_stormy_save.grare");
  const serve::ModelArtifact art = MakeArtifact(11);

  ASSERT_TRUE(failpoint::Configure("artifact.write", "40%eintr").ok());
  ASSERT_TRUE(art.Save(path).ok());
  EXPECT_GT(failpoint::Fired("artifact.write"), 0);
  EXPECT_TRUE(serve::ModelArtifact::Load(path).ok());

  ASSERT_TRUE(failpoint::Configure("artifact.write", "60%short").ok());
  ASSERT_TRUE(art.Save(path).ok());
  EXPECT_TRUE(serve::ModelArtifact::Load(path).ok());
}

TEST_F(ChaosTest, LoadSurvivesEintrStormAndShortReads) {
  const std::string path = TempPath("chaos_stormy_load.grare");
  ASSERT_TRUE(MakeArtifact(12).Save(path).ok());

  // The 64 KiB refill buffer keeps the syscall count low, so a bounded
  // storm guarantees hits: the first five reads are interrupted, every one
  // must be retried.
  ASSERT_TRUE(failpoint::Configure("artifact.read", "5*eintr").ok());
  EXPECT_TRUE(serve::ModelArtifact::Load(path).ok());
  EXPECT_EQ(failpoint::Fired("artifact.read"), 5);

  ASSERT_TRUE(failpoint::Configure("artifact.read", "short").ok());
  EXPECT_TRUE(serve::ModelArtifact::Load(path).ok());
}

TEST_F(ChaosTest, LoadErrorsNameTheFailingSyscall) {
  const std::string path = TempPath("chaos_load_err.grare");
  ASSERT_TRUE(MakeArtifact(13).Save(path).ok());

  ASSERT_TRUE(failpoint::Configure("artifact.open", "error(EIO)").ok());
  Status s = serve::ModelArtifact::Load(path).status();
  failpoint::Disable("artifact.open");
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.ToString().find("open"), std::string::npos) << s.ToString();

  ASSERT_TRUE(failpoint::Configure("artifact.read", "error(EIO)").ok());
  s = serve::ModelArtifact::Load(path).status();
  failpoint::Disable("artifact.read");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("read"), std::string::npos) << s.ToString();

  // A genuinely missing file is NotFound, not Internal.
  EXPECT_EQ(serve::ModelArtifact::Load(TempPath("chaos_no_such.grare"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

// ---- Checksums and torn files ---------------------------------------------

TEST_F(ChaosTest, ChecksumCatchesMidFileCorruption) {
  const std::string path = TempPath("chaos_corrupt.grare");
  ASSERT_TRUE(MakeArtifact(21).Save(path).ok());
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);

  // Flip one bit in the middle of the file (deep inside a data section,
  // past every length field) — v1 would have served this silently.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  WriteFileBytes(path, bytes);

  const Status s = serve::ModelArtifact::Load(path).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("checksum mismatch in section"),
            std::string::npos)
      << s.ToString();
}

TEST_F(ChaosTest, ChecksumNamesTheMetaSection) {
  const std::string path = TempPath("chaos_corrupt_meta.grare");
  ASSERT_TRUE(MakeArtifact(22).Save(path).ok());
  std::string bytes = ReadFileBytes(path);

  // Offset 16 is the backbone-kind field, just past magic + version —
  // firmly inside the meta section.
  bytes[16] = static_cast<char>(bytes[16] ^ 0x01);
  WriteFileBytes(path, bytes);

  const Status s = serve::ModelArtifact::Load(path).status();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("section 'meta'"), std::string::npos)
      << s.ToString();
}

TEST_F(ChaosTest, TornArtifactSweepNeverCrashes) {
  const std::string path = TempPath("chaos_torn.grare");
  ASSERT_TRUE(MakeArtifact(23).Save(path).ok());
  const std::string bytes = ReadFileBytes(path);
  const std::string torn = TempPath("chaos_torn_cut.grare");

  // Every prefix length across a coarse sweep plus the interesting
  // boundaries: a torn write at any cut point must load-fail cleanly.
  std::vector<size_t> cuts = {0, 1, 7, 8, 11, 12, 16, bytes.size() - 1};
  const size_t stride = std::max<size_t>(1, bytes.size() / 61);
  for (size_t c = stride; c < bytes.size(); c += stride) cuts.push_back(c);

  for (size_t cut : cuts) {
    WriteFileBytes(torn, bytes.substr(0, cut));
    const Status s = serve::ModelArtifact::Load(torn).status();
    EXPECT_FALSE(s.ok()) << "prefix of " << cut << " bytes loaded";
  }
}

// ---- Batcher: deadlines and the overload watchdog -------------------------

std::shared_ptr<serve::EngineHandle> MakeHandle(
    uint64_t seed, const serve::EngineOptions& engine_options = {}) {
  auto engine_or =
      serve::InferenceEngine::FromArtifact(MakeArtifact(seed), engine_options);
  GR_CHECK(engine_or.ok()) << engine_or.status().ToString();
  return std::make_shared<serve::EngineHandle>(
      std::make_shared<const serve::InferenceEngine>(
          std::move(engine_or).value()));
}

TEST_F(ChaosTest, BatcherShedsExpiredQueuedRequests) {
  auto handle = MakeHandle(7);
  net::BatcherOptions bo;
  bo.max_batch = 1;
  bo.num_workers = 1;
  bo.max_queue_delay_ms = 0.0;
  net::ContinuousBatcher batcher(handle, bo);

  // The first batch holds the single worker for 150 ms; everything queued
  // behind it with a 20 ms deadline must be shed, not evaluated.
  ASSERT_TRUE(failpoint::Configure("batcher.batch", "delay(150)").ok());

  std::mutex mu;
  std::condition_variable cv;
  int done = 0, ok = 0, deadline_exceeded = 0;
  auto count = [&](StatusCode code) {
    std::lock_guard<std::mutex> lock(mu);
    ++done;
    if (code == StatusCode::kOk) ++ok;
    if (code == StatusCode::kDeadlineExceeded) ++deadline_exceeded;
    cv.notify_one();
  };

  ASSERT_TRUE(batcher
                  .Submit({0}, 0.0,
                          [&](Result<std::vector<serve::Prediction>> r) {
                            count(r.status().code());
                          })
                  .ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(batcher
                    .Submit({0}, /*deadline_ms=*/20.0,
                            [&](Result<std::vector<serve::Prediction>> r) {
                              count(r.status().code());
                            })
                    .ok());
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return done == 6; }));
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(deadline_exceeded, 5);
  EXPECT_EQ(batcher.Stats().shed, 5);
  batcher.Stop();
}

TEST_F(ChaosTest, OverloadWatchdogShrinksThenRecovers) {
  auto handle = MakeHandle(7);
  net::BatcherOptions bo;
  bo.max_batch = 8;
  bo.num_workers = 1;
  bo.max_queue_delay_ms = 0.0;
  // Far above a real 1-node engine call even under sanitizers, so only
  // the injected stalls cross the budget.
  bo.batch_budget_ms = 200.0;
  bo.overload_recover_batches = 1;
  net::ContinuousBatcher batcher(handle, bo);

  auto sync_predict = [&] {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    GR_CHECK_OK(batcher.Submit({0}, [&](Result<std::vector<serve::Prediction>>
                                            r) {
      GR_CHECK_OK(r.status());
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    }));
    std::unique_lock<std::mutex> lock(mu);
    GR_CHECK(cv.wait_for(lock, std::chrono::seconds(30), [&] { return done; }))
        << "batcher never completed the request";
  };

  // Two engine stalls blow the 200 ms budget: 8 -> 4 -> 2. The worker
  // updates the watchdog *after* delivering completions, so poll briefly
  // for the second shrink to land. (A machine hiccup may add a shrink of
  // its own, so the bounds are one-sided.)
  ASSERT_TRUE(failpoint::Configure("batcher.batch", "2*delay(600)").ok());
  sync_predict();
  sync_predict();
  for (int i = 0; i < 200 && batcher.Stats().overload_shrinks < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  net::BatcherStats stats = batcher.Stats();
  EXPECT_LE(stats.effective_max_batch, 2);
  EXPECT_GE(stats.overload_shrinks, 2);

  // Pressure gone: with overload_recover_batches=1 each in-budget batch
  // grows the cap one step back toward max_batch.
  for (int i = 0; i < 60 && batcher.Stats().effective_max_batch < 8; ++i) {
    sync_predict();
  }
  stats = batcher.Stats();
  EXPECT_EQ(stats.effective_max_batch, 8);
  batcher.Stop();
}

// ---- HTTP server fixture --------------------------------------------------

/// Receive timeout of every test connection: chaos runs are slow under
/// sanitizers.
constexpr int kClientTimeoutS = 30;

class ChaosServerTest : public ChaosTest {
 protected:
  void StartServer(net::HttpServerOptions options = {},
                   uint64_t model_seed = 7,
                   const serve::EngineOptions& engine_options = {}) {
    handle_ = std::make_shared<serve::EngineHandle>(
        MakeHandle(model_seed, engine_options)->Get());
    server_ = std::make_unique<net::HttpServer>(handle_, nullptr, options);
    ASSERT_TRUE(server_->Start().ok());
    loop_ = std::thread([this] { server_->Run(); });
  }

  void TearDown() override {
    // Hard faults off first so the drain itself cannot be wedged.
    failpoint::DisableAll();
    if (server_) server_->Shutdown();
    if (loop_.joinable()) loop_.join();
    ChaosTest::TearDown();
  }

  int port() const { return server_->port(); }
  std::string ExpectedPredictBody(const std::vector<int64_t>& nodes) {
    return net::PredictionsToJson(handle_->Get()->Predict(nodes).value());
  }

  std::shared_ptr<serve::EngineHandle> handle_;
  std::unique_ptr<net::HttpServer> server_;
  std::thread loop_;
};

// ---- Socket-level fault storms --------------------------------------------

TEST_F(ChaosServerTest, SocketFaultStormKeepsResponsesByteExact) {
  StartServer();
  const std::string expected = ExpectedPredictBody({0, 1, 2});

  // Phase 1: EINTR storm across every socket syscall the reactor makes.
  ASSERT_TRUE(failpoint::ConfigureFromList(
                  "net.read=30%eintr; net.write=30%eintr;"
                  "net.epoll_wait=20%eintr; net.accept=50%eintr")
                  .ok());
  for (int c = 0; c < 4; ++c) {
    TestClient client(port(), kClientTimeoutS);
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 8; ++i) {
      client.Request("POST", "/v1/predict", "{\"nodes\":[0,1,2]}");
      ClientResponse r;
      ASSERT_TRUE(client.ReadResponse(&r)) << "conn " << c << " req " << i;
      EXPECT_EQ(r.status, 200);
      EXPECT_EQ(r.body, expected);
    }
  }
  EXPECT_GT(failpoint::Fired("net.read") + failpoint::Fired("net.write"), 0);

  // Phase 2: short reads and writes — partial-transfer handling.
  failpoint::DisableAll();
  ASSERT_TRUE(
      failpoint::ConfigureFromList("net.read=50%short; net.write=50%short")
          .ok());
  TestClient client(port(), kClientTimeoutS);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 16; ++i) {
    client.Request("POST", "/v1/predict", "{\"nodes\":[0,1,2]}");
    ClientResponse r;
    ASSERT_TRUE(client.ReadResponse(&r)) << "short-io req " << i;
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.body, expected);
  }
}

TEST_F(ChaosServerTest, PipelinedConcurrentLoadUnderSocketFaultsDropsNothing) {
  // A sampled engine (real per-request compute) behind a continuous
  // batcher, with interrupted reads and partial writes on the server's
  // sockets: the retry paths must still deliver every pipelined response.
  net::HttpServerOptions options;
  options.batcher.max_batch = 16;
  options.batcher.max_queue_delay_ms = 2.0;
  serve::EngineOptions engine_options;
  engine_options.fanouts = {10, 10};
  StartServer(options, /*model_seed=*/7, engine_options);
  const int64_t num_nodes = handle_->Get()->num_nodes();
  // Under the suite's fixed fail-point seed both sites fire on their second
  // consult, so every schedule of this load sees faults at both.
  ASSERT_TRUE(
      failpoint::ConfigureFromList("net.read=10%eintr; net.write=10%short")
          .ok());

  // Each connection sends all its requests back to back, then reads every
  // answer; in-order delivery pairs response i with request i.
  constexpr int kConns = 4;
  constexpr int kRequestsPerConn = 64;
  const auto node_of = [num_nodes](int conn, int i) {
    return (conn * kRequestsPerConn + i) % num_nodes;
  };
  std::vector<std::vector<ClientResponse>> responses(kConns);
  std::vector<std::thread> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([this, c, &node_of, &responses] {
      TestClient client(port(), kClientTimeoutS);
      if (!client.ok()) return;
      for (int i = 0; i < kRequestsPerConn; ++i) {
        client.Request("POST", "/v1/predict",
                       "{\"nodes\":[" + std::to_string(node_of(c, i)) + "]}");
      }
      for (int i = 0; i < kRequestsPerConn; ++i) {
        ClientResponse r;
        if (!client.ReadResponse(&r)) return;
        responses[static_cast<size_t>(c)].push_back(std::move(r));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kConns; ++c) {
    const std::vector<ClientResponse>& got =
        responses[static_cast<size_t>(c)];
    ASSERT_EQ(got.size(), static_cast<size_t>(kRequestsPerConn))
        << "dropped responses on conn " << c;
    for (int i = 0; i < kRequestsPerConn; ++i) {
      const ClientResponse& r = got[static_cast<size_t>(i)];
      EXPECT_EQ(r.status, 200) << "conn " << c << " req " << i;
      const std::string prefix = "{\"predictions\":[{\"node\":" +
                                 std::to_string(node_of(c, i)) + ",";
      EXPECT_EQ(r.body.rfind(prefix, 0), 0u) << r.body;
    }
  }
  EXPECT_GT(failpoint::Fired("net.read"), 0);
  EXPECT_GT(failpoint::Fired("net.write"), 0);
}

// ---- Deadlines and load shedding over HTTP --------------------------------

TEST_F(ChaosServerTest, DeadlineExpiryShedsWith503AndRetryAfter) {
  net::HttpServerOptions options;
  options.default_deadline_ms = 25.0;
  options.batcher.max_batch = 1;
  options.batcher.num_workers = 1;
  options.batcher.max_queue_delay_ms = 0.0;
  StartServer(options);

  // Every batch stalls 250 ms; the first request is batched immediately
  // and survives, everything queued behind it outlives its deadline.
  ASSERT_TRUE(failpoint::Configure("batcher.batch", "delay(250)").ok());

  TestClient client(port(), kClientTimeoutS);
  ASSERT_TRUE(client.ok());
  client.Request("POST", "/v1/predict", "{\"nodes\":[0,1]}");
  for (int i = 0; i < 3; ++i) {
    client.RequestWithHeaders("POST", "/v1/predict",
                              {{"X-Deadline-Ms", "25"}},
                              "{\"nodes\":[0,1]}");
  }
  client.Request("POST", "/v1/predict", "{\"nodes\":[0,1]}");  // default
  client.Request("POST", "/v1/topk", "{\"node\":0,\"k\":2}");    // default

  ClientResponse r;
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, ExpectedPredictBody({0, 1}));  // byte-exact despite chaos
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.ReadResponse(&r)) << "shed response " << i;
    EXPECT_EQ(r.status, 503);
    EXPECT_EQ(r.headers["retry-after"], "1");
    EXPECT_NE(r.body.find("deadline"), std::string::npos) << r.body;
  }
  failpoint::Disable("batcher.batch");

  // Shed counters surface on /metrics.
  client.Request("GET", "/metrics");
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.body.find("graphrare_batch_shed_total 5"), std::string::npos);
  EXPECT_NE(
      r.body.find("graphrare_requests_shed_total{route=\"/v1/predict\"} 4"),
      std::string::npos);
  EXPECT_NE(
      r.body.find("graphrare_requests_shed_total{route=\"/v1/topk\"} 1"),
      std::string::npos);

  // Malformed X-Deadline-Ms is a client error, not a silent default.
  client.RequestWithHeaders("POST", "/v1/predict",
                            {{"X-Deadline-Ms", "soon"}},
                            "{\"nodes\":[0]}");
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 400);
}

// ---- Responses whose client has gone --------------------------------------

/// Polls /metrics until it contains `needle`; returns the last body.
std::string AwaitMetric(TestClient& client, const std::string& needle) {
  std::string body;
  for (int i = 0; i < 3000; ++i) {
    client.Request("GET", "/metrics");
    ClientResponse r;
    if (!client.ReadResponse(&r)) return "";
    body = r.body;
    if (body.find(needle) != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return body;
}

/// Blocks until fail point `site` has fired at least once.
void AwaitFired(const char* site) {
  for (int i = 0; i < 3000 && failpoint::Fired(site) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

TEST_F(ChaosServerTest, ClientGoneIsAccountedLikeADeliveredResponse) {
  net::HttpServerOptions options;
  options.slo_ms = 50.0;  // every stalled answer below violates it
  StartServer(options);
  TestClient admin(port(), kClientTimeoutS);
  ASSERT_TRUE(admin.ok());

  // Predict: the batch stalls, and the client resets the connection while
  // its request is being evaluated.
  ASSERT_TRUE(failpoint::Configure("batcher.batch", "delay(500)").ok());
  {
    TestClient client(port(), kClientTimeoutS);
    ASSERT_TRUE(client.ok());
    client.Request("POST", "/v1/predict", "{\"nodes\":[0,1]}");
    AwaitFired("batcher.batch");
    client.Abort();
  }
  std::string m =
      AwaitMetric(admin, "graphrare_responses_client_gone_total 1\n");
  EXPECT_NE(m.find("graphrare_responses_client_gone_total 1\n"),
            std::string::npos)
      << m;
  EXPECT_NE(m.find("graphrare_requests_total{route=\"/v1/predict\"} 1\n"),
            std::string::npos);
  EXPECT_NE(
      m.find("graphrare_request_errors_total{route=\"/v1/predict\"} 0\n"),
      std::string::npos);
  EXPECT_NE(m.find("graphrare_slo_violations_total{route=\"/v1/predict\","
                   "slo_ms=\"50\"} 1\n"),
            std::string::npos);
  EXPECT_NE(m.find("graphrare_request_latency_ms{route=\"/v1/predict\","
                   "quantile=\"0.5\"}"),
            std::string::npos);
  failpoint::Disable("batcher.batch");

  // Reload: the artifact open stalls (then fails: the path is missing),
  // and the client resets the connection meanwhile.
  ASSERT_TRUE(failpoint::Configure("artifact.open", "delay(500)").ok());
  {
    TestClient client(port(), kClientTimeoutS);
    ASSERT_TRUE(client.ok());
    client.Request("POST", "/v1/reload",
                   "{\"path\":\"" + TempPath("chaos_gone_missing.grare") +
                       "\"}");
    AwaitFired("artifact.open");
    client.Abort();
  }
  m = AwaitMetric(admin, "graphrare_responses_client_gone_total 2\n");
  EXPECT_NE(m.find("graphrare_responses_client_gone_total 2\n"),
            std::string::npos)
      << m;
  EXPECT_NE(m.find("graphrare_reload_failures_total 1\n"), std::string::npos);
  EXPECT_NE(m.find("graphrare_requests_total{route=\"/v1/reload\"} 1\n"),
            std::string::npos);
  EXPECT_NE(
      m.find("graphrare_request_errors_total{route=\"/v1/reload\"} 1\n"),
      std::string::npos);
  EXPECT_NE(m.find("graphrare_slo_violations_total{route=\"/v1/reload\","
                   "slo_ms=\"50\"} 1\n"),
            std::string::npos);
  EXPECT_NE(m.find("graphrare_request_latency_ms{route=\"/v1/reload\","
                   "quantile=\"0.5\"}"),
            std::string::npos);
}

// ---- Reload rollback under concurrent load --------------------------------

TEST_F(ChaosServerTest, ReloadRollsBackAtEveryFailureStageUnderLoad) {
  net::HttpServerOptions options;
  options.reload_breaker_threshold = 0;  // exercise rollback, not the breaker
  StartServer(options);
  const std::string expected_v1 = ExpectedPredictBody({0, 1, 2});

  const std::string good = TempPath("chaos_reload_good.grare");
  ASSERT_TRUE(MakeArtifact(99).Save(good).ok());

  // A copy with one flipped bit mid-file (checksum mismatch) and a copy
  // claiming a future schema version.
  const std::string bytes = ReadFileBytes(good);
  const std::string corrupt = TempPath("chaos_reload_corrupt.grare");
  {
    std::string b = bytes;
    b[b.size() / 2] = static_cast<char>(b[b.size() / 2] ^ 0x20);
    WriteFileBytes(corrupt, b);
  }
  const std::string wrong_schema = TempPath("chaos_reload_schema.grare");
  {
    std::string b = bytes;
    b[8] = 99;  // schema-version u32 sits right after the 8-byte magic
    WriteFileBytes(wrong_schema, b);
  }

  // Background load: every response must be v1 and byte-exact — a failed
  // reload may never drop a request or leak a half-built engine.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> served{0}, anomalies{0};
  std::thread loader([&] {
    TestClient lc(port(), kClientTimeoutS);
    if (!lc.ok()) {
      anomalies.fetch_add(1);
      return;
    }
    while (!stop.load()) {
      lc.Request("POST", "/v1/predict", "{\"nodes\":[0,1,2]}");
      ClientResponse lr;
      if (!lc.ReadResponse(&lr) || lr.status != 200 ||
          lr.body != expected_v1) {
        anomalies.fetch_add(1);
        return;
      }
      served.fetch_add(1);
    }
  });

  TestClient admin(port(), kClientTimeoutS);
  ASSERT_TRUE(admin.ok());
  auto failing_reload = [&](const std::string& path,
                            const std::string& expect_substr) {
    admin.Request("POST", "/v1/reload", "{\"path\":\"" + path + "\"}");
    ClientResponse rr;
    ASSERT_TRUE(admin.ReadResponse(&rr));
    EXPECT_EQ(rr.status, 500);
    EXPECT_NE(rr.body.find("\"rolled_back\":true"), std::string::npos)
        << rr.body;
    EXPECT_NE(rr.body.find(expect_substr), std::string::npos) << rr.body;
    // The incumbent generation survives every failure.
    admin.Request("GET", "/healthz");
    ASSERT_TRUE(admin.ReadResponse(&rr));
    EXPECT_NE(rr.body.find("\"generation\":1"), std::string::npos) << rr.body;
  };

  // Stage 1: the artifact cannot even be opened.
  ASSERT_TRUE(failpoint::Configure("artifact.open", "error(EIO)").ok());
  failing_reload(good, "open");
  failpoint::Disable("artifact.open");

  // Stage 2: reads fail mid-load.
  ASSERT_TRUE(failpoint::Configure("artifact.read", "error(EIO)").ok());
  failing_reload(good, "read");
  failpoint::Disable("artifact.read");

  // Stage 3: the file opens and reads but a section checksum mismatches.
  failing_reload(corrupt, "checksum");

  // Stage 4: schema from the future.
  failing_reload(wrong_schema, "schema");

  stop.store(true);
  loader.join();
  EXPECT_EQ(anomalies.load(), 0);
  EXPECT_GT(served.load(), 0);

  // With the faults gone the very same artifact hot-swaps cleanly.
  admin.Request("POST", "/v1/reload", "{\"path\":\"" + good + "\"}");
  ClientResponse rr;
  ASSERT_TRUE(admin.ReadResponse(&rr));
  EXPECT_EQ(rr.status, 200);
  EXPECT_NE(rr.body.find("\"generation\":2"), std::string::npos) << rr.body;
  admin.Request("POST", "/v1/predict", "{\"nodes\":[0,1,2]}");
  ASSERT_TRUE(admin.ReadResponse(&rr));
  EXPECT_EQ(rr.status, 200);
  EXPECT_EQ(rr.body, ExpectedPredictBody({0, 1, 2}));  // now the v2 engine
}

// ---- Reload circuit breaker -----------------------------------------------

TEST_F(ChaosServerTest, ReloadBreakerOpensDegradesAndRecovers) {
  net::HttpServerOptions options;
  options.reload_breaker_threshold = 2;
  options.reload_breaker_cooldown_ms = 400.0;
  StartServer(options);

  const std::string good = TempPath("chaos_breaker_good.grare");
  ASSERT_TRUE(MakeArtifact(55).Save(good).ok());
  const std::string missing = TempPath("chaos_breaker_missing.grare");

  TestClient client(port(), kClientTimeoutS);
  ASSERT_TRUE(client.ok());
  ClientResponse r;

  // Two consecutive failures reach the threshold and open the breaker.
  for (int i = 0; i < 2; ++i) {
    client.Request("POST", "/v1/reload", "{\"path\":\"" + missing + "\"}");
    ASSERT_TRUE(client.ReadResponse(&r));
    EXPECT_EQ(r.status, 500);
  }

  // Open: reloads are refused up front with Retry-After, /healthz degrades
  // (but stays HTTP 200 for liveness probes), /metrics shows state 2.
  client.Request("POST", "/v1/reload", "{\"path\":\"" + good + "\"}");
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 503);
  EXPECT_EQ(r.headers["retry-after"], "1");
  EXPECT_NE(r.body.find("circuit breaker"), std::string::npos) << r.body;

  client.Request("GET", "/healthz");
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(r.body.find("\"reload_breaker\":\"open\""), std::string::npos);

  client.Request("GET", "/metrics");
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.body.find("graphrare_reload_breaker_state 2"),
            std::string::npos);
  EXPECT_NE(r.body.find("graphrare_reload_failures_total 2"),
            std::string::npos);

  // After the cooldown one probe is admitted; a failing probe reopens.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  client.Request("POST", "/v1/reload", "{\"path\":\"" + missing + "\"}");
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 500);  // the probe itself runs (and fails)
  client.Request("POST", "/v1/reload", "{\"path\":\"" + good + "\"}");
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 503);  // reopened immediately, no second probe

  // A successful probe closes the breaker and the swap goes through.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  client.Request("POST", "/v1/reload", "{\"path\":\"" + good + "\"}");
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"generation\":2"), std::string::npos) << r.body;

  client.Request("GET", "/healthz");
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(r.body.find("\"reload_breaker\":\"closed\""), std::string::npos);
  client.Request("GET", "/metrics");
  ASSERT_TRUE(client.ReadResponse(&r));
  EXPECT_NE(r.body.find("graphrare_reload_breaker_state 0"),
            std::string::npos);
}

}  // namespace
}  // namespace graphrare
