// The three phases every benchmark run is built from. Each phase sets its
// inputs up from the run seed (several times, reporting the median set-up
// time), measures for its share of the run, checks every output, and adds
// its end-to-end metrics (and, in a traced run, its per-layer metrics and
// table) to the run's report.
#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <cstdint>
#include <memory>
#include <string>

#include "report.h"
#include "tensor/tensor.h"

namespace perfbench {

struct PhaseContext {
  uint64_t seed = 1;
  double seconds = 1.0;  ///< measurement budget of this phase
  bool trace = false;
  /// Scratch directory inside the checkout (artifact files).
  std::string workdir;
  Metrics* e2e = nullptr;     ///< end-to-end metrics (untraced runs)
  Metrics* layers = nullptr;  ///< per-layer metrics (traced runs)

  int64_t attempted = 0;
  int64_t failed = 0;
  double setup_s = 0.0;  ///< median set-up time of this phase

  /// Counts `n` operations, of which the failed ones are those for which
  /// `ok` is false; prints `what` on failure.
  void Count(int64_t n, bool ok, const std::string& what);
};

/// Number of set-ups per phase; the phase reports their median.
constexpr int kSetupRepeats = 3;

/// Tensor-pool hits and misses accumulated over the work a phase times.
class PoolCounter {
 public:
  /// Adds the pool traffic between its construction and destruction.
  class Scope {
   public:
    explicit Scope(PoolCounter* counter)
        : counter_(counter),
          before_(graphrare::tensor::TensorPool::GetStats()) {}
    ~Scope() {
      const auto now = graphrare::tensor::TensorPool::GetStats();
      counter_->hits_ += now.hits - before_.hits;
      counter_->misses_ += now.misses - before_.misses;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PoolCounter* counter_;
    graphrare::tensor::TensorPool::Stats before_;
  };

  double HitRate() const {
    const uint64_t total = hits_ + misses_;
    return total > 0 ? static_cast<double>(hits_) / static_cast<double>(total)
                     : 0.0;
  }

 private:
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// Block-scoped co-training rounds (BlockRolloutRunner::RunRound, then
/// MergedGraph, then full-graph validation Evaluate). Construction is the
/// set-up; each RunEpisode plays one episode; Finish checks, reports and,
/// in a traced run, replays an episode traced.
class CotrainPhase {
 public:
  explicit CotrainPhase(PhaseContext* ctx);
  ~CotrainPhase();
  CotrainPhase(const CotrainPhase&) = delete;
  CotrainPhase& operator=(const CotrainPhase&) = delete;

  /// Returns the episode's seconds.
  double RunEpisode();
  void Finish();

 private:
  struct State;
  PhaseContext* ctx_;
  std::unique_ptr<State> s_;
};

/// Full-graph ClassifierTrainer::TrainEpoch for GCN, SAGE and GAT.
/// Construction is the set-up; each RunCycle trains one epoch of each
/// backbone; Finish checks, reports and, in a traced run, retrains traced.
class TrainPhase {
 public:
  explicit TrainPhase(PhaseContext* ctx);
  ~TrainPhase();
  TrainPhase(const TrainPhase&) = delete;
  TrainPhase& operator=(const TrainPhase&) = delete;

  /// Returns the cycle's seconds.
  double RunCycle();
  void Finish();

 private:
  struct State;
  PhaseContext* ctx_;
  std::unique_ptr<State> s_;
};

/// Runs co-training episodes and training cycles interleaved in proportion
/// to the two budgets, so both sample the machine over the same span.
void RunTrainingPhases(PhaseContext* cotrain, PhaseContext* train);

enum class ServeMode {
  kSampled,  ///< sampled engine (fanouts 10,10), one id per request
  kLookup,   ///< full-graph engine, 1-16 ids per request, plus reloads
};

/// Open-loop POST /v1/predict traffic at two fixed rates, then a
/// closed-loop throughput phase, against an in-process net::HttpServer.
void RunServePhase(ServeMode mode, PhaseContext* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
