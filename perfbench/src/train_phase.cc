// Full-graph training phase: ClassifierTrainer::TrainEpoch for GCN, SAGE
// and GAT on the 10k-node, 256-feature graph of bench/train_epoch. GEMM,
// SpMM, the GAT edge kernel and the autograd tape do almost all of the
// work; the sampler, RL and the network tier do none.
//
// The traced run rebuilds each epoch from the calls TrainEpoch makes
// (Logits, ops::CrossEntropy, Variable::Backward, nn::Adam::Step) on an
// identically seeded model, times each, and requires the same loss bit for
// bit. It then times single kernel calls on the epoch's own operands.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/graphrare.h"
#include "nn/metrics.h"
#include "phases.h"

namespace perfbench {
namespace {

using namespace graphrare;
namespace ops = tensor::ops;

constexpr int64_t kNodes = 10000;
constexpr int64_t kHidden = 64;

data::Dataset EpochDataset(uint64_t seed) {
  data::GeneratorOptions o;
  o.name = "perfbench-train";
  o.num_nodes = kNodes;
  o.num_edges = 4 * kNodes;
  o.num_features = 256;
  o.num_classes = 5;
  o.homophily = 0.4;
  o.feature_signal = 8.0;
  o.feature_density = 0.05;
  o.seed = seed;
  auto result = data::GenerateDataset(o);
  if (!result.ok()) throw std::runtime_error(result.status().ToString());
  return std::move(result).value();
}

struct Backbone {
  const char* name;
  nn::BackboneKind kind;
};
const Backbone kBackbones[] = {{"gcn", nn::BackboneKind::kGcn},
                               {"sage", nn::BackboneKind::kSage},
                               {"gat", nn::BackboneKind::kGat}};

/// Everything one backbone's training needs; identically seeded on every
/// construction.
struct Fixture {
  Fixture(const data::Dataset& ds, nn::BackboneKind kind, uint64_t seed) {
    mo.in_features = ds.num_features();
    mo.hidden = kHidden;
    mo.num_classes = ds.num_classes;
    mo.seed = seed;
    model = nn::MakeModel(kind, mo);
    to.adam.lr = 0.01f;
    to.seed = seed;
  }
  nn::ModelOptions mo;
  nn::ClassifierTrainer::Options to;
  std::unique_ptr<nn::NodeClassifier> model;
};

/// TrainEpoch rebuilt from its public calls, with each call timed.
class TracedEpoch {
 public:
  TracedEpoch(Fixture* f, const data::Dataset& ds,
              const std::vector<int64_t>& train_idx)
      : model_(f->model.get()),
        adam_(f->model->Parameters(), f->to.adam),
        // ClassifierTrainer seeds its dropout stream this way.
        rng_(f->to.seed ^ 0xA5A5A5A5ULL),
        ds_(ds),
        train_idx_(train_idx) {
    inputs_.graph = &ds.graph;
    inputs_.features = nn::LayerInput::Sparse(ds.FeaturesCsr());
    for (const int64_t i : train_idx) {
      labels_.push_back(ds.labels[static_cast<size_t>(i)]);
    }
  }

  double Run() {
    model_->ZeroGrad();
    Stopwatch w;
    tensor::Variable logits = model_->Logits(inputs_, true, &rng_);
    forward_ms += w.ElapsedMillis();
    w.Restart();
    tensor::Variable loss = ops::CrossEntropy(logits, train_idx_, labels_);
    loss_ms += w.ElapsedMillis();
    w.Restart();
    loss.Backward();
    backward_ms += w.ElapsedMillis();
    w.Restart();
    adam_.Step();
    optim_ms += w.ElapsedMillis();
    nn::Accuracy(logits.value(), ds_.labels, train_idx_);
    return loss.value().scalar();
  }

  /// Zeroes the timers (after the warm-up epoch).
  void ResetTimes() { forward_ms = loss_ms = backward_ms = optim_ms = 0.0; }

  double forward_ms = 0, loss_ms = 0, backward_ms = 0, optim_ms = 0;

 private:
  nn::NodeClassifier* model_;
  nn::Adam adam_;
  Rng rng_;
  const data::Dataset& ds_;
  const std::vector<int64_t>& train_idx_;
  std::vector<int64_t> labels_;
  nn::ModelInputs inputs_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The `nth` parameter tensor of shape rows x cols.
tensor::Tensor ParameterOfShape(const nn::NodeClassifier& model, int64_t rows,
                                int64_t cols, int nth = 0) {
  for (const auto& p : model.NamedParameters()) {
    if (p.second.value().rows() == rows && p.second.value().cols() == cols &&
        nth-- == 0) {
      return p.second.value();
    }
  }
  throw std::runtime_error("no parameter of the expected shape");
}

template <typename F>
double MsPerCall(int calls, F&& f) {
  f();  // warm
  Stopwatch w;
  for (int i = 0; i < calls; ++i) f();
  return w.ElapsedMillis() / calls;
}

/// One backbone's timed trainer.
struct Timed {
  const Backbone* bb;
  std::unique_ptr<Fixture> f;
  std::unique_ptr<nn::ClassifierTrainer> trainer;
  std::vector<double> losses;  ///< warm-up epoch first
  std::vector<double> epoch_s;
};

}  // namespace

struct TrainPhase::State {
  data::Dataset ds;
  std::vector<int64_t> train_idx;
  std::vector<Timed> runs;
  PoolCounter pool;
};

TrainPhase::TrainPhase(PhaseContext* ctx)
    : ctx_(ctx), s_(std::make_unique<State>()) {
  data::Dataset& ds = s_->ds;
  std::vector<int64_t>& train_idx = s_->train_idx;
  // Set-up: generate the graph, then per backbone build the model and run
  // the warm-up epoch (it builds the cached graph operators).
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    Stopwatch w;
    ds = EpochDataset(ctx->seed);
    data::SplitOptions so;
    so.num_splits = 1;
    so.seed = ctx->seed + 11;
    train_idx = data::MakeSplits(ds.labels, ds.num_classes, so)[0].train;
    for (const Backbone& bb : kBackbones) {
      Fixture f(ds, bb.kind, ctx->seed);
      nn::ClassifierTrainer trainer(
          f.model.get(), nn::LayerInput::Sparse(ds.FeaturesCsr()), &ds.labels,
          f.to);
      trainer.TrainEpoch(ds.graph, train_idx);
    }
    setups.push_back(w.ElapsedSeconds());
  }
  ctx->setup_s = Median(setups);

  for (const Backbone& bb : kBackbones) {
    Timed t{&bb, std::make_unique<Fixture>(ds, bb.kind, ctx->seed), nullptr,
            {}, {}};
    t.trainer = std::make_unique<nn::ClassifierTrainer>(
        t.f->model.get(), nn::LayerInput::Sparse(ds.FeaturesCsr()),
        &ds.labels, t.f->to);
    t.losses.push_back(t.trainer->TrainEpoch(ds.graph, train_idx).loss);
    s_->runs.push_back(std::move(t));
  }
}

TrainPhase::~TrainPhase() = default;

double TrainPhase::RunCycle() {
  // One epoch of each backbone in turn, so a slow stretch of the machine
  // falls on all three alike.
  const PoolCounter::Scope pool(&s_->pool);
  double seconds = 0.0;
  for (Timed& t : s_->runs) {
    Stopwatch w;
    t.losses.push_back(t.trainer->TrainEpoch(s_->ds.graph, s_->train_idx).loss);
    t.epoch_s.push_back(w.ElapsedSeconds());
    seconds += t.epoch_s.back();
  }
  return seconds;
}

void TrainPhase::Finish() {
  std::printf("\n== phase train-fullgraph ==\n");
  PhaseContext* ctx = ctx_;
  const data::Dataset& ds = s_->ds;
  const std::vector<int64_t>& train_idx = s_->train_idx;
  const std::vector<Timed>& runs = s_->runs;
  const double pool_hit_rate = s_->pool.HitRate();
  // The traced composition on identically seeded models must give the
  // same losses bit for bit. It replays the timed epochs in the same
  // interleaved order; untraced runs check the first epoch only.
  struct Twin {
    std::unique_ptr<Fixture> f;
    std::unique_ptr<TracedEpoch> epoch;
    bool same = true;
    double wall_ms = 0.0;  ///< warm-up epoch left out, as in the timed run
  };
  std::vector<Twin> twins;
  for (const Timed& t : runs) {
    Twin twin;
    twin.f = std::make_unique<Fixture>(ds, t.bb->kind, ctx->seed);
    twin.epoch = std::make_unique<TracedEpoch>(twin.f.get(), ds, train_idx);
    twins.push_back(std::move(twin));
  }
  const size_t epochs = ctx->trace ? runs[0].losses.size() : 1;
  for (size_t e = 0; e < epochs; ++e) {
    for (size_t i = 0; i < runs.size(); ++i) {
      Stopwatch w;
      twins[i].same =
          twins[i].same && SameBits(twins[i].epoch->Run(), runs[i].losses[e]);
      if (e == 0) {
        twins[i].epoch->ResetTimes();
      } else {
        twins[i].wall_ms += w.ElapsedMillis();
      }
    }
  }

  for (size_t i = 0; i < runs.size(); ++i) {
    const std::string name = runs[i].bb->name;
    const std::vector<double>& losses = runs[i].losses;
    const std::vector<double>& epoch_s = runs[i].epoch_s;
    const Twin& twin = twins[i];
    int64_t bad = 0;
    for (const double l : losses) bad += std::isfinite(l) ? 0 : 1;
    ctx->Count(static_cast<int64_t>(losses.size()) - bad, true, "");
    ctx->Count(bad, false, name + ": non-finite training loss");
    ctx->Count(1, twin.same,
               name + ": traced epoch loss differs from TrainEpoch");
    PrintTiming("epoch_s." + name, "s", epoch_s);
    ctx->e2e->Add("epoch_s." + name, Median(epoch_s), "s");
    std::printf("  %s: loss %.6f after %zu epochs; traced composition %s\n",
                name.c_str(), losses.back(), losses.size(),
                twin.same ? "matches bit for bit" : "DIFFERS");
    if (!ctx->trace) continue;

    double untraced_wall_ms = 0.0;
    for (const double s : epoch_s) untraced_wall_ms += 1e3 * s;
    const int64_t n = static_cast<int64_t>(epoch_s.size());
    const TracedEpoch& traced = *twin.epoch;
    PrintLayerTable("per-layer table: train-fullgraph " + name + " (" +
                        std::to_string(n) + " epochs)",
                    {{"nn.forward", n, traced.forward_ms},
                     {"nn.loss", n, traced.loss_ms},
                     {"tensor.backward", n, traced.backward_ms},
                     {"nn.optim", n, traced.optim_ms}},
                    untraced_wall_ms, twin.wall_ms);
    const double per = 1.0 / static_cast<double>(n);
    ctx->layers->Add("nn.forward_ms." + name, traced.forward_ms * per, "ms");
    ctx->layers->Add("nn.loss_ms." + name, traced.loss_ms * per, "ms");
    ctx->layers->Add("tensor.backward_ms." + name, traced.backward_ms * per,
                     "ms");
    ctx->layers->Add("nn.optim_ms." + name, traced.optim_ms * per, "ms");
  }
  std::printf("  tensor pool hit rate over the timed epochs: %.4f\n",
              pool_hit_rate);
  if (!ctx->trace) return;
  ctx->layers->Add("tensor.pool_hit_rate.train", pool_hit_rate, "ratio");

  // Kernel calls on the epoch's own operands: the GCN model's weights,
  // the graph's normalised adjacency, the hidden activations X W0.
  Fixture gcn(ds, nn::BackboneKind::kGcn, ctx->seed);
  const tensor::Tensor w0 =
      ParameterOfShape(*gcn.model, ds.num_features(), kHidden);
  const tensor::Tensor w1 =
      ParameterOfShape(*gcn.model, kHidden, ds.num_classes);
  const auto features = ds.FeaturesCsr();
  const tensor::Tensor hidden = features->SpMM(w0);
  const auto adj = ds.graph.NormalizedAdjacency();
  const double spmm_ms = MsPerCall(20, [&] { adj->SpMM(hidden); });
  // Bytes a CSR SpMM moves: values + column ids + row pointers, one
  // gathered dense row per non-zero, one written output row per row.
  const double nnz = static_cast<double>(adj->nnz());
  const double rows = static_cast<double>(adj->rows());
  const double spmm_mb =
      (nnz * (4.0 + 8.0) + (rows + 1) * 8.0 + nnz * kHidden * 4.0 +
       rows * kHidden * 4.0) / 1e6;

  const tensor::Tensor z = tensor::MatMul(hidden, w1);
  const double gemm_ms = MsPerCall(20, [&] {
    tensor::MatMul(hidden, w1);
    tensor::MatMulTransA(hidden, z);
    tensor::MatMulTransB(z, w1);
  });
  const double gemm_mflop =
      3.0 * 2.0 * rows * kHidden * static_cast<double>(ds.num_classes) / 1e6;

  // One first-layer GAT head: h = X W_proj, scores h a_src and h a_dst.
  Fixture gat(ds, nn::BackboneKind::kGat, ctx->seed);
  const int64_t per_head = kHidden / gat.mo.gat_heads;
  const tensor::Variable h(features->SpMM(
      ParameterOfShape(*gat.model, ds.num_features(), per_head)));
  const tensor::Variable sl(tensor::MatMul(
      h.value(), ParameterOfShape(*gat.model, per_head, 1, 0)));
  const tensor::Variable sr(tensor::MatMul(
      h.value(), ParameterOfShape(*gat.model, per_head, 1, 1)));
  std::vector<int64_t> src, dst;
  ds.graph.DirectedEdgesWithSelfLoops(&src, &dst);
  const double gat_ms = MsPerCall(10, [&] {
    ops::GatSegmentAttention(h, sl, sr, src, dst, kNodes, 0.2f, 0.0f,
                             /*training=*/false, nullptr);
  });
  std::printf("  kernels on the epoch's operands: SpMM %.3f ms (%.1f MB), "
              "layer-2 GEMMs %.3f ms (%.1f Mflop), GAT attention head "
              "%.3f ms\n",
              spmm_ms, spmm_mb, gemm_ms, gemm_mflop, gat_ms);
  ctx->layers->Add("tensor.spmm_ms", spmm_ms, "ms");
  ctx->layers->Add("tensor.spmm_mb", spmm_mb, "MB");
  ctx->layers->Add("tensor.gemm_ms", gemm_ms, "ms");
  ctx->layers->Add("tensor.gemm_mflop", gemm_mflop, "Mflop");
  ctx->layers->Add("tensor.gat_attn_ms", gat_ms, "ms");
}

}  // namespace perfbench
