// Mini-batch training pipeline tests. The load-bearing property: with
// fanout >= max degree (full fanout) a mini-batch step on the induced
// subgraph reproduces the full-graph step on the same seed nodes *bitwise*
// — identical loss and identical parameter gradients. This holds because
// (a) local ids preserve ascending global order, so CSR rows of the
// sub-operators enumerate neighbors in the same relative order as the
// full-graph operators, and (b) enough sampling layers make every degree
// feeding the normalisation exact: L layers for row-normalised aggregation
// (SAGE), L+1 for symmetric GCN normalisation (boundary degrees).

#include <gtest/gtest.h>

#include "core/graphrare.h"

namespace graphrare {
namespace {

using data::NeighborSampler;
using data::SamplerOptions;

data::Dataset MakeSparseDataset(uint64_t seed) {
  data::GeneratorOptions o;
  // Sparse on purpose: the k-hop closure of a few seeds must be a proper
  // subset of the graph or the equivalence test degenerates.
  o.num_nodes = 160;
  o.num_edges = 170;
  o.num_features = 40;
  o.num_classes = 3;
  o.homophily = 0.4;
  o.feature_density = 0.1;
  o.seed = seed;
  return std::move(data::GenerateDataset(o)).value();
}

nn::ModelOptions NoDropoutOptions(const data::Dataset& ds, uint64_t seed) {
  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 12;
  mo.num_classes = ds.num_classes;
  mo.dropout = 0.0f;  // the two paths draw from different dropout streams
  mo.seed = seed;
  return mo;
}

std::vector<int64_t> SeedNodes(const data::Dataset& ds) {
  // A handful of nodes with neighbors, spread across the graph.
  std::vector<int64_t> seeds;
  for (int64_t v = 0; v < ds.num_nodes() && seeds.size() < 6; v += 23) {
    if (ds.graph.Degree(v) > 0) seeds.push_back(v);
  }
  return seeds;
}

/// Runs one loss+backward on the full graph and on a full-fanout block and
/// expects bitwise-identical loss and parameter gradients.
void ExpectFullFanoutEquivalence(nn::BackboneKind kind, size_t num_layers) {
  data::Dataset ds = MakeSparseDataset(11);
  const std::vector<int64_t> seeds = SeedNodes(ds);
  ASSERT_GE(seeds.size(), 3u);

  // --- Full-graph step. ---
  auto full_model = nn::MakeModel(kind, NoDropoutOptions(ds, 101));
  nn::ModelInputs full_in;
  full_in.graph = &ds.graph;
  full_in.features = nn::LayerInput::Sparse(ds.FeaturesCsr());
  full_model->ZeroGrad();
  tensor::Variable full_logits =
      full_model->Logits(full_in, /*training=*/true, nullptr);
  std::vector<int64_t> y;
  for (const int64_t s : seeds) y.push_back(ds.labels[static_cast<size_t>(s)]);
  tensor::Variable full_loss = tensor::ops::CrossEntropy(full_logits, seeds, y);
  full_loss.Backward();

  // --- Mini-batch step on the full-fanout induced block. ---
  SamplerOptions so;
  so.fanouts.assign(num_layers, ds.graph.MaxDegree());
  so.seed = 1;
  NeighborSampler sampler(&ds.graph, so);
  const graph::Subgraph block = sampler.SampleBlock(seeds);
  // The equivalence claim is only interesting on a proper subgraph.
  ASSERT_LT(block.num_nodes(), ds.num_nodes());

  auto mb_model = nn::MakeModel(kind, NoDropoutOptions(ds, 101));
  nn::ModelInputs mb_in;
  mb_in.graph = &block.graph;
  mb_in.features = nn::LayerInput::Sparse(
      std::make_shared<tensor::CsrMatrix>(block.LocalRows(*ds.FeaturesCsr())));
  mb_model->ZeroGrad();
  tensor::Variable mb_logits =
      mb_model->Logits(mb_in, /*training=*/true, nullptr);
  tensor::Variable mb_loss =
      tensor::ops::CrossEntropy(mb_logits, block.seed_local, y);
  mb_loss.Backward();

  EXPECT_EQ(full_loss.value().scalar(), mb_loss.value().scalar());
  const auto full_params = full_model->Parameters();
  const auto mb_params = mb_model->Parameters();
  ASSERT_EQ(full_params.size(), mb_params.size());
  for (size_t i = 0; i < full_params.size(); ++i) {
    ASSERT_TRUE(full_params[i].has_grad());
    ASSERT_TRUE(mb_params[i].has_grad());
    EXPECT_TRUE(
        full_params[i].grad().AllClose(mb_params[i].grad(), 0.0f, 0.0f))
        << "parameter " << i << " gradients diverge";
  }
}

TEST(MiniBatchEquivalenceTest, SageFullFanoutMatchesFullGraphBitwise) {
  // Row-normalised aggregation: L sampling layers suffice.
  ExpectFullFanoutEquivalence(nn::BackboneKind::kSage, 2);
}

TEST(MiniBatchEquivalenceTest, GcnFullFanoutMatchesFullGraphBitwise) {
  // Symmetric normalisation needs exact boundary degrees: L+1 layers.
  ExpectFullFanoutEquivalence(nn::BackboneKind::kGcn, 3);
}

TEST(MiniBatchEquivalenceTest, TrainersProduceIdenticalWeightsAfterOneStep) {
  data::Dataset ds = MakeSparseDataset(12);
  const std::vector<int64_t> seeds = SeedNodes(ds);
  ASSERT_GE(seeds.size(), 3u);

  auto full_model = nn::MakeModel(nn::BackboneKind::kSage,
                                  NoDropoutOptions(ds, 7));
  nn::ClassifierTrainer::Options full_opts;
  full_opts.seed = 7;
  nn::ClassifierTrainer full(full_model.get(),
                             nn::LayerInput::Sparse(ds.FeaturesCsr()),
                             &ds.labels, full_opts);
  const nn::EvalResult full_step = full.TrainEpoch(ds.graph, seeds);

  auto mb_model = nn::MakeModel(nn::BackboneKind::kSage,
                                NoDropoutOptions(ds, 7));
  nn::MiniBatchTrainer::Options mb_opts;
  mb_opts.seed = 7;
  nn::MiniBatchTrainer mb(mb_model.get(), ds.FeaturesCsr(), &ds.labels,
                          mb_opts);
  SamplerOptions so;
  so.fanouts = {ds.graph.MaxDegree(), ds.graph.MaxDegree()};
  NeighborSampler sampler(&ds.graph, so);
  const nn::EvalResult mb_step = mb.TrainBatch(sampler.SampleBlock(seeds));

  EXPECT_EQ(full_step.loss, mb_step.loss);
  EXPECT_EQ(full_step.accuracy, mb_step.accuracy);
  const auto full_weights = full.SaveWeights();
  const auto mb_weights = mb.SaveWeights();
  ASSERT_EQ(full_weights.size(), mb_weights.size());
  for (size_t i = 0; i < full_weights.size(); ++i) {
    EXPECT_TRUE(full_weights[i].AllClose(mb_weights[i], 0.0f, 0.0f))
        << "post-Adam weights diverge at parameter " << i;
  }
}

TEST(MiniBatchTest, TrainBatchOnIsolatedSeedRuns) {
  data::Dataset ds = MakeSparseDataset(13);
  // Find an isolated node (the sparse generator leaves several).
  int64_t isolated = -1;
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    if (ds.graph.Degree(v) == 0) {
      isolated = v;
      break;
    }
  }
  ASSERT_GE(isolated, 0) << "generator produced no isolated node";

  auto model = nn::MakeModel(nn::BackboneKind::kSage,
                             NoDropoutOptions(ds, 3));
  nn::MiniBatchTrainer::Options opts;
  nn::MiniBatchTrainer trainer(model.get(), ds.FeaturesCsr(), &ds.labels,
                               opts);
  NeighborSampler sampler(&ds.graph, SamplerOptions{});
  const nn::EvalResult step =
      trainer.TrainBatch(sampler.SampleBlock({isolated}));
  EXPECT_TRUE(std::isfinite(step.loss));
}

TEST(MiniBatchTest, FitMiniBatchLearnsTheSyntheticTask) {
  data::GeneratorOptions o;
  o.num_nodes = 300;
  o.num_edges = 900;
  o.num_features = 64;
  o.num_classes = 3;
  o.homophily = 0.6;
  o.seed = 4;
  data::Dataset ds = std::move(data::GenerateDataset(o)).value();
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 24;
  mo.num_classes = ds.num_classes;
  mo.seed = 5;
  auto model = nn::MakeModel(nn::BackboneKind::kSage, mo);
  nn::MiniBatchTrainer::Options to;
  to.seed = 5;
  nn::MiniBatchTrainer trainer(model.get(), ds.FeaturesCsr(), &ds.labels,
                               to);
  core::MiniBatchOptions mb;
  mb.sampler.fanouts = {8, 8};
  mb.sampler.seed = 9;
  mb.batch_size = 64;
  mb.max_epochs = 30;
  mb.patience = 30;
  const nn::FitResult fit = core::FitMiniBatch(
      &trainer, ds.graph, splits[0].train, splits[0].val, mb, /*seed=*/5);

  EXPECT_EQ(fit.epochs_run, 30);
  EXPECT_GT(fit.batches_run, fit.epochs_run);
  EXPECT_GT(fit.best_val_accuracy, 0.7);
  const double test_acc =
      trainer.Evaluate(ds.graph, splits[0].test).accuracy;
  EXPECT_GT(test_acc, 0.7);
  // Training loss went down overall.
  EXPECT_LT(fit.train_loss_history.back(), fit.train_loss_history.front());
}

/// FNV-1a over raw bytes: the golden pins below hash bit patterns, so a
/// one-ulp drift anywhere in the trajectory changes the digest.
uint64_t Fnv1a(uint64_t h, const void* bytes, size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001B3ULL;
  return h;
}

uint64_t HashValue(uint64_t h, double v) { return Fnv1a(h, &v, sizeof(v)); }

uint64_t HashHistory(uint64_t h, const std::vector<double>& v) {
  return Fnv1a(h, v.data(), v.size() * sizeof(double));
}

uint64_t HashStep(uint64_t h, const nn::EvalResult& r) {
  return HashValue(HashValue(h, r.loss), r.accuracy);
}

/// Trains one MiniBatchTrainer at dropout 0.5 through both dropout
/// streams — full-graph TrainEpoch (seed ^ 0xA5A5A5A5) and block
/// TrainBatch (seed ^ 0x3C3C3C3C) — then a short Fit and a short
/// FitMiniBatch, and digests every loss, history and the final weights.
uint64_t DropoutStreamDigest(nn::BackboneKind kind) {
  data::GeneratorOptions o;
  o.num_nodes = 200;
  o.num_edges = 600;
  o.num_features = 32;
  o.num_classes = 3;
  o.homophily = 0.5;
  o.seed = 21;
  data::Dataset ds = std::move(data::GenerateDataset(o)).value();
  data::SplitOptions split_opts;
  split_opts.num_splits = 1;
  const data::Split split =
      data::MakeSplits(ds.labels, ds.num_classes, split_opts)[0];

  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 12;
  mo.num_classes = ds.num_classes;
  mo.dropout = 0.5f;
  mo.gat_heads = 2;
  mo.seed = 22;
  auto model = nn::MakeModel(kind, mo);
  nn::MiniBatchTrainer::Options to;
  to.seed = 23;
  nn::MiniBatchTrainer mb(model.get(), ds.FeaturesCsr(), &ds.labels, to);
  nn::ClassifierTrainer& full = mb;

  uint64_t h = 0xCBF29CE484222325ULL;
  for (int e = 0; e < 3; ++e) {
    h = HashStep(h, full.TrainEpoch(ds.graph, split.train));
  }

  SamplerOptions so;
  so.fanouts = {4, 4};
  so.seed = 24;
  NeighborSampler sampler(&ds.graph, so);
  Rng batch_rng(25);
  const auto batches =
      NeighborSampler::MakeBatches(split.train, 32, true, &batch_rng);
  GR_CHECK_GE(batches.size(), 3u);
  for (size_t b = 0; b < 3; ++b) {
    h = HashStep(h, mb.TrainBatch(sampler.SampleBlock(batches[b])));
  }
  h = HashStep(h, mb.Evaluate(ds.graph, split.val));

  const auto fit = full.Fit(ds.graph, split.train, split.val, 4, 2);
  h = HashValue(h, fit.epochs_run);
  h = HashValue(h, fit.best_epoch);
  h = HashValue(h, fit.best_val_accuracy);
  h = HashHistory(h, fit.train_acc_history);
  h = HashHistory(h, fit.val_acc_history);

  core::MiniBatchOptions mbo;
  mbo.sampler = so;
  mbo.batch_size = 32;
  mbo.max_epochs = 3;
  mbo.patience = 2;
  const auto mb_fit = core::FitMiniBatch(&mb, ds.graph, split.train,
                                         split.val, mbo, /*seed=*/26);
  h = HashValue(h, mb_fit.epochs_run);
  h = HashValue(h, static_cast<double>(mb_fit.batches_run));
  h = HashValue(h, mb_fit.best_epoch);
  h = HashValue(h, mb_fit.best_val_accuracy);
  h = HashHistory(h, mb_fit.train_loss_history);
  h = HashHistory(h, mb_fit.train_acc_history);
  h = HashHistory(h, mb_fit.val_acc_history);

  for (const auto& [name, value] : model->StateDict()) {
    h = Fnv1a(h, name.data(), name.size());
    h = Fnv1a(h, value.data(),
              static_cast<size_t>(value.numel()) * sizeof(float));
  }
  return h;
}

// The digests are bit patterns of float arithmetic, so they depend on
// whether the compiler fuses multiply-adds: optimised builds for an FMA
// host (the default -march=native Release) contract a*b+c into one
// rounding; Debug builds and builds without FMA round every step.
#if defined(__OPTIMIZE__) && defined(__FMA__)
constexpr uint64_t kSageDigest = 0x8a6a96a68acb4ef4ULL;
constexpr uint64_t kGatDigest = 0x24e3f103f9389a25ULL;
#else
constexpr uint64_t kSageDigest = 0x39c031060d6d057cULL;
constexpr uint64_t kGatDigest = 0xfc0cab9efa7478b7ULL;
#endif

TEST(MiniBatchGoldenTest, SageDropoutStreamsArePinned) {
  const uint64_t digest = DropoutStreamDigest(nn::BackboneKind::kSage);
  EXPECT_EQ(digest, kSageDigest) << std::hex << "0x" << digest;
}

TEST(MiniBatchGoldenTest, GatDropoutStreamsArePinned) {
  const uint64_t digest = DropoutStreamDigest(nn::BackboneKind::kGat);
  EXPECT_EQ(digest, kGatDigest) << std::hex << "0x" << digest;
}

TEST(MiniBatchTest, SelectRowsSlicesFeatureRowsExactly) {
  data::Dataset ds = MakeSparseDataset(14);
  auto csr = ds.FeaturesCsr();
  const std::vector<int64_t> rows = {5, 0, 5, 159};
  const tensor::CsrMatrix sliced = csr->SelectRows(rows);
  EXPECT_EQ(sliced.rows(), 4);
  EXPECT_EQ(sliced.cols(), csr->cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int64_t c = 0; c < csr->cols(); ++c) {
      EXPECT_EQ(sliced.At(static_cast<int64_t>(i), c), csr->At(rows[i], c));
    }
  }
}

}  // namespace
}  // namespace graphrare
