// End-to-end integration tests: dataset generation -> baseline training ->
// full GraphRARE co-training (Algorithm 1) on small synthetic graphs.

#include <gtest/gtest.h>

#include "core/graphrare.h"

namespace graphrare {
namespace {

data::Dataset SmallHeterophilic(uint64_t seed = 3) {
  data::GeneratorOptions gen;
  gen.name = "itest-het";
  gen.num_nodes = 120;
  gen.num_edges = 300;
  gen.num_features = 64;
  gen.num_classes = 4;
  gen.homophily = 0.15;
  gen.partner_affinity = 0.9;
  gen.feature_signal = 10.0;
  gen.feature_density = 0.1;
  gen.seed = seed;
  return std::move(data::GenerateDataset(gen)).value();
}

core::GraphRareOptions QuickOptions() {
  core::GraphRareOptions opts;
  opts.backbone = nn::BackboneKind::kGcn;
  opts.hidden = 32;
  opts.iterations = 8;
  opts.pretrain_epochs = 25;
  opts.pretrain_patience = 10;
  opts.finetune_epochs = 3;
  opts.k_max = 4;
  opts.d_max = 3;
  opts.ppo.steps_per_update = 4;
  opts.entropy.max_two_hop_candidates = 16;
  opts.entropy.num_random_candidates = 6;
  opts.seed = 11;
  return opts;
}

TEST(IntegrationTest, GcnBaselineLearnsSomething) {
  data::Dataset ds = SmallHeterophilic();
  data::SplitOptions so;
  so.num_splits = 1;
  auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 32;
  mo.num_classes = ds.num_classes;
  mo.seed = 5;
  auto model = nn::MakeModel(nn::BackboneKind::kGcn, mo);
  nn::ClassifierTrainer::Options to;
  to.adam.lr = 0.01f;
  nn::ClassifierTrainer trainer(model.get(),
                                nn::LayerInput::Sparse(ds.FeaturesCsr()),
                                &ds.labels, to);
  const nn::FitResult fit =
      trainer.Fit(ds.graph, splits[0].train, splits[0].val, 60, 20);
  EXPECT_GT(fit.epochs_run, 0);
  // Better than chance (4 classes -> 0.25).
  EXPECT_GT(trainer.Evaluate(ds.graph, splits[0].test).accuracy, 0.3);
}

TEST(IntegrationTest, GraphRareRunsEndToEnd) {
  data::Dataset ds = SmallHeterophilic();
  data::SplitOptions so;
  so.num_splits = 1;
  auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  core::GraphRareTrainer trainer(&ds, QuickOptions());
  core::GraphRareResult result = trainer.Run(splits[0]);

  EXPECT_GT(result.test_accuracy, 0.25);  // better than chance
  EXPECT_EQ(static_cast<int>(result.reward_history.size()), 8);
  EXPECT_EQ(static_cast<int>(result.homophily_history.size()), 8);
  EXPECT_GT(result.entropy_build_seconds, 0.0);
  EXPECT_GE(result.best_val_accuracy, 0.0);
  EXPECT_GT(result.final_edges, 0);
  // The best graph must reference the same node set.
  EXPECT_EQ(result.best_graph.num_nodes(), ds.num_nodes());
}

TEST(IntegrationTest, GraphRareRaisesHomophilyOnInformativeHeterophily) {
  data::Dataset ds = SmallHeterophilic(9);
  data::SplitOptions so;
  so.num_splits = 1;
  auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  core::GraphRareOptions opts = QuickOptions();
  opts.iterations = 12;
  core::GraphRareTrainer trainer(&ds, opts);
  core::GraphRareResult result = trainer.Run(splits[0]);

  // The final (best) graph should not be *less* homophilic than the
  // original by a large margin; typically it improves markedly.
  EXPECT_GE(result.final_homophily, result.initial_homophily - 0.05);
}

TEST(IntegrationTest, AblationModesRun) {
  data::Dataset ds = SmallHeterophilic(4);
  data::SplitOptions so;
  so.num_splits = 1;
  auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  for (core::PolicyMode mode :
       {core::PolicyMode::kFixed, core::PolicyMode::kRandom}) {
    core::GraphRareOptions opts = QuickOptions();
    opts.policy_mode = mode;
    opts.iterations = 4;
    core::GraphRareTrainer trainer(&ds, opts);
    core::GraphRareResult result = trainer.Run(splits[0]);
    EXPECT_GT(result.test_accuracy, 0.2);
  }
}

TEST(IntegrationTest, ShuffledSequencesRun) {
  data::Dataset ds = SmallHeterophilic(5);
  data::SplitOptions so;
  so.num_splits = 1;
  auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  core::GraphRareOptions opts = QuickOptions();
  opts.sequence_mode = core::SequenceMode::kShuffled;
  opts.iterations = 4;
  core::GraphRareTrainer trainer(&ds, opts);
  core::GraphRareResult result = trainer.Run(splits[0]);
  EXPECT_GT(result.test_accuracy, 0.2);
}

TEST(IntegrationTest, AddOnlyAndRemoveOnlyRun) {
  data::Dataset ds = SmallHeterophilic(6);
  data::SplitOptions so;
  so.num_splits = 1;
  auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  {
    core::GraphRareOptions opts = QuickOptions();
    opts.enable_remove = false;
    opts.iterations = 4;
    core::GraphRareTrainer trainer(&ds, opts);
    core::GraphRareResult r = trainer.Run(splits[0]);
    // Only additions: the best graph can never have fewer edges than G_0.
    EXPECT_GE(r.final_edges, ds.graph.num_edges());
  }
  {
    core::GraphRareOptions opts = QuickOptions();
    opts.enable_add = false;
    opts.iterations = 4;
    core::GraphRareTrainer trainer(&ds, opts);
    core::GraphRareResult r = trainer.Run(splits[0]);
    EXPECT_LE(r.final_edges, ds.graph.num_edges());
  }
}

TEST(IntegrationTest, AucRewardRuns) {
  data::Dataset ds = SmallHeterophilic(7);
  data::SplitOptions so;
  so.num_splits = 1;
  auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  core::GraphRareOptions opts = QuickOptions();
  opts.reward.kind = core::RewardKind::kAuc;
  opts.iterations = 4;
  core::GraphRareTrainer trainer(&ds, opts);
  core::GraphRareResult result = trainer.Run(splits[0]);
  EXPECT_EQ(static_cast<int>(result.reward_history.size()), 4);
}

TEST(IntegrationTest, AllBackbonesRunUnderGraphRare) {
  data::Dataset ds = SmallHeterophilic(8);
  data::SplitOptions so;
  so.num_splits = 1;
  auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  for (nn::BackboneKind kind :
       {nn::BackboneKind::kGcn, nn::BackboneKind::kSage,
        nn::BackboneKind::kGat, nn::BackboneKind::kH2Gcn}) {
    core::GraphRareOptions opts = QuickOptions();
    opts.backbone = kind;
    opts.iterations = 3;
    opts.pretrain_epochs = 10;
    core::GraphRareTrainer trainer(&ds, opts);
    core::GraphRareResult result = trainer.Run(splits[0]);
    EXPECT_GT(result.test_accuracy, 0.15)
        << "backbone " << nn::BackboneName(kind);
  }
}

TEST(IntegrationTest, ExperimentRunnerAggregates) {
  data::Dataset ds = SmallHeterophilic(10);
  data::SplitOptions so;
  so.num_splits = 2;
  auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  core::ExperimentOptions eo;
  eo.max_epochs = 30;
  eo.patience = 10;
  eo.hidden = 32;
  const core::BaselineAggregate agg =
      core::RunBackbone(ds, splits, nn::BackboneKind::kMlp, eo);
  EXPECT_EQ(agg.accuracy.values.size(), 2u);
  EXPECT_GT(agg.accuracy.mean, 0.25);
  EXPECT_GT(agg.seconds_per_epoch, 0.0);
}

TEST(IntegrationTest, MiniBatchRunnerIsDeterministic) {
  // The CLI's --minibatch path: one split of neighbor-sampled training.
  data::Dataset ds = SmallHeterophilic(11);
  data::SplitOptions so;
  so.num_splits = 1;
  auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  core::ExperimentOptions eo;
  eo.num_splits = 1;
  eo.hidden = 16;
  core::MiniBatchOptions mb;
  mb.sampler.fanouts = {5, 5};
  mb.sampler.seed = 3;
  mb.batch_size = 32;
  mb.max_epochs = 4;
  mb.patience = 4;
  const core::BaselineAggregate a = core::RunBackboneMiniBatch(
      ds, splits, nn::BackboneKind::kSage, eo, mb);
  const core::BaselineAggregate b = core::RunBackboneMiniBatch(
      ds, splits, nn::BackboneKind::kSage, eo, mb);

  ASSERT_EQ(a.accuracy.values.size(), 1u);
  EXPECT_GE(a.accuracy.mean, 0.0);
  EXPECT_LE(a.accuracy.mean, 1.0);
  EXPECT_GT(a.seconds_per_epoch, 0.0);
  EXPECT_EQ(a.accuracy.values, b.accuracy.values);
}

TEST(IntegrationTest, RewiringBaselinesRun) {
  data::Dataset ds = SmallHeterophilic(12);
  data::SplitOptions so;
  so.num_splits = 1;
  auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  core::KnnGraphOptions knn;
  knn.k = 3;
  const graph::Graph ugcn = core::BuildUgcnStarGraph(ds, knn);
  EXPECT_GE(ugcn.num_edges(), ds.graph.num_edges());

  core::ExperimentOptions eo;
  eo.max_epochs = 25;
  eo.patience = 10;
  eo.hidden = 32;
  const core::BaselineAggregate on_union =
      core::RunBackbone(ds, splits, nn::BackboneKind::kGcn, eo, &ugcn);
  EXPECT_GT(on_union.accuracy.mean, 0.2);

  auto knn_graph = core::BuildKnnGraph(ds.features, knn);
  auto knn_op = knn_graph.NormalizedAdjacency();
  const core::BaselineAggregate simp = core::RunCustomModel(
      ds, splits,
      [&](uint64_t seed) {
        nn::ModelOptions mo;
        mo.in_features = ds.num_features();
        mo.hidden = 32;
        mo.num_classes = ds.num_classes;
        mo.seed = seed;
        return std::make_unique<core::SimpGcnStarModel>(mo, knn_op);
      },
      eo);
  EXPECT_GT(simp.accuracy.mean, 0.2);
}

}  // namespace
}  // namespace graphrare
