// Block-scoped RL topology optimization tests (ctest label: rl). The
// load-bearing properties:
//  * RelativeEntropyIndex::Restrict remaps sequences into block-local id
//    space exactly (drop-outside-block, order preserved, no recompute).
//  * EditMerger resolves block overlap last-writer-wins per node and merges
//    deterministically (block-order-invariant for disjoint blocks).
//  * Full-graph mode is the B=1/full-fanout special case: a
//    BlockTopologyEnv over the identity block reproduces the full-graph
//    reference episode (full_graph_reference.h) BITWISE (same rewards,
//    same rewired edge set, same post-finetune weights) — scripted actions
//    and PPO-driven alike.
//  * End-to-end: block-scoped co-training completes in seconds on a
//    10k-node graph, a scale past the rl_blocks_scaling bench's
//    full-graph-episode cutoff (full-graph per-step cost grows with the
//    whole adjacency).

#include <gtest/gtest.h>

#include <cmath>

#include "core/graphrare.h"
#include "full_graph_reference.h"

namespace graphrare {
namespace {

using core::BlockRolloutOptions;
using core::BlockRolloutRunner;
using core::BlockTopologyEnv;
using core::EditMerger;
using core::NodeEdits;
using core::TopologyEnvOptions;

data::Dataset MakeSparseDataset(uint64_t seed) {
  data::GeneratorOptions o;
  o.num_nodes = 160;
  o.num_edges = 300;
  o.num_features = 40;
  o.num_classes = 3;
  o.homophily = 0.5;
  o.feature_density = 0.1;
  o.seed = seed;
  return std::move(data::GenerateDataset(o)).value();
}

entropy::RelativeEntropyIndex BuildIndex(const data::Dataset& ds,
                                         uint64_t seed = 3) {
  entropy::EntropyOptions eo;
  eo.max_two_hop_candidates = 8;
  eo.num_random_candidates = 4;
  eo.seed = seed;
  return std::move(entropy::RelativeEntropyIndex::Build(ds.graph,
                                                        ds.features, eo))
      .value();
}

// ---- Options validation (Status, not a crash) ------------------------------

TEST(TopologyEnvOptionsTest, RejectsNegativeBounds) {
  TopologyEnvOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.k_max = -1;
  EXPECT_FALSE(o.Validate().ok());
  o = TopologyEnvOptions();
  o.d_max = -3;
  EXPECT_FALSE(o.Validate().ok());
  o = TopologyEnvOptions();
  o.gnn_epochs_per_step = -1;
  EXPECT_FALSE(o.Validate().ok());
  o = TopologyEnvOptions();
  o.reward.lambda_r = -0.5;
  EXPECT_FALSE(o.Validate().ok());
}

TEST(TopologyEnvOptionsTest, RejectsNegativeEntropyLambda) {
  TopologyEnvOptions o;
  o.entropy.lambda = -0.25;
  const Status s = o.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("lambda"), std::string::npos);
}

TEST(BlockRolloutOptionsTest, Validation) {
  BlockRolloutOptions o;
  EXPECT_TRUE(o.Validate().ok());
  o.blocks_per_round = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = BlockRolloutOptions();
  o.seeds_per_block = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = BlockRolloutOptions();
  o.steps_per_episode = 0;
  EXPECT_FALSE(o.Validate().ok());
  o = BlockRolloutOptions();
  o.fanouts = {10, 0};
  EXPECT_FALSE(o.Validate().ok());
  o.fanouts = {10, -1};  // -1 = unlimited is legal
  EXPECT_TRUE(o.Validate().ok());
  o = BlockRolloutOptions();
  o.env.k_max = -2;
  EXPECT_FALSE(o.Validate().ok());
}

// The block driver always rewires with PPO and both edit kinds; options it
// would otherwise ignore abort before any work starts.
TEST(RunBlockCoTrainingDeathTest, RejectsOptionsItWouldIgnore) {
  const data::Dataset ds = MakeSparseDataset(3);
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  const BlockRolloutOptions ro;

  core::GraphRareOptions fixed;
  fixed.policy_mode = core::PolicyMode::kFixed;
  EXPECT_DEATH(core::RunBlockCoTraining(ds, splits[0], fixed, ro),
               "policy_mode");
  core::GraphRareOptions random;
  random.policy_mode = core::PolicyMode::kRandom;
  EXPECT_DEATH(core::RunBlockCoTraining(ds, splits[0], random, ro),
               "policy_mode");
  core::GraphRareOptions no_add;
  no_add.enable_add = false;
  EXPECT_DEATH(core::RunBlockCoTraining(ds, splits[0], no_add, ro),
               "enable_add");
  core::GraphRareOptions no_remove;
  no_remove.enable_remove = false;
  EXPECT_DEATH(core::RunBlockCoTraining(ds, splits[0], no_remove, ro),
               "enable_remove");
}

// ---- Restrict remap integrity ----------------------------------------------

TEST(RestrictTest, IdentityBlockReproducesIndexExactly) {
  data::Dataset ds = MakeSparseDataset(11);
  const auto index = BuildIndex(ds);
  const graph::Subgraph block = graph::FullSubgraph(ds.graph, {0, 5});
  const auto restricted = index.Restrict(block);

  ASSERT_EQ(restricted.num_nodes(), index.num_nodes());
  EXPECT_EQ(restricted.lambda(), index.lambda());
  for (int64_t v = 0; v < index.num_nodes(); ++v) {
    const auto& a = index.sequences(v);
    const auto& b = restricted.sequences(v);
    ASSERT_EQ(a.remote.size(), b.remote.size());
    for (size_t i = 0; i < a.remote.size(); ++i) {
      EXPECT_EQ(a.remote[i].node, b.remote[i].node);
      EXPECT_EQ(a.remote[i].entropy, b.remote[i].entropy);
    }
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].node, b.neighbors[i].node);
      EXPECT_EQ(a.neighbors[i].entropy, b.neighbors[i].entropy);
    }
  }
}

TEST(RestrictTest, RemapsAndFiltersSampledBlock) {
  data::Dataset ds = MakeSparseDataset(12);
  const auto index = BuildIndex(ds);

  data::SamplerOptions so;
  so.fanouts = {4, 4};
  so.seed = 9;
  data::NeighborSampler sampler(&ds.graph, so);
  std::vector<int64_t> seeds;
  for (int64_t v = 0; v < ds.num_nodes() && seeds.size() < 8; v += 19) {
    if (ds.graph.Degree(v) > 0) seeds.push_back(v);
  }
  ASSERT_GE(seeds.size(), 4u);
  const graph::Subgraph block = sampler.SampleBlock(seeds);
  ASSERT_LT(block.num_nodes(), ds.num_nodes());

  const auto restricted = index.Restrict(block);
  ASSERT_EQ(restricted.num_nodes(), block.num_nodes());
  for (int64_t local = 0; local < block.num_nodes(); ++local) {
    const int64_t global = block.nodes[static_cast<size_t>(local)];
    const auto& src = index.sequences(global);
    const auto& dst = restricted.sequences(local);

    // Expected: the global sequence filtered to block members, remapped.
    std::vector<entropy::ScoredNode> want_remote;
    for (const auto& s : src.remote) {
      const int64_t l = block.GlobalToLocal(s.node);
      if (l >= 0) want_remote.push_back({l, s.entropy});
    }
    ASSERT_EQ(dst.remote.size(), want_remote.size());
    for (size_t i = 0; i < want_remote.size(); ++i) {
      EXPECT_EQ(dst.remote[i].node, want_remote[i].node);
      EXPECT_EQ(dst.remote[i].entropy, want_remote[i].entropy);
      EXPECT_GE(dst.remote[i].node, 0);
      EXPECT_LT(dst.remote[i].node, block.num_nodes());
    }
    std::vector<entropy::ScoredNode> want_neighbors;
    for (const auto& s : src.neighbors) {
      const int64_t l = block.GlobalToLocal(s.node);
      if (l >= 0) want_neighbors.push_back({l, s.entropy});
    }
    ASSERT_EQ(dst.neighbors.size(), want_neighbors.size());
    for (size_t i = 0; i < want_neighbors.size(); ++i) {
      EXPECT_EQ(dst.neighbors[i].node, want_neighbors[i].node);
      EXPECT_EQ(dst.neighbors[i].entropy, want_neighbors[i].entropy);
    }
  }
}

// ---- EditMerger ------------------------------------------------------------

TEST(EditMergerTest, LastWriterWinsPerNode) {
  // Path 0-1-2-3 plus isolated 4.
  const graph::Graph g =
      graph::Graph::FromEdgeListOrDie(5, {{0, 1}, {1, 2}, {2, 3}});
  EditMerger merger;
  NodeEdits first;
  first.add = {3};     // 0-3
  first.remove = {1};  // drop 0-1
  merger.Record(0, first);
  NodeEdits second;
  second.add = {4};  // 0-4; the earlier 0-3/drop-0-1 must be forgotten
  merger.Record(0, second);

  const graph::Graph merged = merger.Merge(g);
  EXPECT_TRUE(merged.HasEdge(0, 4));
  EXPECT_TRUE(merged.HasEdge(0, 1));   // removal was overwritten
  EXPECT_FALSE(merged.HasEdge(0, 3));  // addition was overwritten
  EXPECT_EQ(merger.num_nodes_recorded(), 1);

  // An empty record still claims ownership and erases earlier edits.
  merger.Record(0, NodeEdits{});
  const graph::Graph cleared = merger.Merge(g);
  EXPECT_EQ(cleared.edges(), g.edges());
}

TEST(EditMergerTest, DisjointBlocksMergeOrderInvariant) {
  data::Dataset ds = MakeSparseDataset(13);
  const auto index = BuildIndex(ds);

  // Two disjoint single-seed blocks (1-hop closures) with deterministic
  // states.
  auto make_block = [&](int64_t seed_node) {
    std::vector<int64_t> nodes = ds.graph.KHopNeighbors(seed_node, 1);
    nodes.push_back(seed_node);
    return std::move(
               graph::InducedSubgraph(ds.graph, nodes, {seed_node}))
        .value();
  };
  int64_t va = -1, vb = -1;
  graph::Subgraph a;
  for (int64_t v = 0; v < ds.num_nodes() && vb < 0; ++v) {
    if (ds.graph.Degree(v) == 0) continue;
    if (va < 0) {
      va = v;
      a = make_block(va);
      continue;
    }
    const graph::Subgraph candidate = make_block(v);
    bool overlap = false;
    for (const int64_t u : a.nodes) {
      if (candidate.GlobalToLocal(u) >= 0) overlap = true;
    }
    if (!overlap) vb = v;
  }
  ASSERT_GE(va, 0);
  ASSERT_GE(vb, 0);
  const graph::Subgraph b = make_block(vb);

  core::TopologyState state_a(a.num_nodes(), 2, 2);
  state_a.SetUniform(1, 1);
  core::TopologyState state_b(b.num_nodes(), 2, 2);
  state_b.SetUniform(2, 0);

  EditMerger ab;
  ab.RecordBlock(a, state_a, index.Restrict(a));
  ab.RecordBlock(b, state_b, index.Restrict(b));
  EditMerger ba;
  ba.RecordBlock(b, state_b, index.Restrict(b));
  ba.RecordBlock(a, state_a, index.Restrict(a));

  EXPECT_EQ(ab.Merge(ds.graph).edges(), ba.Merge(ds.graph).edges());
  EXPECT_EQ(ab.num_pending_additions(), ba.num_pending_additions());
  EXPECT_EQ(ab.num_pending_removals(), ba.num_pending_removals());
}

TEST(EditMergerTest, RecordBlockRemapsToGlobalIds) {
  data::Dataset ds = MakeSparseDataset(14);
  const auto index = BuildIndex(ds);
  // Identity block: merged result must equal BuildOptimizedGraph on G_0.
  const graph::Subgraph block = graph::FullSubgraph(ds.graph, {0});
  const auto restricted = index.Restrict(block);
  core::TopologyState state(ds.num_nodes(), 3, 3);
  state.SetUniform(2, 1);

  EditMerger merger;
  merger.RecordBlock(block, state, restricted);
  const graph::Graph merged = merger.Merge(ds.graph);
  const graph::Graph direct = core::BuildOptimizedGraph(ds.graph, state, index);
  EXPECT_EQ(merged.edges(), direct.edges());
}

// ---- Full-graph special case: bitwise equivalence --------------------------

nn::ModelOptions NoDropoutOptions(const data::Dataset& ds, uint64_t seed) {
  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 12;
  mo.num_classes = ds.num_classes;
  mo.dropout = 0.0f;  // the two paths draw from different dropout streams
  mo.seed = seed;
  return mo;
}

TEST(BlockEnvEquivalenceTest, ScriptedFullBlockEpisodeMatchesReference) {
  data::Dataset ds = MakeSparseDataset(15);
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  const auto index = BuildIndex(ds);

  TopologyEnvOptions eo;
  eo.k_max = 3;
  eo.d_max = 2;
  eo.gnn_epochs_per_step = 1;
  const int steps = 4;

  Rng action_rng(77);
  std::vector<rl::ActionSample> actions(steps);
  for (rl::ActionSample& action : actions) {
    for (int64_t v = 0; v < ds.num_nodes(); ++v) {
      action.delta_k.push_back(
          static_cast<int>(action_rng.UniformInt(-1, 1)));
      action.delta_d.push_back(
          static_cast<int>(action_rng.UniformInt(-1, 1)));
    }
  }

  // Full-graph reference: ClassifierTrainer over the whole graph.
  auto full_model = nn::MakeModel(nn::BackboneKind::kSage,
                                  NoDropoutOptions(ds, 101));
  nn::ClassifierTrainer::Options full_topts;
  full_topts.seed = 101;
  nn::ClassifierTrainer full_trainer(
      full_model.get(), nn::LayerInput::Sparse(ds.FeaturesCsr()),
      &ds.labels, full_topts);
  const FullGraphEpisode full =
      RunFullGraphEpisode(ds, splits[0], &full_trainer, index, eo, steps,
                          /*agent=*/nullptr, actions);

  // Block path: identity block + MiniBatchTrainer, same model seed.
  auto mb_model = nn::MakeModel(nn::BackboneKind::kSage,
                                NoDropoutOptions(ds, 101));
  nn::MiniBatchTrainer::Options mb_topts;
  mb_topts.seed = 101;
  nn::MiniBatchTrainer mb_trainer(mb_model.get(), ds.FeaturesCsr(),
                                  &ds.labels, mb_topts);
  const graph::Subgraph block =
      graph::FullSubgraph(ds.graph, splits[0].train);
  BlockTopologyEnv block_env(&ds, block, splits[0].train, &mb_trainer,
                             index.Restrict(block), eo);

  tensor::Tensor block_obs = block_env.Reset();
  ASSERT_TRUE(full.observations[0].AllClose(block_obs, 0.0f, 0.0f));
  for (int t = 0; t < steps; ++t) {
    const auto i = static_cast<size_t>(t);
    const double block_reward = block_env.Step(actions[i], &block_obs);
    EXPECT_EQ(full.rewards[i], block_reward)
        << "reward diverges at step " << t;
    EXPECT_TRUE(full.observations[i + 1].AllClose(block_obs, 0.0f, 0.0f))
        << "observation diverges at step " << t;
    // Same rewired edge set (identity block: local ids == global ids).
    EXPECT_EQ(full.edges[i], block_env.current_graph().edges())
        << "rewired edges diverge at step " << t;
  }

  // Same post-finetune weights, bitwise.
  const auto full_weights = full_trainer.SaveWeights();
  const auto mb_weights = mb_trainer.SaveWeights();
  ASSERT_EQ(full_weights.size(), mb_weights.size());
  for (size_t i = 0; i < full_weights.size(); ++i) {
    EXPECT_TRUE(full_weights[i].AllClose(mb_weights[i], 0.0f, 0.0f))
        << "post-finetune weights diverge at parameter " << i;
  }
}

TEST(BlockEnvEquivalenceTest, PpoDrivenRunnerB1ReproducesFullGraphRollout) {
  data::Dataset ds = MakeSparseDataset(16);
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  const auto index = BuildIndex(ds);

  TopologyEnvOptions eo;
  eo.gnn_epochs_per_step = 1;
  rl::PpoOptions po;
  po.steps_per_update = 3;  // two PPO updates inside the episode
  po.seed = 19;
  const int steps = 6;

  // Reference: the full-graph episode, PPO-driven.
  auto full_model = nn::MakeModel(nn::BackboneKind::kSage,
                                  NoDropoutOptions(ds, 7));
  nn::ClassifierTrainer::Options full_topts;
  full_topts.seed = 7;
  nn::ClassifierTrainer full_trainer(
      full_model.get(), nn::LayerInput::Sparse(ds.FeaturesCsr()),
      &ds.labels, full_topts);
  rl::PpoAgent full_agent(core::kObservationDim, po);
  const FullGraphEpisode full = RunFullGraphEpisode(
      ds, splits[0], &full_trainer, index, eo, steps, &full_agent);

  // Block path: B=1, empty fanouts (identity block), one round.
  auto mb_model = nn::MakeModel(nn::BackboneKind::kSage,
                                NoDropoutOptions(ds, 7));
  nn::MiniBatchTrainer::Options mb_topts;
  mb_topts.seed = 7;
  nn::MiniBatchTrainer mb_trainer(mb_model.get(), ds.FeaturesCsr(),
                                  &ds.labels, mb_topts);
  BlockRolloutOptions ro;
  ro.blocks_per_round = 1;
  ro.fanouts = {};  // full-graph mode
  ro.seeds_per_block = ds.num_nodes();  // one batch covers the train set
  ro.steps_per_episode = steps;
  ro.env = eo;
  BlockRolloutRunner runner(&ds, &splits[0], &mb_trainer, &index, ro);
  rl::PpoAgent block_agent(core::kObservationDim, po);
  const BlockRolloutRunner::RoundStats stats = runner.RunRound(&block_agent);

  // Same rewards, step for step, bitwise.
  ASSERT_EQ(stats.env_steps, static_cast<int64_t>(full.rewards.size()));
  EXPECT_EQ(stats.num_blocks, 1);
  double full_mean = 0.0;
  for (const double r : full.rewards) full_mean += r;
  full_mean /= static_cast<double>(full.rewards.size());
  EXPECT_EQ(stats.mean_reward, full_mean);

  // Same rewired edge set after the episode.
  EXPECT_EQ(runner.MergedGraph().edges(), full.edges.back());

  // Same post-finetune weights.
  const auto full_weights = full_trainer.SaveWeights();
  const auto mb_weights = mb_trainer.SaveWeights();
  ASSERT_EQ(full_weights.size(), mb_weights.size());
  for (size_t i = 0; i < full_weights.size(); ++i) {
    EXPECT_TRUE(full_weights[i].AllClose(mb_weights[i], 0.0f, 0.0f))
        << "post-finetune weights diverge at parameter " << i;
  }
}

// ---- Sampled-block episodes and end-to-end co-training ---------------------

TEST(BlockRolloutRunnerTest, SampledBlocksStayLocalAndMerge) {
  data::Dataset ds = MakeSparseDataset(17);
  data::SplitOptions so;
  so.num_splits = 1;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);
  const auto index = BuildIndex(ds);

  auto model = nn::MakeModel(nn::BackboneKind::kSage,
                             NoDropoutOptions(ds, 5));
  nn::MiniBatchTrainer::Options topts;
  topts.seed = 5;
  nn::MiniBatchTrainer trainer(model.get(), ds.FeaturesCsr(), &ds.labels,
                               topts);
  BlockRolloutOptions ro;
  ro.blocks_per_round = 3;
  ro.seeds_per_block = 12;
  ro.fanouts = {4, 4};
  ro.steps_per_episode = 3;
  ro.env.gnn_epochs_per_step = 1;
  ro.seed = 23;
  BlockRolloutRunner runner(&ds, &splits[0], &trainer, &index, ro);
  rl::PpoOptions po;
  po.steps_per_update = 3;
  rl::PpoAgent agent(core::kObservationDim, po);

  const BlockRolloutRunner::RoundStats stats = runner.RunRound(&agent);
  EXPECT_EQ(stats.num_blocks, 3);
  EXPECT_EQ(stats.env_steps, 3);
  EXPECT_GT(stats.block_nodes, 0);
  EXPECT_LT(stats.block_nodes, 3 * ds.num_nodes());
  EXPECT_TRUE(std::isfinite(stats.mean_reward));

  const graph::Graph merged = runner.MergedGraph();
  EXPECT_EQ(merged.num_nodes(), ds.num_nodes());
  EXPECT_GT(runner.merger().num_nodes_recorded(), 0);
  // A second round keeps accumulating (later rounds may overwrite nodes).
  const BlockRolloutRunner::RoundStats stats2 = runner.RunRound(&agent);
  EXPECT_EQ(stats2.num_blocks, 3);
}

TEST(BlockRolloutEndToEndTest, CoTrainsOnTenThousandNodeGraph) {
  // 10k nodes: the rl_blocks_scaling bench caps full-graph episodes at
  // 2k for time-budget reasons — per-step observation, rewiring, and GNN
  // training all touch the whole adjacency, so their cost grows with the
  // graph — while block-scoped rollouts finish in seconds here because
  // per-step cost follows the sampled block.
  data::GeneratorOptions o;
  o.name = "synthetic-10k";
  o.num_nodes = 10000;
  o.num_edges = 30000;
  o.num_features = 32;
  o.num_classes = 4;
  o.homophily = 0.6;
  o.feature_signal = 8.0;
  o.feature_density = 0.05;
  o.seed = 5;
  data::Dataset ds = std::move(data::GenerateDataset(o)).value();
  data::SplitOptions so;
  so.num_splits = 1;
  so.seed = 11;
  const auto splits = data::MakeSplits(ds.labels, ds.num_classes, so);

  core::GraphRareOptions opts;
  opts.backbone = nn::BackboneKind::kSage;
  opts.hidden = 24;
  opts.dropout = 0.0f;
  opts.entropy.max_two_hop_candidates = 6;
  opts.entropy.num_random_candidates = 2;
  opts.iterations = 2;
  opts.pretrain_epochs = 2;
  opts.pretrain_patience = 2;
  opts.ppo.steps_per_update = 4;
  opts.seed = 9;

  BlockRolloutOptions ro;
  ro.blocks_per_round = 2;
  ro.seeds_per_block = 256;
  ro.fanouts = {6, 6};
  ro.steps_per_episode = 2;
  ro.env.gnn_epochs_per_step = 1;

  const core::GraphRareResult result =
      core::RunBlockCoTraining(ds, splits[0], opts, ro);

  EXPECT_EQ(result.env_steps, 2 * 2);  // iterations * steps_per_episode
  EXPECT_EQ(result.reward_history.size(), 2u);
  EXPECT_EQ(result.val_acc_history.size(), 2u);
  for (const double r : result.reward_history) {
    EXPECT_TRUE(std::isfinite(r));
  }
  EXPECT_EQ(result.best_graph.num_nodes(), ds.num_nodes());
  EXPECT_GT(result.final_edges, 0);
  // Well above the 4-class chance level: the pipeline actually learns.
  EXPECT_GT(result.test_accuracy, 0.3);
  EXPECT_GE(result.best_val_accuracy, result.val_acc_history.back() - 1e-12);
}

}  // namespace
}  // namespace graphrare
