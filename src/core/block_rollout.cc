#include "core/block_rollout.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "nn/metrics.h"
#include "core/observation.h"
#include "core/telemetry.h"
#include "core/topology_optimizer.h"

namespace graphrare {
namespace core {

Status TopologyEnvOptions::Validate() const {
  if (k_max < 0 || d_max < 0) {
    return Status::InvalidArgument("k_max/d_max must be non-negative");
  }
  if (gnn_epochs_per_step < 0) {
    return Status::InvalidArgument("gnn_epochs_per_step must be >= 0");
  }
  if (reward.lambda_r < 0.0) {
    return Status::InvalidArgument("reward lambda_r must be non-negative");
  }
  return entropy.Validate();
}

Status BlockRolloutOptions::Validate() const {
  if (blocks_per_round < 1) {
    return Status::InvalidArgument("blocks_per_round must be >= 1");
  }
  if (seeds_per_block < 1) {
    return Status::InvalidArgument("seeds_per_block must be >= 1");
  }
  if (steps_per_episode < 1) {
    return Status::InvalidArgument("steps_per_episode must be >= 1");
  }
  if (prefetch_depth < 0) {
    return Status::InvalidArgument("prefetch_depth must be >= 0");
  }
  if (num_producers < 1) {
    return Status::InvalidArgument("num_producers must be >= 1");
  }
  for (const int64_t f : fanouts) {
    if (f < 1 && f != -1) {
      return Status::InvalidArgument(
          "every fanout must be >= 1 (or -1 for unlimited)");
    }
  }
  return env.Validate();
}

// ---- BlockTopologyEnv ------------------------------------------------------

BlockTopologyEnv::BlockTopologyEnv(
    const data::Dataset* dataset, graph::Subgraph block,
    const std::vector<int64_t>& sorted_train_global,
    nn::MiniBatchTrainer* trainer, entropy::RelativeEntropyIndex block_index,
    const TopologyEnvOptions& options)
    : dataset_(dataset),
      trainer_(trainer),
      options_(options),
      block_(std::move(block)),
      index_(std::move(block_index)) {
  GR_CHECK(dataset != nullptr && trainer != nullptr);
  GR_CHECK_OK(options_.Validate());
  GR_CHECK_EQ(index_.num_nodes(), block_.num_nodes());

  // Train view: same nodes and (initially) topology as the block, seeds =
  // block intersect train, ascending. Both inputs are sorted, so one
  // two-pointer sweep suffices.
  view_.nodes = block_.nodes;
  view_.graph = block_.graph;
  size_t ti = 0;
  for (size_t l = 0; l < block_.nodes.size(); ++l) {
    const int64_t g = block_.nodes[l];
    while (ti < sorted_train_global.size() && sorted_train_global[ti] < g) {
      ++ti;
    }
    if (ti < sorted_train_global.size() && sorted_train_global[ti] == g) {
      view_.seed_local.push_back(static_cast<int64_t>(l));
      view_.seed_global.push_back(g);
    }
  }
  GR_CHECK(!view_.seed_local.empty())
      << "BlockTopologyEnv: block contains no train nodes";

  if (options_.reward.kind == RewardKind::kAuc) {
    block_labels_.reserve(block_.nodes.size());
    for (const int64_t g : block_.nodes) {
      block_labels_.push_back(dataset_->labels[static_cast<size_t>(g)]);
    }
  }
}

int64_t BlockTopologyEnv::obs_dim() const { return kObservationDim; }

RewardInputs BlockTopologyEnv::Evaluate() {
  RewardInputs out;
  const nn::EvalResult eval = trainer_->EvaluateBlock(view_);
  out.accuracy = eval.accuracy;
  out.loss = eval.loss;
  if (options_.reward.kind == RewardKind::kAuc) {
    out.auc = nn::MacroAucOvr(trainer_->EvalLogitsBlock(view_),
                              block_labels_, view_.seed_local,
                              dataset_->num_classes);
  }
  return out;
}

tensor::Tensor BlockTopologyEnv::Reset() {
  state_ = std::make_unique<TopologyState>(block_.num_nodes(),
                                           options_.k_max, options_.d_max);
  view_.graph = block_.graph;
  last_reward_ = 0.0;
  prev_ = Evaluate();
  return BuildObservation(block_.graph, view_.graph, *state_, index_,
                          last_reward_);
}

double BlockTopologyEnv::Step(const rl::ActionSample& action,
                              tensor::Tensor* next_obs) {
  GR_CHECK(state_ != nullptr) << "Step() before Reset()";
  GR_CHECK(next_obs != nullptr);

  // S_{t+1} = S_t + A_t, then rebuild the block from its G_0 slice
  // (Fig. 4, block-local id space throughout).
  state_->Apply(action);
  view_.graph = BuildOptimizedGraph(block_.graph, *state_, index_);

  // Finetune on the rewired block's train subset, then measure Eq. 11.
  for (int e = 0; e < options_.gnn_epochs_per_step; ++e) {
    trainer_->TrainBatch(view_);
  }
  const RewardInputs curr = Evaluate();
  const double reward = ComputeReward(options_.reward, prev_, curr);
  prev_ = curr;
  last_reward_ = reward;

  *next_obs = BuildObservation(block_.graph, view_.graph, *state_, index_,
                               last_reward_);
  return reward;
}

void BlockTopologyEnv::MergeInto(EditMerger* merger) const {
  GR_CHECK(merger != nullptr);
  GR_CHECK(state_ != nullptr) << "MergeInto() before Reset()";
  merger->RecordBlock(block_, *state_, index_);
}

// ---- BlockRolloutRunner ----------------------------------------------------

BlockRolloutRunner::BlockRolloutRunner(
    const data::Dataset* dataset, const data::Split* split,
    nn::MiniBatchTrainer* trainer,
    const entropy::RelativeEntropyIndex* index,
    const BlockRolloutOptions& options)
    : dataset_(dataset),
      split_(split),
      trainer_(trainer),
      index_(index),
      options_(options) {
  GR_CHECK(dataset != nullptr && split != nullptr && trainer != nullptr &&
           index != nullptr);
  GR_CHECK_OK(options_.Validate());
  GR_CHECK_EQ(index->num_nodes(), dataset->num_nodes());
  GR_CHECK(!split->train.empty());

  data::BlockPipelineOptions po;
  po.sampler.fanouts = options_.fanouts;  // empty = full-graph blocks
  po.sampler.replace = options_.sample_replace;
  po.sampler.seed = options_.seed;
  po.blocks_per_round = options_.blocks_per_round;
  po.seeds_per_block = options_.seeds_per_block;
  po.partition = options_.partition;
  // Independent mode always derives its shuffle stream from the rollout
  // seed (the pipeline's partitioner applies the legacy ^0xB10C5EED), so
  // pre-refactor trajectories replay bitwise; only locality mode takes
  // the dedicated partition seed.
  po.partition_seed =
      options_.partition == data::PartitionMode::kIndependent
          ? options_.seed
          : (options_.partition_seed != 0 ? options_.partition_seed
                                          : options_.seed);
  po.prefetch_depth = options_.prefetch_depth;
  po.num_producers = options_.num_producers;
  pipeline_ = std::make_unique<data::BlockPipeline>(&dataset->graph,
                                                    split->train, po);
}

BlockRolloutRunner::RoundStats BlockRolloutRunner::RunRound(
    rl::PpoAgent* agent) {
  GR_CHECK(agent != nullptr);
  std::vector<data::ScheduledBlock> scheduled = pipeline_->NextRound();

  RoundStats stats;
  std::vector<std::unique_ptr<BlockTopologyEnv>> envs;
  envs.reserve(scheduled.size());
  for (data::ScheduledBlock& sb : scheduled) {
    stats.block_nodes += sb.block.num_nodes();
    entropy::RelativeEntropyIndex block_index = index_->Restrict(sb.block);
    envs.push_back(std::make_unique<BlockTopologyEnv>(
        dataset_, std::move(sb.block), split_->train, trainer_,
        std::move(block_index), options_.env));
  }

  std::vector<rl::Env*> raw;
  raw.reserve(envs.size());
  for (const auto& e : envs) raw.push_back(e.get());
  const std::vector<double> rewards =
      rl::RunAgentOnBatchedEnvs(agent, raw, options_.steps_per_episode);

  // Block order = schedule order: the merge is deterministic per round.
  // BeginRound opens a fresh conflict-accounting window so the stats below
  // describe exactly this round's records.
  merger_.BeginRound();
  for (const auto& e : envs) e->MergeInto(&merger_);
  stats.conflicts = merger_.round_stats();

  stats.num_blocks = static_cast<int>(envs.size());
  stats.env_steps = static_cast<int64_t>(rewards.size());
  double sum = 0.0;
  for (const double r : rewards) sum += r;
  stats.mean_reward =
      rewards.empty() ? 0.0 : sum / static_cast<double>(rewards.size());
  return stats;
}

// ---- RunBlockCoTraining ----------------------------------------------------

GraphRareResult RunBlockCoTraining(const data::Dataset& dataset,
                                   const data::Split& split,
                                   const GraphRareOptions& options,
                                   const BlockRolloutOptions& rollout_in) {
  GR_CHECK_OK(options.Validate());
  // The block envs always act with the PPO policy and rewire with the
  // default TopologyOptimizerOptions; refuse settings they would ignore.
  GR_CHECK(options.policy_mode == PolicyMode::kDrl)
      << "RunBlockCoTraining supports only policy_mode kDrl";
  GR_CHECK(options.enable_add)
      << "RunBlockCoTraining does not support enable_add = false";
  GR_CHECK(options.enable_remove)
      << "RunBlockCoTraining does not support enable_remove = false";
  const DerivedSeeds seeds = DeriveSeeds(options.seed);
  Rng run_rng(seeds.run);

  GraphRareResult result;
  entropy::RelativeEntropyIndex index =
      BuildRunIndex(dataset, options, &run_rng, &result);

  Stopwatch train_watch;
  auto model = nn::MakeModel(options.backbone,
                             MakeModelOptions(dataset, options, options.seed));
  nn::MiniBatchTrainer::Options trainer_opts;
  trainer_opts.adam = options.adam;
  trainer_opts.seed = options.seed;
  nn::MiniBatchTrainer trainer(model.get(), dataset.FeaturesCsr(),
                               &dataset.labels, trainer_opts);

  // One GraphRareOptions + one master seed configures both co-training
  // paths: the MDP knobs and subsystem seeds override the rollout config.
  BlockRolloutOptions rollout = rollout_in;
  rollout.seed = seeds.sampler;
  rollout.partition_seed = seeds.partition;
  rollout.env.k_max = options.k_max;
  rollout.env.d_max = options.d_max;
  rollout.env.reward = options.reward;
  rollout.env.entropy = options.entropy;
  rollout.env.entropy.seed = seeds.entropy;
  rollout.env.seed = seeds.env;
  GR_CHECK_OK(rollout.Validate());

  // Mini-batch pretraining on G_0 so reward deltas are informative. In
  // full-graph mode (empty fanouts) pretraining samples unlimited-fanout
  // blocks: L+1 layers make every aggregation degree exact.
  if (options.pretrain_epochs > 0) {
    MiniBatchOptions pre;
    pre.sampler.fanouts =
        rollout.fanouts.empty()
            ? std::vector<int64_t>(
                  static_cast<size_t>(options.num_layers + 1), -1)
            : rollout.fanouts;
    pre.sampler.replace = rollout.sample_replace;
    pre.sampler.seed = seeds.sampler ^ 0x9E37ULL;
    pre.batch_size = rollout.seeds_per_block;
    pre.max_epochs = options.pretrain_epochs;
    pre.patience = std::max(1, options.pretrain_patience);
    FitMiniBatch(&trainer, dataset.graph, split.train, split.val, pre,
                 seeds.shuffle);
  }

  rl::PpoOptions ppo_opts = options.ppo;
  ppo_opts.seed = seeds.ppo;
  rl::PpoAgent agent(kObservationDim, ppo_opts);

  BlockRolloutRunner runner(&dataset, &split, &trainer, &index, rollout);

  std::vector<tensor::Tensor> best_weights = trainer.SaveWeights();
  result.best_graph = dataset.graph;
  result.best_val_accuracy =
      trainer.Evaluate(dataset.graph, split.val).accuracy;

  // Entropy-refresh bookkeeping: the merged graph the index currently
  // reflects (G_0 until the first refresh).
  graph::Graph refreshed_base = dataset.graph;

  for (int t = 0; t < options.iterations; ++t) {
    const BlockRolloutRunner::RoundStats stats = runner.RunRound(&agent);
    result.env_steps += stats.env_steps;
    result.reward_history.push_back(stats.mean_reward);

    // Model/graph selection on full-graph validation accuracy over the
    // merged topology (Sec. V-C protocol, merged across blocks).
    graph::Graph merged = runner.MergedGraph();

    if (rollout.refresh_entropy) {
      // Incremental index refresh: re-bucket exactly the edges this
      // round's merge flipped, so next round's Restrict views score
      // against the rewired graph instead of G_0.
      std::vector<graph::Edge> added, removed;
      graph::EdgeListDiff(refreshed_base, merged, &added, &removed);
      index.ApplyEdits(added, removed);
      refreshed_base = merged;
    }

    const double val = trainer.Evaluate(merged, split.val).accuracy;
    result.val_acc_history.push_back(val);

    BlockRoundTelemetry round_log;
    round_log.round = t;
    round_log.num_blocks = stats.num_blocks;
    round_log.block_nodes = stats.block_nodes;
    round_log.conflicts = stats.conflicts;
    round_log.mean_reward = stats.mean_reward;
    round_log.val_accuracy = val;
    LogBlockRound(round_log);
    result.round_telemetry.push_back(round_log);

    if (val > result.best_val_accuracy) {
      result.best_val_accuracy = val;
      best_weights = trainer.SaveWeights();
      result.best_graph = std::move(merged);
    }
  }

  FinishRun(&trainer, best_weights, dataset, split, options,
            std::move(model), train_watch, &result);
  return result;
}

}  // namespace core
}  // namespace graphrare
