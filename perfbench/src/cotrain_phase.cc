// Co-training phase: block-scoped rounds of Algorithm 1 on a generated
// heterophilic graph (10k nodes, homophily 0.2, 64 sparse features), SAGE
// backbone, B=4 blocks of 64 seeds, fanouts 10,10, 4 env steps per
// episode, the pipeline's default prefetch. One round is RunRound, then
// MergedGraph, then full-graph validation Evaluate on the merged graph.
// The sampler, entropy Restrict, the env step (rewire + finetune), PPO and
// the EditMerger do almost all of the work; the tensor ops run on small
// blocks and the network tier sits idle.
//
// An episode is one PPO update cycle (steps_per_update / steps_per_episode
// = 2 rounds; the second round carries the update) from a freshly seeded
// model, agent and runner. Episodes repeat for the phase's budget, every
// one must reproduce the first one's rewards, merged edge set and val_acc,
// and round_s is the median over episodes of the episode's mean round
// time, so the update is always charged in the same proportion.
//
// The traced run rebuilds the round from the public calls RunRound makes
// (BlockPipeline::NextRound, RelativeEntropyIndex::Restrict, the
// BlockTopologyEnv episode through an rl::Env decorator, PpoAgent Act and
// Update, MergeInto + EditMerger::Merge), times each, and must reproduce
// the untraced rewards and merged edge set bit for bit.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/graphrare.h"
#include "phases.h"

namespace perfbench {
namespace {

using namespace graphrare;

data::Dataset CotrainDataset(uint64_t seed) {
  data::GeneratorOptions o;
  o.name = "perfbench-cotrain";
  o.num_nodes = 10000;
  o.num_edges = 30000;
  o.num_features = 64;
  o.num_classes = 4;
  o.homophily = 0.2;
  o.feature_signal = 8.0;
  o.feature_density = 0.05;
  o.seed = seed;
  auto result = data::GenerateDataset(o);
  if (!result.ok()) throw std::runtime_error(result.status().ToString());
  return std::move(result).value();
}

/// The co-training configuration, composed the way RunBlockCoTraining
/// composes it from GraphRareOptions and one master seed.
struct Config {
  explicit Config(uint64_t seed) : seeds(core::DeriveSeeds(seed)) {
    options.backbone = nn::BackboneKind::kSage;
    options.seed = seed;
    entropy = options.entropy;
    entropy.seed = seeds.entropy;
    rollout.blocks_per_round = 4;
    rollout.seeds_per_block = 64;
    rollout.fanouts = {10, 10};
    rollout.steps_per_episode = 4;
    rollout.seed = seeds.sampler;
    rollout.partition_seed = seeds.partition;
    rollout.env.k_max = options.k_max;
    rollout.env.d_max = options.d_max;
    rollout.env.reward = options.reward;
    rollout.env.entropy = entropy;
    rollout.env.seed = seeds.env;
    ppo = options.ppo;
    ppo.seed = seeds.ppo;
    rounds_per_episode =
        std::max(1, ppo.steps_per_update / rollout.steps_per_episode);
  }
  core::DerivedSeeds seeds;
  core::GraphRareOptions options;
  entropy::EntropyOptions entropy;
  core::BlockRolloutOptions rollout;
  rl::PpoOptions ppo;
  int rounds_per_episode = 1;
};

/// A freshly seeded model, trainer and agent.
struct Learner {
  Learner(const data::Dataset& ds, const Config& cfg) {
    nn::ModelOptions mo;
    mo.in_features = ds.num_features();
    mo.hidden = cfg.options.hidden;
    mo.num_classes = ds.num_classes;
    mo.num_layers = cfg.options.num_layers;
    mo.dropout = cfg.options.dropout;
    mo.gat_heads = cfg.options.gat_heads;
    mo.seed = cfg.options.seed;
    model = nn::MakeModel(cfg.options.backbone, mo);
    nn::MiniBatchTrainer::Options to;
    to.adam = cfg.options.adam;
    to.seed = cfg.options.seed;
    trainer = std::make_unique<nn::MiniBatchTrainer>(
        model.get(), ds.FeaturesCsr(), &ds.labels, to);
    agent = std::make_unique<rl::PpoAgent>(core::kObservationDim, cfg.ppo);
  }
  std::unique_ptr<nn::NodeClassifier> model;
  std::unique_ptr<nn::MiniBatchTrainer> trainer;
  std::unique_ptr<rl::PpoAgent> agent;
};

/// What an episode must reproduce: per-round mean rewards, the merged
/// edge set, and the final validation accuracy.
struct Digest {
  std::vector<double> rewards;
  std::vector<graph::Edge> edges;
  double val_acc = 0.0;

  bool operator==(const Digest& o) const {
    return rewards.size() == o.rewards.size() &&
           std::memcmp(rewards.data(), o.rewards.data(),
                       rewards.size() * sizeof(double)) == 0 &&
           edges == o.edges &&
           std::memcmp(&val_acc, &o.val_acc, sizeof(double)) == 0;
  }
};

struct Episode {
  Digest digest;
  std::vector<double> round_s;
  double seconds = 0.0;
  std::vector<core::BlockRolloutRunner::RoundStats> stats;
};

Episode PlayEpisode(const data::Dataset& ds, const data::Split& split,
                   const entropy::RelativeEntropyIndex& index,
                   const Config& cfg) {
  Learner learner(ds, cfg);
  core::BlockRolloutRunner runner(&ds, &split, learner.trainer.get(), &index,
                                  cfg.rollout);
  Episode ep;
  for (int r = 0; r < cfg.rounds_per_episode; ++r) {
    Stopwatch w;
    ep.stats.push_back(runner.RunRound(learner.agent.get()));
    const graph::Graph merged = runner.MergedGraph();
    ep.digest.val_acc = learner.trainer->Evaluate(merged, split.val).accuracy;
    ep.round_s.push_back(w.ElapsedSeconds());
    ep.seconds += ep.round_s.back();
    ep.digest.rewards.push_back(ep.stats.back().mean_reward);
    if (r + 1 == cfg.rounds_per_episode) ep.digest.edges = merged.edges();
  }
  return ep;
}

// ---- Traced round ----------------------------------------------------------

struct Span {
  int64_t calls = 0;
  double ms = 0.0;
};

template <typename F>
auto Timed(Span* span, F&& f) -> decltype(f()) {
  Stopwatch w;
  struct Stop {
    Span* span;
    Stopwatch* w;
    ~Stop() {
      span->ms += w->ElapsedMillis();
      ++span->calls;
    }
  } stop{span, &w};
  return f();
}

/// rl::Env decorator that times Reset and Step.
class TimedEnv : public rl::Env {
 public:
  TimedEnv(rl::Env* inner, Span* reset, Span* step)
      : inner_(inner), reset_(reset), step_(step) {}
  tensor::Tensor Reset() override {
    return Timed(reset_, [&] { return inner_->Reset(); });
  }
  double Step(const rl::ActionSample& action,
              tensor::Tensor* next_obs) override {
    return Timed(step_, [&] { return inner_->Step(action, next_obs); });
  }
  int64_t obs_dim() const override { return inner_->obs_dim(); }
  int64_t num_components() const override {
    return inner_->num_components();
  }

 private:
  rl::Env* inner_;
  Span* reset_;
  Span* step_;
};

tensor::Tensor ConcatRows(const std::vector<tensor::Tensor>& parts) {
  int64_t rows = 0;
  for (const auto& p : parts) rows += p.rows();
  tensor::Tensor out(rows, parts[0].cols());
  int64_t at = 0;
  for (const auto& p : parts) {
    for (int64_t r = 0; r < p.rows(); ++r, ++at) {
      std::copy(p.row(r), p.row(r) + p.cols(), out.row(at));
    }
  }
  return out;
}

struct TracedRound {
  Span next_round, restrict, env_init, env_reset, env_step, act, update,
      merge, eval;
  double wall_ms = 0.0;
};

/// One round rebuilt from the public calls RunRound makes, with the
/// MergedGraph and Evaluate calls that follow it.
double RunTracedRound(const data::Dataset& ds, const data::Split& split,
                      const entropy::RelativeEntropyIndex& index,
                      const Config& cfg, data::BlockPipeline* pipeline,
                      core::EditMerger* merger, Learner* learner,
                      TracedRound* t, graph::Graph* merged, double* val_acc) {
  Stopwatch wall;
  std::vector<data::ScheduledBlock> scheduled =
      Timed(&t->next_round, [&] { return pipeline->NextRound(); });
  std::vector<std::unique_ptr<core::BlockTopologyEnv>> envs;
  for (data::ScheduledBlock& sb : scheduled) {
    entropy::RelativeEntropyIndex block_index =
        Timed(&t->restrict, [&] { return index.Restrict(sb.block); });
    Timed(&t->env_init, [&] {
      envs.push_back(std::make_unique<core::BlockTopologyEnv>(
          &ds, std::move(sb.block), split.train, learner->trainer.get(),
          std::move(block_index), cfg.rollout.env));
    });
  }
  std::vector<TimedEnv> timed;
  for (const auto& e : envs) timed.emplace_back(e.get(), &t->env_reset,
                                                &t->env_step);

  // rl::RunAgentOnBatchedEnvs, step for step.
  std::vector<tensor::Tensor> obs(timed.size());
  for (size_t i = 0; i < timed.size(); ++i) obs[i] = timed[i].Reset();
  std::vector<double> mean_rewards;
  rl::PpoAgent* agent = learner->agent.get();
  for (int s = 0; s < cfg.rollout.steps_per_episode; ++s) {
    const tensor::Tensor batched = ConcatRows(obs);
    const rl::ActionSample action =
        Timed(&t->act, [&] { return agent->Act(batched); });
    double reward_sum = 0.0;
    int64_t row = 0;
    for (size_t i = 0; i < timed.size(); ++i) {
      const int64_t rows = obs[i].rows();
      rl::ActionSample slice;
      slice.delta_k.assign(action.delta_k.begin() + row,
                           action.delta_k.begin() + row + rows);
      slice.delta_d.assign(action.delta_d.begin() + row,
                           action.delta_d.begin() + row + rows);
      tensor::Tensor next;
      reward_sum += timed[i].Step(slice, &next);
      obs[i] = std::move(next);
      row += rows;
    }
    const double mean_reward = reward_sum / static_cast<double>(timed.size());
    agent->StoreReward(mean_reward);
    mean_rewards.push_back(mean_reward);
    if (agent->ReadyToUpdate()) {
      const tensor::Tensor last = ConcatRows(obs);
      Timed(&t->update, [&] { return agent->Update(last); });
    }
  }

  Timed(&t->merge, [&] {
    merger->BeginRound();
    for (const auto& e : envs) e->MergeInto(merger);
    *merged = merger->Merge(ds.graph);
  });
  *val_acc = Timed(&t->eval, [&] {
    return learner->trainer->Evaluate(*merged, split.val).accuracy;
  });
  t->wall_ms += wall.ElapsedMillis();
  double sum = 0.0;
  for (const double r : mean_rewards) sum += r;
  return mean_rewards.empty() ? 0.0
                              : sum / static_cast<double>(mean_rewards.size());
}

/// The pipeline BlockRolloutRunner builds for `cfg.rollout`.
std::unique_ptr<data::BlockPipeline> MakePipeline(const data::Dataset& ds,
                                                  const data::Split& split,
                                                  const Config& cfg) {
  data::BlockPipelineOptions po;
  po.sampler.fanouts = cfg.rollout.fanouts;
  po.sampler.replace = cfg.rollout.sample_replace;
  po.sampler.seed = cfg.rollout.seed;
  po.blocks_per_round = cfg.rollout.blocks_per_round;
  po.seeds_per_block = cfg.rollout.seeds_per_block;
  po.partition = cfg.rollout.partition;
  po.partition_seed = cfg.rollout.seed;  // independent partition mode
  po.prefetch_depth = cfg.rollout.prefetch_depth;
  po.num_producers = cfg.rollout.num_producers;
  return std::make_unique<data::BlockPipeline>(&ds.graph, split.train, po);
}

}  // namespace

struct CotrainPhase::State {
  explicit State(uint64_t seed) : cfg(seed) {}
  const Config cfg;
  data::Dataset ds;
  data::Split split;
  std::unique_ptr<entropy::RelativeEntropyIndex> index;
  std::vector<double> builds;
  std::vector<Episode> episodes;
  PoolCounter pool;
};

CotrainPhase::CotrainPhase(PhaseContext* ctx)
    : ctx_(ctx), s_(std::make_unique<State>(ctx->seed)) {
  const Config& cfg = s_->cfg;
  data::Dataset& ds = s_->ds;
  data::Split& split = s_->split;
  std::unique_ptr<entropy::RelativeEntropyIndex>& index = s_->index;
  // Set-up: generate the graph and its split, build the entropy index.
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    Stopwatch w;
    ds = CotrainDataset(ctx->seed);
    data::SplitOptions so;
    so.num_splits = 1;
    so.seed = cfg.seeds.splits;
    split = data::MakeSplits(ds.labels, ds.num_classes, so)[0];
    Stopwatch build;
    auto index_or =
        entropy::RelativeEntropyIndex::Build(ds.graph, ds.features,
                                             cfg.entropy);
    if (!index_or.ok()) throw std::runtime_error(index_or.status().ToString());
    index = std::make_unique<entropy::RelativeEntropyIndex>(
        std::move(index_or).value());
    s_->builds.push_back(build.ElapsedSeconds());
    setups.push_back(w.ElapsedSeconds());
  }
  ctx->setup_s = Median(setups);
}

CotrainPhase::~CotrainPhase() = default;

double CotrainPhase::RunEpisode() {
  const PoolCounter::Scope pool(&s_->pool);
  s_->episodes.push_back(PlayEpisode(s_->ds, s_->split, *s_->index, s_->cfg));
  return s_->episodes.back().seconds;
}

void CotrainPhase::Finish() {
  std::printf("\n== phase cotrain-rounds ==\n");
  PhaseContext* ctx = ctx_;
  const Config& cfg = s_->cfg;
  const data::Dataset& ds = s_->ds;
  const data::Split& split = s_->split;
  const entropy::RelativeEntropyIndex* index = s_->index.get();
  const std::vector<Episode>& episodes = s_->episodes;

  const Digest& reference = episodes.front().digest;
  std::vector<double> round_s, mean_round_s;
  double env_steps = 0, block_nodes = 0, conflict_rate = 0;
  for (const Episode& ep : episodes) {
    ctx->Count(cfg.rounds_per_episode, ep.digest == reference,
               "cotrain: an episode's rewards, merged graph or val_acc "
               "differ from the first episode's");
    round_s.insert(round_s.end(), ep.round_s.begin(), ep.round_s.end());
    mean_round_s.push_back(ep.seconds / cfg.rounds_per_episode);
    for (const auto& s : ep.stats) {
      env_steps += static_cast<double>(s.env_steps * s.num_blocks);
      block_nodes += static_cast<double>(s.block_nodes);
      conflict_rate += s.conflicts.ConflictRate();
    }
  }
  const double rounds = static_cast<double>(round_s.size());
  std::printf("  %zu episodes of %d rounds; val_acc %.4f; merged graph %zu "
              "edges (G_0: %lld)\n",
              episodes.size(), cfg.rounds_per_episode, reference.val_acc,
              reference.edges.size(),
              static_cast<long long>(ds.graph.num_edges()));
  PrintTiming("single round s", "s", round_s);
  PrintTiming("round_s (episode mean)", "s", mean_round_s);
  // Not gated: a round is dominated by many short OpenMP regions (the PPO
  // update), so CPU time taken by other guests of a shared machine
  // stretches it out of proportion (+40-70% at 10% stolen time).
  ctx->e2e->Add("round_s", Median(mean_round_s), "s", /*gated=*/false);
  ctx->e2e->Add("val_acc", reference.val_acc, "ratio");
  if (!ctx->trace) return;

  // Traced episode on an identically seeded learner.
  Learner learner(ds, cfg);
  std::unique_ptr<data::BlockPipeline> pipeline = MakePipeline(ds, split, cfg);
  core::EditMerger merger;
  TracedRound t;
  Digest traced;
  graph::Graph merged;
  for (int r = 0; r < cfg.rounds_per_episode; ++r) {
    traced.rewards.push_back(RunTracedRound(ds, split, *index, cfg,
                                            pipeline.get(), &merger, &learner,
                                            &t, &merged, &traced.val_acc));
  }
  traced.edges = merged.edges();
  ctx->Count(1, traced == reference,
             "cotrain: the traced round does not reproduce RunRound's "
             "rewards and merged edge set");
  std::printf("  traced episode %s the untraced digest\n",
              traced == reference ? "reproduces" : "DOES NOT reproduce");

  // The first episode pays for cold caches and pool misses; the table
  // compares against a typical one.
  std::vector<double> episode_s;
  for (const Episode& ep : episodes) episode_s.push_back(ep.seconds);
  const double untraced_ms = 1e3 * Median(episode_s);
  PrintLayerTable(
      "per-layer table: cotrain-rounds (one episode, " +
          std::to_string(cfg.rounds_per_episode) + " rounds)",
      {{"data.next_round (wait for blocks)", t.next_round.calls,
        t.next_round.ms},
       {"entropy.restrict", t.restrict.calls, t.restrict.ms},
       {"core.env_init", t.env_init.calls, t.env_init.ms},
       {"core.env_reset", t.env_reset.calls, t.env_reset.ms},
       {"core.env_step", t.env_step.calls, t.env_step.ms},
       {"rl.act", t.act.calls, t.act.ms},
       {"rl.update", t.update.calls, t.update.ms},
       {"core.merge", t.merge.calls, t.merge.ms},
       {"nn.eval", t.eval.calls, t.eval.ms}},
      untraced_ms, t.wall_ms);

  const double per_round = 1.0 / cfg.rounds_per_episode;
  Metrics* l = ctx->layers;
  l->Add("data.next_round_ms", t.next_round.ms * per_round, "ms");
  l->Add("entropy.restrict_ms", t.restrict.ms * per_round, "ms");
  l->Add("core.env_reset_ms", t.env_reset.ms * per_round, "ms");
  l->Add("core.env_step_ms", t.env_step.ms * per_round, "ms");
  l->Add("rl.act_ms", t.act.ms * per_round, "ms");
  l->Add("rl.update_ms", t.update.ms * per_round, "ms");
  l->Add("core.merge_ms", t.merge.ms * per_round, "ms");
  l->Add("nn.eval_ms", t.eval.ms * per_round, "ms");
  l->Add("entropy.build_s", Median(s_->builds), "s");
  l->Add("core.env_steps", env_steps / rounds, "count");
  l->Add("data.block_nodes", block_nodes / rounds, "count");
  l->Add("core.conflict_rate", conflict_rate / rounds, "ratio");
  l->Add("tensor.pool_hit_rate.cotrain", s_->pool.HitRate(), "ratio");
}

}  // namespace perfbench
