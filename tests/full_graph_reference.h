// Copyright 2026 The GraphRARE Authors.
//
// Full-graph reference episode for the B=1/full-fanout pins in
// block_rollout_test and partition_test: the topology MDP of paper Fig. 3
// written out from public pieces (nn::ClassifierTrainer::TrainEpoch on the
// whole graph, BuildOptimizedGraph, ComputeReward, BuildObservation, and a
// PpoAgent or scripted actions). It shares no code with
// core::BlockTopologyEnv, so the pins compare two independent
// implementations of the same episode.

#ifndef GRAPHRARE_TESTS_FULL_GRAPH_REFERENCE_H_
#define GRAPHRARE_TESTS_FULL_GRAPH_REFERENCE_H_

#include <vector>

#include "core/graphrare.h"

namespace graphrare {

struct FullGraphEpisode {
  std::vector<double> rewards;               ///< one per step
  std::vector<tensor::Tensor> observations;  ///< Reset's, then one per step
  std::vector<std::vector<graph::Edge>> edges;  ///< rewired G_t per step
};

/// Runs `steps` env steps from G_0, training `trainer` in place. Actions
/// come from `agent` when it is non-null (stored and updated the way
/// rl::RunAgentOnBatchedEnvs does), otherwise from `scripted[t]`.
inline FullGraphEpisode RunFullGraphEpisode(
    const data::Dataset& ds, const data::Split& split,
    nn::ClassifierTrainer* trainer, const entropy::RelativeEntropyIndex& index,
    const core::TopologyEnvOptions& eo, int steps, rl::PpoAgent* agent,
    const std::vector<rl::ActionSample>& scripted = {}) {
  const graph::Graph& g0 = ds.graph;
  const auto evaluate = [&](const graph::Graph& g) {
    const nn::EvalResult eval = trainer->Evaluate(g, split.train);
    core::RewardInputs in;
    in.accuracy = eval.accuracy;
    in.loss = eval.loss;
    if (eo.reward.kind == core::RewardKind::kAuc) {
      in.auc = nn::MacroAucOvr(trainer->EvalLogits(g), ds.labels,
                               split.train, ds.num_classes);
    }
    return in;
  };

  core::TopologyState state(ds.num_nodes(), eo.k_max, eo.d_max);
  core::RewardInputs prev = evaluate(g0);
  FullGraphEpisode out;
  out.observations.push_back(
      core::BuildObservation(g0, g0, state, index, /*last_reward=*/0.0));
  for (int t = 0; t < steps; ++t) {
    state.Apply(agent != nullptr ? agent->Act(out.observations.back())
                                 : scripted[static_cast<size_t>(t)]);
    const graph::Graph g = core::BuildOptimizedGraph(g0, state, index);
    for (int e = 0; e < eo.gnn_epochs_per_step; ++e) {
      trainer->TrainEpoch(g, split.train);
    }
    const core::RewardInputs curr = evaluate(g);
    const double reward = core::ComputeReward(eo.reward, prev, curr);
    prev = curr;
    out.rewards.push_back(reward);
    out.edges.push_back(g.edges());
    out.observations.push_back(
        core::BuildObservation(g0, g, state, index, reward));
    if (agent != nullptr) {
      agent->StoreReward(reward);
      if (agent->ReadyToUpdate()) agent->Update(out.observations.back());
    }
  }
  return out;
}

}  // namespace graphrare

#endif  // GRAPHRARE_TESTS_FULL_GRAPH_REFERENCE_H_
