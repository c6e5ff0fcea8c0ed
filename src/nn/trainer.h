// Copyright 2026 The GraphRARE Authors.
//
// Supervised training driver for node classifiers: one trainer, one Adam
// state and one early-stopping loop. MiniBatchTrainer is ClassifierTrainer
// plus block-scoped steps on sampled subgraphs. Fit serves baselines and
// pretraining; the GraphRARE co-training loops interleave single steps and
// evaluations with RL updates.

#ifndef GRAPHRARE_NN_TRAINER_H_
#define GRAPHRARE_NN_TRAINER_H_

#include <functional>
#include <memory>
#include <vector>

#include "graph/subgraph.h"
#include "nn/metrics.h"
#include "nn/models.h"
#include "nn/optim.h"

namespace graphrare {
namespace nn {

/// Loss/accuracy pair from one evaluation.
struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
};

/// Outcome of a Fit() run.
struct FitResult {
  int epochs_run = 0;
  /// Optimizer steps: one per full-graph epoch, one per mini-batch block.
  int64_t batches_run = 0;
  double best_val_accuracy = 0.0;
  int best_epoch = -1;
  /// Per-epoch training loss/accuracy (seed-weighted means over a
  /// mini-batch epoch's blocks).
  std::vector<double> train_loss_history;
  std::vector<double> train_acc_history;
  /// Per-epoch full-graph validation accuracy.
  std::vector<double> val_acc_history;
};

/// Trains/evaluates a NodeClassifier on (graph, features, labels).
/// The graph is a per-call argument so the same trainer follows rewired
/// topologies during co-training.
class ClassifierTrainer {
 public:
  struct Options {
    Adam::Options adam;
    uint64_t seed = 1;  ///< dropout stream
  };

  /// One training epoch inside Fit: returns the epoch's training
  /// loss/accuracy and adds its optimizer steps to `*batches_run`.
  using EpochFn = std::function<EvalResult(int64_t* batches_run)>;

  /// `model` and `labels` must outlive the trainer.
  ClassifierTrainer(NodeClassifier* model, LayerInput features,
                    const std::vector<int64_t>* labels,
                    const Options& options);

  /// One optimization epoch (full-batch) on `train_idx`; returns post-update
  /// training loss/accuracy computed from the same forward pass.
  EvalResult TrainEpoch(const graph::Graph& g,
                        const std::vector<int64_t>& train_idx);

  /// Evaluation (no dropout, no gradients) on `idx`.
  EvalResult Evaluate(const graph::Graph& g, const std::vector<int64_t>& idx);

  /// Full logits in eval mode (for test metrics / AUC).
  tensor::Tensor EvalLogits(const graph::Graph& g);

  /// Trains full-graph epochs with early stopping on validation accuracy;
  /// restores the best weights before returning.
  FitResult Fit(const graph::Graph& g, const std::vector<int64_t>& train_idx,
                const std::vector<int64_t>& val_idx, int max_epochs,
                int patience);

  /// The early-stopping loop behind every fit: runs `train_epoch` up to
  /// `max_epochs` times, scores full-graph validation accuracy on `g`
  /// after each, snapshots the best weights, stops after `patience`
  /// epochs without improvement and restores the best weights.
  FitResult Fit(const EpochFn& train_epoch, const graph::Graph& g,
                const std::vector<int64_t>& val_idx, int max_epochs,
                int patience);

  /// Deep-copies all parameter tensors (early-stopping snapshots).
  std::vector<tensor::Tensor> SaveWeights() const;
  void LoadWeights(const std::vector<tensor::Tensor>& weights);

  NodeClassifier* model() { return model_; }
  Adam* optimizer() { return optimizer_.get(); }

 protected:
  /// ZeroGrad -> training forward drawing dropout from `rng` ->
  /// cross-entropy over rows `rows` against labels `y` -> Backward -> Adam
  /// step. Loss/accuracy come from that same forward pass.
  EvalResult Step(const ModelInputs& inputs, Rng* rng,
                  const std::vector<int64_t>& rows,
                  const std::vector<int64_t>& y);

  /// Eval-mode forward (no dropout, no gradients).
  tensor::Tensor Forward(const ModelInputs& inputs) const;

  /// Eval-mode loss/accuracy over rows `rows` against labels `y`.
  EvalResult Score(const ModelInputs& inputs, const std::vector<int64_t>& rows,
                   const std::vector<int64_t>& y) const;

  /// Labels of `nodes`, in order.
  std::vector<int64_t> LabelsOf(const std::vector<int64_t>& nodes) const;

  const LayerInput& features() const { return features_; }

 private:
  ModelInputs FullGraph(const graph::Graph& g) const;

  NodeClassifier* model_;
  LayerInput features_;
  const std::vector<int64_t>* labels_;
  std::unique_ptr<Adam> optimizer_;
  Rng dropout_rng_;
};

/// The same trainer, plus optimization one sampled block at a time (the
/// block comes from data::NeighborSampler via graph::InducedSubgraph).
/// Per-step memory and compute scale with the block, not the whole
/// adjacency, which is what lets training reach graphs far beyond
/// full-graph SpMM budgets. Full-graph epochs, evaluation, Fit and the
/// weight snapshots are the inherited ones, on one Adam state.
class MiniBatchTrainer : public ClassifierTrainer {
 public:
  using Options = ClassifierTrainer::Options;

  /// `model` and `labels` must outlive the trainer. `features` is the
  /// *global* feature matrix; per-batch slices are taken per block.
  MiniBatchTrainer(NodeClassifier* model,
                   std::shared_ptr<const tensor::CsrMatrix> features,
                   const std::vector<int64_t>* labels,
                   const Options& options);

  /// One optimization step on a sampled block; loss/accuracy are over the
  /// block's seed nodes, from the same forward pass that produced the
  /// update. Block steps draw dropout from their own stream, apart from
  /// TrainEpoch's.
  EvalResult TrainBatch(const graph::Subgraph& block);

  /// Block-scoped evaluation (no dropout, no gradients): forward on
  /// block.graph with the block's feature rows, loss/accuracy over the
  /// block's seed nodes. On an identity block (graph::FullSubgraph) this
  /// reproduces Evaluate(g, seeds) bitwise — the block-rollout RL reward
  /// path relies on that for its full-graph special case.
  EvalResult EvaluateBlock(const graph::Subgraph& block);

  /// Block-graph logits in eval mode (one row per *local* node).
  tensor::Tensor EvalLogitsBlock(const graph::Subgraph& block);

 private:
  ModelInputs BlockInputs(const graph::Subgraph& block) const;

  Rng block_dropout_rng_;
};

}  // namespace nn
}  // namespace graphrare

#endif  // GRAPHRARE_NN_TRAINER_H_
