#include "nn/trainer.h"

#include "tensor/ops.h"

namespace graphrare {
namespace nn {

namespace ops = tensor::ops;
using tensor::Variable;

namespace {

/// Fraction of `rows` whose argmax logit equals the matching label in `y`.
double RowAccuracy(const tensor::Tensor& logits,
                   const std::vector<int64_t>& rows,
                   const std::vector<int64_t>& y) {
  GR_CHECK(!rows.empty());
  int64_t correct = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    GR_CHECK(rows[i] >= 0 && rows[i] < logits.rows());
    if (logits.ArgMaxRow(rows[i]) == y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(rows.size());
}

}  // namespace

ClassifierTrainer::ClassifierTrainer(NodeClassifier* model,
                                     LayerInput features,
                                     const std::vector<int64_t>* labels,
                                     const Options& options)
    : model_(model),
      features_(std::move(features)),
      labels_(labels),
      dropout_rng_(options.seed ^ 0xA5A5A5A5ULL) {
  GR_CHECK(model != nullptr);
  GR_CHECK(labels != nullptr);
  optimizer_ = std::make_unique<Adam>(model->Parameters(), options.adam);
}

ModelInputs ClassifierTrainer::FullGraph(const graph::Graph& g) const {
  ModelInputs inputs;
  inputs.graph = &g;
  inputs.features = features_;
  return inputs;
}

std::vector<int64_t> ClassifierTrainer::LabelsOf(
    const std::vector<int64_t>& nodes) const {
  std::vector<int64_t> out;
  out.reserve(nodes.size());
  for (int64_t i : nodes) out.push_back((*labels_)[static_cast<size_t>(i)]);
  return out;
}

EvalResult ClassifierTrainer::Step(const ModelInputs& inputs, Rng* rng,
                                   const std::vector<int64_t>& rows,
                                   const std::vector<int64_t>& y) {
  model_->ZeroGrad();
  Variable logits = model_->Logits(inputs, /*training=*/true, rng);
  Variable loss = ops::CrossEntropy(logits, rows, y);
  loss.Backward();
  optimizer_->Step();

  EvalResult result;
  result.loss = loss.value().scalar();
  result.accuracy = RowAccuracy(logits.value(), rows, y);
  return result;
}

tensor::Tensor ClassifierTrainer::Forward(const ModelInputs& inputs) const {
  return model_->Logits(inputs, /*training=*/false, nullptr).value();
}

EvalResult ClassifierTrainer::Score(const ModelInputs& inputs,
                                    const std::vector<int64_t>& rows,
                                    const std::vector<int64_t>& y) const {
  Variable logits(Forward(inputs), /*requires_grad=*/false);
  EvalResult result;
  result.loss = ops::CrossEntropy(logits, rows, y).value().scalar();
  result.accuracy = RowAccuracy(logits.value(), rows, y);
  return result;
}

EvalResult ClassifierTrainer::TrainEpoch(
    const graph::Graph& g, const std::vector<int64_t>& train_idx) {
  GR_CHECK(!train_idx.empty());
  return Step(FullGraph(g), &dropout_rng_, train_idx, LabelsOf(train_idx));
}

EvalResult ClassifierTrainer::Evaluate(const graph::Graph& g,
                                       const std::vector<int64_t>& idx) {
  GR_CHECK(!idx.empty());
  return Score(FullGraph(g), idx, LabelsOf(idx));
}

tensor::Tensor ClassifierTrainer::EvalLogits(const graph::Graph& g) {
  return Forward(FullGraph(g));
}

FitResult ClassifierTrainer::Fit(const graph::Graph& g,
                                 const std::vector<int64_t>& train_idx,
                                 const std::vector<int64_t>& val_idx,
                                 int max_epochs, int patience) {
  return Fit(
      [&](int64_t* batches_run) {
        ++*batches_run;
        return TrainEpoch(g, train_idx);
      },
      g, val_idx, max_epochs, patience);
}

FitResult ClassifierTrainer::Fit(const EpochFn& train_epoch,
                                 const graph::Graph& g,
                                 const std::vector<int64_t>& val_idx,
                                 int max_epochs, int patience) {
  GR_CHECK_GT(max_epochs, 0);
  GR_CHECK_GT(patience, 0);
  FitResult result;
  std::vector<tensor::Tensor> best_weights = SaveWeights();
  int since_best = 0;
  for (int epoch = 0; epoch < max_epochs; ++epoch) {
    const EvalResult train = train_epoch(&result.batches_run);
    const EvalResult val = Evaluate(g, val_idx);
    result.train_loss_history.push_back(train.loss);
    result.train_acc_history.push_back(train.accuracy);
    result.val_acc_history.push_back(val.accuracy);
    ++result.epochs_run;
    if (val.accuracy > result.best_val_accuracy) {
      result.best_val_accuracy = val.accuracy;
      result.best_epoch = epoch;
      best_weights = SaveWeights();
      since_best = 0;
    } else if (++since_best >= patience) {
      break;
    }
  }
  LoadWeights(best_weights);
  return result;
}

std::vector<tensor::Tensor> ClassifierTrainer::SaveWeights() const {
  std::vector<tensor::Tensor> weights;
  for (const auto& p : model_->Parameters()) weights.push_back(p.value());
  return weights;
}

void ClassifierTrainer::LoadWeights(const std::vector<tensor::Tensor>& weights) {
  auto params = model_->Parameters();
  GR_CHECK_EQ(params.size(), weights.size());
  for (size_t i = 0; i < params.size(); ++i) {
    GR_CHECK(params[i].value().SameShape(weights[i]));
    *params[i].mutable_value() = weights[i];
  }
}

MiniBatchTrainer::MiniBatchTrainer(
    NodeClassifier* model,
    std::shared_ptr<const tensor::CsrMatrix> features,
    const std::vector<int64_t>* labels, const Options& options)
    : ClassifierTrainer(model, LayerInput::Sparse(std::move(features)),
                        labels, options),
      block_dropout_rng_(options.seed ^ 0x3C3C3C3CULL) {
  GR_CHECK(this->features().is_sparse());
}

ModelInputs MiniBatchTrainer::BlockInputs(
    const graph::Subgraph& block) const {
  ModelInputs inputs;
  inputs.graph = &block.graph;
  inputs.features = LayerInput::Sparse(std::make_shared<tensor::CsrMatrix>(
      block.LocalRows(*features().sparse)));
  return inputs;
}

EvalResult MiniBatchTrainer::TrainBatch(const graph::Subgraph& block) {
  GR_CHECK_GT(block.num_seeds(), 0);
  return Step(BlockInputs(block), &block_dropout_rng_, block.seed_local,
              LabelsOf(block.seed_global));
}

EvalResult MiniBatchTrainer::EvaluateBlock(const graph::Subgraph& block) {
  GR_CHECK_GT(block.num_seeds(), 0);
  return Score(BlockInputs(block), block.seed_local,
               LabelsOf(block.seed_global));
}

tensor::Tensor MiniBatchTrainer::EvalLogitsBlock(const graph::Subgraph& block) {
  return Forward(BlockInputs(block));
}

}  // namespace nn
}  // namespace graphrare
