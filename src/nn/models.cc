#include "nn/models.h"

#include <algorithm>

#include "common/string_util.h"
#include "tensor/ops.h"

namespace graphrare {
namespace nn {

namespace ops = tensor::ops;
using tensor::Variable;

const char* BackboneName(BackboneKind kind) {
  switch (kind) {
    case BackboneKind::kMlp:
      return "mlp";
    case BackboneKind::kGcn:
      return "gcn";
    case BackboneKind::kSage:
      return "sage";
    case BackboneKind::kGat:
      return "gat";
    case BackboneKind::kMixHop:
      return "mixhop";
    case BackboneKind::kH2Gcn:
      return "h2gcn";
    case BackboneKind::kSgc:
      return "sgc";
    case BackboneKind::kAppnp:
      return "appnp";
  }
  return "?";
}

Result<BackboneKind> BackboneFromName(const std::string& name) {
  if (name == "mlp") return BackboneKind::kMlp;
  if (name == "gcn") return BackboneKind::kGcn;
  if (name == "sage" || name == "graphsage") return BackboneKind::kSage;
  if (name == "gat") return BackboneKind::kGat;
  if (name == "mixhop") return BackboneKind::kMixHop;
  if (name == "h2gcn") return BackboneKind::kH2Gcn;
  if (name == "sgc") return BackboneKind::kSgc;
  if (name == "appnp") return BackboneKind::kAppnp;
  return Status::NotFound(StrFormat("unknown backbone '%s'", name.c_str()));
}

Status ModelOptions::Validate() const {
  if (in_features < 1) {
    return Status::InvalidArgument("in_features must be >= 1");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument("num_classes must be >= 2");
  }
  if (hidden < 1) return Status::InvalidArgument("hidden must be >= 1");
  if (num_layers < 1) {
    return Status::InvalidArgument("num_layers must be >= 1");
  }
  if (dropout < 0.0f || dropout >= 1.0f) {
    return Status::InvalidArgument("dropout must be in [0, 1)");
  }
  if (gat_heads < 1) return Status::InvalidArgument("gat_heads must be >= 1");
  if (appnp_alpha <= 0.0f || appnp_alpha > 1.0f) {
    return Status::InvalidArgument("appnp_alpha must be in (0, 1]");
  }
  if (appnp_iterations < 1) {
    return Status::InvalidArgument("appnp_iterations must be >= 1");
  }
  return Status::OK();
}

namespace {

Variable MaybeDropout(const Variable& x, float p, bool training, Rng* rng) {
  if (p <= 0.0f || !training) return x;
  return ops::Dropout(x, p, training, rng);
}

}  // namespace

// -------------------------------------------------------------------- MLP

MlpModel::MlpModel(const ModelOptions& options) : dropout_(options.dropout) {
  GR_CHECK_OK(options.Validate());
  Rng rng(options.seed);
  int64_t in = options.in_features;
  for (int l = 0; l < options.num_layers; ++l) {
    const int64_t out =
        l == options.num_layers - 1 ? options.num_classes : options.hidden;
    layers_.push_back(std::make_unique<Linear>(in, out, &rng));
    RegisterChild("layer" + std::to_string(l), layers_.back().get());
    in = out;
  }
}

Variable MlpModel::Logits(const ModelInputs& in, bool training,
                          Rng* rng) const {
  // Hidden layers take the fused bias+ReLU forward; the last layer emits
  // raw logits.
  const bool last_is_0 = layers_.size() == 1;
  Variable h = in.features.is_sparse()
                   ? (last_is_0 ? layers_[0]->ForwardSparse(in.features.sparse)
                                : layers_[0]->ForwardSparseRelu(
                                      in.features.sparse))
                   : (last_is_0 ? layers_[0]->Forward(in.features.dense)
                                : layers_[0]->ForwardRelu(in.features.dense));
  for (size_t l = 1; l < layers_.size(); ++l) {
    h = MaybeDropout(h, dropout_, training, rng);
    h = l + 1 < layers_.size() ? layers_[l]->ForwardRelu(h)
                               : layers_[l]->Forward(h);
  }
  return h;
}

// ------------------------------------------------------------ GCN / SAGE

template <typename Conv, BackboneKind kKind>
ConvStackModel<Conv, kKind>::ConvStackModel(const ModelOptions& options)
    : dropout_(options.dropout) {
  GR_CHECK_OK(options.Validate());
  Rng rng(options.seed);
  int64_t in = options.in_features;
  for (int l = 0; l < options.num_layers; ++l) {
    const int64_t out =
        l == options.num_layers - 1 ? options.num_classes : options.hidden;
    convs_.push_back(std::make_unique<Conv>(in, out, &rng));
    RegisterChild("conv" + std::to_string(l), convs_.back().get());
    in = out;
  }
}

template <typename Conv, BackboneKind kKind>
Variable ConvStackModel<Conv, kKind>::Logits(const ModelInputs& in,
                                             bool training, Rng* rng) const {
  GR_CHECK(in.graph != nullptr);
  LayerInput x = in.features;
  Variable h;
  for (size_t l = 0; l < convs_.size(); ++l) {
    h = convs_[l]->Forward(*in.graph, x);
    if (l + 1 < convs_.size()) {
      h = MaybeDropout(ops::Relu(h), dropout_, training, rng);
      x = LayerInput::Dense(h);
    }
  }
  return h;
}

template class ConvStackModel<GCNConv, BackboneKind::kGcn>;
template class ConvStackModel<SAGEConv, BackboneKind::kSage>;

// -------------------------------------------------------------------- GAT

GatModel::GatModel(const ModelOptions& options) : dropout_(options.dropout) {
  GR_CHECK_OK(options.Validate());
  Rng rng(options.seed);
  const int heads = options.gat_heads;
  const int64_t per_head =
      std::max<int64_t>(1, options.hidden / heads);
  conv1_ = std::make_unique<GATConv>(options.in_features, per_head, heads,
                                     &rng, options.dropout);
  conv2_ = std::make_unique<GATConv>(per_head * heads, options.num_classes,
                                     /*num_heads=*/1, &rng, options.dropout);
  RegisterChild("conv1", conv1_.get());
  RegisterChild("conv2", conv2_.get());
}

Variable GatModel::Logits(const ModelInputs& in, bool training,
                          Rng* rng) const {
  GR_CHECK(in.graph != nullptr);
  Variable h = conv1_->Forward(*in.graph, in.features, training, rng);
  h = MaybeDropout(ops::Elu(h), dropout_, training, rng);
  return conv2_->Forward(*in.graph, LayerInput::Dense(h), training, rng);
}

// ----------------------------------------------------------------- MixHop

MixHopModel::MixHopModel(const ModelOptions& options)
    : dropout_(options.dropout) {
  GR_CHECK_OK(options.Validate());
  Rng rng(options.seed);
  const int64_t per_power = std::max<int64_t>(8, options.hidden / 3);
  conv1_ = std::make_unique<MixHopConv>(options.in_features, per_power, &rng);
  conv2_ = std::make_unique<MixHopConv>(conv1_->out_features(), per_power,
                                        &rng);
  classifier_ = std::make_unique<Linear>(conv2_->out_features(),
                                         options.num_classes, &rng);
  RegisterChild("conv1", conv1_.get());
  RegisterChild("conv2", conv2_.get());
  RegisterChild("classifier", classifier_.get());
}

Variable MixHopModel::Logits(const ModelInputs& in, bool training,
                             Rng* rng) const {
  GR_CHECK(in.graph != nullptr);
  Variable h = conv1_->Forward(*in.graph, in.features);
  h = MaybeDropout(ops::Relu(h), dropout_, training, rng);
  h = conv2_->Forward(*in.graph, LayerInput::Dense(h));
  h = MaybeDropout(ops::Relu(h), dropout_, training, rng);
  return classifier_->Forward(h);
}

// ------------------------------------------------------------------ H2GCN

H2GcnModel::H2GcnModel(const ModelOptions& options)
    : num_rounds_(std::max(1, options.num_layers - 1)),
      dropout_(options.dropout) {
  GR_CHECK_OK(options.Validate());
  Rng rng(options.seed);
  embed_ = std::make_unique<Linear>(options.in_features, options.hidden,
                                    &rng);
  // Width after K rounds: hidden * (1 + 2 + 4 + ... + 2^K) = hidden*(2^{K+1}-1).
  int64_t total = 0;
  int64_t w = options.hidden;
  for (int r = 0; r <= num_rounds_; ++r) {
    total += w;
    w *= 2;
  }
  classifier_ = std::make_unique<Linear>(total, options.num_classes, &rng);
  RegisterChild("embed", embed_.get());
  RegisterChild("classifier", classifier_.get());
}

Variable H2GcnModel::Logits(const ModelInputs& in, bool training,
                            Rng* rng) const {
  GR_CHECK(in.graph != nullptr);
  Variable h0 = in.features.is_sparse()
                    ? embed_->ForwardSparseRelu(in.features.sparse)
                    : embed_->ForwardRelu(in.features.dense);
  std::vector<Variable> reps = {h0};
  Variable h = h0;
  for (int r = 0; r < num_rounds_; ++r) {
    h = H2GCNAggregate(*in.graph, h);
    reps.push_back(h);
  }
  Variable rep = ops::ConcatCols(reps);
  rep = MaybeDropout(rep, dropout_, training, rng);
  return classifier_->Forward(rep);
}

// -------------------------------------------------------------------- SGC

SgcModel::SgcModel(const ModelOptions& options)
    : hops_(options.num_layers) {
  GR_CHECK_OK(options.Validate());
  Rng rng(options.seed);
  linear_ = std::make_unique<Linear>(options.in_features,
                                     options.num_classes, &rng);
  RegisterChild("linear", linear_.get());
}

Variable SgcModel::Logits(const ModelInputs& in, bool /*training*/,
                          Rng* /*rng*/) const {
  GR_CHECK(in.graph != nullptr);
  // Linearity lets us apply W first (cheap on sparse features), then
  // propagate: A^K (X W) == (A^K X) W.
  Variable h = in.features.is_sparse()
                   ? linear_->ForwardSparse(in.features.sparse)
                   : linear_->Forward(in.features.dense);
  auto adj = in.graph->NormalizedAdjacency();
  for (int k = 0; k < hops_; ++k) {
    h = ops::SpMM(adj, h);
  }
  return h;
}

// ------------------------------------------------------------------ APPNP

AppnpModel::AppnpModel(const ModelOptions& options)
    : alpha_(options.appnp_alpha),
      iterations_(options.appnp_iterations),
      dropout_(options.dropout) {
  GR_CHECK_OK(options.Validate());
  Rng rng(options.seed);
  lin1_ = std::make_unique<Linear>(options.in_features, options.hidden, &rng);
  lin2_ = std::make_unique<Linear>(options.hidden, options.num_classes, &rng);
  RegisterChild("lin1", lin1_.get());
  RegisterChild("lin2", lin2_.get());
}

Variable AppnpModel::Logits(const ModelInputs& in, bool training,
                            Rng* rng) const {
  GR_CHECK(in.graph != nullptr);
  Variable h = in.features.is_sparse()
                   ? lin1_->ForwardSparseRelu(in.features.sparse)
                   : lin1_->ForwardRelu(in.features.dense);
  h = MaybeDropout(h, dropout_, training, rng);
  Variable h0 = lin2_->Forward(h);
  // Personalised PageRank: z <- (1-alpha) A z + alpha h0.
  auto adj = in.graph->NormalizedAdjacency();
  Variable z = h0;
  for (int t = 0; t < iterations_; ++t) {
    z = ops::Add(ops::Scale(ops::SpMM(adj, z), 1.0f - alpha_),
                 ops::Scale(h0, alpha_));
  }
  return z;
}

// ---------------------------------------------------------------- Factory

std::unique_ptr<NodeClassifier> MakeModel(BackboneKind kind,
                                          const ModelOptions& options) {
  switch (kind) {
    case BackboneKind::kMlp:
      return std::make_unique<MlpModel>(options);
    case BackboneKind::kGcn:
      return std::make_unique<GcnModel>(options);
    case BackboneKind::kSage:
      return std::make_unique<SageModel>(options);
    case BackboneKind::kGat:
      return std::make_unique<GatModel>(options);
    case BackboneKind::kMixHop:
      return std::make_unique<MixHopModel>(options);
    case BackboneKind::kH2Gcn:
      return std::make_unique<H2GcnModel>(options);
    case BackboneKind::kSgc:
      return std::make_unique<SgcModel>(options);
    case BackboneKind::kAppnp:
      return std::make_unique<AppnpModel>(options);
  }
  GR_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace nn
}  // namespace graphrare
