// Copyright 2026 The GraphRARE Authors.
//
// Node-classification backbones: MLP, GCN, GraphSAGE, GAT, MixHop, H2GCN.
// These are the models Table III enhances with GraphRARE and compares
// against. Every model consumes whatever graph it is given, so the same
// instance trains on rewired graphs during co-training.

#ifndef GRAPHRARE_NN_MODELS_H_
#define GRAPHRARE_NN_MODELS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "nn/gnn_layers.h"

namespace graphrare {
namespace nn {

/// Supported backbone families. kSgc and kAppnp go beyond the paper's
/// Table III set; they demonstrate the framework's "any GNN" claim.
enum class BackboneKind {
  kMlp,
  kGcn,
  kSage,
  kGat,
  kMixHop,
  kH2Gcn,
  kSgc,
  kAppnp,
};

/// Stable lowercase name ("gcn", "sage", ...).
const char* BackboneName(BackboneKind kind);
Result<BackboneKind> BackboneFromName(const std::string& name);

/// Hyper-parameters shared across backbones (paper Sec. V-C: 2 layers,
/// hidden in {48, 64, 128}, dropout 0.5).
struct ModelOptions {
  int64_t in_features = 0;
  int64_t hidden = 64;
  int64_t num_classes = 0;
  int num_layers = 2;
  float dropout = 0.5f;
  int gat_heads = 4;
  /// APPNP teleport probability and power-iteration count.
  float appnp_alpha = 0.1f;
  int appnp_iterations = 10;
  uint64_t seed = 1;

  Status Validate() const;
};

/// Everything a forward pass needs besides parameters.
struct ModelInputs {
  const graph::Graph* graph = nullptr;
  LayerInput features;
};

/// Interface of all backbones: features+graph -> class logits (N x C).
class NodeClassifier : public Module {
 public:
  virtual tensor::Variable Logits(const ModelInputs& in, bool training,
                                  Rng* rng) const = 0;
  virtual BackboneKind kind() const = 0;
};

/// Creates a backbone with freshly initialised parameters.
std::unique_ptr<NodeClassifier> MakeModel(BackboneKind kind,
                                          const ModelOptions& options);

// --- Concrete models (public for direct use and tests) -------------------

/// Feature-only baseline; ignores the graph.
class MlpModel : public NodeClassifier {
 public:
  explicit MlpModel(const ModelOptions& options);
  tensor::Variable Logits(const ModelInputs& in, bool training,
                          Rng* rng) const override;
  BackboneKind kind() const override { return BackboneKind::kMlp; }

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
  float dropout_;
};

/// GCN and GraphSAGE: num_layers convs of one type (child "conv{l}"), with
/// ReLU and dropout between them.
template <typename Conv, BackboneKind kKind>
class ConvStackModel : public NodeClassifier {
 public:
  explicit ConvStackModel(const ModelOptions& options);
  tensor::Variable Logits(const ModelInputs& in, bool training,
                          Rng* rng) const override;
  BackboneKind kind() const override { return kKind; }

 private:
  std::vector<std::unique_ptr<Conv>> convs_;
  float dropout_;
};

using GcnModel = ConvStackModel<GCNConv, BackboneKind::kGcn>;
using SageModel = ConvStackModel<SAGEConv, BackboneKind::kSage>;

class GatModel : public NodeClassifier {
 public:
  explicit GatModel(const ModelOptions& options);
  tensor::Variable Logits(const ModelInputs& in, bool training,
                          Rng* rng) const override;
  BackboneKind kind() const override { return BackboneKind::kGat; }

 private:
  std::unique_ptr<GATConv> conv1_;
  std::unique_ptr<GATConv> conv2_;
  float dropout_;
};

class MixHopModel : public NodeClassifier {
 public:
  explicit MixHopModel(const ModelOptions& options);
  tensor::Variable Logits(const ModelInputs& in, bool training,
                          Rng* rng) const override;
  BackboneKind kind() const override { return BackboneKind::kMixHop; }

 private:
  std::unique_ptr<MixHopConv> conv1_;
  std::unique_ptr<MixHopConv> conv2_;
  std::unique_ptr<Linear> classifier_;
  float dropout_;
};

/// H2GCN (Zhu et al. 2020): ego/neighbour separation, strict 2-hop
/// aggregation, and concatenation of all intermediate representations.
class H2GcnModel : public NodeClassifier {
 public:
  explicit H2GcnModel(const ModelOptions& options);
  tensor::Variable Logits(const ModelInputs& in, bool training,
                          Rng* rng) const override;
  BackboneKind kind() const override { return BackboneKind::kH2Gcn; }

 private:
  std::unique_ptr<Linear> embed_;
  std::unique_ptr<Linear> classifier_;
  int num_rounds_;
  float dropout_;
};

/// SGC (Wu et al. 2019): logits = A_norm^K (X W) — GCN with the
/// nonlinearities removed; the whole model is one linear map over the
/// K-step propagated features.
class SgcModel : public NodeClassifier {
 public:
  explicit SgcModel(const ModelOptions& options);
  tensor::Variable Logits(const ModelInputs& in, bool training,
                          Rng* rng) const override;
  BackboneKind kind() const override { return BackboneKind::kSgc; }

 private:
  std::unique_ptr<Linear> linear_;
  int hops_;
};

/// APPNP (Klicpera et al. 2019): an MLP predictor followed by personalised
/// PageRank propagation z <- (1-alpha) A_norm z + alpha h0.
class AppnpModel : public NodeClassifier {
 public:
  explicit AppnpModel(const ModelOptions& options);
  tensor::Variable Logits(const ModelInputs& in, bool training,
                          Rng* rng) const override;
  BackboneKind kind() const override { return BackboneKind::kAppnp; }

 private:
  std::unique_ptr<Linear> lin1_;
  std::unique_ptr<Linear> lin2_;
  float alpha_;
  int iterations_;
  float dropout_;
};

}  // namespace nn
}  // namespace graphrare

#endif  // GRAPHRARE_NN_MODELS_H_
