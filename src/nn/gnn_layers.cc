#include "nn/gnn_layers.h"

#include "tensor/ops.h"

namespace graphrare {
namespace nn {

namespace ops = tensor::ops;
using tensor::Variable;

namespace {

/// Applies a Linear to dense-or-sparse input.
Variable ApplyLinear(const Linear& linear, const LayerInput& x) {
  return x.is_sparse() ? linear.ForwardSparse(x.sparse)
                       : linear.Forward(x.dense);
}

}  // namespace

// ---------------------------------------------------------------- GCNConv

GCNConv::GCNConv(int64_t in_features, int64_t out_features, Rng* rng) {
  linear_ = std::make_unique<Linear>(in_features, out_features, rng);
  RegisterChild("linear", linear_.get());
}

Variable GCNConv::Forward(const graph::Graph& g, const LayerInput& x) const {
  Variable h = ApplyLinear(*linear_, x);
  return ops::SpMM(g.NormalizedAdjacency(), h);
}

// --------------------------------------------------------------- SAGEConv

SAGEConv::SAGEConv(int64_t in_features, int64_t out_features, Rng* rng) {
  self_linear_ = std::make_unique<Linear>(in_features, out_features, rng);
  neigh_linear_ = std::make_unique<Linear>(in_features, out_features, rng,
                                           /*use_bias=*/false);
  RegisterChild("self", self_linear_.get());
  RegisterChild("neigh", neigh_linear_.get());
}

Variable SAGEConv::Forward(const graph::Graph& g, const LayerInput& x) const {
  Variable self = ApplyLinear(*self_linear_, x);
  Variable neigh = ApplyLinear(*neigh_linear_, x);
  Variable agg = ops::SpMM(g.RowNormalizedAdjacency(), neigh);
  return ops::Add(self, agg);
}

// ---------------------------------------------------------------- GATConv

GATConv::GATConv(int64_t in_features, int64_t out_per_head, int num_heads,
                 Rng* rng, float attention_dropout, float negative_slope)
    : attention_dropout_(attention_dropout),
      negative_slope_(negative_slope) {
  GR_CHECK_GT(num_heads, 0);
  heads_.resize(static_cast<size_t>(num_heads));
  for (int h = 0; h < num_heads; ++h) {
    auto& head = heads_[static_cast<size_t>(h)];
    head.proj = std::make_unique<Linear>(in_features, out_per_head, rng,
                                         /*use_bias=*/false);
    RegisterChild("proj" + std::to_string(h), head.proj.get());
    head.attn_src = RegisterParameter(
        "attn_src" + std::to_string(h),
        tensor::Tensor::GlorotUniform(out_per_head, 1, rng));
    head.attn_dst = RegisterParameter(
        "attn_dst" + std::to_string(h),
        tensor::Tensor::GlorotUniform(out_per_head, 1, rng));
  }
}

Variable GATConv::Forward(const graph::Graph& g, const LayerInput& x,
                          bool training, Rng* rng) const {
  // All heads in one pass: one product against the column-concatenated
  // projections lays every head's features side by side, and the edge
  // kernel writes the concatenated head outputs directly.
  std::vector<Variable> weights;
  std::vector<Variable> attn_src;
  std::vector<Variable> attn_dst;
  for (const auto& head : heads_) {
    weights.push_back(head.proj->weight());
    attn_src.push_back(head.attn_src);
    attn_dst.push_back(head.attn_dst);
  }
  const Variable w =
      weights.size() == 1 ? weights[0] : ops::ConcatCols(weights);
  const Variable h =
      x.is_sparse() ? ops::SpMM(x.sparse, w) : ops::MatMul(x.dense, w);
  return ops::GatSegmentAttention(h, ops::GatScores(h, attn_src),
                                  ops::GatScores(h, attn_dst),
                                  g.AttentionEdges(), negative_slope_,
                                  attention_dropout_, training, rng);
}

// -------------------------------------------------------------- MixHopConv

MixHopConv::MixHopConv(int64_t in_features, int64_t out_per_power, Rng* rng)
    : out_per_power_(out_per_power) {
  w0_ = std::make_unique<Linear>(in_features, out_per_power, rng);
  w1_ = std::make_unique<Linear>(in_features, out_per_power, rng);
  w2_ = std::make_unique<Linear>(in_features, out_per_power, rng);
  RegisterChild("w0", w0_.get());
  RegisterChild("w1", w1_.get());
  RegisterChild("w2", w2_.get());
}

Variable MixHopConv::Forward(const graph::Graph& g,
                             const LayerInput& x) const {
  auto adj = g.NormalizedAdjacency();
  Variable h0 = ApplyLinear(*w0_, x);
  Variable h1 = ops::SpMM(adj, ApplyLinear(*w1_, x));
  Variable h2 = ops::SpMM(adj, ops::SpMM(adj, ApplyLinear(*w2_, x)));
  return ops::ConcatCols({h0, h1, h2});
}

// ------------------------------------------------------- H2GCN aggregation

Variable H2GCNAggregate(const graph::Graph& g, const Variable& h) {
  Variable h1 = ops::SpMM(g.RowNormalizedAdjacency(), h);
  Variable h2 = ops::SpMM(g.RowNormalizedTwoHop(), h);
  return ops::ConcatCols({h1, h2});
}

}  // namespace nn
}  // namespace graphrare
