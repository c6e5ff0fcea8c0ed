// Copyright 2026 The GraphRARE Authors.
//
// Per-head reference for the multi-head GATConv pins in kernel_test: the
// layer written out as H independent single-head layers joined by
// ConcatCols, built from public ops only (a projection per head, two
// single-column MatMul scores per head, one single-head
// GatSegmentAttention per head). It reads the layer's own parameters by
// name, so both sides share weights, but it shares none of the fused
// layer's multi-head plumbing (weight concat, GatScores, the n x H score
// layout, head-major dropout masks).

#ifndef GRAPHRARE_TESTS_GAT_REFERENCE_H_
#define GRAPHRARE_TESTS_GAT_REFERENCE_H_

#include <map>
#include <string>
#include <vector>

#include "nn/gnn_layers.h"
#include "tensor/ops.h"

namespace graphrare {

/// conv.Forward(g, x, training, rng) as a per-head composition. The layer
/// does not expose its attention dropout or slope, so the caller passes the
/// values it constructed the layer with.
inline tensor::Variable PerHeadGatForward(const nn::GATConv& conv,
                                          const graph::Graph& g,
                                          const nn::LayerInput& x,
                                          float attention_dropout,
                                          float negative_slope, bool training,
                                          Rng* rng) {
  namespace ops = tensor::ops;
  std::map<std::string, tensor::Variable> params;
  for (const auto& [name, v] : conv.NamedParameters()) params[name] = v;
  std::vector<tensor::Variable> heads;
  for (int k = 0; k < conv.num_heads(); ++k) {
    const std::string id = std::to_string(k);
    const tensor::Variable& w = params.at("proj" + id + ".weight");
    const tensor::Variable h =
        x.is_sparse() ? ops::SpMM(x.sparse, w) : ops::MatMul(x.dense, w);
    const tensor::Variable sl = ops::MatMul(h, params.at("attn_src" + id));
    const tensor::Variable sr = ops::MatMul(h, params.at("attn_dst" + id));
    heads.push_back(ops::GatSegmentAttention(h, sl, sr, g.AttentionEdges(),
                                             negative_slope,
                                             attention_dropout, training,
                                             rng));
  }
  return heads.size() == 1 ? heads[0] : ops::ConcatCols(heads);
}

}  // namespace graphrare

#endif  // GRAPHRARE_TESTS_GAT_REFERENCE_H_
