// Copyright 2026 The GraphRARE Authors.
//
// Differentiable operations over Variable. Every op returns a fresh tape
// node whose backward accumulates into the parents' gradients. Shapes follow
// the library convention: everything is 2-D, vectors are (n,1) columns,
// scalars are (1,1).

#ifndef GRAPHRARE_TENSOR_OPS_H_
#define GRAPHRARE_TENSOR_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "tensor/autograd.h"
#include "tensor/sparse.h"

namespace graphrare {
namespace tensor {
namespace ops {

// -- Arithmetic -----------------------------------------------------------

/// Elementwise a + b (same shape).
Variable Add(const Variable& a, const Variable& b);
/// Elementwise a - b (same shape).
Variable Sub(const Variable& a, const Variable& b);
/// Elementwise a * b (same shape).
Variable Mul(const Variable& a, const Variable& b);
/// a + bias, bias shape (1, n) broadcast over rows of a (m, n).
Variable AddBias(const Variable& a, const Variable& bias);
/// Fused relu(a + bias): one pass forward, and one backward sweep that
/// produces both d_a and the bias column sums. Bitwise identical to
/// Relu(AddBias(a, bias)) — the fusion only removes the intermediate tape
/// node and its buffers from the dense-layer hot path.
Variable AddBiasRelu(const Variable& a, const Variable& bias);
/// c * a for a compile-time constant c.
Variable Scale(const Variable& a, float c);
/// a + c elementwise.
Variable AddScalar(const Variable& a, float c);
/// -a.
Variable Neg(const Variable& a);
/// a^2 elementwise.
Variable Square(const Variable& a);

// -- Matrix products ------------------------------------------------------

/// Dense matmul (m,k)x(k,n) -> (m,n).
Variable MatMul(const Variable& a, const Variable& b);
/// Sparse-dense product y = S x, S fixed (no gradient flows into S).
/// The CSR matrix is captured by shared_ptr; its transpose is cached inside.
Variable SpMM(std::shared_ptr<const CsrMatrix> s, const Variable& x);

// -- Nonlinearities -------------------------------------------------------

Variable Relu(const Variable& a);
Variable LeakyRelu(const Variable& a, float negative_slope = 0.2f);
Variable Elu(const Variable& a, float alpha = 1.0f);
Variable Tanh(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable Exp(const Variable& a);
/// Natural log; inputs must be positive.
Variable Log(const Variable& a);

/// Draws per parallel chunk of a dropout mask (part of the mask-drawing
/// schedule, not of its values; tests use it to probe chunk boundaries).
inline constexpr int64_t kDropoutMaskChunk = int64_t{1} << 14;

/// Inverted dropout. Identity when !training or p == 0. The mask is the
/// next numel() Bernoulli(p) draws of rng's stream in flat order (the
/// stream is part of the contract). Long masks are drawn in parallel
/// chunks from copies of rng jumped ahead with Rng::Advance, with the bits
/// and final rng state of the serial loop; applying the mask runs in
/// parallel too.
Variable Dropout(const Variable& a, float p, bool training, Rng* rng);

// -- Softmax family -------------------------------------------------------

/// Row-wise log-softmax (numerically stable).
Variable LogSoftmaxRows(const Variable& a);
/// Row-wise softmax.
Variable SoftmaxRows(const Variable& a);

/// Negative log-likelihood over *all* rows of logp (m, c) with integer
/// labels (size m): -(1/m) sum_i logp[i, labels[i]]. Returns a scalar.
Variable NllLoss(const Variable& logp, const std::vector<int64_t>& labels);

/// Fused log-softmax + NLL over the rows of `logits` selected by `index`
/// (labels[i] is the class of row index[i]); mean reduction over the
/// selection. One pass per selected row — the (m, c) log-probability matrix
/// of the LogSoftmaxRows/GatherRows/NllLoss chain is never materialised and
/// the backward touches only the selected rows. For distinct indices (every
/// real call site: train/seed node sets) the loss and gradients match that
/// chain bitwise; duplicate indices still accumulate correctly (one
/// occurrence at a time, in index order) but may differ from the chain in
/// the last ulp, since the chain folds duplicates into one row update.
/// CrossEntropy routes here.
Variable LogSoftmaxNll(const Variable& logits, std::vector<int64_t> index,
                       std::vector<int64_t> labels);

// -- Reductions -----------------------------------------------------------

/// Sum of all elements -> scalar.
Variable SumAll(const Variable& a);
/// Mean of all elements -> scalar.
Variable MeanAll(const Variable& a);
/// Row sums (m,n) -> (m,1).
Variable RowSumCols(const Variable& a);

// -- Shape / indexing -----------------------------------------------------

/// Horizontal concatenation [a1 | a2 | ...]; all inputs share row count.
Variable ConcatCols(const std::vector<Variable>& parts);
/// Y[i,:] = X[idx[i],:]. Backward scatter-adds.
Variable GatherRows(const Variable& x, std::vector<int64_t> idx);
/// Y (n,f) with Y[idx[i],:] += X[i,:] (X is (e,f)).
Variable ScatterAddRows(const Variable& x, std::vector<int64_t> idx,
                        int64_t num_rows);
/// y[i] = X[i, idx[i]] -> (m,1). One element per row.
Variable GatherCols(const Variable& x, std::vector<int64_t> idx);
/// Y[i,:] = X[i,:] * s[i] with s shape (m,1).
Variable RowScale(const Variable& x, const Variable& s);
/// Y = s * X where s is a trainable (1,1) scalar Variable.
Variable ScaleByScalar(const Variable& x, const Variable& s);

// -- Segment operations (edge-level GNN math) -----------------------------

/// Softmax of scores (e,1) within segments given by seg[i] in [0, n).
/// Segments need not be contiguous. Used for GAT attention normalisation.
Variable SegmentSoftmax(const Variable& scores, std::vector<int64_t> seg,
                        int64_t num_segments);

/// Per-head GAT attention scores. h (n, H*f) holds H heads of width f side
/// by side and a[k] (f, 1) is head k's attention vector; the result is the
/// (n, H) matrix
///
///   s[i, k] = sum_c h[i, k*f + c] * a[k][c]      (ascending c)
///
/// bitwise the per-head MatMul(h_k, a[k]) values. The backward is bitwise
/// MatMul's too: h's gradient gets g[i, k] * a[k][c] added per element, and
/// a[k]'s gradient reduces over fixed kTransAKBlock-row blocks of h, summed
/// in ascending block order, as MatMulTransA does.
Variable GatScores(const Variable& h, const std::vector<Variable>& a);

/// Fused multi-head GAT attention edge kernel. For per-node features h
/// (n, H*f), H heads of width f side by side, and per-node attention scores
/// sl / sr (n, H), H = sl.cols(), it computes for every head k:
///
///   e_ik     = leaky_relu(sl[src[i], k] + sr[dst[i], k], negative_slope)
///   alpha_ik = segment_softmax(e_:k, dst)_i      (optionally dropped out)
///   out[v, k*f:(k+1)*f] = sum_{i : dst[i] == v} alpha_ik * h[src[i], k*f:]
///
/// into one (n, H*f) output: the concatenation of the heads, each of which
/// replaces a GatherRows -> Add -> LeakyRelu -> SegmentSoftmax ->
/// (Dropout) -> GatherRows -> RowScale -> ScatterAddRows chain. Forward and
/// backward are bitwise identical to the per-head chains (and their
/// ConcatCols) at any thread count: per-edge arithmetic uses the same
/// expressions, and every segment reduction and scatter accumulation
/// (segment max and double sum, output rows, the h / sl / sr gradient
/// rows, the double softmax-backward dots) runs in parallel over (head,
/// node) pairs, each walking the node's edges in the same ascending-edge
/// order the chain used. For H = 1 this is the single-head kernel exactly. Dropout (applied when `training` and
/// dropout_p > 0) draws one Bernoulli(dropout_p) per edge and head,
/// head-major (all of head 0's edges in edge order, then head 1's, ...), so
/// the RNG stream matches ops::Dropout on each head's (e, 1) alpha tensor in
/// head order. Only the (H, e) attention weights and dropout mask are saved
/// for backward — none of the chain's (e, f) edge-message intermediates are
/// materialised or taped.
/// h must have edges->num_src rows; the output has edges->num_dst rows.
Variable GatSegmentAttention(const Variable& h, const Variable& sl,
                             const Variable& sr,
                             std::shared_ptr<const GatEdges> edges,
                             float negative_slope, float dropout_p,
                             bool training, Rng* rng);

/// Same kernel over a plain edge list (groups it on every call).
Variable GatSegmentAttention(const Variable& h, const Variable& sl,
                             const Variable& sr, std::vector<int64_t> src,
                             std::vector<int64_t> dst, int64_t num_nodes,
                             float negative_slope, float dropout_p,
                             bool training, Rng* rng);

// -- Clipping (PPO) -------------------------------------------------------

/// Elementwise clamp; gradient passes only where lo < a < hi.
Variable Clamp(const Variable& a, float lo, float hi);
/// Elementwise minimum of a and b; gradient flows to the smaller input
/// (ties -> a).
Variable Min(const Variable& a, const Variable& b);

// -- Convenience ----------------------------------------------------------

/// Cross-entropy over the rows of `logits` selected by `index` with labels
/// `labels` (labels[i] is the class of row index[i]). Mean reduction.
Variable CrossEntropy(const Variable& logits, const std::vector<int64_t>& index,
                      const std::vector<int64_t>& labels);

/// Mean squared error between a and b (same shape) -> scalar.
Variable MseLoss(const Variable& a, const Variable& b);

}  // namespace ops
}  // namespace tensor
}  // namespace graphrare

#endif  // GRAPHRARE_TENSOR_OPS_H_
