// Copyright 2026 The GraphRARE Authors.
//
// Node feature entropy (paper Eq. 4): pair probability from the softmax of
// embedding dot products over a pair set, turned into -P log P. Because
// P(z_v, z_u) << 1/e for any non-trivial pair set and -p log p is strictly
// increasing on (0, 1/e), ranking by feature entropy equals ranking by
// embedding similarity — matching the paper's reading that larger feature
// entropy means more similar features.
//
// The embedding function phi is a seeded random projection (an untrained
// MLP layer, matching the paper's one-off pre-training computation) plus
// optional L2 normalisation; phi = identity when projection_dim == 0.
//
// Parallelism: FeatureEntropyForPairs maps the logits and the entropies
// with ParallelFor; each pair writes only its own slot. The log-sum-exp
// normaliser is the one serial part: its exp terms are summed in one
// ascending fold (not the fixed-block ParallelReduce, whose block spec
// would change the rounding), so the results are bitwise those of a
// single-threaded loop under any OMP_NUM_THREADS and with OpenMP off.

#ifndef GRAPHRARE_ENTROPY_FEATURE_ENTROPY_H_
#define GRAPHRARE_ENTROPY_FEATURE_ENTROPY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace graphrare {
namespace entropy {

/// Pair of node ids.
using NodePair = std::pair<int64_t, int64_t>;

/// Options for the embedding function phi.
struct FeatureEmbeddingOptions {
  /// Output dimension of the random projection; 0 keeps raw features.
  int64_t projection_dim = 64;
  /// L2-normalise embeddings so dot products are cosine similarities.
  bool l2_normalize = true;
  uint64_t seed = 13;
};

/// Computes phi(X): random projection + L2 normalisation.
tensor::Tensor EmbedFeatures(const tensor::Tensor& features,
                             const FeatureEmbeddingOptions& options);

/// Computes feature entropies H_f for each pair, with the softmax
/// normaliser taken over exactly the given pair set (the paper's sparse
/// candidate-restricted computation). Numerically stable (log-sum-exp).
std::vector<double> FeatureEntropyForPairs(const tensor::Tensor& embeddings,
                                           const std::vector<NodePair>& pairs);

/// Raw embedding dot product <z_v, z_u> (ranking-equivalent fast path).
double EmbeddingDot(const tensor::Tensor& embeddings, int64_t v, int64_t u);

}  // namespace entropy
}  // namespace graphrare

#endif  // GRAPHRARE_ENTROPY_FEATURE_ENTROPY_H_
