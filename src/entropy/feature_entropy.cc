#include "entropy/feature_entropy.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"

namespace graphrare {
namespace entropy {

namespace {

// Pairs per parallel chunk: a pair costs one embedding dot product or one
// exp, so chunks this long amortise the scheduling overhead.
constexpr int64_t kPairGrain = 8192;

}  // namespace

tensor::Tensor EmbedFeatures(const tensor::Tensor& features,
                             const FeatureEmbeddingOptions& options) {
  tensor::Tensor z = features;
  if (options.projection_dim > 0 && options.projection_dim < features.cols()) {
    Rng rng(options.seed);
    const float scale =
        1.0f / std::sqrt(static_cast<float>(options.projection_dim));
    tensor::Tensor proj = tensor::Tensor::Randn(
        features.cols(), options.projection_dim, &rng, scale);
    z = tensor::MatMul(features, proj);
  }
  if (options.l2_normalize) {
    for (int64_t r = 0; r < z.rows(); ++r) {
      float* row = z.row(r);
      double norm_sq = 0.0;
      for (int64_t c = 0; c < z.cols(); ++c) norm_sq += row[c] * row[c];
      const float inv =
          norm_sq > 0.0 ? static_cast<float>(1.0 / std::sqrt(norm_sq)) : 0.0f;
      for (int64_t c = 0; c < z.cols(); ++c) row[c] *= inv;
    }
  }
  return z;
}

double EmbeddingDot(const tensor::Tensor& embeddings, int64_t v, int64_t u) {
  GR_DCHECK(v >= 0 && v < embeddings.rows());
  GR_DCHECK(u >= 0 && u < embeddings.rows());
  const float* pv = embeddings.row(v);
  const float* pu = embeddings.row(u);
  double dot = 0.0;
  for (int64_t c = 0; c < embeddings.cols(); ++c) dot += pv[c] * pu[c];
  return dot;
}

std::vector<double> FeatureEntropyForPairs(
    const tensor::Tensor& embeddings, const std::vector<NodePair>& pairs) {
  const int64_t n = static_cast<int64_t>(pairs.size());
  if (n == 0) return {};
  std::vector<double> logits(pairs.size());
  ParallelFor(n, kPairGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const auto& [v, u] = pairs[static_cast<size_t>(i)];
      logits[static_cast<size_t>(i)] = EmbeddingDot(embeddings, v, u);
    }
  });

  // log Z via log-sum-exp over the pair set: one ascending serial fold, so
  // the normaliser rounds exactly like a single-threaded loop.
  const double mx = *std::max_element(logits.begin(), logits.end());
  double sum_exp = 0.0;
  for (double s : logits) sum_exp += std::exp(s - mx);
  const double log_z = mx + std::log(sum_exp);

  std::vector<double> entropies(pairs.size());
  ParallelFor(n, kPairGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const double log_p = logits[static_cast<size_t>(i)] - log_z;  // <= 0
      const double p = std::exp(log_p);
      entropies[static_cast<size_t>(i)] = -p * log_p;  // -P log P (Eq. 4)
    }
  });
  return entropies;
}

}  // namespace entropy
}  // namespace graphrare
