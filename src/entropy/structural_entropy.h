// Copyright 2026 The GraphRARE Authors.
//
// Node structural entropy (paper Eqs. 5-8): similarity of two nodes' local
// structures measured as 1 - JS divergence between their normalised,
// descending degree sequences (node degree + 1-hop neighbour degrees,
// zero-padded to a common length). JS uses log base 2, so values live in
// [0, 1]; H_s(v,u) = 1 means identical local degree profiles.

#ifndef GRAPHRARE_ENTROPY_STRUCTURAL_ENTROPY_H_
#define GRAPHRARE_ENTROPY_STRUCTURAL_ENTROPY_H_

#include <vector>

#include "graph/graph.h"

namespace graphrare {
namespace entropy {

/// Jensen-Shannon divergence between two discrete distributions given as
/// (possibly different-length) arrays; missing tail entries are zeros.
/// Inputs must be non-negative and sum to 1 (up to rounding). Log base 2.
double JsDivergence(const std::vector<float>& p, const std::vector<float>& q);

/// Precomputes every node's normalised degree sequence and its entropy
/// H(p(v)) once, then answers pairwise structural-entropy queries in
/// O(max(len(v), len(u))) by computing only the mixture entropy H(m).
/// Between is bitwise equal to 1 - JsDivergence(p(v), p(u)) and is safe to
/// call concurrently.
class StructuralEntropyCalculator {
 public:
  explicit StructuralEntropyCalculator(const graph::Graph& g);

  /// H_s(v, u) = 1 - JS(p(v), p(u)) in [0, 1]. Symmetric.
  double Between(int64_t v, int64_t u) const;

  /// The normalised descending degree sequence p(v) (Eq. 6), without the
  /// implicit zero padding.
  const std::vector<float>& Sequence(int64_t v) const {
    return sequences_[static_cast<size_t>(v)];
  }

 private:
  std::vector<std::vector<float>> sequences_;
  std::vector<double> self_entropy_;  // H(p(v)) in nats
};

}  // namespace entropy
}  // namespace graphrare

#endif  // GRAPHRARE_ENTROPY_STRUCTURAL_ENTROPY_H_
