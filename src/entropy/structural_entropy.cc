#include "entropy/structural_entropy.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace graphrare {
namespace entropy {

namespace {

constexpr double kLog2 = 0.6931471805599453;  // ln 2

inline double XLogX(double x) { return x > 0.0 ? x * std::log(x) : 0.0; }

// JS(p,q) = H(m) - (H(p) + H(q))/2 in nats, converted to bits and clamped
// against tiny rounding noise outside [0, 1].
inline double JsBits(double h_m, double h_p, double h_q) {
  const double js_nats = h_m - 0.5 * (h_p + h_q);
  double js_bits = js_nats / kLog2;
  if (js_bits < 0.0) js_bits = 0.0;
  if (js_bits > 1.0) js_bits = 1.0;
  return js_bits;
}

}  // namespace

double JsDivergence(const std::vector<float>& p, const std::vector<float>& q) {
  const size_t n = std::max(p.size(), q.size());
  // JS(p,q) = H(m) - (H(p) + H(q))/2 in nats, converted to bits; zero tail
  // entries contribute nothing.
  double h_m = 0.0, h_p = 0.0, h_q = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double pi = i < p.size() ? p[i] : 0.0;
    const double qi = i < q.size() ? q[i] : 0.0;
    const double mi = 0.5 * (pi + qi);
    h_m -= XLogX(mi);
    h_p -= XLogX(pi);
    h_q -= XLogX(qi);
  }
  return JsBits(h_m, h_p, h_q);
}

StructuralEntropyCalculator::StructuralEntropyCalculator(
    const graph::Graph& g) {
  sequences_.resize(static_cast<size_t>(g.num_nodes()));
  self_entropy_.resize(static_cast<size_t>(g.num_nodes()));
  for (int64_t v = 0; v < g.num_nodes(); ++v) {
    std::vector<float> seq;
    seq.reserve(static_cast<size_t>(g.Degree(v)) + 1);
    seq.push_back(static_cast<float>(g.Degree(v)));
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      seq.push_back(static_cast<float>(g.Degree(*p)));
    }
    std::sort(seq.begin(), seq.end(), std::greater<float>());
    double total = 0.0;
    for (float d : seq) total += d;
    if (total > 0.0) {
      for (float& d : seq) d = static_cast<float>(d / total);
    } else {
      // Isolated node: degenerate one-point distribution.
      seq.assign(1, 1.0f);
    }
    // Summed in JsDivergence's order; its zero-padded tail terms subtract
    // an exact 0.0, so the cached value is bitwise the one it would compute.
    double h = 0.0;
    for (float d : seq) h -= XLogX(d);
    self_entropy_[static_cast<size_t>(v)] = h;
    sequences_[static_cast<size_t>(v)] = std::move(seq);
  }
}

double StructuralEntropyCalculator::Between(int64_t v, int64_t u) const {
  GR_CHECK(v >= 0 && v < static_cast<int64_t>(sequences_.size()));
  GR_CHECK(u >= 0 && u < static_cast<int64_t>(sequences_.size()));
  const std::vector<float>& p = sequences_[static_cast<size_t>(v)];
  const std::vector<float>& q = sequences_[static_cast<size_t>(u)];
  const size_t n = std::max(p.size(), q.size());
  double h_m = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double pi = i < p.size() ? p[i] : 0.0;
    const double qi = i < q.size() ? q[i] : 0.0;
    h_m -= XLogX(0.5 * (pi + qi));
  }
  return 1.0 - JsBits(h_m, self_entropy_[static_cast<size_t>(v)],
                      self_entropy_[static_cast<size_t>(u)]);
}

}  // namespace entropy
}  // namespace graphrare
