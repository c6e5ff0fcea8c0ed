#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

/// 1-based nearest rank of quantile q in a sample of n; the tolerance keeps
/// q * n = 9990.000000000002 (99.9% of 10000) at rank 9990.
int64_t NearestRank(double q, int64_t n) {
  return static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::max(0.0, std::min(1.0, q));
  const size_t rank = static_cast<size_t>(
      NearestRank(q, static_cast<int64_t>(values.size())));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

double HighestSupportedPercentile(int64_t count) {
  static const double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 50.0};
  for (const double pct : kLadder) {
    // Samples strictly above the nearest-rank pct-th value.
    if (count - NearestRank(pct / 100.0, count) >= 10) return pct;
  }
  return 0.0;
}

Distribution Describe(const std::vector<double>& values) {
  Distribution d;
  d.count = static_cast<int64_t>(values.size());
  d.p50 = Median(values);
  d.tail_pct = HighestSupportedPercentile(d.count);
  if (d.tail_pct > 0.0) d.tail = Quantile(values, d.tail_pct / 100.0);
  return d;
}

int64_t CountGood(const std::vector<RequestOutcome>& outcomes,
                  double slo_ms) {
  int64_t good = 0;
  for (const RequestOutcome& o : outcomes) {
    if (o.status == 200 && o.check_ok && o.latency_ms <= slo_ms) ++good;
  }
  return good;
}

std::vector<double> OkLatencies(const std::vector<RequestOutcome>& outcomes) {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const RequestOutcome& o : outcomes) {
    if (o.status == 200) out.push_back(o.latency_ms);
  }
  return out;
}

std::vector<double> Lateness(const std::vector<RequestOutcome>& outcomes) {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const RequestOutcome& o : outcomes) out.push_back(o.late_ms);
  return out;
}

}  // namespace perfbench
