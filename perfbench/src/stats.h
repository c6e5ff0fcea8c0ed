// Order statistics the benchmark reports: medians, the highest percentile
// a sample supports, goodput against a latency limit, and lateness.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of an unsorted sample, q in [0, 1]; 0 when empty.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The highest percentile of the ladder 50, 90, 95, 99, 99.9, 99.99 that
/// has at least ten samples beyond it in a sample of `count`, or 0 when
/// even the median does not (count < 20). A tail figure is only reported
/// at a percentile the sample supports.
double HighestSupportedPercentile(int64_t count);

/// A timing as reported: sample count, median, and the value at the
/// highest supported percentile.
struct Distribution {
  int64_t count = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  ///< 0 when the sample supports no percentile
  double tail = 0.0;
};
Distribution Describe(const std::vector<double>& values);

/// One answered or unanswered request, as the load generator saw it.
struct RequestOutcome {
  int status = 0;           ///< HTTP status; 0 = no response (failed)
  bool check_ok = false;    ///< the response body passed its output check
  double latency_ms = 0.0;  ///< response arrival - scheduled send time
  double late_ms = 0.0;     ///< actual send time - scheduled send time
};

/// Requests answered 200, with a body that passed its check, within
/// `slo_ms` of their scheduled send time. Refusals (503), errors and
/// missing responses never count.
int64_t CountGood(const std::vector<RequestOutcome>& outcomes, double slo_ms);

/// Latencies (ms) of the 200 responses, in request order.
std::vector<double> OkLatencies(const std::vector<RequestOutcome>& outcomes);

/// Lateness (ms) of every request that was sent.
std::vector<double> Lateness(const std::vector<RequestOutcome>& outcomes);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
