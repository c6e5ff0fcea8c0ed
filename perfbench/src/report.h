// Output of one benchmark run: the provenance stamp, the per-layer tables
// of a traced run, and the final one-line JSON result.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Peak resident set size of this process, MiB.
double PeakRssMiB();

/// Cumulative CPU time of the whole machine as the kernel reports it
/// (/proc/stat), for the share stolen by the hypervisor during a run.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

/// Share of CPU time stolen between two readings, in [0, 1].
double StealShare(const CpuTimes& before, const CpuTimes& after);

/// Prints the run's provenance: workload, seed, nproc, CPU model, build
/// type, commit, and the OpenMP settings inherited from the environment
/// (the benchmark never sets them).
void PrintStamp(const std::string& workload, uint64_t seed,
                const std::string& commit, bool trace);

/// Prints one timing with its sample count and supported tail.
void PrintTiming(const std::string& name, const std::string& unit,
                 const std::vector<double>& samples);

/// One row of a traced run's per-layer table.
struct LayerRow {
  std::string layer;
  int64_t calls = 0;
  double total_ms = 0.0;
  /// Detail rows break down a time already inside another row; they are
  /// printed but not summed.
  bool detail = false;
};

/// Prints the per-layer table: each row's calls, total ms and share of
/// the untraced wall time, then an `unattributed` row (untraced wall minus
/// the summed rows) and the tracing overhead (traced wall minus untraced
/// wall). Returns the unattributed ms.
double PrintLayerTable(const std::string& title,
                       const std::vector<LayerRow>& rows,
                       double untraced_wall_ms, double traced_wall_ms);

/// Named metrics of one run. Gated metrics (the ones BENCHMARK.json lists)
/// go into the final JSON line; ungated ones are only printed.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           bool gated = true);
  /// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`
  std::string ResultLine(bool correct, int64_t attempted,
                         int64_t failed) const;
  /// Human-readable listing, one metric per line.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    bool gated;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
