#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#ifdef _OPENMP
#include <omp.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string(fallback);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTimes& before, const CpuTimes& after) {
  const uint64_t total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

double PeakRssMiB() {
  rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void PrintStamp(const std::string& workload, uint64_t seed,
                const std::string& commit, bool trace) {
#ifdef _OPENMP
  const int omp_threads = omp_get_max_threads();
#else
  const int omp_threads = 1;
#endif
  std::printf(
      "stamp: workload=%s seed=%llu trace=%d nproc=%ld cpu=\"%s\" "
      "build=%s commit=%s omp_max_threads=%d OMP_NUM_THREADS=%s "
      "OMP_WAIT_POLICY=%s GOMP_SPINCOUNT=%s\n",
      workload.c_str(), static_cast<unsigned long long>(seed), trace ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(), PERFBENCH_BUILD_TYPE,
      commit.c_str(), omp_threads, EnvOr("OMP_NUM_THREADS", "unset").c_str(),
      EnvOr("OMP_WAIT_POLICY", "unset").c_str(),
      EnvOr("GOMP_SPINCOUNT", "unset").c_str());
}

void PrintTiming(const std::string& name, const std::string& unit,
                 const std::vector<double>& samples) {
  const Distribution d = Describe(samples);
  std::printf("  %-28s n=%-7lld p25=%.4f p50=%.4f %s", name.c_str(),
              static_cast<long long>(d.count), Quantile(samples, 0.25), d.p50,
              unit.c_str());
  if (d.tail_pct > 0.0) {
    std::printf("  p%g=%.4f %s\n", d.tail_pct, d.tail, unit.c_str());
  } else {
    std::printf("  (too few samples for a tail percentile)\n");
  }
}

double PrintLayerTable(const std::string& title,
                       const std::vector<LayerRow>& rows,
                       double untraced_wall_ms, double traced_wall_ms) {
  std::printf("\n%s\n", title.c_str());
  std::printf("  %-30s %10s %12s %8s\n", "layer", "calls", "total ms",
              "share");
  double attributed = 0.0;
  for (const LayerRow& r : rows) {
    if (!r.detail) attributed += r.total_ms;
    std::printf("  %-30s %10lld %12.3f %7.1f%%\n",
                ((r.detail ? "  " : "") + r.layer).c_str(),
                static_cast<long long>(r.calls), r.total_ms,
                untraced_wall_ms > 0 ? 100.0 * r.total_ms / untraced_wall_ms
                                     : 0.0);
  }
  const double unattributed = untraced_wall_ms - attributed;
  std::printf("  %-30s %10s %12.3f %7.1f%%\n", "unattributed", "-",
              unattributed,
              untraced_wall_ms > 0 ? 100.0 * unattributed / untraced_wall_ms
                                   : 0.0);
  std::printf("  %-30s %10s %12.3f %7.1f%%\n", "= untraced wall", "-",
              untraced_wall_ms, 100.0);
  std::printf("  tracing overhead: traced wall %.3f ms - untraced %.3f ms "
              "= %.3f ms (%.2f%%)\n",
              traced_wall_ms, untraced_wall_ms,
              traced_wall_ms - untraced_wall_ms,
              untraced_wall_ms > 0
                  ? 100.0 * (traced_wall_ms - untraced_wall_ms) /
                        untraced_wall_ms
                  : 0.0);
  return unattributed;
}

void Metrics::Add(const std::string& name, double value,
                  const std::string& unit, bool gated) {
  entries_.push_back({name, value, unit, gated});
}

std::string Metrics::ResultLine(bool correct, int64_t attempted,
                                int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!e.gated) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + e.name + "\": {\"value\": " + JsonNumber(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}}";
  return out;
}

void Metrics::Print() const {
  for (const Entry& e : entries_) {
    std::printf("  %-28s %.6g %s%s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.gated ? "" : "  (not gated)");
  }
}

}  // namespace perfbench
