// The repository benchmark. One run executes three phases:
//
//   cotrain-rounds   block-scoped co-training rounds (Algorithm 1)
//   train-fullgraph  full-graph training epochs for GCN, SAGE and GAT
//   serve-*          HTTP serving in the workload's engine mode:
//                    serve-sampled (per-request neighbour sampling) or
//                    serve-lookup (full-graph row lookup, plus reloads)
//
// The two training phases run interleaved, then the serving phase runs;
// every workload runs all three, so every workload reports every
// end-to-end metric. The run prints a provenance stamp, each phase's
// report, and as its last line one JSON object {"correct", "attempted",
// "failed", "metrics"}: the gated end-to-end metrics, or with --trace 1
// the per-layer metrics (the traced run also prints a per-layer table for
// each phase). Exit code 0 only when every output check passed.
//
//   perfbench --workload serve-lookup --seed 1 --seconds 40 --trace 0
//             [--workdir DIR] [--commit SHA]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "phases.h"

namespace perfbench {

void RunTrainingPhases(PhaseContext* cotrain_ctx, PhaseContext* train_ctx) {
  CotrainPhase cotrain(cotrain_ctx);
  TrainPhase train(train_ctx);
  constexpr int kMinCycles = 5;
  double cotrain_s = 0.0, train_s = 0.0;
  int episodes = 0, cycles = 0;
  while (true) {
    const bool cotrain_due =
        episodes == 0 || cotrain_s < cotrain_ctx->seconds;
    const bool train_due = cycles < kMinCycles || train_s < train_ctx->seconds;
    if (!cotrain_due && !train_due) break;
    if (cotrain_due && (!train_due || cotrain_s / cotrain_ctx->seconds <=
                                          train_s / train_ctx->seconds)) {
      cotrain_s += cotrain.RunEpisode();
      ++episodes;
    } else {
      train_s += train.RunCycle();
      ++cycles;
    }
  }
  cotrain.Finish();
  train.Finish();
}

void PhaseContext::Count(int64_t n, bool ok, const std::string& what) {
  if (n <= 0) return;
  attempted += n;
  if (!ok) {
    failed += n;
    std::printf("  CHECK FAILED (%lld): %s\n", static_cast<long long>(n),
                what.c_str());
  }
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-sampled|serve-lookup "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] "
               "[--commit SHA]\n");
  return 2;
}

// Shares of the run's measurement budget.
constexpr double kCotrainShare = 0.45;
constexpr double kTrainShare = 0.2;
constexpr double kServeShare = 0.35;

int Main(int argc, char** argv) {
  std::string workload, workdir = ".", commit = "unknown";
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--workdir") {
      workdir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if ((argc - 1) % 2 != 0 || seconds <= 0.0 || (trace != 0 && trace != 1) ||
      (workload != "serve-sampled" && workload != "serve-lookup")) {
    return Usage();
  }

  PrintStamp(workload, seed, commit, trace == 1);
  const CpuTimes cpu_before = ReadCpuTimes();
  Metrics e2e, layers;
  PhaseContext base;
  base.seed = seed;
  base.trace = trace == 1;
  base.workdir = workdir;
  base.e2e = &e2e;
  base.layers = &layers;

  PhaseContext cotrain = base, train = base, serve = base;
  cotrain.seconds = seconds * kCotrainShare;
  train.seconds = seconds * kTrainShare;
  serve.seconds = seconds * kServeShare;
  RunTrainingPhases(&cotrain, &train);
  RunServePhase(workload == "serve-sampled" ? ServeMode::kSampled
                                            : ServeMode::kLookup,
                &serve);

  e2e.Add("setup_s", cotrain.setup_s + train.setup_s + serve.setup_s, "s");
  e2e.Add("peak_rss_mib", PeakRssMiB(), "MiB");
  const int64_t attempted =
      cotrain.attempted + train.attempted + serve.attempted;
  const int64_t failed = cotrain.failed + train.failed + serve.failed;
  std::printf("\nset-up s: cotrain %.3f, train %.3f, serve %.3f (median of "
              "%d each)\n",
              cotrain.setup_s, train.setup_s, serve.setup_s, kSetupRepeats);
  std::printf("operations: cotrain %lld/%lld failed, train %lld/%lld, "
              "serve %lld/%lld\n",
              static_cast<long long>(cotrain.failed),
              static_cast<long long>(cotrain.attempted),
              static_cast<long long>(train.failed),
              static_cast<long long>(train.attempted),
              static_cast<long long>(serve.failed),
              static_cast<long long>(serve.attempted));
  // Time the hypervisor gave to other guests while this run wanted the
  // CPU: figures from runs with a large share are not comparable.
  std::printf("cpu steal during the run: %.1f%%\n",
              100.0 * StealShare(cpu_before, ReadCpuTimes()));
  const Metrics& out = trace == 1 ? layers : e2e;
  std::printf("\n%s metrics:\n", trace == 1 ? "per-layer" : "end-to-end");
  out.Print();
  std::printf("%s\n", out.ResultLine(failed == 0, attempted, failed).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
