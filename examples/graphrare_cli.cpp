// Command-line runner: train any backbone with or without GraphRARE on any
// registry dataset, export telemetry, the optimized graph, and a
// deployable model artifact — or serve a previously saved artifact.
//
// Usage (training):
//   graphrare_cli [--dataset=cornell] [--backbone=gcn] [--rare]
//                 [--splits=3] [--iterations=20] [--lambda=1.0]
//                 [--k-max=5] [--d-max=5] [--seed=1] [--lr=0.01]
//                 [--minibatch] [--fanouts=10,10] [--batch-size=256]
//                 [--epochs=100] [--patience=20] [--sample-replace]
//                 [--rl-blocks=4] [--rl-block-fanouts=10,10]
//                 [--rl-block-seeds=64] [--rl-steps=4]
//                 [--rl-partition=independent|locality]
//                 [--rl-prefetch-depth=1] [--rl-producers=1]
//                 [--rl-entropy-refresh] [--csr-reorder=degree|rcm]
//                 [--telemetry=out.csv] [--save-graph=out.graph]
//                 [--save-artifact=model.grare]
//
// Usage (serving a saved artifact; no dataset or training involved):
//   graphrare_cli --serve-artifact=model.grare --predict=0,1,2
//                 [--topk=3] [--serve-fanouts=10,10] [--seed=1]
//
// --seed is the single master seed: it fans out to the dataset generator,
// splits, entropy candidate sampling, PPO, the neighbor sampler, and the
// env streams through core::DeriveSeeds, so one number pins the whole run.
//
// --rare --rl-blocks=B runs block-scoped co-training: each PPO round
// rewires B neighbor-sampled blocks (SparRL-style) instead of the full
// graph. --rl-block-fanouts=full uses whole-graph blocks (with B=1 every
// env step rewires and finetunes on the full graph); -1 entries mean
// unlimited fanout. --rl-partition=locality grows BFS seed batches so
// blocks overlap less; --rl-prefetch-depth=N samples N rounds of blocks
// ahead of training on --rl-producers threads (0 = inline, same stream
// either way); --rl-entropy-refresh incrementally re-buckets the entropy
// index from each round's merged edits.
//
// --csr-reorder relabels the dataset's nodes before anything else sees
// them (degree = hubs-first degree sort, rcm = reverse Cuthill-McKee), so
// every CSR built afterwards — adjacency operators and partitioned-block
// matrices — has better row locality. Opt-in: relabelling changes float
// accumulation orders, so metrics match the natural ordering to tolerance
// rather than bitwise.
//
// Unknown flags and malformed numeric values are rejected with exit code 2
// rather than falling back to the defaults.
//
// --save-artifact packages the last split's co-trained backbone plus its
// optimized graph (serve::ModelArtifact); it requires --rare since plain
// baselines train one throwaway model per split. --serve-artifact reloads
// such a file into a serve::InferenceEngine: exact full-graph inference by
// default, fanout-bounded sampled inference with --serve-fanouts.
//
// Examples:
//   ./build/examples/graphrare_cli --dataset=texas --backbone=sage --rare
//   ./build/examples/graphrare_cli --dataset=cora --backbone=appnp
//   ./build/examples/graphrare_cli --dataset=pubmed --backbone=sage
//       --minibatch --fanouts=10,10 --batch-size=512
//   ./build/examples/graphrare_cli --dataset=pubmed --backbone=sage --rare
//       --rl-blocks=8 --rl-block-fanouts=10,10 --rl-block-seeds=128
//   ./build/examples/graphrare_cli --dataset=cornell --rare
//       --save-artifact=model.grare
//   ./build/examples/graphrare_cli --serve-artifact=model.grare
//       --predict=0,5,17 --topk=3

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/graphrare.h"
#include "core/telemetry.h"
#include "graph/io.h"
#include "graph/reorder.h"

#include "flags.h"

using namespace graphrare;

namespace {

/// Every flag the CLI reads (see Usage above).
const std::set<std::string> kKnownFlags = {
    "backbone", "batch-size", "csr-reorder", "d-max", "dataset",
    "epochs", "fanouts", "iterations", "k-max", "lambda", "lr",
    "minibatch", "patience", "predict", "rare", "rl-block-fanouts",
    "rl-block-seeds", "rl-blocks", "rl-entropy-refresh", "rl-partition",
    "rl-prefetch-depth", "rl-producers", "rl-steps", "sample-replace",
    "save-artifact", "save-graph", "seed", "serve-artifact",
    "serve-fanouts", "splits", "telemetry", "topk"};

/// Parses "10,10,5" into a fanout vector (-1 entries = unlimited fanout).
std::vector<int64_t> ParseFanouts(const std::string& spec) {
  std::vector<int64_t> fanouts;
  if (!ParseInt64List(spec, &fanouts)) {
    std::fprintf(stderr, "invalid fanout spec: %s\n", spec.c_str());
    std::exit(2);
  }
  for (const int64_t f : fanouts) {
    if (f < 1 && f != -1) {
      std::fprintf(stderr, "invalid fanout spec: %s\n", spec.c_str());
      std::exit(2);
    }
  }
  return fanouts;
}

/// Parses "0,5,17" into a node-id list (non-negative integers).
std::vector<int64_t> ParseNodeIds(const std::string& spec) {
  std::vector<int64_t> ids;
  if (!ParseInt64List(spec, &ids)) {
    std::fprintf(stderr, "invalid node id list: %s\n", spec.c_str());
    std::exit(2);
  }
  for (const int64_t id : ids) {
    if (id < 0) {
      std::fprintf(stderr, "invalid node id list: %s\n", spec.c_str());
      std::exit(2);
    }
  }
  return ids;
}

/// Applies --csr-reorder: relabels the dataset's nodes (graph, feature
/// rows, labels) with a locality-improving permutation before splits or
/// training see it, so every downstream CSR — adjacency operators and the
/// partitioned block path's per-block matrices alike — is built in the
/// reordered id space. Opt-in because relabelling changes the kernels'
/// float accumulation orders: results match the natural ordering to
/// tolerance, not bitwise.
void MaybeReorderDataset(const Flags& flags, data::Dataset* dataset) {
  const std::string spec = flags.Get("csr-reorder", "");
  if (spec.empty()) return;
  graph::ReorderKind kind;
  if (spec == "degree") {
    kind = graph::ReorderKind::kDegreeSort;
  } else if (spec == "rcm") {
    kind = graph::ReorderKind::kRcm;
  } else {
    std::fprintf(stderr, "invalid --csr-reorder: %s (want degree or rcm)\n",
                 spec.c_str());
    std::exit(2);
  }
  const std::vector<int64_t> perm =
      graph::ReorderPermutation(dataset->graph, kind);
  const int64_t n = dataset->graph.num_nodes();
  tensor::Tensor features(n, dataset->features.cols());
  std::vector<int64_t> labels(static_cast<size_t>(n));
  for (int64_t u = 0; u < n; ++u) {
    const int64_t nu = perm[static_cast<size_t>(u)];
    std::copy(dataset->features.row(u),
              dataset->features.row(u) + dataset->features.cols(),
              features.row(nu));
    labels[static_cast<size_t>(nu)] = dataset->labels[static_cast<size_t>(u)];
  }
  dataset->graph = graph::PermuteGraph(dataset->graph, perm);
  dataset->features = std::move(features);
  dataset->labels = std::move(labels);
  std::printf("csr-reorder=%s: relabelled %lld nodes\n", spec.c_str(),
              static_cast<long long>(n));
}

/// --serve-artifact mode: load, predict, print. Returns the process exit
/// code.
int ServeArtifact(const Flags& flags) {
  const std::string artifact_path = flags.Get("serve-artifact", "");
  serve::EngineOptions engine_opts;
  const std::string fanout_spec = flags.Get("serve-fanouts", "");
  if (!fanout_spec.empty()) {
    engine_opts.fanouts = ParseFanouts(fanout_spec);
  }
  engine_opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  auto engine_or =
      serve::InferenceEngine::LoadFrom(artifact_path, engine_opts);
  if (!engine_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 engine_or.status().ToString().c_str());
    return 1;
  }
  const serve::InferenceEngine& engine = *engine_or;
  const serve::ModelArtifact& art = engine.artifact();
  std::printf("artifact=%s dataset=%s backbone=%s nodes=%lld classes=%lld "
              "mode=%s\n",
              artifact_path.c_str(), art.dataset_name.c_str(),
              nn::BackboneName(art.backbone),
              static_cast<long long>(engine.num_nodes()),
              static_cast<long long>(engine.num_classes()),
              engine.full_graph_mode() ? "full-graph" : "sampled");

  const std::string predict_spec = flags.Get("predict", "");
  if (predict_spec.empty()) {
    std::fprintf(stderr,
                 "error: --serve-artifact needs --predict=ID,ID,...\n");
    return 2;
  }
  const std::vector<int64_t> ids = ParseNodeIds(predict_spec);
  const int topk = flags.GetInt("topk", 1);

  auto preds_or = engine.Predict(ids);
  if (!preds_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 preds_or.status().ToString().c_str());
    return 1;
  }
  for (const serve::Prediction& p : preds_or.value()) {
    std::printf("node %lld -> class %lld",
                static_cast<long long>(p.node),
                static_cast<long long>(p.predicted_class));
    if (topk > 1) {
      // Rank the probabilities already in hand: a fresh engine.TopK call
      // would re-sample in sampled mode and could disagree with p.
      std::printf("  top%d:", topk);
      for (const auto& [cls, prob] : serve::TopKOf(p, topk)) {
        std::printf(" %lld=%.4f", static_cast<long long>(cls), prob);
      }
    } else {
      std::printf("  p=%.4f",
                  p.probabilities[static_cast<size_t>(p.predicted_class)]);
    }
    std::printf("\n");
  }
  return 0;
}

/// Writes what --telemetry, --save-graph and --save-artifact ask for from
/// the last split's co-training run. Returns the process exit code.
int WriteRunOutputs(const Flags& flags, const core::GraphRareResult& run,
                    const data::Dataset& dataset) {
  const std::string telemetry_path = flags.Get("telemetry", "");
  if (!telemetry_path.empty()) {
    const Status s = core::WriteTelemetryCsv(run, telemetry_path);
    if (!s.ok()) {
      std::fprintf(stderr, "telemetry: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("telemetry written to %s\n", telemetry_path.c_str());
  }
  const std::string graph_path = flags.Get("save-graph", "");
  if (!graph_path.empty()) {
    const Status s = graph::SaveGraph(run.best_graph, graph_path);
    if (!s.ok()) {
      std::fprintf(stderr, "save-graph: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("optimized graph written to %s\n", graph_path.c_str());
  }
  const std::string artifact_path = flags.Get("save-artifact", "");
  if (artifact_path.empty()) return 0;
  auto artifact_or = run.ExportArtifact(dataset);
  if (!artifact_or.ok()) {
    std::fprintf(stderr, "save-artifact: %s\n",
                 artifact_or.status().ToString().c_str());
    return 1;
  }
  const Status s = artifact_or->Save(artifact_path);
  if (!s.ok()) {
    std::fprintf(stderr, "save-artifact: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("model artifact written to %s\n", artifact_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const Flags flags(argc, argv, kKnownFlags);

  // Serve mode: no dataset, no training — just artifact + queries.
  if (!flags.Get("serve-artifact", "").empty()) {
    return ServeArtifact(flags);
  }

  const std::string dataset_name = flags.Get("dataset", "cornell");
  const std::string backbone_name = flags.Get("backbone", "gcn");
  const int num_splits = flags.GetInt("splits", 3);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  // The one master seed: every subsystem seed below derives from it.
  const core::DerivedSeeds seeds = core::DeriveSeeds(seed);

  auto dataset_or = data::MakeDataset(dataset_name, seed);
  if (!dataset_or.ok()) {
    std::fprintf(stderr, "error: %s\n", dataset_or.status().ToString().c_str());
    return 1;
  }
  data::Dataset dataset = std::move(dataset_or).value();
  MaybeReorderDataset(flags, &dataset);

  auto backbone_or = nn::BackboneFromName(backbone_name);
  if (!backbone_or.ok()) {
    std::fprintf(stderr, "error: %s\n", backbone_or.status().ToString().c_str());
    return 1;
  }
  const nn::BackboneKind backbone = *backbone_or;

  data::SplitOptions so;
  so.num_splits = num_splits;
  so.seed = seeds.splits;
  const auto splits = data::MakeSplits(dataset.labels, dataset.num_classes, so);

  std::printf("dataset=%s nodes=%lld edges=%lld H=%.3f backbone=%s\n",
              dataset.name.c_str(),
              static_cast<long long>(dataset.num_nodes()),
              static_cast<long long>(dataset.graph.num_edges()),
              dataset.Homophily(), nn::BackboneName(backbone));

  // Guarded before any training branch so the flag is never silently
  // dropped: only the --rare paths retain a deployable model.
  if (!flags.Get("save-artifact", "").empty() && !flags.GetBool("rare")) {
    std::fprintf(stderr,
                 "error: --save-artifact requires --rare (baseline runs "
                 "train one throwaway model per split)\n");
    return 2;
  }

  if (flags.GetBool("minibatch")) {
    if (flags.GetBool("rare")) {
      std::fprintf(stderr,
                   "error: --minibatch and --rare cannot be combined; "
                   "for block-sampled GraphRARE co-training use --rare "
                   "--rl-blocks=B\n");
      return 2;
    }
    core::ExperimentOptions opts;
    opts.num_splits = num_splits;
    opts.adam.lr = static_cast<float>(flags.GetDouble("lr", 0.01));
    opts.seed = seed;
    core::MiniBatchOptions mb;
    mb.sampler.fanouts = ParseFanouts(flags.Get("fanouts", "10,10"));
    mb.sampler.replace = flags.GetBool("sample-replace");
    mb.sampler.seed = seeds.sampler;
    mb.batch_size = flags.GetInt("batch-size", 256);
    mb.max_epochs = flags.GetInt("epochs", 100);
    mb.patience = flags.GetInt("patience", 20);
    const auto agg =
        core::RunBackboneMiniBatch(dataset, splits, backbone, opts, mb);
    std::printf("minibatch (batch=%d, fanouts=%s) test accuracy: "
                "%.2f%% (±%.2f) over %d splits\n",
                flags.GetInt("batch-size", 256),
                flags.Get("fanouts", "10,10").c_str(),
                100.0 * agg.accuracy.mean, 100.0 * agg.accuracy.stddev,
                num_splits);
    std::printf("seconds/epoch: %.4f\n", agg.seconds_per_epoch);
    return 0;
  }

  if (!flags.GetBool("rare")) {
    core::ExperimentOptions opts;
    opts.num_splits = num_splits;
    opts.adam.lr = static_cast<float>(flags.GetDouble("lr", 0.01));
    opts.seed = seed;
    const auto agg = core::RunBackbone(dataset, splits, backbone, opts);
    std::printf("test accuracy: %.2f%% (±%.2f) over %d splits\n",
                100.0 * agg.accuracy.mean, 100.0 * agg.accuracy.stddev,
                num_splits);
    std::printf("seconds/epoch: %.4f\n", agg.seconds_per_epoch);
    return 0;
  }

  core::GraphRareOptions opts;
  opts.backbone = backbone;
  opts.adam.lr = static_cast<float>(flags.GetDouble("lr", 0.01));
  opts.iterations = flags.GetInt("iterations", 20);
  opts.entropy.lambda = flags.GetDouble("lambda", 1.0);
  opts.k_max = flags.GetInt("k-max", 5);
  opts.d_max = flags.GetInt("d-max", 5);
  opts.seed = seed;

  const int rl_blocks = flags.GetInt("rl-blocks", 0);
  if (rl_blocks > 0) {
    core::BlockRolloutOptions rollout;
    rollout.blocks_per_round = rl_blocks;
    const std::string fanout_spec = flags.Get("rl-block-fanouts", "10,10");
    rollout.fanouts = fanout_spec == "full"
                          ? std::vector<int64_t>{}
                          : ParseFanouts(fanout_spec);
    rollout.seeds_per_block = flags.GetInt("rl-block-seeds", 64);
    rollout.sample_replace = flags.GetBool("sample-replace");
    rollout.steps_per_episode = flags.GetInt("rl-steps", 4);
    const std::string partition = flags.Get("rl-partition", "independent");
    if (partition == "locality") {
      rollout.partition = data::PartitionMode::kLocality;
    } else if (partition != "independent") {
      std::fprintf(stderr, "invalid --rl-partition: %s "
                   "(want independent or locality)\n", partition.c_str());
      return 2;
    }
    rollout.prefetch_depth = flags.GetInt("rl-prefetch-depth", 1);
    rollout.num_producers = flags.GetInt("rl-producers", 1);
    rollout.refresh_entropy = flags.GetBool("rl-entropy-refresh");
    // The locality partitioner seed comes from the master seed like every
    // other subsystem (RunBlockCoTraining re-derives it per split, but
    // setting it here keeps direct BlockRolloutRunner uses pinned too).
    rollout.partition_seed = seeds.partition;
    const auto agg = core::RunGraphRareBlocks(dataset, splits, opts, rollout);
    std::printf("block co-training (B=%d, fanouts=%s, partition=%s, "
                "prefetch=%d) test accuracy: %.2f%% (±%.2f) over %d splits\n",
                rl_blocks, fanout_spec.c_str(), partition.c_str(),
                rollout.prefetch_depth, 100.0 * agg.accuracy.mean,
                100.0 * agg.accuracy.stddev, num_splits);
    std::printf("homophily: %.3f -> %.3f, entropy build %.3fs, "
                "edges %lld -> %lld\n",
                agg.mean_initial_homophily, agg.mean_final_homophily,
                agg.mean_entropy_seconds,
                static_cast<long long>(agg.last_run.initial_edges),
                static_cast<long long>(agg.last_run.final_edges));
    return WriteRunOutputs(flags, agg.last_run, dataset);
  }

  const auto agg = core::RunGraphRare(dataset, splits, opts);
  std::printf("test accuracy: %.2f%% (±%.2f) over %d splits\n",
              100.0 * agg.accuracy.mean, 100.0 * agg.accuracy.stddev,
              num_splits);
  std::printf("homophily: %.3f -> %.3f, entropy build %.3fs\n",
              agg.mean_initial_homophily, agg.mean_final_homophily,
              agg.mean_entropy_seconds);
  return WriteRunOutputs(flags, agg.last_run, dataset);
}
