// google-benchmark microbenchmarks of the library's hot kernels: dense
// matmul (all three transpose variants), SpMM, GCN forward/backward,
// relative-entropy construction, graph editing, and one PPO update. These
// back the Table VI timing analysis at kernel granularity and feed the
// cross-PR perf trajectory: every run writes BENCH_micro_kernels.json
// (google-benchmark's JSON schema) next to the working directory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/graphrare.h"
#include "graph/reorder.h"

namespace graphrare {
namespace {

void BM_DenseMatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn(n, n, &rng);
  tensor::Tensor b = tensor::Tensor::Randn(n, n, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_DenseMatMul)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// The backward-pass kernels: dW = X^T G (TransA, reduction over the large
// node dimension) and dX = G W^T (TransB). Shapes mimic a dense layer
// backward at n nodes with 256-in/64-out features.
void BM_DenseMatMulTransA(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  tensor::Tensor x = tensor::Tensor::Randn(n, 256, &rng);
  tensor::Tensor g = tensor::Tensor::Randn(n, 64, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMulTransA(x, g));
  }
  state.SetItemsProcessed(state.iterations() * n * 256 * 64);
}
BENCHMARK(BM_DenseMatMulTransA)->Arg(512)->Arg(2000)->Arg(8000);

void BM_DenseMatMulTransB(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  tensor::Tensor g = tensor::Tensor::Randn(n, 64, &rng);
  tensor::Tensor w = tensor::Tensor::Randn(256, 64, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMulTransB(g, w));
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 256);
}
BENCHMARK(BM_DenseMatMulTransB)->Arg(512)->Arg(2000)->Arg(8000);

// Fused cross-entropy (log-softmax + NLL in one pass) at training shapes.
void BM_FusedCrossEntropy(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  tensor::Tensor logits_val = tensor::Tensor::Randn(n, 16, &rng);
  std::vector<int64_t> index(static_cast<size_t>(n));
  std::vector<int64_t> labels(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    index[static_cast<size_t>(i)] = i;
    labels[static_cast<size_t>(i)] =
        static_cast<int64_t>(rng.UniformInt(16));
  }
  for (auto _ : state) {
    tensor::Variable logits(logits_val, /*requires_grad=*/true);
    tensor::Variable loss = tensor::ops::CrossEntropy(logits, index, labels);
    loss.Backward();
    benchmark::DoNotOptimize(loss);
  }
  state.SetItemsProcessed(state.iterations() * n * 16);
}
BENCHMARK(BM_FusedCrossEntropy)->Arg(2000)->Arg(8000);

void BM_SpMM(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  std::vector<tensor::CooEntry> entries;
  for (int64_t i = 0; i < n * 8; ++i) {
    entries.push_back({static_cast<int64_t>(rng.UniformInt(n)),
                       static_cast<int64_t>(rng.UniformInt(n)), 1.0f});
  }
  auto m = tensor::CsrMatrix::FromCoo(n, n, std::move(entries));
  tensor::Tensor x = tensor::Tensor::Randn(n, 64, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.SpMM(x));
  }
  state.SetItemsProcessed(state.iterations() * m.nnz() * 64);
}
BENCHMARK(BM_SpMM)->Arg(1000)->Arg(5000)->Arg(20000);

// Hub-heavy graph with scrambled node ids: endpoint u is drawn from a
// power-law-ish distribution (u ~ n * U^2.5, so a few nodes collect most
// edges), then all ids are shuffled so the hubs are scattered across the
// id space — the worst case for gather locality and the case CSR
// reordering is designed to repair.
graph::Graph SkewedBenchGraph(int64_t n, int64_t num_edges) {
  Rng rng(7);
  std::vector<int64_t> scramble(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) scramble[static_cast<size_t>(i)] = i;
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(scramble[static_cast<size_t>(i)],
              scramble[rng.UniformInt(static_cast<uint64_t>(i) + 1)]);
  }
  std::vector<graph::Edge> edges;
  edges.reserve(static_cast<size_t>(num_edges));
  while (static_cast<int64_t>(edges.size()) < num_edges) {
    const int64_t u = static_cast<int64_t>(
        static_cast<double>(n) * std::pow(rng.Uniform(), 2.5));
    const int64_t v = static_cast<int64_t>(rng.UniformInt(n));
    if (u == v || u >= n) continue;
    edges.emplace_back(scramble[static_cast<size_t>(u)],
                       scramble[static_cast<size_t>(v)]);
  }
  return graph::Graph::FromEdgeListOrDie(n, edges);
}

// SpMM over the skewed graph's adjacency, natural ids vs reordered
// (range(1): 0 = natural, 1 = degree sort, 2 = RCM). The reordered
// variants permute the matrix AND the dense operand's rows, so all three
// compute the same product up to row relabelling.
void BM_SpMMSkewed(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t kind = state.range(1);
  graph::Graph g = SkewedBenchGraph(n, n * 8);
  Rng rng(2);
  tensor::Tensor x = tensor::Tensor::Randn(n, 64, &rng);
  tensor::CsrMatrix m = *g.Adjacency();
  if (kind > 0) {
    const std::vector<int64_t> perm = graph::ReorderPermutation(
        g, kind == 1 ? graph::ReorderKind::kDegreeSort
                     : graph::ReorderKind::kRcm);
    m = graph::ReorderCsr(m, perm);
    tensor::Tensor xp(n, 64);
    for (int64_t u = 0; u < n; ++u) {
      std::copy(x.row(u), x.row(u) + 64,
                xp.row(perm[static_cast<size_t>(u)]));
    }
    x = std::move(xp);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.SpMM(x));
  }
  state.SetItemsProcessed(state.iterations() * m.nnz() * 64);
}
BENCHMARK(BM_SpMMSkewed)
    ->Args({20000, 0})
    ->Args({20000, 1})
    ->Args({20000, 2})
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Args({100000, 2});

// The fused GAT attention-edge kernel (score -> segment softmax ->
// weighted scatter in one pass over the edges), fed by GatScores.
// range(1) = 1 also runs the backward pass through both; range(2) is the
// head count, sharing 64 feature columns (4 heads x 16 is the GAT
// backbone's first layer, 1 x 64 the single-head path).
void BM_GatAttention(benchmark::State& state) {
  const int64_t n = state.range(0);
  const bool backward = state.range(1) != 0;
  const int64_t heads = state.range(2);
  graph::Graph g = SkewedBenchGraph(n, n * 8);
  std::vector<int64_t> src, dst;
  g.DirectedEdgesWithSelfLoops(&src, &dst);
  const auto edges = tensor::GroupGatEdges(src, dst, n, n);
  Rng rng(3);
  const int64_t width = 64;
  tensor::Tensor h_val = tensor::Tensor::Randn(n, width, &rng);
  std::vector<tensor::Variable> a_src, a_dst;
  for (int64_t k = 0; k < heads; ++k) {
    a_src.emplace_back(tensor::Tensor::Randn(width / heads, 1, &rng));
    a_dst.emplace_back(tensor::Tensor::Randn(width / heads, 1, &rng));
  }
  for (auto _ : state) {
    tensor::Variable h(h_val, /*requires_grad=*/backward);
    tensor::Variable out = tensor::ops::GatSegmentAttention(
        h, tensor::ops::GatScores(h, a_src), tensor::ops::GatScores(h, a_dst),
        edges, /*negative_slope=*/0.2f, /*dropout_p=*/0.0f,
        /*training=*/backward, /*rng=*/nullptr);
    if (backward) {
      tensor::Variable loss = tensor::ops::SumAll(out);
      loss.Backward();
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(src.size()) * width);
}
BENCHMARK(BM_GatAttention)
    ->Args({20000, 0, 1})
    ->Args({20000, 1, 1})
    ->Args({20000, 0, 4})
    ->Args({20000, 1, 4});

// Drawing and applying an inverted-dropout mask over 640k elements (the
// GAT backbone's 10k x 64 hidden layer): the draws run in parallel chunks
// from a jumped-ahead generator, bitwise the serial stream.
void BM_DropoutMask(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  const tensor::Variable x(tensor::Tensor::Randn(n / 64, 64, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tensor::ops::Dropout(x, 0.5f, /*training=*/true, &rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DropoutMask)->Arg(640000);

data::Dataset BenchDataset(int64_t nodes) {
  data::GeneratorOptions o;
  o.num_nodes = nodes;
  o.num_edges = nodes * 4;
  o.num_features = 256;
  o.num_classes = 5;
  o.homophily = 0.25;
  o.seed = 3;
  return std::move(data::GenerateDataset(o)).value();
}

void BM_GcnEpoch(benchmark::State& state) {
  data::Dataset ds = BenchDataset(state.range(0));
  auto splits = data::MakeSplits(ds.labels, ds.num_classes,
                                 {.num_splits = 1});
  nn::ModelOptions mo;
  mo.in_features = ds.num_features();
  mo.hidden = 64;
  mo.num_classes = ds.num_classes;
  mo.seed = 1;
  auto model = nn::MakeModel(nn::BackboneKind::kGcn, mo);
  nn::ClassifierTrainer trainer(model.get(),
                                nn::LayerInput::Sparse(ds.FeaturesCsr()),
                                &ds.labels, {});
  for (auto _ : state) {
    trainer.TrainEpoch(ds.graph, splits[0].train);
  }
}
BENCHMARK(BM_GcnEpoch)->Arg(500)->Arg(2000)->Arg(8000);

void BM_EntropyIndexBuild(benchmark::State& state) {
  data::Dataset ds = BenchDataset(state.range(0));
  for (auto _ : state) {
    auto index = entropy::RelativeEntropyIndex::Build(ds.graph, ds.features,
                                                      {});
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_EntropyIndexBuild)->Arg(500)->Arg(2000)->Arg(8000);

void BM_StructuralEntropyPair(benchmark::State& state) {
  data::Dataset ds = BenchDataset(2000);
  entropy::StructuralEntropyCalculator calc(ds.graph);
  Rng rng(4);
  for (auto _ : state) {
    const int64_t v = static_cast<int64_t>(rng.UniformInt(2000));
    const int64_t u = static_cast<int64_t>(rng.UniformInt(2000));
    benchmark::DoNotOptimize(calc.Between(v, u));
  }
}
BENCHMARK(BM_StructuralEntropyPair);

void BM_TopologyRebuild(benchmark::State& state) {
  data::Dataset ds = BenchDataset(state.range(0));
  auto index = std::move(
      *entropy::RelativeEntropyIndex::Build(ds.graph, ds.features, {}));
  core::TopologyState s(ds.num_nodes(), 5, 5);
  s.SetUniform(3, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildOptimizedGraph(ds.graph, s, index));
  }
}
BENCHMARK(BM_TopologyRebuild)->Arg(500)->Arg(2000)->Arg(8000);

void BM_PpoUpdate(benchmark::State& state) {
  const int64_t n = state.range(0);
  rl::PpoOptions opts;
  opts.steps_per_update = 4;
  Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    rl::PpoAgent agent(core::kObservationDim, opts);
    tensor::Tensor obs = tensor::Tensor::Rand(n, core::kObservationDim, &rng);
    for (int i = 0; i < 4; ++i) {
      agent.Act(obs);
      agent.StoreReward(0.1);
    }
    state.ResumeTiming();
    agent.Update(obs);
  }
}
BENCHMARK(BM_PpoUpdate)->Arg(500)->Arg(2000)->Arg(8000);

}  // namespace
}  // namespace graphrare

// BENCHMARK_MAIN with JSON output on by default: unless the caller passes
// their own --benchmark_out, the run is also recorded to
// BENCH_micro_kernels.json for the cross-PR perf trajectory (the console
// table is unchanged and every --benchmark_* flag still works).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    // Match only the output-file flag itself — "--benchmark_out_format"
    // alone must not suppress the default JSON file.
    const std::string arg(argv[i]);
    if (arg == "--benchmark_out" || arg.rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_kernels.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!has_out) {
    std::printf(
        "machine-readable results written to BENCH_micro_kernels.json\n");
  }
  return 0;
}
