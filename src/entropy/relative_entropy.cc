#include "entropy/relative_entropy.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel.h"

namespace graphrare {
namespace entropy {

namespace {

// Nodes per dynamically scheduled chunk when assembling or restricting
// sequences; per-node cost varies with degree and candidate count.
constexpr int64_t kNodeGrain = 64;

// Canonical sequence orders (shared by Build and ApplyEdits so incremental
// refresh lands candidates exactly where a full rebuild would put them).
bool RemoteOrder(const ScoredNode& a, const ScoredNode& b) {
  return a.entropy != b.entropy ? a.entropy > b.entropy : a.node < b.node;
}

bool NeighborOrder(const ScoredNode& a, const ScoredNode& b) {
  return a.entropy != b.entropy ? a.entropy < b.entropy : a.node < b.node;
}

// Removes `node` from `seq` (sorted by entropy, so lookup is a linear scan
// over a short list) and reports its carried score.
bool ExtractNode(std::vector<ScoredNode>* seq, int64_t node, double* score) {
  for (auto it = seq->begin(); it != seq->end(); ++it) {
    if (it->node == node) {
      *score = it->entropy;
      seq->erase(it);
      return true;
    }
  }
  return false;
}

// Min-max rescale of the feature entropies to [0, 1] (all-equal values map
// to 0.5), applied where each value is consumed.
struct MinMaxScale {
  double mn = 0.0, range = 0.0;
  explicit MinMaxScale(const std::vector<double>& values) {
    if (values.empty()) return;
    const auto [mn_it, mx_it] =
        std::minmax_element(values.begin(), values.end());
    mn = *mn_it;
    range = *mx_it - mn;
  }
  double operator()(double h) const {
    return range > 0.0 ? (h - mn) / range : 0.5;
  }
};

void InsertSorted(std::vector<ScoredNode>* seq, ScoredNode s,
                  bool (*order)(const ScoredNode&, const ScoredNode&)) {
  seq->insert(std::lower_bound(seq->begin(), seq->end(), s, order), s);
}

}  // namespace

Status EntropyOptions::Validate() const {
  if (lambda < 0.0) {
    return Status::InvalidArgument("lambda must be non-negative");
  }
  if (max_two_hop_candidates < 0 || num_random_candidates < 0) {
    return Status::InvalidArgument("candidate counts must be non-negative");
  }
  if (max_two_hop_candidates + num_random_candidates == 0) {
    return Status::InvalidArgument(
        "at least one candidate source must be enabled");
  }
  return Status::OK();
}

Result<RelativeEntropyIndex> RelativeEntropyIndex::Build(
    const graph::Graph& g, const tensor::Tensor& features,
    const EntropyOptions& options) {
  GR_RETURN_IF_ERROR(options.Validate());
  if (features.rows() != g.num_nodes()) {
    return Status::InvalidArgument("features rows != num_nodes");
  }
  const int64_t n = g.num_nodes();
  Rng rng(options.seed);

  const tensor::Tensor z = EmbedFeatures(features, options.embedding);
  StructuralEntropyCalculator structural(g);

  // --- Candidate generation: per-node remote candidates + 1-hop pairs. ---
  // Serial: the 2-hop sampling and the random draws consume one RNG stream
  // in node order.
  std::vector<NodePair> pairs;            // all (v, candidate) pairs
  std::vector<int64_t> pair_owner_begin;  // per node: offset into `pairs`
  std::vector<int64_t> remote_count;      // per node: #remote pairs
  pair_owner_begin.reserve(static_cast<size_t>(n) + 1);
  remote_count.reserve(static_cast<size_t>(n));

  // mark[c] == v: c is already taken for v (v itself, a neighbour, or a
  // 2-hop node — sampled or not — or an earlier random draw).
  std::vector<int64_t> mark(static_cast<size_t>(n), -1);
  std::vector<int64_t> two_hop, sampled, random_remote;
  for (int64_t v = 0; v < n; ++v) {
    pair_owner_begin.push_back(static_cast<int64_t>(pairs.size()));
    mark[static_cast<size_t>(v)] = v;
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      mark[static_cast<size_t>(*p)] = v;
    }

    // 2-hop candidates (sampled down when large).
    two_hop.clear();
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      for (const int64_t* q = g.NeighborsBegin(*p); q != g.NeighborsEnd(*p);
           ++q) {
        if (mark[static_cast<size_t>(*q)] != v) {
          mark[static_cast<size_t>(*q)] = v;
          two_hop.push_back(*q);
        }
      }
    }
    if (static_cast<int>(two_hop.size()) > options.max_two_hop_candidates) {
      // Sample without replacement, deterministically.
      const std::vector<int64_t> picks = rng.SampleWithoutReplacement(
          static_cast<int64_t>(two_hop.size()),
          options.max_two_hop_candidates);
      sampled.clear();
      for (int64_t i : picks) sampled.push_back(two_hop[static_cast<size_t>(i)]);
      two_hop.swap(sampled);
    }

    // Uniform remote candidates (anywhere in the graph).
    random_remote.clear();
    int attempts = 0;
    while (static_cast<int>(random_remote.size()) <
               options.num_random_candidates &&
           attempts < options.num_random_candidates * 20) {
      ++attempts;
      const int64_t c = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(n)));
      if (mark[static_cast<size_t>(c)] != v) {
        mark[static_cast<size_t>(c)] = v;
        random_remote.push_back(c);
      }
    }

    for (int64_t c : two_hop) pairs.emplace_back(v, c);
    for (int64_t c : random_remote) pairs.emplace_back(v, c);
    remote_count.push_back(
        static_cast<int64_t>(two_hop.size() + random_remote.size()));
    // 1-hop pairs (for the deletion sequence).
    for (const int64_t* p = g.NeighborsBegin(v); p != g.NeighborsEnd(v); ++p) {
      pairs.emplace_back(v, *p);
    }
  }
  pair_owner_begin.push_back(static_cast<int64_t>(pairs.size()));

  // --- Feature entropy over the whole pair set, min-max rescaled. ---
  const std::vector<double> hf = FeatureEntropyForPairs(z, pairs);
  const MinMaxScale rescale(hf);

  // --- Assemble sequences: each node fills and sorts only its own lists.
  // The lists are sized here, on the calling thread, so the index is not
  // spread over the workers' malloc arenas (which raised peak RSS).
  RelativeEntropyIndex index;
  index.lambda_ = options.lambda;
  index.sequences_.resize(static_cast<size_t>(n));
  for (size_t v = 0; v < static_cast<size_t>(n); ++v) {
    const int64_t n_pairs = pair_owner_begin[v + 1] - pair_owner_begin[v];
    index.sequences_[v].remote.reserve(static_cast<size_t>(remote_count[v]));
    index.sequences_[v].neighbors.reserve(
        static_cast<size_t>(n_pairs - remote_count[v]));
  }
  ParallelForDynamic(n, kNodeGrain, [&](int64_t node_begin, int64_t node_end) {
    for (int64_t v = node_begin; v < node_end; ++v) {
      NodeSequences& seq = index.sequences_[static_cast<size_t>(v)];
      const int64_t begin = pair_owner_begin[static_cast<size_t>(v)];
      const int64_t end = pair_owner_begin[static_cast<size_t>(v) + 1];
      const int64_t n_remote = remote_count[static_cast<size_t>(v)];
      for (int64_t i = begin; i < end; ++i) {
        const int64_t u = pairs[static_cast<size_t>(i)].second;
        const double h = rescale(hf[static_cast<size_t>(i)]) +
                         options.lambda * structural.Between(v, u);
        if (i - begin < n_remote) {
          seq.remote.push_back({u, h});
        } else {
          seq.neighbors.push_back({u, h});
        }
      }
      std::sort(seq.remote.begin(), seq.remote.end(), RemoteOrder);
      std::sort(seq.neighbors.begin(), seq.neighbors.end(), NeighborOrder);
    }
  });
  return index;
}

int64_t RelativeEntropyIndex::MaxRemoteLength() const {
  int64_t mx = 0;
  for (const auto& s : sequences_) {
    mx = std::max(mx, static_cast<int64_t>(s.remote.size()));
  }
  return mx;
}

RelativeEntropyIndex RelativeEntropyIndex::Restrict(
    const graph::Subgraph& block) const {
  RelativeEntropyIndex out;
  out.lambda_ = lambda_;
  out.sequences_.resize(block.nodes.size());
  // Sized on the calling thread (see Build), then each local node fills
  // only its own output slot.
  for (size_t l = 0; l < block.nodes.size(); ++l) {
    const int64_t global = block.nodes[l];
    GR_CHECK(global >= 0 && global < num_nodes())
        << "Restrict: block node outside the indexed graph";
    const NodeSequences& src = sequences_[static_cast<size_t>(global)];
    out.sequences_[l].remote.reserve(src.remote.size());
    out.sequences_[l].neighbors.reserve(src.neighbors.size());
  }
  ParallelForDynamic(
      static_cast<int64_t>(block.nodes.size()), kNodeGrain,
      [&](int64_t begin, int64_t end) {
        for (int64_t l = begin; l < end; ++l) {
          const int64_t global = block.nodes[static_cast<size_t>(l)];
          const NodeSequences& src = sequences_[static_cast<size_t>(global)];
          NodeSequences& dst = out.sequences_[static_cast<size_t>(l)];
          for (const ScoredNode& s : src.remote) {
            const int64_t local = block.GlobalToLocal(s.node);
            if (local >= 0) dst.remote.push_back({local, s.entropy});
          }
          for (const ScoredNode& s : src.neighbors) {
            const int64_t local = block.GlobalToLocal(s.node);
            if (local >= 0) dst.neighbors.push_back({local, s.entropy});
          }
        }
      });
  return out;
}

void RelativeEntropyIndex::ApplyEdits(const std::vector<graph::Edge>& added,
                                      const std::vector<graph::Edge>& removed) {
  const auto move_pair = [this](int64_t a, int64_t b, bool to_neighbors) {
    if (a < 0 || a >= num_nodes() || b < 0 || b >= num_nodes()) return;
    NodeSequences& seq = sequences_[static_cast<size_t>(a)];
    std::vector<ScoredNode>& from = to_neighbors ? seq.remote : seq.neighbors;
    std::vector<ScoredNode>& to = to_neighbors ? seq.neighbors : seq.remote;
    double score = 0.0;
    if (!ExtractNode(&from, b, &score)) return;  // pair never scored: no-op
    InsertSorted(&to, {b, score}, to_neighbors ? NeighborOrder : RemoteOrder);
  };
  for (const graph::Edge& e : added) {
    move_pair(e.first, e.second, /*to_neighbors=*/true);
    move_pair(e.second, e.first, /*to_neighbors=*/true);
  }
  for (const graph::Edge& e : removed) {
    move_pair(e.first, e.second, /*to_neighbors=*/false);
    move_pair(e.second, e.first, /*to_neighbors=*/false);
  }
}

void RelativeEntropyIndex::ShuffleSequences(Rng* rng) {
  GR_CHECK(rng != nullptr);
  for (auto& s : sequences_) {
    rng->Shuffle(&s.remote);
    rng->Shuffle(&s.neighbors);
  }
}

tensor::Tensor DenseRelativeEntropyMatrix(const graph::Graph& g,
                                          const tensor::Tensor& features,
                                          const EntropyOptions& options) {
  GR_CHECK_OK(options.Validate());
  const int64_t n = g.num_nodes();
  GR_CHECK_LE(n, 4096) << "dense entropy matrix limited to small graphs";
  GR_CHECK_EQ(features.rows(), n);

  const tensor::Tensor z = EmbedFeatures(features, options.embedding);
  StructuralEntropyCalculator structural(g);

  std::vector<NodePair> pairs;
  pairs.reserve(static_cast<size_t>(n * (n - 1) / 2));
  for (int64_t v = 0; v < n; ++v) {
    for (int64_t u = v + 1; u < n; ++u) pairs.emplace_back(v, u);
  }
  const std::vector<double> hf = FeatureEntropyForPairs(z, pairs);
  const MinMaxScale rescale(hf);

  tensor::Tensor m(n, n);
  size_t k = 0;
  for (int64_t v = 0; v < n; ++v) {
    for (int64_t u = v + 1; u < n; ++u, ++k) {
      const float h = static_cast<float>(
          rescale(hf[k]) + options.lambda * structural.Between(v, u));
      m.at(v, u) = h;
      m.at(u, v) = h;
    }
  }
  return m;
}

}  // namespace entropy
}  // namespace graphrare
