// Entropy module tests: JS divergence properties, structural entropy
// (Eqs. 5-8), feature entropy (Eq. 4), relative entropy index (Eq. 9) and
// sequence construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "data/generator.h"
#include "entropy/relative_entropy.h"

namespace graphrare {
namespace entropy {
namespace {

TEST(JsDivergenceTest, IdenticalDistributionsGiveZero) {
  std::vector<float> p = {0.5f, 0.3f, 0.2f};
  EXPECT_NEAR(JsDivergence(p, p), 0.0, 1e-9);
}

TEST(JsDivergenceTest, DisjointSupportGivesOne) {
  std::vector<float> p = {1.0f, 0.0f};
  std::vector<float> q = {0.0f, 1.0f};
  EXPECT_NEAR(JsDivergence(p, q), 1.0, 1e-9);
}

TEST(JsDivergenceTest, Symmetric) {
  std::vector<float> p = {0.7f, 0.2f, 0.1f};
  std::vector<float> q = {0.1f, 0.6f, 0.3f};
  EXPECT_NEAR(JsDivergence(p, q), JsDivergence(q, p), 1e-12);
}

TEST(JsDivergenceTest, BoundedInUnitInterval) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> p(6), q(6);
    float sp = 0, sq = 0;
    for (int i = 0; i < 6; ++i) {
      p[i] = static_cast<float>(rng.Uniform());
      q[i] = static_cast<float>(rng.Uniform());
      sp += p[i];
      sq += q[i];
    }
    for (int i = 0; i < 6; ++i) {
      p[i] /= sp;
      q[i] /= sq;
    }
    const double js = JsDivergence(p, q);
    EXPECT_GE(js, 0.0);
    EXPECT_LE(js, 1.0);
  }
}

TEST(JsDivergenceTest, DifferentLengthsZeroPadded) {
  std::vector<float> p = {0.5f, 0.5f};
  std::vector<float> q = {0.5f, 0.25f, 0.25f};
  const double js = JsDivergence(p, q);
  EXPECT_GT(js, 0.0);
  EXPECT_LT(js, 1.0);
}

// ---- Structural entropy -----------------------------------------------------

TEST(StructuralEntropyTest, IdenticalLocalStructureGivesOne) {
  // 4-cycle: every node has the same degree profile.
  graph::Graph g =
      graph::Graph::FromEdgeListOrDie(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  StructuralEntropyCalculator calc(g);
  EXPECT_NEAR(calc.Between(0, 2), 1.0, 1e-9);
  EXPECT_NEAR(calc.Between(1, 3), 1.0, 1e-9);
}

TEST(StructuralEntropyTest, HubVsLeafIsLow) {
  // Star: node 0 is the hub of 5 leaves; compare hub vs leaf profiles.
  graph::Graph g = graph::Graph::FromEdgeListOrDie(
      6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  StructuralEntropyCalculator calc(g);
  const double hub_leaf = calc.Between(0, 1);
  const double leaf_leaf = calc.Between(1, 2);
  EXPECT_GT(leaf_leaf, hub_leaf);
  EXPECT_NEAR(leaf_leaf, 1.0, 1e-9);
}

TEST(StructuralEntropyTest, Symmetric) {
  graph::Graph g = graph::Graph::FromEdgeListOrDie(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}});
  StructuralEntropyCalculator calc(g);
  for (int64_t v = 0; v < 5; ++v) {
    for (int64_t u = 0; u < 5; ++u) {
      EXPECT_NEAR(calc.Between(v, u), calc.Between(u, v), 1e-12);
    }
  }
}

TEST(StructuralEntropyTest, SequencesNormalised) {
  graph::Graph g = graph::Graph::FromEdgeListOrDie(4, {{0, 1}, {0, 2}, {2, 3}});
  StructuralEntropyCalculator calc(g);
  for (int64_t v = 0; v < 4; ++v) {
    const auto& seq = calc.Sequence(v);
    double sum = 0.0;
    for (float x : seq) sum += x;
    EXPECT_NEAR(sum, 1.0, 1e-6);
    // Descending.
    for (size_t i = 1; i < seq.size(); ++i) EXPECT_LE(seq[i], seq[i - 1]);
  }
}

TEST(StructuralEntropyTest, IsolatedNodeHandled) {
  graph::Graph g = graph::Graph::FromEdgeListOrDie(3, {{0, 1}});
  StructuralEntropyCalculator calc(g);
  const double h = calc.Between(2, 0);
  EXPECT_GE(h, 0.0);
  EXPECT_LE(h, 1.0);
}

// Value oracles for Eqs. 5-8. Each node's distribution is its own degree
// followed by its neighbours' degrees, sorted descending and divided by the
// sum; the calculator stores the quotients as float, so the expected values
// below start from the same float-rounded probabilities. JS is in bits:
//   JS(p, q) = [H(m) - (H(p) + H(q)) / 2] / ln 2,  m = (p + q) / 2,
//   H(x) = -sum_i x_i ln x_i,  and H_s = 1 - JS.

double XLnX(double x) { return x > 0.0 ? x * std::log(x) : 0.0; }

double Stored(double x) { return static_cast<float>(x); }

TEST(StructuralEntropyTest, StarMatchesHandComputedValues) {
  // Star: hub 0 (degree 3) with leaves 1, 2, 3 (degree 1).
  //   p(0)    = [3, 1, 1, 1] / 6 = [1/2, 1/6, 1/6, 1/6]
  //   p(leaf) = [3, 1] / 4       = [3/4, 1/4]
  //   m       = [5/8, 5/24, 1/12, 1/12]   (with the stored 1/6)
  //   H(p(0))    = -(1/2 ln 1/2 + 3 * 1/6 ln 1/6)
  //   H(p(leaf)) = -(3/4 ln 3/4 + 1/4 ln 1/4)
  graph::Graph g =
      graph::Graph::FromEdgeListOrDie(4, {{0, 1}, {0, 2}, {0, 3}});
  StructuralEntropyCalculator calc(g);
  const double half = 0.5, sixth = Stored(1.0 / 6.0);
  const double h_hub = -(XLnX(half) + 3.0 * XLnX(sixth));
  const double h_leaf = -(XLnX(0.75) + XLnX(0.25));
  const double h_mix = -(XLnX(0.5 * (half + 0.75)) +
                         XLnX(0.5 * (sixth + 0.25)) + 2.0 * XLnX(0.5 * sixth));
  const double js_bits = (h_mix - 0.5 * (h_hub + h_leaf)) / std::log(2.0);
  // js_bits ~= 0.190875, so the hub/leaf similarity is ~0.809125.
  EXPECT_NEAR(calc.Between(0, 1), 1.0 - js_bits, 1e-12);
  EXPECT_NEAR(calc.Between(3, 0), 1.0 - js_bits, 1e-12);
  EXPECT_NEAR(calc.Between(1, 2), 1.0, 1e-12);
  EXPECT_NEAR(calc.Between(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(calc.Between(0, 1), 0.809125, 1e-6);
}

TEST(StructuralEntropyTest, PathMatchesHandComputedValues) {
  // Path 0-1-2-3: degrees 1, 2, 2, 1.
  //   p(0) = p(3) = [2, 1] / 3    = [2/3, 1/3]        (zero-padded to 3)
  //   p(1) = p(2) = [2, 2, 1] / 5 = [2/5, 2/5, 1/5]
  //   m(0, 1)     = [8/15, 11/30, 1/10]
  graph::Graph g =
      graph::Graph::FromEdgeListOrDie(4, {{0, 1}, {1, 2}, {2, 3}});
  StructuralEntropyCalculator calc(g);
  const double a0 = Stored(2.0 / 3.0), a1 = Stored(1.0 / 3.0);
  const double b0 = Stored(2.0 / 5.0), b2 = Stored(1.0 / 5.0);
  const double h_end = -(XLnX(a0) + XLnX(a1));
  const double h_mid = -(2.0 * XLnX(b0) + XLnX(b2));
  const double h_mix = -(XLnX(0.5 * (a0 + b0)) + XLnX(0.5 * (a1 + b0)) +
                         XLnX(0.5 * b2));
  const double js_bits = (h_mix - 0.5 * (h_end + h_mid)) / std::log(2.0);
  // js_bits ~= 0.126491, so the end/middle similarity is ~0.873509.
  EXPECT_NEAR(calc.Between(0, 1), 1.0 - js_bits, 1e-12);
  EXPECT_NEAR(calc.Between(2, 3), 1.0 - js_bits, 1e-12);
  EXPECT_NEAR(calc.Between(0, 2), 1.0 - js_bits, 1e-12);
  EXPECT_NEAR(calc.Between(0, 3), 1.0, 1e-12);
  EXPECT_NEAR(calc.Between(1, 2), 1.0, 1e-12);
  EXPECT_NEAR(calc.Between(0, 1), 0.873509, 1e-6);
}

// ---- Feature entropy --------------------------------------------------------

TEST(FeatureEntropyTest, EmbeddingL2Normalised) {
  Rng rng(2);
  tensor::Tensor x = tensor::Tensor::Rand(10, 32, &rng);
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 8;
  tensor::Tensor z = EmbedFeatures(x, opts);
  EXPECT_EQ(z.cols(), 8);
  for (int64_t r = 0; r < z.rows(); ++r) {
    EXPECT_NEAR(EmbeddingDot(z, r, r), 1.0, 1e-5);
  }
}

TEST(FeatureEntropyTest, IdentityWhenProjectionDisabled) {
  Rng rng(3);
  tensor::Tensor x = tensor::Tensor::Rand(5, 6, &rng);
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 0;
  opts.l2_normalize = false;
  tensor::Tensor z = EmbedFeatures(x, opts);
  EXPECT_TRUE(z.AllClose(x));
}

TEST(FeatureEntropyTest, MoreSimilarPairsHaveHigherEntropy) {
  // Nodes 0 and 1 share features; 2 is orthogonal to both. With a realistic
  // (large) pair set every pair probability is << 1/e, where -P log P is
  // increasing, so the similar pair must rank above the dissimilar one
  // (the paper's Eq. 4 reading).
  Rng rng(99);
  tensor::Tensor x = tensor::Tensor::Rand(20, 4, &rng);
  // Overwrite the three probe nodes with controlled features.
  for (int64_t c = 0; c < 4; ++c) {
    x.at(0, c) = c < 2 ? 1.0f : 0.0f;
    x.at(1, c) = c < 2 ? 1.0f : 0.0f;
    x.at(2, c) = c < 2 ? 0.0f : 1.0f;
  }
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 0;
  tensor::Tensor z = EmbedFeatures(x, opts);
  std::vector<NodePair> pairs = {{0, 1}, {0, 2}};
  for (int64_t v = 3; v < 20; ++v) pairs.push_back({v, (v + 5) % 20});
  const auto h = FeatureEntropyForPairs(z, pairs);
  EXPECT_GT(h[0], h[1]);  // similar pair ranks above dissimilar pair
}

TEST(FeatureEntropyTest, TinyPairSetsAreOutsideMonotoneRegime) {
  // Documented boundary: with only two pairs the larger probability can
  // exceed 1/e, where -P log P decreases — rankings are only meaningful
  // for candidate sets of realistic size (the index always builds those).
  tensor::Tensor x = tensor::Tensor::FromData(3, 4,
                                              {1, 1, 0, 0,   //
                                               1, 1, 0, 0,   //
                                               0, 0, 1, 1});
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 0;
  tensor::Tensor z = EmbedFeatures(x, opts);
  const auto h = FeatureEntropyForPairs(z, {{0, 1}, {0, 2}});
  ASSERT_EQ(h.size(), 2u);
  EXPECT_LT(h[0], h[1]);  // inverted: P(0,1) = 0.73 > 1/e here
}

TEST(FeatureEntropyTest, EntropiesPositive) {
  Rng rng(4);
  tensor::Tensor x = tensor::Tensor::Rand(20, 16, &rng);
  FeatureEmbeddingOptions opts;
  opts.projection_dim = 0;
  tensor::Tensor z = EmbedFeatures(x, opts);
  std::vector<NodePair> pairs;
  for (int64_t v = 0; v < 20; ++v) {
    for (int64_t u = v + 1; u < 20; ++u) pairs.push_back({v, u});
  }
  const auto h = FeatureEntropyForPairs(z, pairs);
  for (double e : h) EXPECT_GT(e, 0.0);
}

TEST(FeatureEntropyTest, MatchesHandComputedValues) {
  // Eq. 4 on fixed 2-d embeddings z0 = (1, 0), z1 = (0.5, 0.5),
  // z2 = (-1, 0) and the pair set {(0,1), (0,2), (1,2)}:
  //   logits s = <z_v, z_u> = [0.5, -1, -0.5]
  //   Z = e^0.5 + e^-1 + e^-0.5 ~= 1.648721 + 0.367879 + 0.606531 = 2.623131
  //   P_i = e^{s_i} / Z ~= [0.628532, 0.140244, 0.231224]
  //   H_i = -P_i ln P_i = -P_i (s_i - ln Z)
  //       ~= [0.291871, 0.275492, 0.338597]
  const tensor::Tensor z =
      tensor::Tensor::FromData(3, 2, {1.0f, 0.0f, 0.5f, 0.5f, -1.0f, 0.0f});
  const std::vector<double> h =
      FeatureEntropyForPairs(z, {{0, 1}, {0, 2}, {1, 2}});
  ASSERT_EQ(h.size(), 3u);
  const double log_z =
      std::log(std::exp(0.5) + std::exp(-1.0) + std::exp(-0.5));
  const double s[3] = {0.5, -1.0, -0.5};
  for (int i = 0; i < 3; ++i) {
    const double log_p = s[i] - log_z;
    EXPECT_NEAR(h[static_cast<size_t>(i)], -std::exp(log_p) * log_p, 1e-12)
        << "pair " << i;
  }
  EXPECT_NEAR(h[0], 0.291871, 1e-6);
  EXPECT_NEAR(h[1], 0.275492, 1e-6);
  EXPECT_NEAR(h[2], 0.338597, 1e-6);
}

TEST(FeatureEntropyTest, EmptyPairsGiveEmpty) {
  tensor::Tensor z = tensor::Tensor::Ones(3, 3);
  EXPECT_TRUE(FeatureEntropyForPairs(z, {}).empty());
}

// ---- Relative entropy index -------------------------------------------------

data::Dataset TestDataset(uint64_t seed = 31) {
  data::GeneratorOptions o;
  o.num_nodes = 100;
  o.num_edges = 250;
  o.num_features = 60;
  o.num_classes = 4;
  o.homophily = 0.2;
  o.partner_affinity = 0.9;
  o.feature_signal = 10.0;
  o.feature_density = 0.1;
  o.seed = seed;
  return std::move(data::GenerateDataset(o)).value();
}

TEST(RelativeEntropyIndexTest, BuildsSequencesForEveryNode) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  EXPECT_EQ(index.num_nodes(), ds.num_nodes());
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    const NodeSequences& seq = index.sequences(v);
    EXPECT_EQ(static_cast<int64_t>(seq.neighbors.size()), ds.graph.Degree(v));
  }
}

TEST(RelativeEntropyIndexTest, RemoteSequencesDescending) {
  data::Dataset ds = TestDataset();
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, {});
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    const auto& remote = index.sequences(v).remote;
    for (size_t i = 1; i < remote.size(); ++i) {
      EXPECT_GE(remote[i - 1].entropy, remote[i].entropy);
    }
  }
}

TEST(RelativeEntropyIndexTest, NeighborSequencesAscending) {
  data::Dataset ds = TestDataset();
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, {});
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    const auto& nbrs = index.sequences(v).neighbors;
    for (size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LE(nbrs[i - 1].entropy, nbrs[i].entropy);
    }
  }
}

TEST(RelativeEntropyIndexTest, RemoteCandidatesAreNonAdjacent) {
  data::Dataset ds = TestDataset();
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, {});
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    for (const auto& s : index.sequences(v).remote) {
      EXPECT_FALSE(ds.graph.HasEdge(v, s.node));
      EXPECT_NE(s.node, v);
    }
  }
}

TEST(RelativeEntropyIndexTest, CandidateCapRespected) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  opts.max_two_hop_candidates = 5;
  opts.num_random_candidates = 3;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    EXPECT_LE(index.sequences(v).remote.size(), 8u);
  }
}

TEST(RelativeEntropyIndexTest, LambdaZeroIgnoresStructure) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  opts.lambda = 0.0;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  // All entropies must be within [0, 1] (rescaled feature entropy alone).
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    for (const auto& s : index.sequences(v).remote) {
      EXPECT_GE(s.entropy, 0.0);
      EXPECT_LE(s.entropy, 1.0);
    }
  }
}

TEST(RelativeEntropyIndexTest, EntropyBoundedByOnePlusLambda) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  opts.lambda = 2.0;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    for (const auto& s : index.sequences(v).remote) {
      EXPECT_GE(s.entropy, 0.0);
      EXPECT_LE(s.entropy, 3.0 + 1e-9);
    }
  }
}

TEST(RelativeEntropyIndexTest, ShuffleKeepsMembership) {
  data::Dataset ds = TestDataset();
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, {});
  std::vector<int64_t> before;
  for (const auto& s : index.sequences(0).remote) before.push_back(s.node);
  Rng rng(5);
  index.ShuffleSequences(&rng);
  std::vector<int64_t> after;
  for (const auto& s : index.sequences(0).remote) after.push_back(s.node);
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
}

TEST(RelativeEntropyIndexTest, ShuffleSequencesDeterministicForFixedRng) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  auto a = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  auto b = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  Rng rng_a(42), rng_b(42);
  a.ShuffleSequences(&rng_a);
  b.ShuffleSequences(&rng_b);
  for (int64_t v = 0; v < a.num_nodes(); ++v) {
    const NodeSequences& sa = a.sequences(v);
    const NodeSequences& sb = b.sequences(v);
    ASSERT_EQ(sa.remote.size(), sb.remote.size());
    for (size_t i = 0; i < sa.remote.size(); ++i) {
      EXPECT_EQ(sa.remote[i].node, sb.remote[i].node);
      EXPECT_EQ(sa.remote[i].entropy, sb.remote[i].entropy);
    }
    ASSERT_EQ(sa.neighbors.size(), sb.neighbors.size());
    for (size_t i = 0; i < sa.neighbors.size(); ++i) {
      EXPECT_EQ(sa.neighbors[i].node, sb.neighbors[i].node);
      EXPECT_EQ(sa.neighbors[i].entropy, sb.neighbors[i].entropy);
    }
  }
}

TEST(RelativeEntropyIndexTest, ShuffleSequencesIsPermutationOnly) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  auto index = *RelativeEntropyIndex::Build(ds.graph, ds.features, opts);
  const auto snapshot = [&] {
    std::vector<std::vector<std::pair<int64_t, double>>> all;
    for (int64_t v = 0; v < index.num_nodes(); ++v) {
      std::vector<std::pair<int64_t, double>> entries;
      for (const auto& s : index.sequences(v).remote) {
        entries.emplace_back(s.node, s.entropy);
      }
      for (const auto& s : index.sequences(v).neighbors) {
        entries.emplace_back(s.node, s.entropy);
      }
      std::sort(entries.begin(), entries.end());
      all.push_back(std::move(entries));
    }
    return all;
  };
  const auto before = snapshot();
  Rng rng(7);
  index.ShuffleSequences(&rng);
  // Shuffling permutes each sequence in place: the (node, entropy) multiset
  // per node is untouched — no entry gains, loses, or changes its score.
  EXPECT_EQ(snapshot(), before);
}

TEST(RelativeEntropyIndexTest, MaxRemoteLengthOnEmptyGraph) {
  const graph::Graph empty = graph::Graph::FromEdgeListOrDie(0, {});
  const tensor::Tensor features(0, 4);
  auto index = *RelativeEntropyIndex::Build(empty, features, {});
  EXPECT_EQ(index.num_nodes(), 0);
  EXPECT_EQ(index.MaxRemoteLength(), 0);
}

TEST(RelativeEntropyIndexTest, MaxRemoteLengthOnSingletonGraph) {
  const graph::Graph singleton = graph::Graph::FromEdgeListOrDie(1, {});
  const tensor::Tensor features(1, 4);
  auto index = *RelativeEntropyIndex::Build(singleton, features, {});
  EXPECT_EQ(index.num_nodes(), 1);
  // The only node has no 2-hop or remote candidates: remote stays empty.
  EXPECT_EQ(index.MaxRemoteLength(), 0);
  EXPECT_TRUE(index.sequences(0).remote.empty());
  EXPECT_TRUE(index.sequences(0).neighbors.empty());
}

TEST(RelativeEntropyIndexTest, ValidationErrors) {
  data::Dataset ds = TestDataset();
  EntropyOptions opts;
  opts.lambda = -1.0;
  EXPECT_FALSE(RelativeEntropyIndex::Build(ds.graph, ds.features, opts).ok());
  opts = EntropyOptions();
  opts.max_two_hop_candidates = 0;
  opts.num_random_candidates = 0;
  EXPECT_FALSE(RelativeEntropyIndex::Build(ds.graph, ds.features, opts).ok());
  // Feature row mismatch.
  tensor::Tensor bad(ds.num_nodes() + 1, 4);
  EXPECT_FALSE(RelativeEntropyIndex::Build(ds.graph, bad, {}).ok());
}

// ---- Golden pin and thread invariance --------------------------------------

uint64_t Fnv1a(uint64_t h, const void* data, size_t len) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

uint64_t HashScored(uint64_t h, const std::vector<ScoredNode>& seq) {
  const uint64_t len = seq.size();
  h = Fnv1a(h, &len, sizeof(len));
  for (const ScoredNode& s : seq) {
    uint64_t bits;
    std::memcpy(&bits, &s.entropy, sizeof(bits));
    h = Fnv1a(h, &s.node, sizeof(s.node));
    h = Fnv1a(h, &bits, sizeof(bits));
  }
  return h;
}

/// Builds the index with default options on a ~2k-node skewed graph (hub
/// 2-hop sets overflow the candidate cap, so the sampled path runs), hashes
/// every sequence's (node, entropy bits) in node order, then folds in the
/// bits of a small dense relative-entropy matrix.
uint64_t IndexDigest() {
  data::GeneratorOptions o;
  o.num_nodes = 2000;
  o.num_edges = 8000;
  o.num_features = 96;
  o.num_classes = 5;
  o.homophily = 0.3;
  o.degree_power = 0.7;
  o.seed = 41;
  const data::Dataset ds = std::move(data::GenerateDataset(o)).value();
  const RelativeEntropyIndex index =
      *RelativeEntropyIndex::Build(ds.graph, ds.features, {});
  uint64_t h = 0xCBF29CE484222325ULL;
  for (int64_t v = 0; v < index.num_nodes(); ++v) {
    h = HashScored(h, index.sequences(v).remote);
    h = HashScored(h, index.sequences(v).neighbors);
  }
  const data::Dataset small = TestDataset();
  const tensor::Tensor m =
      DenseRelativeEntropyMatrix(small.graph, small.features, {});
  h = Fnv1a(h, m.data(), static_cast<size_t>(m.numel()) * sizeof(float));
  return h;
}

// The digest is a bit pattern of float arithmetic, and src/entropy is
// compiled with the compiler's default FP contraction: optimised builds for
// an FMA host fuse multiply-adds into one rounding; Debug builds and builds
// without FMA round every step.
#if defined(__OPTIMIZE__) && defined(__FMA__)
constexpr uint64_t kIndexDigest = 0x7dc5214d81af562eULL;
#else
constexpr uint64_t kIndexDigest = 0xf43d096ade58f694ULL;
#endif

TEST(RelativeEntropyGoldenTest, IndexIsPinned) {
  const uint64_t digest = IndexDigest();
  EXPECT_EQ(digest, kIndexDigest) << std::hex << "0x" << digest;
}

#ifdef _OPENMP
TEST(RelativeEntropyGoldenTest, IndexIsThreadCountInvariant) {
  const int old_threads = omp_get_max_threads();
  for (const int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    const uint64_t digest = IndexDigest();
    EXPECT_EQ(digest, kIndexDigest)
        << threads << " threads: " << std::hex << "0x" << digest;
  }
  omp_set_num_threads(old_threads);
}
#endif  // _OPENMP

TEST(DenseEntropyMatrixTest, SymmetricWithEmptyDiagonal) {
  data::Dataset ds = TestDataset();
  tensor::Tensor m = DenseRelativeEntropyMatrix(ds.graph, ds.features, {});
  EXPECT_EQ(m.rows(), ds.num_nodes());
  for (int64_t v = 0; v < 20; ++v) {
    EXPECT_EQ(m.at(v, v), 0.0f);
    for (int64_t u = 0; u < 20; ++u) {
      EXPECT_FLOAT_EQ(m.at(v, u), m.at(u, v));
    }
  }
}

TEST(DenseEntropyMatrixTest, SameLabelPairsHaveHigherEntropy) {
  // The paper's Fig. 8 claim: same-label blocks are brighter. Use a
  // strongly separable feature model so it holds robustly.
  data::GeneratorOptions o;
  o.num_nodes = 80;
  o.num_edges = 200;
  o.num_features = 80;
  o.num_classes = 4;
  o.homophily = 0.25;
  o.feature_signal = 15.0;
  o.feature_density = 0.15;
  o.seed = 77;
  data::Dataset ds = std::move(data::GenerateDataset(o)).value();
  tensor::Tensor m = DenseRelativeEntropyMatrix(ds.graph, ds.features, {});
  double same = 0.0, cross = 0.0;
  int64_t n_same = 0, n_cross = 0;
  for (int64_t v = 0; v < ds.num_nodes(); ++v) {
    for (int64_t u = v + 1; u < ds.num_nodes(); ++u) {
      if (ds.labels[v] == ds.labels[u]) {
        same += m.at(v, u);
        ++n_same;
      } else {
        cross += m.at(v, u);
        ++n_cross;
      }
    }
  }
  EXPECT_GT(same / n_same, cross / n_cross);
}

}  // namespace
}  // namespace entropy
}  // namespace graphrare
