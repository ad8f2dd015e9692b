// Pins the fixed-seed answers of the two mechanisms that release noisy
// dyadic range sums (core/range_sums.h): tree-hld over heavy chains and
// path-hierarchy over the path graph. A refactor of the shared structure,
// of the HLD chain climb, or of either save format must not move a single
// bit, so the expected answers are hex-float literals captured from a
// reference build and compared bit for bit. A mismatch is a behaviour
// change, not a stale constant: every seeded release in the repo would
// move with it.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hld_oracle.h"
#include "core/path_graph.h"
#include "dp/release_context.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dpsp {
namespace {

const PrivacyParams kParams{1.0, 0.0, 1.0};

struct Golden {
  std::vector<double> probes;  // answers to ProbePairs(n), in order
  uint64_t digest;             // AllPairsDigest of the oracle
};

// Diagonal, both orientations, the ends of the id range, and pairs whose
// LCA lies on a different heavy chain than either endpoint.
std::vector<VertexPair> ProbePairs(int n) {
  return {{0, 0},         {0, n - 1},         {n - 1, 0},
          {n / 2, n / 3}, {n / 3, n / 2},     {1, n - 2},
          {n / 4, 3 * n / 4}, {n - 1, n / 5}};
}

// FNV-1a over the bit patterns of every all-pairs answer, row-major,
// answered through the batched DistanceInto kernel.
uint64_t AllPairsDigest(const DistanceOracle& oracle, int n) {
  std::vector<VertexPair> pairs;
  pairs.reserve(static_cast<size_t>(n) * static_cast<size_t>(n));
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) pairs.emplace_back(u, v);
  }
  std::vector<double> out(pairs.size());
  EXPECT_OK(oracle.DistanceInto(pairs, out.data()));
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (double d : out) {
    hash ^= std::bit_cast<uint64_t>(d);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Hex(double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", d);
  return buf;
}

void ExpectGolden(const DistanceOracle& oracle, int n, const Golden& golden,
                  const std::string& label) {
  std::vector<VertexPair> pairs = ProbePairs(n);
  ASSERT_EQ(golden.probes.size(), pairs.size()) << label;
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(double d,
                         oracle.Distance(pairs[i].first, pairs[i].second));
    EXPECT_EQ(std::bit_cast<uint64_t>(d),
              std::bit_cast<uint64_t>(golden.probes[i]))
        << label << " (" << pairs[i].first << "," << pairs[i].second
        << "): got " << Hex(d) << ", pinned " << Hex(golden.probes[i]);
  }
  char digest[32];
  uint64_t actual = AllPairsDigest(oracle, n);
  std::snprintf(digest, sizeof(digest), "0x%016llx",
                static_cast<unsigned long long>(actual));
  EXPECT_EQ(actual, golden.digest) << label << " all-pairs digest " << digest;
}

struct TreeCase {
  const char* name;
  Result<Graph> (*make)(Rng*);
  Golden golden;
};

TEST(DyadicGoldenTest, TreeHldAnswersArePinned) {
  const TreeCase cases[] = {
      {"random",
       [](Rng* rng) { return MakeRandomTree(200, rng); },
       {{0x0p+0, 0x1.4906c36633983p+4, 0x1.4906c36633983p+4,
         0x1.dd4d46d649ff2p+4, 0x1.dd4d46d649ff2p+4, 0x1.c61869f0bcba9p+4,
         0x1.11429c7d030c8p+6, 0x1.3005cd9826983p+4},
        0x66db39d3d72b3b0bULL}},
      {"balanced",
       [](Rng*) { return MakeBalancedTree(200, 2); },
       {{0x0p+0, 0x1.88f327dec0006p+3, 0x1.88f327dec0006p+3,
         0x1.7e17dd1740dp+5, 0x1.7e17dd1740dp+5, 0x1.1403404f957d8p+5,
         0x1.5933b0bf9d112p+5, 0x1.7a5afcae98712p+5},
        0xc46e875aeb4a78e9ULL}},
      {"caterpillar",
       [](Rng*) { return MakeCaterpillarTree(50, 3); },
       {{0x0p+0, 0x1.f415a15086628p+7, 0x1.f415a15086628p+7,
         0x1.2954e6c1ede9ep+6, 0x1.2954e6c1ede9ep+6, 0x1.0ee5d4b0f8e1fp+8,
         0x1.4acd335c15a95p+7, 0x1.7c22c03020c9ep+5},
        0x579b23bd10860a41ULL}},
      {"star",
       [](Rng*) { return MakeStarGraph(200); },
       {{0x0p+0, 0x1.70937f287062ep+0, 0x1.70937f287062ep+0,
         0x1.414d425d2713cp+3, 0x1.414d425d2713cp+3, 0x1.294ac4d2ec7aap+3,
         0x1.5b4828129cd83p+2, 0x1.9d0c76423574p+2},
        0xb5d3078db18a3a2fULL}},
  };
  for (const TreeCase& c : cases) {
    Rng rng(kTestSeed);
    ASSERT_OK_AND_ASSIGN(Graph g, c.make(&rng));
    EdgeWeights w = MakeUniformWeights(g, 0.0, 10.0, &rng);
    ASSERT_OK_AND_ASSIGN(auto oracle,
                         HldTreeOracle::Build(g, w, kParams, &rng));
    ExpectGolden(*oracle, g.num_vertices(), c.golden, c.name);
  }
}

TEST(DyadicGoldenTest, TreeHldUpdateEpochIsPinned) {
  // One 16-delta epoch redraws dirty blocks and light scalars, then
  // recomputes the dirty chains' ascent caches from the redrawn blocks.
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(200, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 10.0, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(kParams, kTestSeed));
  ASSERT_OK_AND_ASSIGN(auto oracle, HldTreeOracle::Build(g, w, ctx));
  std::vector<EdgeWeightDelta> deltas;
  for (int i = 0; i < 16; ++i) {
    deltas.push_back(
        {static_cast<EdgeId>(rng.UniformInt(0, g.num_edges() - 1)),
         rng.Uniform(0.0, 10.0)});
  }
  ASSERT_OK(oracle->ApplyWeightUpdates(deltas, ctx));
  ExpectGolden(*oracle, g.num_vertices(),
               {{0x0p+0, 0x1.73cf6353725c6p+4, 0x1.73cf6353725c6p+4,
                 0x1.c105834e7d7fp+5, 0x1.c105834e7d7fp+5,
                 0x1.3f11b0ebbbdd5p+3, 0x1.037ca039af76ap+6,
                 -0x1.24d8dd1cfb696p+3},
                0xa72e215f345552f5ULL},
               "random after epoch");
}

TEST(DyadicGoldenTest, PathHierarchyAnswersArePinned) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(1000));  // not a power of two
  EdgeWeights w = MakeUniformWeights(g, 0.0, 10.0, &rng);
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       PathGraphOracle::Build(g, w, kParams, &rng));
  ExpectGolden(*oracle, g.num_vertices(),
               {{0x0p+0, 0x1.33331ffc0558cp+12, 0x1.33331ffc0558cp+12,
                 0x1.bb940d298b83ep+9, 0x1.bb940d298b83ep+9,
                 0x1.37c97d3631caap+12, 0x1.2fb55f816af77p+11,
                 0x1.ecc5c45c8836cp+11},
                0xedcb7486fef4f807ULL},
               "path-1000");
}

TEST(DyadicGoldenTest, TreeHldMatchesPathHierarchyOnPaths) {
  // Rooted at vertex 0, a path is one heavy chain whose dyadic structure
  // is exactly the path hierarchy: same levels, same Laplace scale, same
  // (level, block) draw order. Same-seed releases answer bit-identically.
  for (int n : {1, 2, 3, 37, 1000, 4096, 65541}) {
    Rng weight_rng(kTestSeed + static_cast<uint64_t>(n));
    ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(n));
    EdgeWeights w = MakeUniformWeights(g, 0.0, 10.0, &weight_rng);
    Rng hld_rng(kTestSeed);
    Rng path_rng(kTestSeed);
    ASSERT_OK_AND_ASSIGN(auto hld,
                         HldTreeOracle::Build(g, w, kParams, &hld_rng));
    ASSERT_OK_AND_ASSIGN(auto path,
                         PathGraphOracle::Build(g, w, kParams, &path_rng));
    std::vector<VertexPair> pairs;
    for (int i = 0; i < 20000; ++i) {
      pairs.emplace_back(
          static_cast<VertexId>(weight_rng.UniformInt(0, n - 1)),
          static_cast<VertexId>(weight_rng.UniformInt(0, n - 1)));
    }
    std::vector<double> hld_out(pairs.size());
    std::vector<double> path_out(pairs.size());
    ASSERT_OK(hld->DistanceInto(pairs, hld_out.data()));
    ASSERT_OK(path->DistanceInto(pairs, path_out.data()));
    for (size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(hld_out[i]),
                std::bit_cast<uint64_t>(path_out[i]))
          << "V=" << n << " pair (" << pairs[i].first << ","
          << pairs[i].second << "): tree-hld " << Hex(hld_out[i])
          << ", path-hierarchy " << Hex(path_out[i]);
    }
  }
}

}  // namespace
}  // namespace dpsp
