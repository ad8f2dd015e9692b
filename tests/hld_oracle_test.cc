#include "core/hld_oracle.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/tree_distance.h"
#include "dp/release_context.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dpsp {
namespace {

Result<Graph> MakeFamilyTree(int family, int n, Rng* rng) {
  switch (family) {
    case 0:
      return MakePathGraph(n);
    case 1:
      return MakeBalancedTree(n, 2);
    case 2:
      return MakeRandomTree(n, rng);
    case 3:
      return MakeStarGraph(n);
    default:
      return MakeCaterpillarTree(std::max(1, n / 4), 3);
  }
}

TEST(HldOracleTest, HighEpsilonMatchesExactDistances) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(60, &rng));
  EdgeWeights w = MakeUniformWeights(g, 1.0, 5.0, &rng);
  PrivacyParams params{1e7, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(auto oracle, HldTreeOracle::Build(g, w, params, &rng));
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  for (VertexId u = 0; u < 60; u += 2) {
    for (VertexId v = 0; v < 60; v += 3) {
      ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(u, v));
      EXPECT_NEAR(d, exact.at(u, v), 1e-2) << u << "," << v;
    }
  }
  EXPECT_EQ(oracle->Name(), "tree-hld");
}

class HldFamilyTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HldFamilyTest, AccurateAcrossFamiliesAtHighEpsilon) {
  auto [family, n] = GetParam();
  Rng rng(kTestSeed + static_cast<uint64_t>(family * 100 + n));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeFamilyTree(family, n, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.5, 3.0, &rng);
  PrivacyParams params{1e7, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(auto oracle, HldTreeOracle::Build(g, w, params, &rng));
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  int v_count = g.num_vertices();
  for (int trial = 0; trial < 100; ++trial) {
    VertexId u = static_cast<VertexId>(rng.UniformInt(0, v_count - 1));
    VertexId v = static_cast<VertexId>(rng.UniformInt(0, v_count - 1));
    ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(u, v));
    EXPECT_NEAR(d, exact.at(u, v), 1e-2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, HldFamilyTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(2, 17, 64, 200)));

TEST(HldOracleTest, ErrorWithinBound) {
  Rng rng(kTestSeed);
  int n = 256;
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(n, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 20.0, &rng);
  PrivacyParams params{1.0, 0.0, 1.0};
  double gamma = 0.02;
  double bound = HldTreeOracle::ErrorBound(n, params, gamma);
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  int violations = 0, total = 0;
  for (int trial = 0; trial < 3; ++trial) {
    ASSERT_OK_AND_ASSIGN(auto oracle,
                         HldTreeOracle::Build(g, w, params, &rng));
    for (int q = 0; q < 500; ++q) {
      VertexId u = static_cast<VertexId>(rng.UniformInt(0, n - 1));
      VertexId v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
      ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(u, v));
      if (std::fabs(d - exact.at(u, v)) > bound) ++violations;
      ++total;
    }
  }
  EXPECT_LT(violations, std::max(5, static_cast<int>(3 * gamma * total)));
}

TEST(HldOracleTest, ChainCountReasonable) {
  Rng rng(kTestSeed);
  // A path has 1 chain; a star has V-1 chains (one per light leaf, plus
  // the heavy one folded into the root chain).
  ASSERT_OK_AND_ASSIGN(Graph path, MakePathGraph(50));
  PrivacyParams params;
  ASSERT_OK_AND_ASSIGN(
      auto path_oracle,
      HldTreeOracle::Build(path, EdgeWeights(49, 1.0), params, &rng));
  EXPECT_EQ(path_oracle->num_chains(), 1);

  ASSERT_OK_AND_ASSIGN(Graph star, MakeStarGraph(50));
  ASSERT_OK_AND_ASSIGN(
      auto star_oracle,
      HldTreeOracle::Build(star, EdgeWeights(49, 1.0), params, &rng));
  EXPECT_EQ(star_oracle->num_chains(), 49);
}

TEST(HldOracleTest, SymmetricAndZeroDiagonal) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeBalancedTree(63, 2));
  EdgeWeights w = MakeUniformWeights(g, 1.0, 2.0, &rng);
  PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(auto oracle, HldTreeOracle::Build(g, w, params, &rng));
  for (VertexId u = 0; u < 63; u += 7) {
    ASSERT_OK_AND_ASSIGN(double uu, oracle->Distance(u, u));
    EXPECT_DOUBLE_EQ(uu, 0.0);
    for (VertexId v = 0; v < 63; v += 5) {
      ASSERT_OK_AND_ASSIGN(double uv, oracle->Distance(u, v));
      ASSERT_OK_AND_ASSIGN(double vu, oracle->Distance(v, u));
      EXPECT_DOUBLE_EQ(uv, vu);
    }
  }
}

TEST(HldOracleTest, NoiseScaleAdaptsToChainDepth) {
  // The release's sensitivity is the max chain's level count, not log V:
  // a path of 1024 pays levels(1023) = 11, a star pays 1 — the mechanism
  // exploits public topology for free (bench_tree_all_pairs E2b).
  Rng rng(kTestSeed);
  PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(Graph path, MakePathGraph(1024));
  ASSERT_OK_AND_ASSIGN(
      auto path_oracle,
      HldTreeOracle::Build(path, EdgeWeights(1023, 1.0), params, &rng));
  EXPECT_DOUBLE_EQ(path_oracle->noise_scale(), 11.0);
  ASSERT_OK_AND_ASSIGN(Graph star, MakeStarGraph(1024));
  ASSERT_OK_AND_ASSIGN(
      auto star_oracle,
      HldTreeOracle::Build(star, EdgeWeights(1023, 1.0), params, &rng));
  EXPECT_DOUBLE_EQ(star_oracle->noise_scale(), 1.0);
}

TEST(HldOracleTest, RejectsNonTrees) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph cycle, MakeCycleGraph(6));
  PrivacyParams params;
  EXPECT_FALSE(
      HldTreeOracle::Build(cycle, EdgeWeights(6, 1.0), params, &rng).ok());
}

TEST(HldOracleTest, ComparableErrorRegimeToRecursiveOracle) {
  // Both tree mechanisms are polylog; on the same input their mean errors
  // should be within an order of magnitude of each other.
  Rng rng(kTestSeed);
  int n = 512;
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(n, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 5.0, &rng);
  PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  ASSERT_OK_AND_ASSIGN(auto hld, HldTreeOracle::Build(g, w, params, &rng));
  ASSERT_OK_AND_ASSIGN(auto recursive,
                       TreeAllPairsOracle::Build(g, w, params, &rng));
  ASSERT_OK_AND_ASSIGN(OracleErrorReport hld_report,
                       EvaluateOracleAllPairs(g, exact, *hld));
  ASSERT_OK_AND_ASSIGN(OracleErrorReport rec_report,
                       EvaluateOracleAllPairs(g, exact, *recursive));
  EXPECT_LT(hld_report.mean_abs_error, 10.0 * rec_report.mean_abs_error);
  EXPECT_LT(rec_report.mean_abs_error, 10.0 * hld_report.mean_abs_error);
}

TEST(HldOracleTest, BatchLookaheadBoundaries) {
  Rng rng(kTestSeed);
  const int n = 500;
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(n, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 5.0, &rng);
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       HldTreeOracle::Build(g, w, PrivacyParams{}, &rng));
  std::vector<VertexPair> pairs;
  for (int i = 0; i < 20; ++i) {
    pairs.emplace_back(static_cast<VertexId>(rng.UniformInt(0, n - 1)),
                       static_cast<VertexId>(rng.UniformInt(0, n - 1)));
  }
  ExpectBatchesMatchPerPairDistance(*oracle, pairs);
  for (VertexId bad : {-1, n}) {
    ExpectOutOfRangeRejectedAnywhere(*oracle, pairs, bad);
  }
}

TEST(HldOracleTest, RestoredOracleRedrawsUpdatesAtThePersistedScale) {
  // With a neighbor bound rho != 1 the release's scale is L * rho / eps. A
  // restored oracle must redraw an update epoch's blocks at that scale, so
  // the same epoch under the same seed leaves it bit-identical to the
  // oracle it was saved from.
  Rng rng(kTestSeed);
  const int n = 64;
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(n));
  EdgeWeights w = MakeUniformWeights(g, 0.5, 2.0, &rng);
  const PrivacyParams params{1.0, 0.0, 4.0};
  ASSERT_OK_AND_ASSIGN(ReleaseContext build_ctx,
                       ReleaseContext::Create(params, kTestSeed));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HldTreeOracle> built,
                       HldTreeOracle::Build(g, w, build_ctx));

  std::vector<ReleasedSection> saved;
  ASSERT_OK(built->SaveReleasedState(&saved));
  std::vector<ReleasedSectionView> views;
  for (const ReleasedSection& s : saved) views.push_back({s.label, s.bytes});
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<DistanceOracle> restored,
                       HldTreeOracle::FromReleasedState(g, w, views));
  ASSERT_NE(restored->AsUpdatable(), nullptr);

  const std::vector<EdgeWeightDelta> epoch = {{0, 1.5}, {31, 0.25}, {62, 3.0}};
  for (UpdatableDistanceOracle* oracle :
       {static_cast<UpdatableDistanceOracle*>(built.get()),
        restored->AsUpdatable()}) {
    ASSERT_OK_AND_ASSIGN(ReleaseContext epoch_ctx,
                         ReleaseContext::Create(params, kTestSeed ^ 1));
    ASSERT_OK(oracle->ApplyWeightUpdates(epoch, epoch_ctx));
  }
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_OK_AND_ASSIGN(double want, built->Distance(u, v));
      ASSERT_OK_AND_ASSIGN(double got, restored->Distance(u, v));
      ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << "d(" << u << ", " << v << ")";
    }
  }
}

TEST(HldOracleTest, RestoreRejectsAnUnusableNoiseScale) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(40, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, &rng);
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       HldTreeOracle::Build(g, w, PrivacyParams{}, &rng));
  std::vector<ReleasedSection> saved;
  ASSERT_OK(oracle->SaveReleasedState(&saved));
  for (double scale : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<ReleasedSectionView> views;
    std::vector<double> meta;
    for (const ReleasedSection& s : saved) {
      if (s.label != "meta") {
        views.push_back({s.label, s.bytes});
        continue;
      }
      meta.resize(s.bytes.size() / sizeof(double));
      std::memcpy(meta.data(), s.bytes.data(), s.bytes.size());
    }
    ASSERT_EQ(meta.size(), 5u);
    meta[1] = scale;
    views.push_back(
        {"meta", std::span<const uint8_t>(
                     reinterpret_cast<const uint8_t*>(meta.data()),
                     meta.size() * sizeof(double))});
    Result<std::unique_ptr<DistanceOracle>> restored =
        HldTreeOracle::FromReleasedState(g, w, views);
    ASSERT_FALSE(restored.ok()) << "scale " << scale;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace dpsp
