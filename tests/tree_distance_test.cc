#include "core/tree_distance.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/statistics.h"
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

TEST(TreeSingleSourceTest, RootEstimateIsExactlyZero) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(50, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 5.0, &rng);
  PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(
      TreeSingleSourceRelease release,
      ReleaseTreeSingleSourceDistances(g, w, 3, params, &rng));
  EXPECT_DOUBLE_EQ(release.estimates[3], 0.0);
  EXPECT_EQ(release.root, 3);
}

TEST(TreeSingleSourceTest, HighEpsilonRecoversExactDistances) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(64, &rng));
  EdgeWeights w = MakeUniformWeights(g, 1.0, 10.0, &rng);
  PrivacyParams params{1e7, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(
      TreeSingleSourceRelease release,
      ReleaseTreeSingleSourceDistances(g, w, 0, params, &rng));
  ASSERT_OK_AND_ASSIGN(RootedTree tree, RootedTree::FromGraph(g, 0));
  std::vector<double> exact = tree.RootDistances(w);
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_NEAR(release.estimates[static_cast<size_t>(v)],
                exact[static_cast<size_t>(v)], 1e-3);
  }
}

TEST(TreeSingleSourceTest, NoiseCountWithinTwoV) {
  Rng rng(kTestSeed);
  for (int n : {2, 17, 100, 255}) {
    ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(n, &rng));
    EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, &rng);
    PrivacyParams params;
    ASSERT_OK_AND_ASSIGN(
        TreeSingleSourceRelease release,
        ReleaseTreeSingleSourceDistances(g, w, 0, params, &rng));
    EXPECT_LE(release.num_noisy_values, 2 * n);
    EXPECT_GE(release.num_noisy_values, n - 1);
  }
}

TEST(TreeSingleSourceTest, SensitivityIsLogDepthBound) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(128, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, &rng);
  PrivacyParams params{2.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(
      TreeSingleSourceRelease release,
      ReleaseTreeSingleSourceDistances(g, w, 0, params, &rng));
  EXPECT_EQ(release.sensitivity, 8);  // ceil(log2 128) + 1
  EXPECT_DOUBLE_EQ(release.noise_scale, 8.0 / 2.0);
}

TEST(TreeSingleSourceTest, RejectsNonTreeAndBadWeights) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph cycle, MakeCycleGraph(5));
  PrivacyParams params;
  EdgeWeights w(5, 1.0);
  EXPECT_FALSE(
      ReleaseTreeSingleSourceDistances(cycle, w, 0, params, &rng).ok());
  ASSERT_OK_AND_ASSIGN(Graph path, MakePathGraph(3));
  EXPECT_FALSE(ReleaseTreeSingleSourceDistances(path, {-1.0, 1.0}, 0, params,
                                                &rng)
                   .ok());
}

TEST(TreeSingleSourceTest, SingleVertexTree) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, Graph::Create(1, {}));
  PrivacyParams params;
  ASSERT_OK_AND_ASSIGN(TreeSingleSourceRelease release,
                       ReleaseTreeSingleSourceDistances(g, {}, 0, params,
                                                        &rng));
  EXPECT_EQ(release.estimates.size(), 1u);
  EXPECT_DOUBLE_EQ(release.estimates[0], 0.0);
}

// Statistical check of the Theorem 4.1 error bound across tree families.
class TreeErrorBoundTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TreeErrorBoundTest, SingleSourceErrorWithinBound) {
  auto [family, n] = GetParam();
  Rng rng(kTestSeed + static_cast<uint64_t>(family * 1000 + n));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeFamilyTree(family, n, &rng));
  int actual_n = g.num_vertices();
  EdgeWeights w = MakeUniformWeights(g, 0.0, 20.0, &rng);
  PrivacyParams params{1.0, 0.0, 1.0};
  double gamma = 0.02;
  double bound = TreeSingleSourceErrorBound(actual_n, params, gamma);

  ASSERT_OK_AND_ASSIGN(RootedTree tree, RootedTree::FromGraph(g, 0));
  std::vector<double> exact = tree.RootDistances(w);

  // Per-vertex failure probability is gamma; across repeated draws count
  // the fraction of vertices out of bound and require it to stay below a
  // slack multiple of gamma.
  int violations = 0;
  int total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    ASSERT_OK_AND_ASSIGN(
        TreeSingleSourceRelease release,
        ReleaseTreeSingleSourceDistances(g, w, 0, params, &rng));
    for (VertexId v = 0; v < actual_n; ++v) {
      double err = std::fabs(release.estimates[static_cast<size_t>(v)] -
                             exact[static_cast<size_t>(v)]);
      if (err > bound) ++violations;
      ++total;
    }
  }
  EXPECT_LT(violations, std::max(5, static_cast<int>(3 * gamma * total)))
      << "family " << family << " n " << actual_n;
}

INSTANTIATE_TEST_SUITE_P(
    Families, TreeErrorBoundTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(16, 64, 200)));

TEST(TreeAllPairsTest, HighEpsilonMatchesExactAllPairs) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1e7, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(40, ctx.rng()));
  EdgeWeights w = MakeUniformWeights(g, 1.0, 4.0, ctx.rng());
  ASSERT_OK_AND_ASSIGN(auto oracle, TreeAllPairsOracle::Build(g, w, ctx));
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  ASSERT_OK_AND_ASSIGN(OracleErrorReport report,
                       EvaluateOracleAllPairs(g, exact, *oracle));
  EXPECT_LT(report.max_abs_error, 1e-2);
  EXPECT_EQ(oracle->Name(), "tree-recursive");
}

TEST(TreeAllPairsTest, ErrorWithinTheorem42Bound) {
  PrivacyParams params{0.5, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(params, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(128, ctx.rng()));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 50.0, ctx.rng());
  double gamma = 0.05;
  // Union bound over all pairs: use gamma / #pairs per released distance.
  double per_pair_gamma = gamma / (128.0 * 127.0 / 2.0);
  double bound = TreeAllPairsErrorBound(128, params, per_pair_gamma);
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  int violations = 0;
  for (int trial = 0; trial < 5; ++trial) {
    ASSERT_OK_AND_ASSIGN(auto oracle, TreeAllPairsOracle::Build(g, w, ctx));
    ASSERT_OK_AND_ASSIGN(OracleErrorReport report,
                         EvaluateOracleAllPairs(g, exact, *oracle));
    if (report.max_abs_error > bound) ++violations;
  }
  EXPECT_LE(violations, 1);
}

TEST(TreeAllPairsTest, SymmetricAndZeroOnDiagonal) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeBalancedTree(31, 2));
  EdgeWeights w = MakeUniformWeights(g, 1.0, 2.0, ctx.rng());
  ASSERT_OK_AND_ASSIGN(auto oracle, TreeAllPairsOracle::Build(g, w, ctx));
  for (VertexId u = 0; u < 31; u += 5) {
    ASSERT_OK_AND_ASSIGN(double uu, oracle->Distance(u, u));
    EXPECT_DOUBLE_EQ(uu, 0.0);
    for (VertexId v = 0; v < 31; v += 3) {
      ASSERT_OK_AND_ASSIGN(double uv, oracle->Distance(u, v));
      ASSERT_OK_AND_ASSIGN(double vu, oracle->Distance(v, u));
      EXPECT_DOUBLE_EQ(uv, vu);
    }
  }
}

TEST(TreeAllPairsTest, ScalingKnobShrinksError) {
  // With rho = 0.01 the noise scale is 100x smaller than rho = 1.
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(64));
  EdgeWeights w(63, 1.0);
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));

  ASSERT_OK_AND_ASSIGN(
      ReleaseContext coarse,
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext fine,
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 0.01}, kTestSeed + 1));
  OnlineStats coarse_err, fine_err;
  for (int trial = 0; trial < 10; ++trial) {
    ASSERT_OK_AND_ASSIGN(auto oc, TreeAllPairsOracle::Build(g, w, coarse));
    ASSERT_OK_AND_ASSIGN(auto of, TreeAllPairsOracle::Build(g, w, fine));
    ASSERT_OK_AND_ASSIGN(OracleErrorReport rc,
                         EvaluateOracleAllPairs(g, exact, *oc));
    ASSERT_OK_AND_ASSIGN(OracleErrorReport rf,
                         EvaluateOracleAllPairs(g, exact, *of));
    coarse_err.Add(rc.mean_abs_error);
    fine_err.Add(rf.mean_abs_error);
  }
  EXPECT_LT(fine_err.mean() * 20.0, coarse_err.mean());
}

TEST(TreeErrorBoundsTest, GrowPolylogarithmically) {
  PrivacyParams params{1.0, 0.0, 1.0};
  double b64 = TreeSingleSourceErrorBound(64, params, 0.05);
  double b4096 = TreeSingleSourceErrorBound(4096, params, 0.05);
  // log^1.5 growth: 64 -> 4096 doubles log V, so the bound grows by about
  // 2^1.5 ~ 2.83 — far below linear growth (64x).
  EXPECT_LT(b4096 / b64, 4.0);
  EXPECT_GT(b4096, b64);
}

}  // namespace
}  // namespace dpsp
