#include "core/baselines.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/statistics.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "test_util.h"

namespace dpsp {
namespace {

TEST(SinglePairDistanceTest, CentersOnTruthWithUnitSensitivityNoise) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(5));
  EdgeWeights w{1.0, 2.0, 3.0, 4.0};
  PrivacyParams params{2.0, 0.0, 1.0};
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    ASSERT_OK_AND_ASSIGN(double d,
                         PrivateSinglePairDistance(g, w, 0, 4, params, &rng));
    stats.Add(d);
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  // Lap(1/2): variance 2 * (1/2)^2 = 0.5.
  EXPECT_NEAR(stats.variance(), 0.5, 0.05);
}

TEST(SinglePairDistanceTest, DisconnectedFails) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, Graph::Create(3, {{0, 1}}));
  PrivacyParams params;
  EXPECT_FALSE(PrivateSinglePairDistance(g, {1.0}, 0, 2, params, &rng).ok());
}

TEST(ExactOracleTest, MatchesDistances) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeGridGraph(3, 3));
  EdgeWeights w = MakeUniformWeights(g, 1.0, 2.0, &rng);
  ASSERT_OK_AND_ASSIGN(auto oracle, MakeExactOracle(g, w));
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  for (VertexId u = 0; u < 9; ++u) {
    for (VertexId v = 0; v < 9; ++v) {
      ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(u, v));
      EXPECT_DOUBLE_EQ(d, exact.at(u, v));
    }
  }
  EXPECT_EQ(oracle->Name(), "exact");
}

TEST(PerPairLaplaceNoiseScaleTest, PureScalesWithPairCount) {
  PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(double scale, PerPairLaplaceNoiseScale(45, params));
  EXPECT_DOUBLE_EQ(scale, 45.0);
}

TEST(PerPairLaplaceNoiseScaleTest, ApproxBeatsPureForManyPairs) {
  PrivacyParams pure{1.0, 0.0, 1.0};
  PrivacyParams approx{1.0, 1e-6, 1.0};
  int pairs = 500 * 499 / 2;
  ASSERT_OK_AND_ASSIGN(double scale_pure,
                       PerPairLaplaceNoiseScale(pairs, pure));
  ASSERT_OK_AND_ASSIGN(double scale_approx,
                       PerPairLaplaceNoiseScale(pairs, approx));
  EXPECT_LT(scale_approx, scale_pure / 20.0);
}

TEST(PerPairLaplaceOracleTest, SymmetricAndRoughlyCentered) {
  ASSERT_OK_AND_ASSIGN(Graph g, MakeCycleGraph(8));
  EdgeWeights w(8, 1.0);
  PrivacyParams params{50.0, 0.0, 1.0};  // large eps => tiny noise
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(params, kTestSeed));
  ASSERT_OK_AND_ASSIGN(auto oracle, MakePerPairLaplaceOracle(g, w, ctx));
  ASSERT_OK_AND_ASSIGN(double d01, oracle->Distance(0, 1));
  ASSERT_OK_AND_ASSIGN(double d10, oracle->Distance(1, 0));
  EXPECT_DOUBLE_EQ(d01, d10);
  // Noise scale = 28/50 < 1; estimate within a loose window of truth 1.
  EXPECT_NEAR(d01, 1.0, 6.0);
  EXPECT_EQ(oracle->Name(), "per-pair-laplace(pure)");
}

TEST(PerPairLaplaceOracleTest, ApproxNameAndBudget) {
  ASSERT_OK_AND_ASSIGN(Graph g, MakeCycleGraph(6));
  EdgeWeights w(6, 1.0);
  PrivacyParams params{1.0, 1e-6, 1.0};
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(params, kTestSeed));
  ASSERT_OK_AND_ASSIGN(auto oracle, MakePerPairLaplaceOracle(g, w, ctx));
  EXPECT_EQ(oracle->Name(), "per-pair-laplace(approx)");
}

TEST(SyntheticGraphOracleTest, HighEpsilonNearExact) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1000.0, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeGridGraph(4, 4));
  EdgeWeights w = MakeUniformWeights(g, 1.0, 3.0, ctx.rng());
  ASSERT_OK_AND_ASSIGN(auto oracle, MakeSyntheticGraphOracle(g, w, ctx));
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  ASSERT_OK_AND_ASSIGN(OracleErrorReport report,
                       EvaluateOracleAllPairs(g, exact, *oracle));
  EXPECT_LT(report.max_abs_error, 0.2);
}

TEST(SyntheticGraphOracleTest, TriangleInequalityHolds) {
  // Distances in a released graph are genuine graph distances, so they
  // satisfy the triangle inequality — unlike per-pair noise.
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{0.5, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeCompleteGraph(8));
  EdgeWeights w = MakeUniformWeights(g, 1.0, 5.0, ctx.rng());
  ASSERT_OK_AND_ASSIGN(auto oracle, MakeSyntheticGraphOracle(g, w, ctx));
  for (VertexId a = 0; a < 8; ++a) {
    for (VertexId b = 0; b < 8; ++b) {
      for (VertexId c = 0; c < 8; ++c) {
        ASSERT_OK_AND_ASSIGN(double ab, oracle->Distance(a, b));
        ASSERT_OK_AND_ASSIGN(double bc, oracle->Distance(b, c));
        ASSERT_OK_AND_ASSIGN(double ac, oracle->Distance(a, c));
        EXPECT_LE(ac, ab + bc + 1e-9);
      }
    }
  }
}

TEST(SingleSourceBaselineTest, HighEpsilonNearExact) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeGridGraph(5, 5));
  EdgeWeights w = MakeUniformWeights(g, 1.0, 2.0, &rng);
  PrivacyParams params{1e6, 1e-6, 1.0};
  ASSERT_OK_AND_ASSIGN(std::vector<double> noisy,
                       PrivateSingleSourceDistances(g, w, 0, params, &rng));
  ASSERT_OK_AND_ASSIGN(ShortestPathTree exact, Dijkstra(g, w, 0));
  EXPECT_DOUBLE_EQ(noisy[0], 0.0);
  for (VertexId v = 1; v < 25; ++v) {
    EXPECT_NEAR(noisy[static_cast<size_t>(v)],
                exact.distance[static_cast<size_t>(v)], 0.01);
  }
}

TEST(SingleSourceBaselineTest, ApproxBudgetUsesSqrtVNoise) {
  // With delta > 0 the per-query noise should scale ~sqrt(V), not V:
  // compare observed error magnitudes on a star (all distances equal).
  Rng rng(kTestSeed);
  int n = 401;
  ASSERT_OK_AND_ASSIGN(Graph g, MakeStarGraph(n));
  EdgeWeights w(static_cast<size_t>(n - 1), 1.0);
  PrivacyParams pure{1.0, 0.0, 1.0};
  PrivacyParams approx{1.0, 1e-6, 1.0};
  OnlineStats pure_err, approx_err;
  for (int trial = 0; trial < 5; ++trial) {
    ASSERT_OK_AND_ASSIGN(std::vector<double> p,
                         PrivateSingleSourceDistances(g, w, 0, pure, &rng));
    ASSERT_OK_AND_ASSIGN(std::vector<double> a,
                         PrivateSingleSourceDistances(g, w, 0, approx, &rng));
    for (VertexId v = 1; v < n; ++v) {
      pure_err.Add(std::fabs(p[static_cast<size_t>(v)] - 1.0));
      approx_err.Add(std::fabs(a[static_cast<size_t>(v)] - 1.0));
    }
  }
  // Pure noise scale = 400; approx ~ sqrt(2*400*ln 1e6) ~ 105: demand 2x.
  EXPECT_LT(approx_err.mean() * 2.0, pure_err.mean());
}

TEST(SingleSourceBaselineTest, DisconnectedStaysInfinite) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, Graph::Create(3, {{0, 1}}));
  PrivacyParams params;
  ASSERT_OK_AND_ASSIGN(std::vector<double> noisy,
                       PrivateSingleSourceDistances(g, {1.0}, 0, params,
                                                    &rng));
  EXPECT_EQ(noisy[2], kInfiniteDistance);
}

TEST(Drv10FormulaTest, GrowsWithNorm) {
  double small = Drv10ErrorFormula(100.0, 128, 1.0, 1e-6);
  double large = Drv10ErrorFormula(10000.0, 128, 1.0, 1e-6);
  EXPECT_NEAR(large / small, 10.0, 1e-9);
}

}  // namespace
}  // namespace dpsp
