#include "core/bounded_weight.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "test_util.h"

namespace dpsp {
namespace {

TEST(AutoCoveringRadiusTest, FormulaRegimes) {
  PrivacyParams pure{1.0, 0.0, 1.0};
  PrivacyParams approx{1.0, 1e-6, 1.0};
  // V = 1000, M = 1: pure k = floor(1000^{2/3}) = 99 (≈100, cube root 1).
  EXPECT_EQ(AutoCoveringRadius(1000, 1.0, pure), 99);
  // approx k = floor(sqrt(1000)) = 31.
  EXPECT_EQ(AutoCoveringRadius(1000, 1.0, approx), 31);
  // Larger M shrinks k.
  EXPECT_LT(AutoCoveringRadius(1000, 100.0, approx),
            AutoCoveringRadius(1000, 1.0, approx));
  // Clamped to [0, V-1].
  EXPECT_LE(AutoCoveringRadius(4, 1e-9, pure), 3);
  EXPECT_GE(AutoCoveringRadius(4, 1e9, approx), 0);
  // A tiny M * eps puts the formula far beyond int range: clamped, not
  // converted out of range.
  EXPECT_EQ(AutoCoveringRadius(1000, 1e-300, pure), 999);
  EXPECT_EQ(AutoCoveringRadius(1000, 1e-300, approx), 999);
}

TEST(BoundedWeightOracleTest, RejectsWeightsAboveM) {
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeCycleGraph(6));
  BoundedWeightOptions options;
  options.max_weight = 1.0;
  EdgeWeights w(6, 2.0);
  EXPECT_FALSE(BoundedWeightOracle::Build(g, w, ctx, options).ok());
}

TEST(BoundedWeightOracleTest, QueryIsCenterDistance) {
  // With huge epsilon, Distance(u,v) should be ~ d(z(u), z(v)).
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1e8, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(20));
  EdgeWeights w(19, 1.0);
  BoundedWeightOptions options;
  options.max_weight = 1.0;
  options.k = 2;
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       BoundedWeightOracle::Build(g, w, ctx, options));
  const Covering& covering = oracle->covering();
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  for (VertexId u = 0; u < 20; u += 3) {
    for (VertexId v = 0; v < 20; v += 4) {
      ASSERT_OK_AND_ASSIGN(double est, oracle->Distance(u, v));
      double center_dist =
          exact.at(covering.CenterOf(u), covering.CenterOf(v));
      EXPECT_NEAR(est, center_dist, 1e-2);
      // Bias bound |d(u,v) - d(z(u), z(v))| <= 2kM.
      EXPECT_LE(std::fabs(exact.at(u, v) - center_dist),
                2.0 * covering.k * options.max_weight + 1e-9);
    }
  }
}

TEST(BoundedWeightOracleTest, SameCenterReturnsZero) {
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeCompleteGraph(8));
  EdgeWeights w(28, 0.5);
  BoundedWeightOptions options;
  options.max_weight = 1.0;
  options.k = 1;
  options.strategy = BoundedWeightOptions::CoveringStrategy::kGreedy;
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       BoundedWeightOracle::Build(g, w, ctx, options));
  // Greedy covering of K_8 with k=1 is a single center.
  EXPECT_EQ(oracle->covering().size(), 1);
  ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(2, 6));
  EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(BoundedWeightOracleTest, ApproxNoiseScaleBeatsPure) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext pure,
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext approx,
      ReleaseContext::Create(PrivacyParams{1.0, 1e-6, 1.0}, kTestSeed + 1));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeGridGraph(10, 10));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, pure.rng());
  BoundedWeightOptions options;
  options.max_weight = 1.0;
  options.k = 3;
  ASSERT_OK_AND_ASSIGN(auto oracle_pure,
                       BoundedWeightOracle::Build(g, w, pure, options));
  ASSERT_OK_AND_ASSIGN(auto oracle_approx,
                       BoundedWeightOracle::Build(g, w, approx, options));
  EXPECT_GT(oracle_pure->noise_scale(),
            oracle_approx->noise_scale());
  EXPECT_EQ(oracle_pure->Name(), "bounded-weight(pure)");
  EXPECT_EQ(oracle_approx->Name(), "bounded-weight(approx)");
}

TEST(BoundedWeightOracleTest, ErrorWithinErrorBound) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1.0, 1e-6, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeGridGraph(8, 8));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, ctx.rng());
  BoundedWeightOptions options;
  options.max_weight = 1.0;
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  double gamma = 0.05;
  int violations = 0;
  for (int trial = 0; trial < 5; ++trial) {
    ASSERT_OK_AND_ASSIGN(auto oracle,
                         BoundedWeightOracle::Build(g, w, ctx, options));
    ASSERT_OK_AND_ASSIGN(OracleErrorReport report,
                         EvaluateOracleAllPairs(g, exact, *oracle));
    if (report.max_abs_error > oracle->ErrorBound(gamma / 64.0)) ++violations;
  }
  EXPECT_LE(violations, 1);
}

TEST(BoundedWeightOracleTest, GridCoveringTheorem47) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1.0, 1e-6, 1.0}, kTestSeed));
  int side = 16;
  ASSERT_OK_AND_ASSIGN(Graph g, MakeGridGraph(side, side));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, ctx.rng());
  // stride ~ V^{1/3} with V = 256: about 6.3; use 6.
  ASSERT_OK_AND_ASSIGN(Covering covering, GridCovering(g, side, side, 6));
  BoundedWeightOptions options;
  options.max_weight = 1.0;
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       BoundedWeightOracle::BuildWithCovering(
                           g, w, covering, ctx, options));
  EXPECT_EQ(oracle->covering().size(), 9);  // ceil(16/6)^2
  ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(0, side * side - 1));
  // Sanity: the corner-to-corner distance estimate is in a plausible range.
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  EXPECT_LT(std::fabs(d - exact.at(0, side * side - 1)),
            oracle->ErrorBound(0.001));
}

TEST(BoundedWeightOracleTest, AutoKProducesWorkingOracle) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1.0, 1e-6, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeConnectedErdosRenyi(60, 0.05, ctx.rng()));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 2.0, ctx.rng());
  BoundedWeightOptions options;
  options.max_weight = 2.0;
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       BoundedWeightOracle::Build(g, w, ctx, options));
  ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(0, 59));
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_GE(oracle->covering().k, 1);
}

TEST(BoundedWeightOracleTest, GaussianNoiseOptionWorks) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{0.5, 1e-6, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeGridGraph(8, 8));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, ctx.rng());
  BoundedWeightOptions options;
  options.max_weight = 1.0;
  options.k = 2;
  options.noise = BoundedWeightOptions::NoiseKind::kGaussian;
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       BoundedWeightOracle::Build(g, w, ctx, options));
  EXPECT_EQ(oracle->Name(), "bounded-weight-gaussian");
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  ASSERT_OK_AND_ASSIGN(OracleErrorReport report,
                       EvaluateOracleAllPairs(g, exact, *oracle));
  EXPECT_LT(report.max_abs_error, oracle->ErrorBound(0.001));
}

TEST(BoundedWeightOracleTest, GaussianRequiresApproxDp) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{0.5, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeCycleGraph(6));
  BoundedWeightOptions options;
  options.max_weight = 1.0;
  options.k = 1;
  options.noise = BoundedWeightOptions::NoiseKind::kGaussian;
  EXPECT_FALSE(
      BoundedWeightOracle::Build(g, EdgeWeights(6, 0.5), ctx, options).ok());
}

TEST(BoundedWeightOracleTest, BadInputsAreRefusedBeforeTheLedgerMoves) {
  // Inside the metered build each would reach AutoCoveringRadius's check,
  // which aborts the process. Each must be a typed error that draws no
  // noise, logs no intent and charges nothing.
  ASSERT_OK_AND_ASSIGN(Graph path, MakePathGraph(8));
  ASSERT_OK_AND_ASSIGN(Graph empty, Graph::Create(0, {}));
  BoundedWeightOptions zero_bound;
  zero_bound.max_weight = 0.0;
  BoundedWeightOptions nan_bound;
  nan_bound.max_weight = std::nan("");
  const struct {
    const char* name;
    const Graph& graph;
    BoundedWeightOptions options;
  } cases[] = {{"max_weight = 0", path, zero_bound},
               {"max_weight = NaN", path, nan_bound},
               {"0 vertices, default options", empty, {}}};
  Rng fresh(kTestSeed);
  const double first_draw = fresh.Laplace(1.0);
  for (const auto& c : cases) {
    ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                         ReleaseContext::Create(PrivacyParams{}, kTestSeed));
    CountingHook hook;
    ctx.SetDurabilityHook(&hook);
    Result<std::unique_ptr<BoundedWeightOracle>> refused =
        BoundedWeightOracle::Build(
            c.graph, EdgeWeights(static_cast<size_t>(c.graph.num_edges()), 0.0),
            ctx, c.options);
    ASSERT_FALSE(refused.ok()) << c.name;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_EQ(hook.intents, 0u) << c.name;
    EXPECT_EQ(ctx.accountant().num_releases(), 0) << c.name;
    EXPECT_EQ(ctx.rng()->Laplace(1.0), first_draw) << c.name;
  }
}

TEST(BoundedWeightOracleTest, DisconnectedGraphRejected) {
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, Graph::Create(4, {{0, 1}, {2, 3}}));
  BoundedWeightOptions options;
  options.max_weight = 1.0;
  EXPECT_FALSE(
      BoundedWeightOracle::Build(g, {1.0, 1.0}, ctx, options).ok());
}

}  // namespace
}  // namespace dpsp
