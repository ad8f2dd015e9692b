#include "core/private_mst.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/statistics.h"
#include "graph/generators.h"
#include "graph/spanning_tree.h"
#include "test_util.h"

namespace dpsp {
namespace {

TEST(PrivateMstTest, ReleasesASpanningTree) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeConnectedErdosRenyi(30, 0.2, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 5.0, &rng);
  PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(PrivateMstResult result,
                       PrivateMst(g, w, params, &rng));
  EXPECT_TRUE(IsSpanningTree(g, result.tree_edges));
  EXPECT_DOUBLE_EQ(result.noise_scale, 1.0);
}

TEST(PrivateMstTest, HighEpsilonRecoversOptimal) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeConnectedErdosRenyi(25, 0.3, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 10.0, &rng);
  PrivacyParams params{1e8, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(PrivateMstResult result,
                       PrivateMst(g, w, params, &rng));
  ASSERT_OK_AND_ASSIGN(std::vector<EdgeId> optimal, KruskalMst(g, w));
  EXPECT_NEAR(TotalWeight(w, result.tree_edges), TotalWeight(w, optimal),
              1e-5);
}

TEST(PrivateMstTest, TheoremB3BoundHolds) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeConnectedErdosRenyi(40, 0.15, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 3.0, &rng);
  PrivacyParams params{0.5, 0.0, 1.0};
  double gamma = 0.05;
  double bound =
      PrivateMstErrorBound(g.num_vertices(), g.num_edges(), params, gamma);
  ASSERT_OK_AND_ASSIGN(std::vector<EdgeId> optimal, KruskalMst(g, w));
  double opt_weight = TotalWeight(w, optimal);
  int violations = 0;
  for (int trial = 0; trial < 20; ++trial) {
    ASSERT_OK_AND_ASSIGN(PrivateMstResult result,
                         PrivateMst(g, w, params, &rng));
    double error = TotalWeight(w, result.tree_edges) - opt_weight;
    EXPECT_GE(error, -1e-9);  // never better than optimal
    if (error > bound) ++violations;
  }
  EXPECT_LE(violations, 2);
}

TEST(PrivateMstTest, NegativeWeightsSupported) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeCompleteGraph(10));
  EdgeWeights w = MakeUniformWeights(g, -5.0, 5.0, &rng);
  PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(PrivateMstResult result,
                       PrivateMst(g, w, params, &rng));
  EXPECT_TRUE(IsSpanningTree(g, result.tree_edges));
}

TEST(PrivateMstTest, DisconnectedFails) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, Graph::Create(4, {{0, 1}, {2, 3}}));
  PrivacyParams params;
  EXPECT_FALSE(PrivateMst(g, {1.0, 1.0}, params, &rng).ok());
}

TEST(MstDistanceOracleTest, BatchLookaheadBoundaries) {
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  Rng& rng = *ctx.rng();
  const int n = 200;
  ASSERT_OK_AND_ASSIGN(Graph g, MakeGridGraph(10, 20));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 5.0, &rng);
  ASSERT_OK_AND_ASSIGN(auto oracle, MstDistanceOracle::Build(g, w, ctx));
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

TEST(MstLowerBoundTest, TheoremB1Values) {
  // For small eps, delta: alpha -> 0.5 (V-1); at eps = 0, delta = 0 it is
  // exactly (V-1)/2.
  EXPECT_NEAR(MstLowerBound(101, 1e-6, 0.0), 100.0 / 2.0, 0.01);
  EXPECT_GT(MstLowerBound(101, 0.1, 0.0), 0.49 * 100.0 * 0.9);
  // Large delta kills the bound.
  EXPECT_DOUBLE_EQ(MstLowerBound(101, 1.0, 0.5), 0.0);
  // Decreasing in eps.
  EXPECT_GT(MstLowerBound(101, 0.5, 0.0), MstLowerBound(101, 2.0, 0.0));
}

TEST(PrivateMstErrorBoundTest, ScalesWithV) {
  PrivacyParams params{1.0, 0.0, 1.0};
  double b10 = PrivateMstErrorBound(10, 45, params, 0.05);
  double b100 = PrivateMstErrorBound(100, 4950, params, 0.05);
  EXPECT_GT(b100, 9.0 * b10);  // ~linear in V (log factor grows too)
}

TEST(PrivateMstCostTest, SensitivityOneAccuracy) {
  // The cost query has no Omega(V) barrier: its error is O(1/eps)
  // regardless of graph size.
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeConnectedErdosRenyi(200, 0.05, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 5.0, &rng);
  PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(std::vector<EdgeId> tree, KruskalMst(g, w));
  double truth = TotalWeight(w, tree);
  OnlineStats err;
  for (int trial = 0; trial < 200; ++trial) {
    ASSERT_OK_AND_ASSIGN(double cost, PrivateMstCost(g, w, params, &rng));
    err.Add(std::fabs(cost - truth));
  }
  // Mean |Lap(1)| = 1.
  EXPECT_NEAR(err.mean(), 1.0, 0.3);
}

TEST(PrivateMstTest, GadgetErrorBetweenLowerAndUpperBounds) {
  // On the Figure-3 gadget, mean error must respect Theorem B.1's alpha
  // (sanity of the implementation: it cannot beat the lower bound).
  Rng rng(kTestSeed);
  int n = 60;
  ASSERT_OK_AND_ASSIGN(BitGadgetGraph gadget, MakeMstGadget(n));
  PrivacyParams params{1.0, 0.0, 1.0};
  OnlineStats error;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<int> x(static_cast<size_t>(n));
    for (int& b : x) b = rng.Bernoulli(0.5) ? 1 : 0;
    EdgeWeights wx = gadget.EncodeBits(x);
    ASSERT_OK_AND_ASSIGN(PrivateMstResult result,
                         PrivateMst(gadget.graph, wx, params, &rng));
    error.Add(TotalWeight(wx, result.tree_edges));  // optimum is 0
  }
  double alpha = MstLowerBound(n + 1, params.epsilon, params.delta);
  double upper = PrivateMstErrorBound(n + 1, 2 * n, params, 0.01);
  EXPECT_GE(error.mean(), alpha * 0.6);  // statistical slack
  EXPECT_LE(error.mean(), upper);
}

}  // namespace
}  // namespace dpsp
