// End-to-end scenarios exercising the public API across modules, mirroring
// the examples/ programs: a navigation service over a synthetic road
// network, a telecom latency monitor on a bounded-weight backbone, and a
// full attack-vs-defense cycle on the lower-bound gadget.

#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/baselines.h"
#include "core/bounded_weight.h"
#include "core/private_shortest_path.h"
#include "core/reconstruction.h"
#include "core/tree_distance.h"
#include "dp/accountant.h"
#include "dp/composition.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "test_util.h"

namespace dpsp {
namespace {

TEST(IntegrationTest, NavigationOverRoadNetwork) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(RoadNetwork network,
                       MakeSyntheticRoadNetwork(10, 10, 0.25, &rng));
  EdgeWeights traffic = MakeCongestionWeights(network, 4, 3.0, &rng);

  PrivateShortestPathOptions options;
  options.params = PrivacyParams{1.0, 0.0, 1.0};
  options.gamma = 0.05;
  ASSERT_OK_AND_ASSIGN(
      PrivateShortestPaths release,
      PrivateShortestPaths::Release(network.graph, traffic, options, &rng));

  ASSERT_OK_AND_ASSIGN(ShortestPathTree exact,
                       Dijkstra(network.graph, traffic, 0));
  int n = network.graph.num_vertices();
  int within_bound = 0, total = 0;
  for (VertexId v = 1; v < n; v += 9) {
    ASSERT_OK_AND_ASSIGN(std::vector<EdgeId> path, release.Path(0, v));
    EXPECT_OK(ValidatePath(network.graph, path, 0, v));
    ASSERT_OK_AND_ASSIGN(std::vector<EdgeId> exact_path,
                         ExtractPathEdges(network.graph, exact, v));
    double err = TotalWeight(traffic, path) -
                 exact.distance[static_cast<size_t>(v)];
    if (err <=
        release.ErrorBoundForHops(static_cast<int>(exact_path.size()))) {
      ++within_bound;
    }
    ++total;
  }
  EXPECT_GE(within_bound, total - 1);
}

TEST(IntegrationTest, TelecomBackboneLatencyOracle) {
  // Bounded-latency backbone links, all-pairs latency release via covering.
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{2.0, 1e-6, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(GeometricGraph backbone,
                       MakeRandomGeometricGraph(120, 0.18, ctx.rng()));
  double max_latency = 5.0;
  EdgeWeights latency =
      MakeUniformWeights(backbone.graph, 0.5, max_latency, ctx.rng());

  BoundedWeightOptions options;
  options.max_weight = max_latency;
  ASSERT_OK_AND_ASSIGN(
      auto oracle,
      BoundedWeightOracle::Build(backbone.graph, latency, ctx, options));
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact,
                       AllPairsDijkstra(backbone.graph, latency));
  ASSERT_OK_AND_ASSIGN(OracleErrorReport report,
                       EvaluateOracleAllPairs(backbone.graph, exact,
                                              *oracle));
  EXPECT_LT(report.p95_abs_error, oracle->ErrorBound(0.05));
}

TEST(IntegrationTest, HierarchicalOrgChartSalaryDistances) {
  // A management tree where edge weights are private (e.g. compensation
  // deltas); all-pairs "distance" queries must stay accurate.
  PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(params, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph org, MakeBalancedTree(255, 4));
  EdgeWeights w = MakeUniformWeights(org, 0.0, 10.0, ctx.rng());
  ASSERT_OK_AND_ASSIGN(auto oracle, TreeAllPairsOracle::Build(org, w, ctx));
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(org, w));
  ASSERT_OK_AND_ASSIGN(OracleErrorReport report,
                       EvaluateOracleAllPairs(org, exact, *oracle));
  double bound = TreeAllPairsErrorBound(255, params, 0.05 / (255.0 * 127.0));
  EXPECT_LT(report.max_abs_error, bound);
}

TEST(IntegrationTest, BudgetSplitAcrossTwoReleases) {
  // Run two mechanisms on the same data under a split budget; basic
  // composition says the combination is (eps1 + eps2)-DP. Verify both
  // halves function and the budget arithmetic is exposed.
  double total_eps = 1.0;
  PrivacyParams half{total_eps / 2.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(half, kTestSeed));
  Rng& rng = *ctx.rng();
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(100, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 2.0, &rng);
  ASSERT_OK_AND_ASSIGN(auto oracle, TreeAllPairsOracle::Build(g, w, ctx));
  PrivateShortestPathOptions options;
  options.params = half;
  ASSERT_OK_AND_ASSIGN(PrivateShortestPaths paths,
                       PrivateShortestPaths::Release(g, w, options, &rng));
  EXPECT_DOUBLE_EQ(BasicCompositionEpsilon(2, total_eps / 2.0), total_eps);
  ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(0, 99));
  EXPECT_TRUE(std::isfinite(d));
  ASSERT_OK_AND_ASSIGN(std::vector<EdgeId> path, paths.Path(0, 99));
  EXPECT_OK(ValidatePath(g, path, 0, 99));
}

TEST(IntegrationTest, AttackDefenseCycle) {
  // The reconstruction attack succeeds against weak privacy and fails
  // against strong privacy — the lower bound story end to end.
  Rng rng(kTestSeed);
  int n = 80;
  PrivacyParams weak{8.0, 0.0, 1.0};
  PrivacyParams strong{0.1, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(
      AttackReport weak_report,
      RunReconstructionExperiment(AttackKind::kShortestPath, n, weak, 10,
                                  &rng));
  ASSERT_OK_AND_ASSIGN(
      AttackReport strong_report,
      RunReconstructionExperiment(AttackKind::kShortestPath, n, strong, 10,
                                  &rng));
  // Weak privacy: attacker recovers almost everything (small Hamming).
  EXPECT_LT(weak_report.mean_hamming, 0.1 * n);
  // Strong privacy: attacker is near random guessing (Hamming ~ n/2 *
  // (1 - small margin)); and always above the alpha bound.
  EXPECT_GT(strong_report.mean_hamming, 0.3 * n);
  EXPECT_GE(strong_report.mean_object_error, strong_report.alpha * 0.7);
}

TEST(IntegrationTest, PersistedTopologyAndReleasedWeightsRoundTrip) {
  // A deployment persists the public topology and the *released* (already
  // private) weights; a separate process reloads both and answers path
  // queries identically.
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(RoadNetwork network,
                       MakeSyntheticRoadNetwork(6, 6, 0.2, &rng));
  EdgeWeights traffic = MakeCongestionWeights(network, 2, 2.0, &rng);
  PrivateShortestPathOptions options;
  options.params = PrivacyParams{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(
      PrivateShortestPaths release,
      PrivateShortestPaths::Release(network.graph, traffic, options, &rng));

  std::string topo_text = SerializeGraph(network.graph);
  std::string weights_text = SerializeWeights(release.released_weights());

  ASSERT_OK_AND_ASSIGN(Graph reloaded_graph, DeserializeGraph(topo_text));
  ASSERT_OK_AND_ASSIGN(EdgeWeights reloaded_weights,
                       DeserializeWeights(weights_text));
  ASSERT_OK_AND_ASSIGN(ShortestPathTree reloaded_tree,
                       Dijkstra(reloaded_graph, reloaded_weights, 0));
  ASSERT_OK_AND_ASSIGN(ShortestPathTree original_tree, release.PathTree(0));
  for (VertexId v = 0; v < reloaded_graph.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(reloaded_tree.distance[static_cast<size_t>(v)],
                     original_tree.distance[static_cast<size_t>(v)]);
  }

  // And the released route renders for humans.
  ASSERT_OK_AND_ASSIGN(std::vector<EdgeId> route, release.Path(0, 35));
  DotOptions dot_options;
  dot_options.highlight = route;
  ASSERT_OK_AND_ASSIGN(std::string dot,
                       ToDot(network.graph, release.released_weights(),
                             dot_options));
  EXPECT_NE(dot.find("color=red"), std::string::npos);
}

TEST(IntegrationTest, ReleasedPathsOutliveTheGraphTheyRouteOver) {
  // The release holds the topology it routes over, so the graph it was
  // released from may go out of scope first.
  ASSERT_OK_AND_ASSIGN(Graph kept, MakeGridGraph(6, 6));
  Rng weight_rng(kTestSeed);
  EdgeWeights w = MakeUniformWeights(kept, 1.0, 5.0, &weight_rng);
  PrivateShortestPathOptions options;
  Rng kept_rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(
      PrivateShortestPaths reference,
      PrivateShortestPaths::Release(kept, w, options, &kept_rng));
  std::optional<PrivateShortestPaths> release;
  {
    ASSERT_OK_AND_ASSIGN(Graph scoped, MakeGridGraph(6, 6));
    Rng rng(kTestSeed);
    ASSERT_OK_AND_ASSIGN(PrivateShortestPaths released,
                         PrivateShortestPaths::Release(scoped, w, options,
                                                       &rng));
    release.emplace(std::move(released));
  }
  ASSERT_OK_AND_ASSIGN(ShortestPathTree tree, release->PathTree(0));
  ASSERT_OK_AND_ASSIGN(ShortestPathTree want, reference.PathTree(0));
  EXPECT_EQ(tree.distance, want.distance);
  EXPECT_EQ(tree.parent_edge, want.parent_edge);
  EXPECT_EQ(tree.parent_vertex, want.parent_vertex);
  for (VertexId v = 0; v < kept.num_vertices(); ++v) {
    ASSERT_OK_AND_ASSIGN(std::vector<EdgeId> path, release->Path(0, v));
    ASSERT_OK_AND_ASSIGN(std::vector<EdgeId> want_path, reference.Path(0, v));
    EXPECT_EQ(path, want_path) << "path to " << v;
  }
}

TEST(IntegrationTest, AccountantTracksWholePipeline) {
  PrivacyParams slice{0.25, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(slice, kTestSeed));
  Rng& rng = *ctx.rng();
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(64, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 2.0, &rng);
  BasicAccountant accountant;
  ASSERT_OK_AND_ASSIGN(auto oracle, TreeAllPairsOracle::Build(g, w, ctx));
  ASSERT_OK(accountant.Record("tree oracle", slice));
  PrivateShortestPathOptions options;
  options.params = slice;
  ASSERT_OK_AND_ASSIGN(PrivateShortestPaths paths,
                       PrivateShortestPaths::Release(g, w, options, &rng));
  ASSERT_OK(accountant.Record("path release", slice));
  EXPECT_DOUBLE_EQ(accountant.BasicTotal().epsilon, 0.5);
  EXPECT_TRUE(accountant.WithinBudget(PrivacyParams{1.0, 0.0, 1.0}, 1e-6));
}

TEST(IntegrationTest, MechanismsComposeOnSameGraphFamilyAcrossSeeds) {
  // Determinism: same seed → identical releases; different seeds → different.
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(32));
  EdgeWeights w(31, 1.0);
  PrivacyParams params{1.0, 0.0, 1.0};
  Rng rng_a(42), rng_b(42), rng_c(43);
  ASSERT_OK_AND_ASSIGN(
      TreeSingleSourceRelease a,
      ReleaseTreeSingleSourceDistances(g, w, 0, params, &rng_a));
  ASSERT_OK_AND_ASSIGN(
      TreeSingleSourceRelease b,
      ReleaseTreeSingleSourceDistances(g, w, 0, params, &rng_b));
  ASSERT_OK_AND_ASSIGN(
      TreeSingleSourceRelease c,
      ReleaseTreeSingleSourceDistances(g, w, 0, params, &rng_c));
  EXPECT_EQ(a.estimates, b.estimates);
  EXPECT_NE(a.estimates, c.estimates);
}

}  // namespace
}  // namespace dpsp
