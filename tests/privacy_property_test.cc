// Empirical differential-privacy property tests.
//
// Each test fixes a pair of *neighboring* weight functions (l1 distance
// exactly 1, the worst case), projects the mechanism's released object to a
// scalar, and checks the empirical privacy loss stays within the declared
// epsilon plus sampling slack. These cannot prove privacy but catch
// sensitivity and calibration mistakes (e.g. forgetting the log V factor in
// the tree mechanism) with high power — see the deliberately broken
// mechanism in dp_verifier_test.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/baselines.h"
#include "core/hld_oracle.h"
#include "core/private_mst.h"
#include "core/private_shortest_path.h"
#include "core/tree_distance.h"
#include "dp/dp_verifier.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dpsp {
namespace {

constexpr double kSamplingSlack = 0.35;

TEST(PrivacyPropertyTest, SinglePairDistanceQuery) {
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(4));
  EdgeWeights w{1.0, 1.0, 1.0};
  EdgeWeights w_prime{1.0, 2.0, 1.0};  // l1 distance 1
  double eps = 1.0;
  PrivacyParams params{eps, 0.0, 1.0};
  Rng rng(kTestSeed);
  DpVerifierOptions options;
  options.num_samples = 30000;
  options.range_lo = -6.0;
  options.range_hi = 12.0;
  ScalarMechanism on_w = [&](Rng* r) {
    return PrivateSinglePairDistance(g, w, 0, 3, params, r).value();
  };
  ScalarMechanism on_wp = [&](Rng* r) {
    return PrivateSinglePairDistance(g, w_prime, 0, 3, params, r).value();
  };
  ASSERT_OK_AND_ASSIGN(double eps_hat,
                       EstimatePrivacyLoss(on_w, on_wp, options, &rng));
  EXPECT_LE(eps_hat, eps + kSamplingSlack);
}

TEST(PrivacyPropertyTest, SyntheticGraphReleaseSingleEdgeProjection) {
  // Project the released graph to one edge's distance (post-processing).
  ASSERT_OK_AND_ASSIGN(Graph g, MakeCycleGraph(4));
  EdgeWeights w{1.0, 1.0, 1.0, 1.0};
  EdgeWeights w_prime{2.0, 1.0, 1.0, 1.0};
  double eps = 1.0;
  PrivacyParams params{eps, 0.0, 1.0};
  Rng rng(kTestSeed);
  // The verifier hands its Rng only to the projections, so drawing the
  // releases from a context seeded alike consumes the same stream.
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(params, kTestSeed));
  DpVerifierOptions options;
  options.num_samples = 30000;
  options.range_lo = -2.0;
  options.range_hi = 8.0;
  auto project = [&](const EdgeWeights& weights, Rng*) {
    auto oracle = MakeSyntheticGraphOracle(g, weights, ctx).value();
    return oracle->Distance(0, 1).value();
  };
  ScalarMechanism on_w = [&](Rng* r) { return project(w, r); };
  ScalarMechanism on_wp = [&](Rng* r) { return project(w_prime, r); };
  ASSERT_OK_AND_ASSIGN(double eps_hat,
                       EstimatePrivacyLoss(on_w, on_wp, options, &rng));
  EXPECT_LE(eps_hat, eps + kSamplingSlack);
}

TEST(PrivacyPropertyTest, TreeMechanismDeepVertexProjection) {
  // Path tree of 8 vertices; neighbor pair shifts one mid-path edge. The
  // deepest estimate accumulates the most released values, making it the
  // most privacy-exposed projection.
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(8));
  EdgeWeights w(7, 1.0);
  EdgeWeights w_prime = w;
  w_prime[3] += 1.0;
  double eps = 1.0;
  PrivacyParams params{eps, 0.0, 1.0};
  Rng rng(kTestSeed);
  DpVerifierOptions options;
  options.num_samples = 30000;
  options.range_lo = -30.0;
  options.range_hi = 45.0;
  auto project = [&](const EdgeWeights& weights, Rng* r) {
    return ReleaseTreeSingleSourceDistances(g, weights, 0, params, r)
        .value()
        .estimates[7];
  };
  ScalarMechanism on_w = [&](Rng* r) { return project(w, r); };
  ScalarMechanism on_wp = [&](Rng* r) { return project(w_prime, r); };
  ASSERT_OK_AND_ASSIGN(double eps_hat,
                       EstimatePrivacyLoss(on_w, on_wp, options, &rng));
  EXPECT_LE(eps_hat, eps + kSamplingSlack);
}

TEST(PrivacyPropertyTest, Algorithm3ReleasedWeightProjection) {
  ASSERT_OK_AND_ASSIGN(BitGadgetGraph gadget, MakeShortestPathGadget(2));
  std::vector<int> x{0, 1};
  EdgeWeights w = gadget.EncodeBits(x);
  EdgeWeights w_prime = w;
  w_prime[0] += 1.0;  // neighboring
  double eps = 1.0;
  PrivateShortestPathOptions options_sp;
  options_sp.params = PrivacyParams{eps, 0.0, 1.0};
  Rng rng(kTestSeed);
  DpVerifierOptions options;
  options.num_samples = 30000;
  options.range_lo = -5.0;
  options.range_hi = 15.0;
  auto project = [&](const EdgeWeights& weights, Rng* r) {
    auto release =
        PrivateShortestPaths::Release(gadget.graph, weights, options_sp, r)
            .value();
    return release.released_weights()[0];
  };
  ScalarMechanism on_w = [&](Rng* r) { return project(w, r); };
  ScalarMechanism on_wp = [&](Rng* r) { return project(w_prime, r); };
  ASSERT_OK_AND_ASSIGN(double eps_hat,
                       EstimatePrivacyLoss(on_w, on_wp, options, &rng));
  EXPECT_LE(eps_hat, eps + kSamplingSlack);
}

TEST(PrivacyPropertyTest, PrivateMstTreeWeightProjection) {
  // Project the released tree to its released (noisy) total weight.
  ASSERT_OK_AND_ASSIGN(Graph g, MakeCycleGraph(4));
  EdgeWeights w{1.0, 1.0, 1.0, 1.0};
  EdgeWeights w_prime{2.0, 1.0, 1.0, 1.0};
  double eps = 1.0;
  PrivacyParams params{eps, 0.0, 1.0};
  Rng rng(kTestSeed);
  DpVerifierOptions options;
  options.num_samples = 30000;
  options.range_lo = -8.0;
  options.range_hi = 14.0;
  auto project = [&](const EdgeWeights& weights, Rng* r) {
    PrivateMstResult result = PrivateMst(g, weights, params, r).value();
    return TotalWeight(result.noisy_weights, result.tree_edges);
  };
  ScalarMechanism on_w = [&](Rng* r) { return project(w, r); };
  ScalarMechanism on_wp = [&](Rng* r) { return project(w_prime, r); };
  ASSERT_OK_AND_ASSIGN(double eps_hat,
                       EstimatePrivacyLoss(on_w, on_wp, options, &rng));
  EXPECT_LE(eps_hat, eps + kSamplingSlack);
}

TEST(PrivacyPropertyTest, HldOracleDeepQueryProjection) {
  // Path of 8 rooted at 0 is a single heavy chain; project the released
  // object to the deepest distance query.
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(8));
  EdgeWeights w(7, 1.0);
  EdgeWeights w_prime = w;
  w_prime[3] += 1.0;
  double eps = 1.0;
  PrivacyParams params{eps, 0.0, 1.0};
  Rng rng(kTestSeed);
  // The verifier hands its Rng only to the projections, so drawing the
  // releases from a context seeded alike consumes the same stream.
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(params, kTestSeed));
  DpVerifierOptions options;
  options.num_samples = 30000;
  options.range_lo = -30.0;
  options.range_hi = 45.0;
  auto project = [&](const EdgeWeights& weights, Rng*) {
    auto oracle = HldTreeOracle::Build(g, weights, ctx).value();
    return oracle->Distance(0, 7).value();
  };
  ScalarMechanism on_w = [&](Rng* r) { return project(w, r); };
  ScalarMechanism on_wp = [&](Rng* r) { return project(w_prime, r); };
  ASSERT_OK_AND_ASSIGN(double eps_hat,
                       EstimatePrivacyLoss(on_w, on_wp, options, &rng));
  EXPECT_LE(eps_hat, eps + kSamplingSlack);
}

TEST(PrivacyPropertyTest, ScaledNeighborBoundStillPrivate) {
  // With rho = 2 the same mechanism must defend a 2-unit change.
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(3));
  EdgeWeights w{1.0, 1.0};
  EdgeWeights w_prime{3.0, 1.0};  // l1 distance 2 = rho
  double eps = 1.0;
  PrivacyParams params{eps, 0.0, 2.0};
  Rng rng(kTestSeed);
  DpVerifierOptions options;
  options.num_samples = 30000;
  options.range_lo = -8.0;
  options.range_hi = 14.0;
  ScalarMechanism on_w = [&](Rng* r) {
    return PrivateSinglePairDistance(g, w, 0, 2, params, r).value();
  };
  ScalarMechanism on_wp = [&](Rng* r) {
    return PrivateSinglePairDistance(g, w_prime, 0, 2, params, r).value();
  };
  ASSERT_OK_AND_ASSIGN(double eps_hat,
                       EstimatePrivacyLoss(on_w, on_wp, options, &rng));
  EXPECT_LE(eps_hat, eps + kSamplingSlack);
}

}  // namespace
}  // namespace dpsp
