// Dirty-subtree incremental release correctness: after update epochs the
// oracle's answers stay distributionally sound, the ledger equals the sum
// of the per-epoch dirty-fraction charges, clean regions keep their noise
// bit-for-bit, the update path is deterministic under fixed seeds, and
// sharded execution stays bit-identical to serial across epochs. Also the
// range-sums point-update primitive and the executor's update routing.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/hld_oracle.h"
#include "core/oracle_registry.h"
#include "core/range_sums.h"
#include "graph/generators.h"
#include "graph/tree.h"
#include "serve/batch_executor.h"
#include "test_util.h"

namespace dpsp {
namespace {

constexpr PrivacyParams kParams{1.0, 0.0, 1.0};

std::vector<VertexPair> SampleTreePairs(int n, int count, Rng* rng) {
  std::vector<VertexPair> pairs;
  pairs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<VertexId>(rng->UniformInt(0, n - 1)),
                       static_cast<VertexId>(rng->UniformInt(0, n - 1)));
  }
  return pairs;
}

std::vector<EdgeWeightDelta> RandomDeltas(int num_edges, int count,
                                          Rng* rng) {
  std::vector<EdgeWeightDelta> deltas;
  deltas.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    deltas.push_back(
        {static_cast<EdgeId>(rng->UniformInt(0, num_edges - 1)),
         rng->Uniform(0.1, 2.0)});
  }
  return deltas;
}

/// Exact tree distance between u and v from precomputed root distances.
double ExactTreeDistance(const std::vector<double>& root_dist, VertexId u,
                         VertexId v, const EulerTourLca& lca) {
  VertexId z = lca.Lca(u, v);
  return root_dist[static_cast<size_t>(u)] +
         root_dist[static_cast<size_t>(v)] -
         2.0 * root_dist[static_cast<size_t>(z)];
}

// ------------------------------------------------------- range sums unit --

TEST(RangeSumsUpdateTest, RedrawCountMatchesPlanAndCleanBlocksKeepBits) {
  Rng rng(kTestSeed);
  std::vector<double> values(37);
  for (double& v : values) v = rng.Uniform(0.0, 1.0);
  NoisyDyadicRangeSums sums(values, /*noise_scale=*/0.5, &rng);

  // Snapshot clean-region range sums far from the dirty indices.
  double clean_before = sums.RangeSumUnchecked(20, 37);

  std::vector<int> dirty = {3, 3, 5};  // duplicate index: counted once
  int planned = sums.DirtyBlockCount(dirty);
  std::vector<std::pair<int, double>> updates = {{3, 9.0}, {3, 2.5}, {5, 7.0}};
  int redrawn = sums.ApplyPointUpdates(updates, &rng);
  EXPECT_EQ(planned, redrawn);
  // Indices 3 and 5 share blocks from the level where 2^l spans both:
  // strictly fewer than 2 * num_levels blocks redraw.
  EXPECT_LT(redrawn, 2 * sums.num_levels());
  EXPECT_GE(redrawn, sums.num_levels());

  // Blocks not containing a dirty index are bit-identical.
  EXPECT_EQ(clean_before, sums.RangeSumUnchecked(20, 37));
}

TEST(RangeSumsUpdateTest, UpdatedPrefixTracksNewValues) {
  Rng rng(kTestSeed);
  std::vector<double> values(64, 1.0);
  NoisyDyadicRangeSums sums(values, /*noise_scale=*/1e-6, &rng);
  std::vector<std::pair<int, double>> updates = {{10, 100.0}};
  sums.ApplyPointUpdates(updates, &rng);
  // With negligible noise the prefix over the dirty index reflects the
  // new value and the prefix below it is untouched.
  EXPECT_NEAR(sums.PrefixSumUnchecked(11), 10.0 + 100.0, 1e-3);
  EXPECT_NEAR(sums.PrefixSumUnchecked(10), 10.0, 1e-3);
}

// ------------------------------------------------------ ledger equality --

TEST(IncrementalUpdateTest, LedgerEqualsSumOfPerEpochCharges) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph tree, MakeRandomTree(257, &rng));
  EdgeWeights w = MakeUniformWeights(tree, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(kParams, kTestSeed));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HldTreeOracle> oracle,
                       HldTreeOracle::Build(tree, w, ctx));

  double expected_total = kParams.epsilon;  // the build
  for (int epoch = 0; epoch < 8; ++epoch) {
    std::vector<EdgeWeightDelta> deltas =
        RandomDeltas(tree.num_edges(), 1 + epoch, &rng);
    ASSERT_OK(oracle->ApplyWeightUpdates(deltas, ctx));
    const auto& stats = oracle->last_update();
    // The per-epoch charge is the dirty fraction in the release's own
    // sensitivity currency, never more than a full release.
    EXPECT_GT(stats.sensitivity, 0);
    EXPECT_LE(stats.sensitivity, oracle->sensitivity());
    EXPECT_DOUBLE_EQ(stats.charged_epsilon,
                     kParams.epsilon * stats.sensitivity /
                         oracle->sensitivity());
    expected_total += stats.charged_epsilon;
    // Ledger == build + sum of per-epoch charges, exactly.
    EXPECT_DOUBLE_EQ(ctx.accountant().BasicTotal().epsilon, expected_total);
    // Telemetry mirrors the epoch: per-block draw count recorded.
    ASSERT_NE(ctx.last_telemetry(), nullptr);
    EXPECT_EQ(ctx.last_telemetry()->noise_draws, stats.dirty_blocks);
    EXPECT_DOUBLE_EQ(ctx.last_telemetry()->epsilon, stats.charged_epsilon);
  }
}

TEST(IncrementalUpdateTest, LeafDriftChargesOneLevelOfTheSensitivity) {
  // Caterpillar: legs are light edges, so a legs-only epoch has
  // sensitivity 1 and charges exactly eps / L. (The last spine vertex's
  // legs are excluded: its heaviest child is a leg that extends the
  // deepest chain.)
  const int spine = 64, legs = 3;
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph tree, MakeCaterpillarTree(spine, legs));
  EdgeWeights w = MakeUniformWeights(tree, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(kParams, kTestSeed));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HldTreeOracle> oracle,
                       HldTreeOracle::Build(tree, w, ctx));

  std::vector<EdgeWeightDelta> leg_drift = {
      {static_cast<EdgeId>(spine - 1 + 5), 1.5},
      {static_cast<EdgeId>(spine - 1 + 40), 0.7}};
  ASSERT_OK(oracle->ApplyWeightUpdates(leg_drift, ctx));
  EXPECT_EQ(oracle->last_update().sensitivity, 1);
  EXPECT_EQ(oracle->last_update().dirty_blocks, 2);  // two light scalars
  EXPECT_DOUBLE_EQ(oracle->last_update().charged_epsilon,
                   kParams.epsilon / oracle->sensitivity());

  // A spine edge sits in every level of the deepest chain: full charge.
  std::vector<EdgeWeightDelta> spine_drift = {{0, 0.4}};
  ASSERT_OK(oracle->ApplyWeightUpdates(spine_drift, ctx));
  EXPECT_EQ(oracle->last_update().sensitivity, oracle->sensitivity());
  EXPECT_DOUBLE_EQ(oracle->last_update().charged_epsilon, kParams.epsilon);
}

// -------------------------------------------------- answer correctness --

TEST(IncrementalUpdateTest, AnswersStayWithinErrorBoundAfterRandomEpochs) {
  const int n = 129;
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph graph, MakeRandomTree(n, &rng));
  EdgeWeights w = MakeUniformWeights(graph, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(kParams, kTestSeed));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HldTreeOracle> oracle,
                       HldTreeOracle::Build(graph, w, ctx));
  ASSERT_OK_AND_ASSIGN(RootedTree tree, RootedTree::FromGraph(graph, 0));
  EulerTourLca lca(tree);

  const double bound = HldTreeOracle::ErrorBound(n, kParams, /*gamma=*/1e-9);
  std::vector<VertexPair> pairs = SampleTreePairs(n, 400, &rng);
  for (int epoch = 0; epoch < 6; ++epoch) {
    std::vector<EdgeWeightDelta> deltas =
        RandomDeltas(graph.num_edges(), 5, &rng);
    for (const EdgeWeightDelta& d : deltas) {
      w[static_cast<size_t>(d.edge)] = d.new_weight;
    }
    ASSERT_OK(oracle->ApplyWeightUpdates(deltas, ctx));

    std::vector<double> root_dist = tree.RootDistances(w);
    ASSERT_OK_AND_ASSIGN(std::vector<double> estimates,
                         oracle->DistanceBatch(pairs));
    for (size_t i = 0; i < pairs.size(); ++i) {
      double exact = ExactTreeDistance(root_dist, pairs[i].first,
                                       pairs[i].second, lca);
      EXPECT_LE(std::abs(estimates[i] - exact), bound)
          << "epoch " << epoch << " pair " << i;
    }
  }
}

TEST(IncrementalUpdateTest, CleanRegionsKeepTheirNoiseBitForBit) {
  // Drift one access link near the spine's start; queries that never
  // cross it — pairs among far-away legs and spine vertices — must be
  // bit-identical before and after the epoch (their blocks and ascent
  // caches were never touched).
  const int spine = 64, legs = 2;
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph tree, MakeCaterpillarTree(spine, legs));
  EdgeWeights w = MakeUniformWeights(tree, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(kParams, kTestSeed));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HldTreeOracle> oracle,
                       HldTreeOracle::Build(tree, w, ctx));

  // Vertices far from the dirty leg: spine tail and its legs.
  std::vector<VertexPair> clean_pairs = {
      {40, 60}, {50, 63}, {spine + 2 * 45, spine + 2 * 55 + 1}, {45, 55}};
  ASSERT_OK_AND_ASSIGN(std::vector<double> before,
                       oracle->DistanceBatch(clean_pairs));

  // The leg above spine vertex 3 drifts (edge spine-1+6 belongs to spine
  // vertex 3 at legs=2).
  std::vector<EdgeWeightDelta> drift = {
      {static_cast<EdgeId>(spine - 1 + 6), 2.0}};
  ASSERT_OK(oracle->ApplyWeightUpdates(drift, ctx));

  ASSERT_OK_AND_ASSIGN(std::vector<double> after,
                       oracle->DistanceBatch(clean_pairs));
  for (size_t i = 0; i < clean_pairs.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "pair " << i;
  }
}

TEST(IncrementalUpdateTest, FixedSeedsMakeUpdateSequencesBitIdentical) {
  // Two oracles built and updated under identical seeds answer every
  // query bit-for-bit identically: the incremental path is a
  // deterministic function of (seed, build input, epoch sequence).
  const int n = 200;
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph graph, MakeRandomTree(n, &rng));
  EdgeWeights w = MakeUniformWeights(graph, 0.1, 0.9, &rng);
  std::vector<std::vector<EdgeWeightDelta>> epochs;
  for (int e = 0; e < 4; ++e) {
    epochs.push_back(RandomDeltas(graph.num_edges(), 7, &rng));
  }

  std::vector<VertexPair> pairs = SampleTreePairs(n, 300, &rng);
  auto build_and_update = [&](uint64_t seed) {
    ReleaseContext ctx = ReleaseContext::Create(kParams, seed).value();
    std::unique_ptr<HldTreeOracle> oracle =
        HldTreeOracle::Build(graph, w, ctx).value();
    for (const auto& deltas : epochs) {
      EXPECT_OK(oracle->ApplyWeightUpdates(deltas, ctx));
    }
    return DistanceBatchOf(*oracle, pairs, 1).value();
  };
  std::vector<double> first = build_and_update(kTestSeed ^ 7);
  std::vector<double> second = build_and_update(kTestSeed ^ 7);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "pair " << i;
  }
}

TEST(IncrementalUpdateTest, ShardedExecutionStaysBitIdenticalAcrossEpochs) {
  const int n = 300;
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph graph, MakeRandomTree(n, &rng));
  EdgeWeights w = MakeUniformWeights(graph, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(kParams, kTestSeed));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HldTreeOracle> oracle,
                       HldTreeOracle::Build(graph, w, ctx));

  BatchExecutorOptions options;
  options.min_shard_pairs = 8;  // force real fan-out on a small batch
  BatchExecutor executor(options);
  std::vector<VertexPair> pairs = SampleTreePairs(n, 512, &rng);
  for (int epoch = 0; epoch < 3; ++epoch) {
    ASSERT_OK(oracle->ApplyWeightUpdates(
        RandomDeltas(graph.num_edges(), 9, &rng), ctx));
    ASSERT_OK_AND_ASSIGN(std::vector<double> sharded,
                         executor.Execute(*oracle, pairs));
    ASSERT_OK_AND_ASSIGN(std::vector<double> serial,
                         DistanceBatchOf(*oracle, pairs, 1));
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(sharded[i], serial[i]) << "epoch " << epoch << " pair " << i;
    }
  }
}

// ------------------------------------------------------ failure modes --

TEST(IncrementalUpdateTest, ExhaustedBudgetRefusesWithoutMutating) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph graph, MakeRandomTree(64, &rng));
  EdgeWeights w = MakeUniformWeights(graph, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(kParams, kTestSeed));
  // Room for the build and not one more full-sensitivity epoch.
  ctx.SetTotalBudget(PrivacyParams{1.2, 0.0, 1.0});
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HldTreeOracle> oracle,
                       HldTreeOracle::Build(graph, w, ctx));

  std::vector<VertexPair> pairs = SampleTreePairs(64, 128, &rng);
  ASSERT_OK_AND_ASSIGN(std::vector<double> before,
                       DistanceBatchOf(*oracle, pairs, 1));
  double spent_before = ctx.accountant().BasicTotal().epsilon;

  // A full-sensitivity epoch (dirty edges everywhere) cannot fit in the
  // remaining 0.2: the update must refuse atomically.
  Status blocked = oracle->ApplyWeightUpdates(
      RandomDeltas(graph.num_edges(), 32, &rng), ctx);
  EXPECT_EQ(blocked.code(), StatusCode::kFailedPrecondition);

  // Nothing moved: ledger unchanged, answers bit-identical, stats zeroed.
  EXPECT_DOUBLE_EQ(ctx.accountant().BasicTotal().epsilon, spent_before);
  EXPECT_EQ(oracle->last_update().dirty_blocks, 0);
  ASSERT_OK_AND_ASSIGN(std::vector<double> after,
                       DistanceBatchOf(*oracle, pairs, 1));
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
  }
}

TEST(IncrementalUpdateTest, InvalidDeltasAreRejectedWithoutCharge) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph graph, MakeRandomTree(32, &rng));
  EdgeWeights w = MakeUniformWeights(graph, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(kParams, kTestSeed));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HldTreeOracle> oracle,
                       HldTreeOracle::Build(graph, w, ctx));
  double spent = ctx.accountant().BasicTotal().epsilon;

  std::vector<EdgeWeightDelta> out_of_range = {{99, 1.0}};
  EXPECT_EQ(oracle->ApplyWeightUpdates(out_of_range, ctx).code(),
            StatusCode::kInvalidArgument);
  std::vector<EdgeWeightDelta> negative = {{0, -1.0}};
  EXPECT_EQ(oracle->ApplyWeightUpdates(negative, ctx).code(),
            StatusCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(ctx.accountant().BasicTotal().epsilon, spent);

  // An empty epoch is a free no-op.
  EXPECT_OK(oracle->ApplyWeightUpdates({}, ctx));
  EXPECT_DOUBLE_EQ(ctx.accountant().BasicTotal().epsilon, spent);
  EXPECT_EQ(oracle->last_update().dirty_edges, 0);
}

// --------------------------------------------------- executor routing --

TEST(BatchExecutorUpdateTest, AppliesEpochAndShardedStaysSerial) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph graph, MakeRandomTree(128, &rng));
  EdgeWeights w = MakeUniformWeights(graph, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(kParams, kTestSeed));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HldTreeOracle> oracle,
                       HldTreeOracle::Build(graph, w, ctx));

  BatchExecutorOptions options;
  options.num_shards = 4;
  options.max_threads = 4;
  options.min_shard_pairs = 1;
  BatchExecutor executor(options);

  std::vector<EdgeWeightDelta> deltas = RandomDeltas(graph.num_edges(), 6,
                                                     &rng);
  ASSERT_OK_AND_ASSIGN(
      BatchExecutor::UpdateReport report,
      executor.ApplyUpdates(*oracle, graph, deltas, ctx));
  EXPECT_GT(report.dirty_blocks, 0);
  EXPECT_EQ(report.dirty_blocks, oracle->last_update().dirty_blocks);
  EXPECT_EQ(report.update_sensitivity, oracle->last_update().sensitivity);
  EXPECT_DOUBLE_EQ(report.charged_epsilon,
                   oracle->last_update().charged_epsilon);

  // Queries through the sharded executor still match serial bit-for-bit.
  std::vector<VertexPair> pairs = SampleTreePairs(128, 256, &rng);
  EXPECT_EQ(executor.PlannedShardCount(pairs.size()), 4);
  ASSERT_OK_AND_ASSIGN(std::vector<double> sharded,
                       executor.Execute(*oracle, pairs));
  ASSERT_OK_AND_ASSIGN(std::vector<double> serial,
                       DistanceBatchOf(*oracle, pairs, 1));
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(sharded[i], serial[i]);
  }
}

TEST(BatchExecutorUpdateTest, BuildOnceOracleIsRefused) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph graph, MakePathGraph(16));
  EdgeWeights w = MakeUniformWeights(graph, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(kParams, kTestSeed));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DistanceOracle> oracle,
      OracleRegistry::Global().Create("tree-recursive", graph, w, ctx));
  ASSERT_EQ(oracle->AsUpdatable(), nullptr);

  BatchExecutor executor;
  std::vector<EdgeWeightDelta> deltas = {{0, 1.0}};
  Status refused =
      executor.ApplyUpdates(*oracle, graph, deltas, ctx).status();
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
}

TEST(RegistrySpecTest, OnlyTreeHldAdvertisesUpdatability) {
  const OracleRegistry& registry = OracleRegistry::Global();
  const OracleSpec* hld = registry.Find(HldTreeOracle::kName);
  ASSERT_NE(hld, nullptr);
  EXPECT_TRUE(hld->updatable);
  for (const std::string& name : registry.Names()) {
    if (name == HldTreeOracle::kName) continue;
    EXPECT_FALSE(registry.Find(name)->updatable) << name;
  }
}

}  // namespace
}  // namespace dpsp
