// Tests for the sharded batch execution engine: contiguous shards must
// produce results bit-identical to the serial DistanceInto reference path
// across all registered mechanisms.

#include "serve/batch_executor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/bounded_weight.h"
#include "core/oracle_registry.h"
#include "dp/release_context.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dpsp {
namespace {

constexpr int kNumVertices = 32;  // even path: satisfies every input family

std::vector<VertexPair> SampleTestPairs(int n, int count, Rng* rng) {
  std::vector<VertexPair> pairs;
  pairs.reserve(static_cast<size_t>(count));
  while (static_cast<int>(pairs.size()) < count) {
    auto u = static_cast<VertexId>(rng->UniformInt(0, n - 1));
    auto v = static_cast<VertexId>(rng->UniformInt(0, n - 1));
    pairs.emplace_back(u, v);
  }
  return pairs;
}

class ExecutorConformanceTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(ExecutorConformanceTest, ShardedBitIdenticalToSerial) {
  const std::string& name = GetParam();
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(kNumVertices));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  // A zCDP-metered (Gaussian-calibrated) mechanism needs approximate
  // params with eps < 1; everything else runs at the pure default.
  const OracleSpec* spec = OracleRegistry::Global().Find(name);
  ASSERT_NE(spec, nullptr);
  PrivacyParams params = spec->loss == LossKind::kZcdp
                             ? PrivacyParams{0.5, 1e-6, 1.0}
                             : PrivacyParams{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(params, kTestSeed));
  ASSERT_OK_AND_ASSIGN(
      auto oracle, OracleRegistry::Global().Create(name, g, w, ctx));

  std::vector<VertexPair> pairs =
      SampleTestPairs(kNumVertices, 3000, &rng);
  // Serial reference: one DistanceInto over the whole span.
  ASSERT_OK_AND_ASSIGN(std::vector<double> serial,
                       DistanceBatchOf(*oracle, pairs, /*max_threads=*/1));

  // Contiguous shards, forced fan-out.
  BatchExecutorOptions options;
  options.num_shards = 7;
  options.max_threads = 4;
  options.min_shard_pairs = 1;
  BatchExecutor contiguous(options);
  EXPECT_GT(contiguous.PlannedShardCount(pairs.size()), 1);
  ASSERT_OK_AND_ASSIGN(std::vector<double> sharded,
                       contiguous.Execute(*oracle, pairs));
  ASSERT_EQ(sharded.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(sharded[i], serial[i]) << name << " at pair " << i;
  }

  // Errors propagate from shard kernels.
  std::vector<VertexPair> bad = pairs;
  bad[bad.size() / 2] = {0, kNumVertices + 5};
  EXPECT_FALSE(contiguous.Execute(*oracle, bad).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredOracles, ExecutorConformanceTest,
    ::testing::ValuesIn(OracleRegistry::Global().Names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;
      for (char& ch : id) {
        if (ch == '-') ch = '_';
      }
      return id;
    });

TEST(BatchExecutorTest, ShardingOnForestKeepsInfiniteDistances) {
  // Two components; the exact oracle answers cross-component pairs with
  // infinity, and sharding must preserve that verbatim.
  ASSERT_OK_AND_ASSIGN(
      Graph g, Graph::Create(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}}));
  EdgeWeights w = {1.0, 2.0, 3.0, 4.0};
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       OracleRegistry::Global().Create("exact", g, w, ctx));

  std::vector<VertexPair> pairs;
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = 0; v < 6; ++v) pairs.emplace_back(u, v);
  }
  ASSERT_OK_AND_ASSIGN(std::vector<double> serial,
                       DistanceBatchOf(*oracle, pairs, /*max_threads=*/1));

  size_t infinite = 0;
  for (double d : serial) infinite += std::isinf(d) ? 1 : 0;
  EXPECT_EQ(infinite, 18u);  // 2 * 3 * 3 cross-component ordered pairs

  BatchExecutorOptions options;
  options.num_shards = 2;
  options.min_shard_pairs = 1;
  BatchExecutor executor(options);
  EXPECT_EQ(executor.PlannedShardCount(pairs.size()), 2);
  ASSERT_OK_AND_ASSIGN(std::vector<double> sharded,
                       executor.Execute(*oracle, pairs));
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(sharded[i], serial[i]) << "pair " << i;
  }
}

TEST(BatchExecutorTest, ShardingOnBoundedWeight) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));
  Rng& rng = *ctx.rng();
  ASSERT_OK_AND_ASSIGN(Graph g, MakeGridGraph(8, 8));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 1.0, &rng);
  BoundedWeightOptions options;
  options.k = 2;
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       BoundedWeightOracle::Build(g, w, ctx, options));

  std::vector<VertexPair> pairs = SampleTestPairs(64, 2000, &rng);
  ASSERT_OK_AND_ASSIGN(std::vector<double> serial,
                       DistanceBatchOf(*oracle, pairs, /*max_threads=*/1));

  BatchExecutorOptions exec_options;
  exec_options.num_shards = 4;
  exec_options.min_shard_pairs = 1;
  BatchExecutor executor(exec_options);
  EXPECT_EQ(executor.PlannedShardCount(pairs.size()), 4);
  ASSERT_OK_AND_ASSIGN(std::vector<double> sharded,
                       executor.Execute(*oracle, pairs));
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(sharded[i], serial[i]) << "pair " << i;
  }
}

TEST(BatchExecutorTest, ParallelBoundedWeightBuildIsThreadCountInvariant) {
  Rng data_rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeGridGraph(10, 10));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 1.0, &data_rng);
  BoundedWeightOptions serial_options;
  serial_options.k = 3;
  serial_options.build_threads = 1;
  BoundedWeightOptions parallel_options = serial_options;
  parallel_options.build_threads = 8;

  // Same noise seed => the released tables must match exactly: the
  // Dijkstra fan-out happens before any noise is drawn.
  const PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx_a,
                       ReleaseContext::Create(params, kTestSeed + 1));
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx_b,
                       ReleaseContext::Create(params, kTestSeed + 1));
  ASSERT_OK_AND_ASSIGN(auto serial_oracle,
                       BoundedWeightOracle::Build(g, w, ctx_a, serial_options));
  ASSERT_OK_AND_ASSIGN(
      auto parallel_oracle,
      BoundedWeightOracle::Build(g, w, ctx_b, parallel_options));
  for (VertexId u = 0; u < 100; u += 7) {
    for (VertexId v = 0; v < 100; v += 11) {
      ASSERT_OK_AND_ASSIGN(double a, serial_oracle->Distance(u, v));
      ASSERT_OK_AND_ASSIGN(double b, parallel_oracle->Distance(u, v));
      EXPECT_EQ(a, b) << "(" << u << "," << v << ")";
    }
  }
}

TEST(BatchExecutorTest, EmptyBatchAndTinyBatchCollapse) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(8));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       OracleRegistry::Global().Create("exact", g, w, ctx));

  BatchExecutor executor;  // default options: min_shard_pairs = 2048
  ASSERT_OK_AND_ASSIGN(std::vector<double> empty,
                       executor.Execute(*oracle, {}));
  EXPECT_TRUE(empty.empty());

  // A tiny batch stays on one shard (no fan-out overhead).
  EXPECT_EQ(executor.PlannedShardCount(16), 1);
  std::vector<VertexPair> pairs = {{0, 7}, {3, 4}};
  ASSERT_OK_AND_ASSIGN(std::vector<double> out,
                       executor.Execute(*oracle, pairs));
  ASSERT_OK_AND_ASSIGN(double d07, oracle->Distance(0, 7));
  EXPECT_EQ(out[0], d07);
}

TEST(BatchExecutorTest, DegenerateBatchesAreWellDefinedOnEveryPath) {
  // Regression: empty and single-element batches must produce well-defined
  // results with no worker spawn on every execution path — the parallel
  // DistanceBatch, the forced-serial reference, and the sharded executor
  // (an empty vector's data() is null, so any path that blindly hands the
  // kernel a pointer would be UB).
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(8));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       OracleRegistry::Global().Create("exact", g, w, ctx));
  ASSERT_OK_AND_ASSIGN(double reference, oracle->Distance(2, 6));
  std::vector<VertexPair> single = {{2, 6}};

  // Oracle-level batch APIs.
  ASSERT_OK_AND_ASSIGN(std::vector<double> empty_batch,
                       oracle->DistanceBatch({}));
  EXPECT_TRUE(empty_batch.empty());
  ASSERT_OK_AND_ASSIGN(std::vector<double> single_batch,
                       oracle->DistanceBatch(single));
  ASSERT_EQ(single_batch.size(), 1u);
  EXPECT_EQ(single_batch[0], reference);
  ASSERT_OK_AND_ASSIGN(std::vector<double> forced_parallel,
                       DistanceBatchOf(*oracle, single, /*max_threads=*/8));
  EXPECT_EQ(forced_parallel[0], reference);

  // Executor with aggressive fan-out settings: degenerate batches still
  // collapse to the inline path.
  BatchExecutorOptions options;
  options.num_shards = 8;
  options.max_threads = 8;
  options.min_shard_pairs = 1;
  BatchExecutor contiguous(options);
  EXPECT_EQ(contiguous.PlannedShardCount(0), 1);
  ASSERT_OK_AND_ASSIGN(std::vector<double> exec_empty,
                       contiguous.Execute(*oracle, {}));
  EXPECT_TRUE(exec_empty.empty());
  ASSERT_OK_AND_ASSIGN(std::vector<double> exec_single,
                       contiguous.Execute(*oracle, single));
  ASSERT_EQ(exec_single.size(), 1u);
  EXPECT_EQ(exec_single[0], reference);

  // A single INVALID pair still reports the kernel's error, not UB.
  std::vector<VertexPair> bad = {{0, 99}};
  EXPECT_FALSE(contiguous.Execute(*oracle, bad).ok());
  EXPECT_FALSE(DistanceBatchOf(*oracle, bad, 1).ok());
}

TEST(BatchExecutorTest, ExecuteIntoMatchesExecuteAndRefusesAMisSizedSpan) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(kNumVertices));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       OracleRegistry::Global().Create("tree-hld", g, w, ctx));
  std::vector<VertexPair> pairs = SampleTestPairs(kNumVertices, 3000, &rng);

  BatchExecutorOptions options;
  options.num_shards = 7;
  options.max_threads = 4;
  options.min_shard_pairs = 1;
  BatchExecutor executor(options);

  ASSERT_OK_AND_ASSIGN(std::vector<double> expected,
                       executor.Execute(*oracle, pairs));
  std::vector<double> out(pairs.size());
  ASSERT_OK(executor.ExecuteInto(*oracle, pairs, out));
  EXPECT_EQ(out, expected);

  // A span one slot short, one slot long, or empty is refused before
  // anything is written: the canvas around it keeps its sentinel, so an
  // out-of-bounds write would show even without a sanitizer.
  for (size_t slots : {pairs.size() - 1, pairs.size() + 1, size_t{0}}) {
    std::vector<double> canvas(pairs.size() + 2, -1.0);
    Status refused = executor.ExecuteInto(
        *oracle, pairs, std::span<double>(canvas).first(slots));
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument) << slots;
    for (double v : canvas) ASSERT_EQ(v, -1.0) << slots;
  }
  ASSERT_OK(executor.ExecuteInto(*oracle, {}, {}));
}

}  // namespace
}  // namespace dpsp
