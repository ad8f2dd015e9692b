// Layout checks for the cache-flat released structures: every hot array
// the batch kernels stream (CSR adjacency, dyadic block sums, released
// estimate vectors, the covering assignment) is allocated through
// AlignedAllocator and must start on a 64-byte cache-line boundary. The
// kernels don't require alignment for correctness — this is a perf
// invariant (no split-line loads at buffer starts), locked here so a
// refactor back to plain std::vector shows up as a test failure instead
// of a silent regression. Arrays no accessor exposes (the Euler-tour LCA
// table, tree-hld's per-vertex climb state, bounded-weight's Z x Z table)
// are AlignedVector members, so the type's own test covers them.

#include <vector>

#include <gtest/gtest.h>

#include "common/aligned.h"
#include "core/bounded_weight.h"
#include "core/oracle_registry.h"
#include "core/range_sums.h"
#include "core/tree_distance.h"
#include "dp/release_context.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dpsp {
namespace {

// An odd, non-power-of-two size so alignment can't fall out of size
// rounding by accident.
constexpr int kNumVertices = 211;

TEST(FlatLayoutAlignmentTest, AlignedVectorAllocatesCacheLines) {
  for (int n : {1, 2, 63, 64, 65, 1000}) {
    AlignedVector<double> v(static_cast<size_t>(n));
    EXPECT_TRUE(IsCacheAligned(v.data())) << "n=" << n;
    AlignedVector<uint32_t> u(static_cast<size_t>(n));
    EXPECT_TRUE(IsCacheAligned(u.data())) << "n=" << n;
  }
}

TEST(FlatLayoutAlignmentTest, GraphCsrArraysAreCacheAligned) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(kNumVertices, &rng));
  EXPECT_TRUE(IsCacheAligned(g.AdjacencyOffsets().data()));
  EXPECT_TRUE(IsCacheAligned(g.AdjacencyHeads().data()));
  EXPECT_TRUE(IsCacheAligned(g.AdjacencyEdges().data()));
}

TEST(FlatLayoutAlignmentTest, DyadicBlocksAreCacheAligned) {
  Rng rng(kTestSeed);
  std::vector<double> values(777);
  for (double& v : values) v = rng.Uniform(0.0, 1.0);
  NoisyDyadicRangeSums sums(values, 0.5, &rng);
  EXPECT_TRUE(IsCacheAligned(sums.blocks().data()));
}

TEST(FlatLayoutAlignmentTest, CoveringAssignmentIsCacheAligned) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(kNumVertices, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       OracleRegistry::Global().Create(
                           BoundedWeightOracle::kName, g, w, ctx));
  const auto* bounded = dynamic_cast<const BoundedWeightOracle*>(oracle.get());
  ASSERT_NE(bounded, nullptr);
  EXPECT_TRUE(IsCacheAligned(bounded->covering().assignment.data()));
}

TEST(FlatLayoutAlignmentTest, ReleasedEstimatesAreCacheAligned) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(kNumVertices, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       OracleRegistry::Global().Create(
                           TreeAllPairsOracle::kName, g, w, ctx));
  const auto* tree = dynamic_cast<const TreeAllPairsOracle*>(oracle.get());
  ASSERT_NE(tree, nullptr);
  EXPECT_TRUE(IsCacheAligned(tree->release().estimates.data()));
}

}  // namespace
}  // namespace dpsp
