#include "core/path_graph.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/statistics.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dpsp {
namespace {

TEST(PathGraphOracleTest, RejectsNonPathTopologies) {
  Rng rng(kTestSeed);
  PrivacyParams params;
  ASSERT_OK_AND_ASSIGN(Graph cycle, MakeCycleGraph(5));
  EXPECT_FALSE(
      PathGraphOracle::Build(cycle, EdgeWeights(5, 1.0), params, &rng).ok());
  ASSERT_OK_AND_ASSIGN(Graph star, MakeStarGraph(5));
  EXPECT_FALSE(
      PathGraphOracle::Build(star, EdgeWeights(4, 1.0), params, &rng).ok());
}

TEST(PathGraphOracleTest, HighEpsilonMatchesPrefixSums) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(37));  // non power of two
  EdgeWeights w = MakeUniformWeights(g, 0.5, 3.0, &rng);
  PrivacyParams params{1e7, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(auto oracle, PathGraphOracle::Build(g, w, params,
                                                           &rng));
  for (VertexId u = 0; u < 37; u += 3) {
    for (VertexId v = u; v < 37; v += 5) {
      double exact = 0.0;
      for (int e = u; e < v; ++e) exact += w[static_cast<size_t>(e)];
      ASSERT_OK_AND_ASSIGN(double est, oracle->Distance(u, v));
      EXPECT_NEAR(est, exact, 1e-2) << u << "," << v;
    }
  }
}

TEST(PathGraphOracleTest, SegmentCountLogarithmic) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(1025));
  EdgeWeights w(1024, 1.0);
  PrivacyParams params;
  ASSERT_OK_AND_ASSIGN(auto oracle, PathGraphOracle::Build(g, w, params,
                                                           &rng));
  int max_segments = 0;
  for (int trial = 0; trial < 500; ++trial) {
    VertexId u = static_cast<VertexId>(rng.UniformInt(0, 1024));
    VertexId v = static_cast<VertexId>(rng.UniformInt(0, 1024));
    ASSERT_OK_AND_ASSIGN(int segments, oracle->QuerySegmentCount(u, v));
    max_segments = std::max(max_segments, segments);
  }
  // At most 2 * #levels = 2 * 11 for 1024 edges.
  EXPECT_LE(max_segments, 2 * oracle->num_levels());
  EXPECT_EQ(oracle->num_levels(), 11);
}

TEST(PathGraphOracleTest, AdjacentQueryIsSingleSegment) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(16));
  EdgeWeights w(15, 2.0);
  PrivacyParams params;
  ASSERT_OK_AND_ASSIGN(auto oracle, PathGraphOracle::Build(g, w, params,
                                                           &rng));
  ASSERT_OK_AND_ASSIGN(int segments, oracle->QuerySegmentCount(7, 8));
  EXPECT_EQ(segments, 1);
  ASSERT_OK_AND_ASSIGN(int zero, oracle->QuerySegmentCount(5, 5));
  EXPECT_EQ(zero, 0);
}

TEST(PathGraphOracleTest, SymmetricQueries) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(20));
  EdgeWeights w = MakeUniformWeights(g, 1.0, 2.0, &rng);
  PrivacyParams params;
  ASSERT_OK_AND_ASSIGN(auto oracle, PathGraphOracle::Build(g, w, params,
                                                           &rng));
  ASSERT_OK_AND_ASSIGN(double a, oracle->Distance(3, 15));
  ASSERT_OK_AND_ASSIGN(double b, oracle->Distance(15, 3));
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(PathGraphOracleTest, ErrorWithinTheoremA1Bound) {
  Rng rng(kTestSeed);
  int n = 512;
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(n));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 10.0, &rng);
  PrivacyParams params{1.0, 0.0, 1.0};
  double gamma = 0.02;
  double bound = PathGraphErrorBound(n, params, gamma);

  std::vector<double> prefix(static_cast<size_t>(n), 0.0);
  for (int i = 1; i < n; ++i) {
    prefix[static_cast<size_t>(i)] =
        prefix[static_cast<size_t>(i - 1)] + w[static_cast<size_t>(i - 1)];
  }

  int violations = 0, total = 0;
  for (int trial = 0; trial < 5; ++trial) {
    ASSERT_OK_AND_ASSIGN(auto oracle, PathGraphOracle::Build(g, w, params,
                                                             &rng));
    for (int q = 0; q < 400; ++q) {
      VertexId u = static_cast<VertexId>(rng.UniformInt(0, n - 1));
      VertexId v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
      double exact = std::fabs(prefix[static_cast<size_t>(v)] -
                               prefix[static_cast<size_t>(u)]);
      ASSERT_OK_AND_ASSIGN(double est, oracle->Distance(u, v));
      if (std::fabs(est - exact) > bound) ++violations;
      ++total;
    }
  }
  EXPECT_LT(violations, std::max(5, static_cast<int>(3 * gamma * total)));
}

TEST(PathGraphOracleTest, SingleVertexPath) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(1));
  PrivacyParams params;
  ASSERT_OK_AND_ASSIGN(auto oracle, PathGraphOracle::Build(g, {}, params,
                                                           &rng));
  ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(0, 0));
  EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(PathGraphOracleTest, RestoreRejectsImagesOfTheWrongShape) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(37));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, &rng);
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       PathGraphOracle::Build(g, w, PrivacyParams{}, &rng));
  std::vector<ReleasedSection> saved;
  ASSERT_OK(oracle->SaveReleasedState(&saved));
  auto restore = [&](const std::vector<ReleasedSection>& sections) {
    std::vector<ReleasedSectionView> views;
    for (const ReleasedSection& s : sections) {
      views.push_back({s.label, s.bytes});
    }
    return PathGraphOracle::FromReleasedState(g, w, views);
  };
  ASSERT_OK(restore(saved).status());

  auto meta = [](std::vector<double> values) {
    ReleasedSection section{"meta", std::vector<uint8_t>(values.size() * 8)};
    std::memcpy(section.bytes.data(), values.data(), section.bytes.size());
    return section;
  };
  const ReleasedSection& blocks = saved[0];
  std::vector<std::vector<ReleasedSection>> bad = {
      // The per-level layout with a {branching, V, E, scale} meta.
      {{"levels", blocks.bytes}, meta({2, 37, 36, 6})},
      // One block short.
      {{"blocks", std::vector<uint8_t>(blocks.bytes.begin() + 8,
                                       blocks.bytes.end())},
       meta({37, 36, 6})},
      // A noise scale the structure could not have been drawn at.
      {blocks, meta({37, 36, 0})},
      // Another path's image.
      {blocks, meta({38, 37, 6})},
  };
  for (const auto& sections : bad) {
    Result<std::unique_ptr<DistanceOracle>> restored = restore(sections);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << restored.status().ToString();
  }
}

TEST(PathGraphOracleTest, BatchLookaheadBoundaries) {
  Rng rng(kTestSeed);
  const int n = 1000;
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(n));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, &rng);
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       PathGraphOracle::Build(g, w, PrivacyParams{}, &rng));
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

TEST(PathGraphErrorBoundTest, GrowsPolylogarithmically) {
  PrivacyParams params{1.0, 0.0, 1.0};
  double b256 = PathGraphErrorBound(256, params, 0.05);
  double b65536 = PathGraphErrorBound(65536, params, 0.05);
  EXPECT_LT(b65536 / b256, 6.0);  // (16/8)^1.5 ~ 2.8, far below 256x
}

TEST(PathGraphOracleTest, MatchesTreeOracleAsymptotics) {
  // Appendix A promises the same bound as the tree algorithm; check the two
  // mechanisms land in the same error regime on the same input.
  Rng rng(kTestSeed);
  int n = 256;
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(n));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 5.0, &rng);
  PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(auto oracle, PathGraphOracle::Build(g, w, params,
                                                           &rng));
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  ASSERT_OK_AND_ASSIGN(OracleErrorReport report,
                       EvaluateOracleAllPairs(g, exact, *oracle));
  // Naive per-pair noise at eps=1 would be ~n^2/eps ~ 65536; the hierarchy
  // must be orders of magnitude below that and under the proved bound.
  EXPECT_LT(report.max_abs_error,
            PathGraphErrorBound(n, params, 0.05 / (n * n)));
}

}  // namespace
}  // namespace dpsp
