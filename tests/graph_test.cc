#include "graph/graph.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "test_util.h"

namespace dpsp {
namespace {

TEST(GraphTest, CreateTriangle) {
  ASSERT_OK_AND_ASSIGN(Graph g,
                       Graph::Create(3, {{0, 1}, {1, 2}, {0, 2}}));
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_FALSE(g.directed());
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_EQ(g.Degree(1), 2);
}

TEST(GraphTest, RejectsOutOfRangeEndpoints) {
  EXPECT_FALSE(Graph::Create(2, {{0, 2}}).ok());
  EXPECT_FALSE(Graph::Create(2, {{-1, 0}}).ok());
}

TEST(GraphTest, RejectsSelfLoops) {
  auto r = Graph::Create(3, {{1, 1}});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, RejectsNegativeVertexCount) {
  EXPECT_FALSE(Graph::Create(-1, {}).ok());
}

TEST(GraphTest, EmptyGraphIsValid) {
  ASSERT_OK_AND_ASSIGN(Graph g, Graph::Create(0, {}));
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(GraphTest, ParallelEdgesSupported) {
  ASSERT_OK_AND_ASSIGN(Graph g, Graph::Create(2, {{0, 1}, {0, 1}}));
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_EQ(g.Neighbors(0).size(), 2u);
  EXPECT_NE(g.Neighbors(0)[0].edge, g.Neighbors(0)[1].edge);
}

TEST(GraphTest, UndirectedAdjacencyIsSymmetric) {
  ASSERT_OK_AND_ASSIGN(Graph g, Graph::Create(3, {{0, 1}, {1, 2}}));
  EXPECT_EQ(g.Neighbors(1).size(), 2u);
  EXPECT_EQ(g.Neighbors(2).size(), 1u);
  EXPECT_EQ(g.Neighbors(2)[0].to, 1);
}

TEST(GraphTest, DirectedAdjacencyIsOneWay) {
  ASSERT_OK_AND_ASSIGN(Graph g, Graph::Create(3, {{0, 1}, {1, 2}}, true));
  EXPECT_TRUE(g.directed());
  EXPECT_EQ(g.Neighbors(0).size(), 1u);
  EXPECT_EQ(g.Neighbors(1).size(), 1u);
  EXPECT_TRUE(g.Neighbors(2).empty());
}

TEST(GraphTest, OtherEndpoint) {
  ASSERT_OK_AND_ASSIGN(Graph g, Graph::Create(3, {{0, 2}}));
  EXPECT_EQ(g.OtherEndpoint(0, 0), 2);
  EXPECT_EQ(g.OtherEndpoint(0, 2), 0);
}

TEST(GraphTest, HasVertex) {
  ASSERT_OK_AND_ASSIGN(Graph g, Graph::Create(2, {}));
  EXPECT_TRUE(g.HasVertex(0));
  EXPECT_TRUE(g.HasVertex(1));
  EXPECT_FALSE(g.HasVertex(2));
  EXPECT_FALSE(g.HasVertex(-1));
}

TEST(GraphTest, ValidateWeights) {
  ASSERT_OK_AND_ASSIGN(Graph g, Graph::Create(3, {{0, 1}, {1, 2}}));
  EXPECT_OK(g.ValidateWeights({1.0, 2.0}));
  EXPECT_FALSE(g.ValidateWeights({1.0}).ok());
  EXPECT_OK(g.ValidateNonNegativeWeights({0.0, 5.0}));
  EXPECT_FALSE(g.ValidateNonNegativeWeights({-0.1, 5.0}).ok());
  // Negative weights are fine for the unsigned validator's counterpart.
  EXPECT_OK(g.ValidateWeights({-3.0, 5.0}));
}

TEST(GraphTest, ToStringMentionsCounts) {
  ASSERT_OK_AND_ASSIGN(Graph g, Graph::Create(4, {{0, 1}}));
  EXPECT_EQ(g.ToString(), "Graph(V=4, E=1, undirected)");
}

// The path 0-1-...-(n-1), edge i joining vertices i and i + 1.
Graph PathOf(int n) {
  std::vector<EdgeEndpoints> edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return Graph::Create(n, std::move(edges)).value();
}

TEST(GraphTest, CopiesAndMovesShareOneStorage) {
  Graph g = PathOf(5);
  const VertexId* heads = g.AdjacencyHeads().data();
  Graph copy = g;
  EXPECT_EQ(copy.AdjacencyHeads().data(), heads);
  EXPECT_EQ(copy.AdjacencyOffsets().data(), g.AdjacencyOffsets().data());
  EXPECT_EQ(copy.AdjacencyEdges().data(), g.AdjacencyEdges().data());
  EXPECT_EQ(&copy.edge(0), &g.edge(0));

  // A move shares too, and leaves its source valid and equal.
  Graph moved = std::move(copy);
  EXPECT_EQ(moved.AdjacencyHeads().data(), heads);
  // NOLINTNEXTLINE(bugprone-use-after-move)
  EXPECT_EQ(copy.AdjacencyHeads().data(), heads);
  EXPECT_EQ(copy.num_vertices(), 5);
  EXPECT_EQ(copy.num_edges(), 4);

  Graph assigned = PathOf(2);
  assigned = moved;
  EXPECT_EQ(assigned.AdjacencyHeads().data(), heads);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.AdjacencyHeads().data(), heads);
  // NOLINTNEXTLINE(bugprone-use-after-move)
  EXPECT_EQ(moved.AdjacencyHeads().data(), heads);
}

TEST(GraphTest, CopyOutlivesItsSource) {
  auto source = std::make_unique<Graph>(PathOf(4));
  Graph copy = *source;
  source.reset();
  EXPECT_EQ(copy.num_vertices(), 4);
  EXPECT_EQ(copy.num_edges(), 3);
  ASSERT_EQ(copy.Neighbors(1).size(), 2u);
  EXPECT_EQ(copy.Neighbors(1)[0].to, 0);
  EXPECT_EQ(copy.Neighbors(1)[1].to, 2);
  EXPECT_EQ(copy.OtherEndpoint(2, 3), 2);
}

TEST(GraphTest, ThreadsCopyAndDropCopiesWhileReading) {
  constexpr int kVertices = 1024;
  const Graph g = PathOf(kVertices);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&g, &mismatches, t] {
      std::vector<Graph> held;
      for (int round = 0; round < 2000; ++round) {
        held.push_back(g);
        if (held.size() > 4) held.erase(held.begin());
        const Graph& copy = held.back();
        const VertexId u = (t * 131 + round) % kVertices;
        const size_t degree = (u == 0 || u == kVertices - 1) ? 1 : 2;
        if (copy.AdjacencyHeads().data() != g.AdjacencyHeads().data() ||
            copy.Neighbors(u).size() != degree) {
          ++mismatches;
        }
        for (AdjacencyEntry entry : copy.Neighbors(u)) {
          if (entry.to != u - 1 && entry.to != u + 1) ++mismatches;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(GraphTest, TotalWeight) {
  EdgeWeights w{1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(TotalWeight(w, {0, 2}), 5.0);
  EXPECT_DOUBLE_EQ(TotalWeight(w, {}), 0.0);
}

}  // namespace
}  // namespace dpsp
