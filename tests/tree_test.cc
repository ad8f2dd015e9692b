#include "graph/tree.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "graph/shortest_path.h"
#include "test_util.h"

namespace dpsp {
namespace {

TEST(RootedTreeTest, PathTreeStructure) {
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(4));
  ASSERT_OK_AND_ASSIGN(RootedTree tree, RootedTree::FromGraph(g, 0));
  EXPECT_EQ(tree.root(), 0);
  EXPECT_EQ(tree.parent(0), -1);
  EXPECT_EQ(tree.parent(3), 2);
  EXPECT_EQ(tree.depth(3), 3);
  EXPECT_EQ(tree.subtree_size(0), 4);
  EXPECT_EQ(tree.subtree_size(2), 2);
  ASSERT_EQ(tree.children(1).size(), 1u);
  EXPECT_EQ(tree.children(1)[0], 2);
}

TEST(RootedTreeTest, RootingAtInternalVertex) {
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(5));
  ASSERT_OK_AND_ASSIGN(RootedTree tree, RootedTree::FromGraph(g, 2));
  EXPECT_EQ(tree.depth(0), 2);
  EXPECT_EQ(tree.depth(4), 2);
  EXPECT_EQ(tree.subtree_size(2), 5);
  EXPECT_EQ(tree.children(2).size(), 2u);
}

TEST(RootedTreeTest, RejectsNonTrees) {
  ASSERT_OK_AND_ASSIGN(Graph cycle, MakeCycleGraph(4));
  EXPECT_FALSE(RootedTree::FromGraph(cycle, 0).ok());
  ASSERT_OK_AND_ASSIGN(Graph forest, Graph::Create(4, {{0, 1}, {2, 3}}));
  EXPECT_FALSE(RootedTree::FromGraph(forest, 0).ok());
  ASSERT_OK_AND_ASSIGN(Graph multi, Graph::Create(3, {{0, 1}, {0, 1}}));
  EXPECT_FALSE(RootedTree::FromGraph(multi, 0).ok());
}

TEST(RootedTreeTest, BfsOrderStartsAtRootAndCoversAll) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(30, &rng));
  ASSERT_OK_AND_ASSIGN(RootedTree tree, RootedTree::FromGraph(g, 7));
  EXPECT_EQ(tree.bfs_order().front(), 7);
  EXPECT_EQ(tree.bfs_order().size(), 30u);
  // Parents precede children in BFS order.
  std::vector<int> position(30, -1);
  for (size_t i = 0; i < tree.bfs_order().size(); ++i) {
    position[static_cast<size_t>(tree.bfs_order()[i])] = static_cast<int>(i);
  }
  for (VertexId v = 0; v < 30; ++v) {
    if (v == 7) continue;
    EXPECT_LT(position[static_cast<size_t>(tree.parent(v))],
              position[static_cast<size_t>(v)]);
  }
}

TEST(RootedTreeTest, SubtreeSizesSumCorrectly) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(50, &rng));
  ASSERT_OK_AND_ASSIGN(RootedTree tree, RootedTree::FromGraph(g, 0));
  for (VertexId v = 0; v < 50; ++v) {
    int sum = 1;
    for (VertexId c : tree.children(v)) sum += tree.subtree_size(c);
    EXPECT_EQ(tree.subtree_size(v), sum);
  }
}

TEST(RootedTreeTest, RootDistancesMatchDijkstra) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(40, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 4.0, &rng);
  ASSERT_OK_AND_ASSIGN(RootedTree tree, RootedTree::FromGraph(g, 5));
  std::vector<double> dist = tree.RootDistances(w);
  ASSERT_OK_AND_ASSIGN(ShortestPathTree spt, Dijkstra(g, w, 5));
  for (VertexId v = 0; v < 40; ++v) {
    EXPECT_NEAR(dist[static_cast<size_t>(v)],
                spt.distance[static_cast<size_t>(v)], 1e-9);
  }
}

// Naive LCA by walking parents: the reference EulerTourLca is checked
// against.
VertexId NaiveLca(const RootedTree& tree, VertexId u, VertexId v) {
  while (tree.depth(u) > tree.depth(v)) u = tree.parent(u);
  while (tree.depth(v) > tree.depth(u)) v = tree.parent(v);
  while (u != v) {
    u = tree.parent(u);
    v = tree.parent(v);
  }
  return u;
}

// EulerTourLca over `g` rooted at `root` answers `trials` random pairs as
// NaiveLca does, through both the checked and the unchecked lookup.
void ExpectLcaMatchesNaive(const Graph& g, VertexId root, int trials,
                           Rng* rng) {
  const int n = g.num_vertices();
  ASSERT_OK_AND_ASSIGN(RootedTree tree, RootedTree::FromGraph(g, root));
  EulerTourLca lca(tree);
  EXPECT_EQ(lca.tour_size(), 2 * n - 1);
  for (int trial = 0; trial < trials; ++trial) {
    VertexId u = static_cast<VertexId>(rng->UniformInt(0, n - 1));
    VertexId v = static_cast<VertexId>(rng->UniformInt(0, n - 1));
    VertexId want = NaiveLca(tree, u, v);
    ASSERT_EQ(lca.Lca(u, v), want)
        << "n=" << n << " root=" << root << " u=" << u << " v=" << v;
    ASSERT_EQ(lca.LcaUnchecked(u, v), want)
        << "n=" << n << " root=" << root << " u=" << u << " v=" << v;
  }
}

class LcaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LcaPropertyTest, MatchesNaiveOnRandomTrees) {
  const int n = GetParam();
  Rng rng(kTestSeed + static_cast<uint64_t>(n));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(n, &rng));
  for (VertexId root : {0, n / 2, n - 1}) {
    ExpectLcaMatchesNaive(g, root, 300, &rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LcaPropertyTest,
                         ::testing::Values(2, 3, 10, 33, 64, 129));

TEST(EulerTourLcaTest, MatchesNaiveFromEveryRoot) {
  Rng rng(kTestSeed);
  for (int n : {2, 3, 17, 64}) {
    ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(n, &rng));
    for (VertexId root = 0; root < n; ++root) {
      ExpectLcaMatchesNaive(g, root, 50, &rng);
    }
  }
  ASSERT_OK_AND_ASSIGN(Graph star, MakeStarGraph(9));
  ExpectLcaMatchesNaive(star, 0, 100, &rng);
  ExpectLcaMatchesNaive(star, 8, 100, &rng);
}

TEST(EulerTourLcaTest, MatchesNaiveOnALargeRandomTree) {
  // 2^17 vertices: a tour of 2^18 - 1 entries, so the sparse table has 18
  // levels and its longest ranges span most of the tour.
  constexpr int kBigV = 1 << 17;
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(kBigV, &rng));
  for (VertexId root : {0, kBigV / 3, kBigV - 1}) {
    ExpectLcaMatchesNaive(g, root, 5000, &rng);
  }
}

TEST(EulerTourLcaTest, SingleVertexAndSelfQueries) {
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(1));
  ASSERT_OK_AND_ASSIGN(RootedTree tree, RootedTree::FromGraph(g, 0));
  EulerTourLca euler(tree);
  EXPECT_EQ(euler.tour_size(), 1);
  EXPECT_EQ(euler.Lca(0, 0), 0);

  ASSERT_OK_AND_ASSIGN(Graph path, MakePathGraph(5));
  ASSERT_OK_AND_ASSIGN(RootedTree rooted, RootedTree::FromGraph(path, 2));
  EulerTourLca lca(rooted);
  for (VertexId v = 0; v < 5; ++v) EXPECT_EQ(lca.Lca(v, v), v);
  EXPECT_EQ(lca.Lca(0, 4), 2);
  EXPECT_EQ(lca.Lca(3, 4), 3);

  ASSERT_OK_AND_ASSIGN(Graph balanced, MakeBalancedTree(15, 2));
  ASSERT_OK_AND_ASSIGN(RootedTree at_root, RootedTree::FromGraph(balanced, 0));
  EulerTourLca balanced_lca(at_root);
  EXPECT_EQ(balanced_lca.Lca(7, 7), 7);
  EXPECT_EQ(balanced_lca.Lca(0, 9), 0);
}

TEST(IsTreeTest, Classification) {
  ASSERT_OK_AND_ASSIGN(Graph path, MakePathGraph(6));
  EXPECT_TRUE(IsTree(path));
  ASSERT_OK_AND_ASSIGN(Graph cycle, MakeCycleGraph(6));
  EXPECT_FALSE(IsTree(cycle));
  ASSERT_OK_AND_ASSIGN(Graph star, MakeStarGraph(6));
  EXPECT_TRUE(IsTree(star));
  ASSERT_OK_AND_ASSIGN(Graph directed, Graph::Create(2, {{0, 1}}, true));
  EXPECT_FALSE(IsTree(directed));
}

}  // namespace
}  // namespace dpsp
