// The heavy-path skeleton is shared per topology: every tree-hld release
// and restore over a graph sharing one storage and root holds one
// HeavyPathIndex, freed with the last of them, and sharing changes no
// answer. The index, built from one orientation pass over the CSR, equals
// the decomposition a full RootedTree gives, and a graph that is not a
// tree is refused.

#include "core/heavy_path_index.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/hld_oracle.h"
#include "core/range_sums.h"
#include "dp/release_context.h"
#include "graph/generators.h"
#include "graph/tree.h"
#include "test_util.h"

namespace dpsp {
namespace {

constexpr PrivacyParams kParams{1.0, 0.0, 1.0};
constexpr int kNumVertices = 2000;

// The same random tree on every call: a graph created separately with the
// same edges, so it has its own storage.
Graph MakeTree() {
  Rng rng(kTestSeed);
  return MakeRandomTree(kNumVertices, &rng).value();
}

EdgeWeights MakeWeights(const Graph& graph) {
  Rng rng(kTestSeed + 1);
  return MakeUniformWeights(graph, 0.0, 10.0, &rng);
}

std::unique_ptr<HldTreeOracle> Release(const Graph& graph,
                                       const EdgeWeights& w, uint64_t seed,
                                       VertexId root = -1) {
  ReleaseContext ctx = ReleaseContext::Create(kParams, seed).value();
  return HldTreeOracle::Build(graph, w, ctx, root).value();
}

std::vector<ReleasedSection> Save(const DistanceOracle& oracle) {
  std::vector<ReleasedSection> sections;
  EXPECT_OK(oracle.SaveReleasedState(&sections));
  return sections;
}

const HeavyPathIndex* IndexOf(const DistanceOracle& oracle) {
  return static_cast<const HldTreeOracle&>(oracle).index().get();
}

std::vector<uint64_t> AnswerBits(const DistanceOracle& oracle) {
  std::vector<VertexPair> pairs;
  for (VertexId u = 0; u < kNumVertices; u += 37) {
    for (VertexId v = 0; v < kNumVertices; v += 53) pairs.emplace_back(u, v);
  }
  std::vector<double> out(pairs.size());
  EXPECT_OK(oracle.DistanceInto(pairs, out.data()));
  std::vector<uint64_t> bits;
  for (double d : out) bits.push_back(std::bit_cast<uint64_t>(d));
  return bits;
}

TEST(HeavyPathIndexTest, ReleasesAndARestoreOverCopiesShareOneIndex) {
  const Graph graph = MakeTree();
  const Graph copy = graph;
  const EdgeWeights w = MakeWeights(graph);
  std::unique_ptr<HldTreeOracle> first = Release(graph, w, kTestSeed);
  std::unique_ptr<HldTreeOracle> second = Release(copy, w, kTestSeed + 1);
  const std::vector<ReleasedSection> saved = Save(*first);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DistanceOracle> restored,
      HldTreeOracle::FromReleasedState(Graph(copy), w, Views(saved)));

  EXPECT_EQ(second->index(), first->index());
  EXPECT_EQ(IndexOf(*restored), first->index().get());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const HeavyPathIndex> looked_up,
                       HeavyPathIndex::Share(copy, 0));
  EXPECT_EQ(looked_up, first->index());
  EXPECT_TRUE(first->index()->graph().SharesStorageWith(graph));
  EXPECT_EQ(first->index()->root(), 0);
  EXPECT_EQ(AnswerBits(*restored), AnswerBits(*first));
}

TEST(HeavyPathIndexTest, AnotherStorageOrRootGetsItsOwnIndex) {
  const Graph graph = MakeTree();
  const Graph twin = MakeTree();
  ASSERT_FALSE(twin.SharesStorageWith(graph));
  const EdgeWeights w = MakeWeights(graph);
  std::unique_ptr<HldTreeOracle> release = Release(graph, w, kTestSeed);
  std::unique_ptr<HldTreeOracle> twin_release = Release(twin, w, kTestSeed);
  std::unique_ptr<HldTreeOracle> rerooted = Release(graph, w, kTestSeed, 5);

  EXPECT_NE(twin_release->index(), release->index());
  EXPECT_TRUE(twin_release->index()->graph().SharesStorageWith(twin));
  EXPECT_NE(rerooted->index(), release->index());
  EXPECT_EQ(rerooted->index()->root(), 5);
  // The index is a function of the topology alone: the twin's same-seed
  // release is the same release, and its image restores over either graph.
  EXPECT_EQ(AnswerBits(*twin_release), AnswerBits(*release));
  const std::vector<ReleasedSection> saved = Save(*twin_release);
  const std::vector<ReleasedSection> own = Save(*release);
  ASSERT_EQ(saved.size(), own.size());
  for (size_t i = 0; i < saved.size(); ++i) {
    EXPECT_TRUE(saved[i].bytes == own[i].bytes) << saved[i].label;
  }
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DistanceOracle> restored,
      HldTreeOracle::FromReleasedState(graph, w, Views(saved)));
  EXPECT_EQ(IndexOf(*restored), release->index().get());
}

TEST(HeavyPathIndexTest, IndexIsFreedWithItsLastRelease) {
  const EdgeWeights w = MakeWeights(MakeTree());
  std::weak_ptr<const HeavyPathIndex> index;
  std::unique_ptr<HldTreeOracle> kept;
  {
    const Graph graph = MakeTree();
    std::unique_ptr<HldTreeOracle> first = Release(graph, w, kTestSeed);
    kept = Release(graph, w, kTestSeed + 1);
    index = first->index();
    first.reset();
    EXPECT_FALSE(index.expired());
  }
  // The index holds its graph, so it outlives the caller's copy.
  EXPECT_FALSE(index.expired());
  EXPECT_EQ(kept->index()->graph().num_vertices(), kNumVertices);
  EXPECT_OK(kept->Distance(3, kNumVertices - 1).status());
  kept.reset();
  EXPECT_TRUE(index.expired());
}

TEST(HeavyPathIndexTest, ConcurrentReleasesAndRestoresBuildOneIndex) {
  // Serial same-seed references over a graph created separately, so they
  // hold an index of their own; odd threads restore their images.
  constexpr int kThreads = 8;
  const Graph reference_graph = MakeTree();
  const EdgeWeights w = MakeWeights(reference_graph);
  std::vector<std::unique_ptr<HldTreeOracle>> references;
  std::vector<std::vector<ReleasedSection>> images;
  for (int i = 0; i < kThreads; ++i) {
    references.push_back(Release(reference_graph, w, kTestSeed + i));
    images.push_back(Save(*references.back()));
  }

  const Graph graph = MakeTree();
  std::vector<std::unique_ptr<DistanceOracle>> oracles(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const Graph copy = graph;
      start.arrive_and_wait();
      const size_t slot = static_cast<size_t>(i);
      if (i % 2 == 0) {
        oracles[slot] = Release(copy, w, kTestSeed + i);
      } else {
        oracles[slot] =
            HldTreeOracle::FromReleasedState(copy, w, Views(images[slot]))
                .value();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const HeavyPathIndex* shared = IndexOf(*oracles[0]);
  EXPECT_NE(shared, references[0]->index().get());
  for (int i = 0; i < kThreads; ++i) {
    const DistanceOracle& oracle = *oracles[static_cast<size_t>(i)];
    EXPECT_EQ(IndexOf(oracle), shared) << "thread " << i;
    EXPECT_EQ(AnswerBits(oracle),
              AnswerBits(*references[static_cast<size_t>(i)]))
        << "thread " << i;
  }
}

// The decomposition the index must equal, from a full RootedTree: each
// vertex's heavy child is its first child (in adjacency order) of largest
// subtree, and chains are numbered in BFS order of their heads.
struct Decomposition {
  std::vector<int> chain_of;
  std::vector<int> pos_in_chain;
  std::vector<int> head_depth;
  std::vector<VertexId> head_parent;
  std::vector<uint32_t> member_offset{0};
  std::vector<VertexId> member_list;
  std::vector<EdgeId> member_edge;
  int sensitivity = 1;
};

Decomposition ReferenceDecomposition(const RootedTree& tree) {
  const int n = tree.num_vertices();
  std::vector<VertexId> heavy(static_cast<size_t>(n), -1);
  for (VertexId v = 0; v < n; ++v) {
    int best = 0;
    for (VertexId c : tree.children(v)) {
      if (tree.subtree_size(c) > best) {
        best = tree.subtree_size(c);
        heavy[static_cast<size_t>(v)] = c;
      }
    }
  }
  Decomposition ref;
  ref.chain_of.assign(static_cast<size_t>(n), -1);
  ref.pos_in_chain.assign(static_cast<size_t>(n), 0);
  std::vector<std::vector<VertexId>> chains;
  for (VertexId v : tree.bfs_order()) {
    const VertexId p = tree.parent(v);
    if (p == -1 || heavy[static_cast<size_t>(p)] != v) {
      ref.chain_of[static_cast<size_t>(v)] = static_cast<int>(chains.size());
      chains.push_back({v});
      ref.head_depth.push_back(tree.depth(v));
      ref.head_parent.push_back(p);
    } else {
      const int c = ref.chain_of[static_cast<size_t>(p)];
      ref.chain_of[static_cast<size_t>(v)] = c;
      ref.pos_in_chain[static_cast<size_t>(v)] =
          static_cast<int>(chains[static_cast<size_t>(c)].size());
      chains[static_cast<size_t>(c)].push_back(v);
    }
  }
  for (const std::vector<VertexId>& chain : chains) {
    for (VertexId v : chain) {
      ref.member_list.push_back(v);
      ref.member_edge.push_back(tree.parent_edge(v));
    }
    ref.member_offset.push_back(static_cast<uint32_t>(ref.member_list.size()));
    ref.sensitivity = std::max(
        ref.sensitivity, NoisyDyadicRangeSums::LevelsForSize(
                             static_cast<int>(chain.size()) - 1));
  }
  return ref;
}

template <typename T>
std::vector<T> ToVector(std::span<const T> span) {
  return {span.begin(), span.end()};
}

void ExpectIndexMatchesReference(const Graph& graph, VertexId root,
                                 const std::string& label) {
  SCOPED_TRACE(label + ", root " + std::to_string(root));
  ASSERT_OK_AND_ASSIGN(RootedTree tree, RootedTree::FromGraph(graph, root));
  const Decomposition ref = ReferenceDecomposition(tree);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const HeavyPathIndex> index,
                       HeavyPathIndex::Share(graph, root));
  EXPECT_EQ(index->root(), root);
  EXPECT_EQ(ToVector(index->chain_of()), ref.chain_of);
  EXPECT_EQ(ToVector(index->pos_in_chain()), ref.pos_in_chain);
  EXPECT_EQ(ToVector(index->head_depth()), ref.head_depth);
  EXPECT_EQ(ToVector(index->head_parent()), ref.head_parent);
  ASSERT_EQ(index->num_chains() + size_t{1}, ref.member_offset.size());
  for (int c = 0; c <= index->num_chains(); ++c) {
    EXPECT_EQ(index->member_offset(c),
              ref.member_offset[static_cast<size_t>(c)])
        << "chain " << c;
  }
  EXPECT_EQ(ToVector(index->member_list()), ref.member_list);
  EXPECT_EQ(ToVector(index->member_edge()), ref.member_edge);
  EXPECT_EQ(index->sensitivity(), ref.sensitivity);
  // Each chain's level table covers its heavy edges, its blocks right
  // after the previous chain's.
  uint32_t next_block = 0;
  for (int c = 0; c < index->num_chains(); ++c) {
    const std::span<const uint32_t> levels = index->ChainLevels(c);
    const int heavy_edges = static_cast<int>(
        ref.member_offset[static_cast<size_t>(c) + 1] -
        ref.member_offset[static_cast<size_t>(c)]) - 1;
    EXPECT_EQ(dyadic::NumLevels(levels),
              NoisyDyadicRangeSums::LevelsForSize(heavy_edges))
        << "chain " << c;
    if (!levels.empty()) {
      EXPECT_EQ(levels.front(), next_block) << "chain " << c;
      next_block = levels.back();
    }
  }
  EXPECT_EQ(dyadic::NumBlocks(index->level_offsets()), next_block);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (v != root) {
      EXPECT_EQ(index->EdgeChild(tree.parent_edge(v)), v);
    }
  }
}

// `tree`'s vertices relabelled by a random permutation and its edges
// listed in a random order, so adjacency orders (and with them sibling
// order) vary.
Graph Shuffled(const Graph& tree, Rng* rng) {
  const std::vector<int> label = rng->Permutation(tree.num_vertices());
  const std::vector<int> order = rng->Permutation(tree.num_edges());
  std::vector<EdgeEndpoints> edges;
  for (int e : order) {
    const EdgeEndpoints& ep = tree.edge(e);
    edges.push_back({label[static_cast<size_t>(ep.u)],
                     label[static_cast<size_t>(ep.v)]});
  }
  return Graph::Create(tree.num_vertices(), std::move(edges)).value();
}

// Two copies of `tree` hung from a new vertex 0, so every vertex of the
// first copy has a twin of equal subtree size in the second.
Graph Twinned(const Graph& tree) {
  const int m = tree.num_vertices();
  std::vector<EdgeEndpoints> edges = {{0, 1}, {0, 1 + m}};
  for (int copy = 0; copy < 2; ++copy) {
    const int base = 1 + copy * m;
    for (EdgeId e = 0; e < tree.num_edges(); ++e) {
      edges.push_back({base + tree.edge(e).u, base + tree.edge(e).v});
    }
  }
  return Graph::Create(2 * m + 1, std::move(edges)).value();
}

TEST(HeavyPathIndexTest, IndexEqualsTheRootedTreeDecomposition) {
  Rng rng(kTestSeed);
  std::vector<std::pair<std::string, Graph>> trees;
  trees.emplace_back("single vertex", MakePathGraph(1).value());
  trees.emplace_back("path 2", MakePathGraph(2).value());
  trees.emplace_back("path 33", MakePathGraph(33).value());
  trees.emplace_back("path 64", MakePathGraph(64).value());
  trees.emplace_back("star 9", MakeStarGraph(9).value());
  trees.emplace_back("caterpillar 12x3", MakeCaterpillarTree(12, 3).value());
  trees.emplace_back("binary 31", MakeBalancedTree(31, 2).value());
  trees.emplace_back("binary 100", MakeBalancedTree(100, 2).value());
  trees.emplace_back("ternary 121", MakeBalancedTree(121, 3).value());
  for (int i = 0; i < 4; ++i) {
    const Graph random = MakeRandomTree(300, &rng).value();
    trees.emplace_back("random 300 #" + std::to_string(i), random);
    trees.emplace_back("shuffled random 300 #" + std::to_string(i),
                       Shuffled(random, &rng));
    trees.emplace_back("recursive 300 #" + std::to_string(i),
                       MakeRandomRecursiveTree(300, &rng).value());
    trees.emplace_back("twinned random 40 #" + std::to_string(i),
                       Twinned(MakeRandomTree(40, &rng).value()));
  }
  trees.emplace_back("shuffled binary 63",
                     Shuffled(MakeBalancedTree(63, 2).value(), &rng));
  for (const auto& [label, graph] : trees) {
    const int n = graph.num_vertices();
    // An end, mid-way, the last vertex and a random one.
    for (VertexId root : {0, n / 2, n - 1,
                          static_cast<VertexId>(rng.UniformInt(0, n - 1))}) {
      ExpectIndexMatchesReference(graph, root, label);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(HeavyPathIndexTest, GraphsThatAreNotTreesAreRefused) {
  // A cycle has V edges; the other two have V - 1 edges, so only the
  // orientation pass's revisit (or its reach) tells them from trees.
  const std::pair<const char*, Graph> graphs[] = {
      {"cycle", MakeCycleGraph(6).value()},
      {"cycle plus an isolated vertex",
       Graph::Create(5, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}).value()},
      {"doubled edge plus an isolated vertex",
       Graph::Create(3, {{0, 1}, {0, 1}}).value()},
  };
  for (const auto& [label, graph] : graphs) {
    for (VertexId root = 0; root < graph.num_vertices(); ++root) {
      Result<std::shared_ptr<const HeavyPathIndex>> index =
          HeavyPathIndex::Share(graph, root);
      ASSERT_FALSE(index.ok()) << label << ", root " << root;
      EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument)
          << label << ", root " << root << ": " << index.status().ToString();
      EXPECT_EQ(RootedTree::FromGraph(graph, root).status().code(),
                StatusCode::kInvalidArgument)
          << label << ", root " << root;
    }
  }
}

}  // namespace
}  // namespace dpsp
