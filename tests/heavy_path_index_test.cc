// The heavy-path skeleton is shared per topology: every tree-hld release
// and restore over a graph sharing one storage and root holds one
// HeavyPathIndex, freed with the last of them, and sharing changes no
// answer.

#include "core/heavy_path_index.h"

#include <bit>
#include <cstdint>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/hld_oracle.h"
#include "dp/release_context.h"
#include "graph/generators.h"
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

}  // namespace
}  // namespace dpsp
