#include "core/hld_oracle.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/tree_distance.h"
#include "dp/release_context.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dpsp {
namespace {

Result<Graph> MakeFamilyTree(int family, int n, Rng* rng) {
  switch (family) {
    case 0:
      return MakePathGraph(n);
    case 1:
      return MakeBalancedTree(n, 2);
    case 2:
      return MakeRandomTree(n, rng);
    case 3:
      return MakeStarGraph(n);
    default:
      return MakeCaterpillarTree(std::max(1, n / 4), 3);
  }
}

TEST(HldOracleTest, HighEpsilonMatchesExactDistances) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1e7, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(60, ctx.rng()));
  EdgeWeights w = MakeUniformWeights(g, 1.0, 5.0, ctx.rng());
  ASSERT_OK_AND_ASSIGN(auto oracle, HldTreeOracle::Build(g, w, ctx));
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  for (VertexId u = 0; u < 60; u += 2) {
    for (VertexId v = 0; v < 60; v += 3) {
      ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(u, v));
      EXPECT_NEAR(d, exact.at(u, v), 1e-2) << u << "," << v;
    }
  }
  EXPECT_EQ(oracle->Name(), "tree-hld");
}

class HldFamilyTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HldFamilyTest, AccurateAcrossFamiliesAtHighEpsilon) {
  auto [family, n] = GetParam();
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(
          PrivacyParams{1e7, 0.0, 1.0},
          kTestSeed + static_cast<uint64_t>(family * 100 + n)));
  Rng& rng = *ctx.rng();
  ASSERT_OK_AND_ASSIGN(Graph g, MakeFamilyTree(family, n, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.5, 3.0, &rng);
  ASSERT_OK_AND_ASSIGN(auto oracle, HldTreeOracle::Build(g, w, ctx));
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  int v_count = g.num_vertices();
  for (int trial = 0; trial < 100; ++trial) {
    VertexId u = static_cast<VertexId>(rng.UniformInt(0, v_count - 1));
    VertexId v = static_cast<VertexId>(rng.UniformInt(0, v_count - 1));
    ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(u, v));
    EXPECT_NEAR(d, exact.at(u, v), 1e-2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, HldFamilyTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(2, 17, 64, 200)));

TEST(HldOracleTest, ErrorWithinBound) {
  int n = 256;
  PrivacyParams params{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(params, kTestSeed));
  Rng& rng = *ctx.rng();
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(n, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 20.0, &rng);
  double gamma = 0.02;
  double bound = HldTreeOracle::ErrorBound(n, params, gamma);
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  int violations = 0, total = 0;
  for (int trial = 0; trial < 3; ++trial) {
    ASSERT_OK_AND_ASSIGN(auto oracle, HldTreeOracle::Build(g, w, ctx));
    for (int q = 0; q < 500; ++q) {
      VertexId u = static_cast<VertexId>(rng.UniformInt(0, n - 1));
      VertexId v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
      ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(u, v));
      if (std::fabs(d - exact.at(u, v)) > bound) ++violations;
      ++total;
    }
  }
  EXPECT_LT(violations, std::max(5, static_cast<int>(3 * gamma * total)));
}

TEST(HldOracleTest, ChainCountReasonable) {
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  // A path has 1 chain; a star has V-1 chains (one per light leaf, plus
  // the heavy one folded into the root chain).
  ASSERT_OK_AND_ASSIGN(Graph path, MakePathGraph(50));
  ASSERT_OK_AND_ASSIGN(auto path_oracle,
                       HldTreeOracle::Build(path, EdgeWeights(49, 1.0), ctx));
  EXPECT_EQ(path_oracle->num_chains(), 1);

  ASSERT_OK_AND_ASSIGN(Graph star, MakeStarGraph(50));
  ASSERT_OK_AND_ASSIGN(auto star_oracle,
                       HldTreeOracle::Build(star, EdgeWeights(49, 1.0), ctx));
  EXPECT_EQ(star_oracle->num_chains(), 49);
}

TEST(HldOracleTest, SymmetricAndZeroDiagonal) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeBalancedTree(63, 2));
  EdgeWeights w = MakeUniformWeights(g, 1.0, 2.0, ctx.rng());
  ASSERT_OK_AND_ASSIGN(auto oracle, HldTreeOracle::Build(g, w, ctx));
  for (VertexId u = 0; u < 63; u += 7) {
    ASSERT_OK_AND_ASSIGN(double uu, oracle->Distance(u, u));
    EXPECT_DOUBLE_EQ(uu, 0.0);
    for (VertexId v = 0; v < 63; v += 5) {
      ASSERT_OK_AND_ASSIGN(double uv, oracle->Distance(u, v));
      ASSERT_OK_AND_ASSIGN(double vu, oracle->Distance(v, u));
      EXPECT_DOUBLE_EQ(uv, vu);
    }
  }
}

TEST(HldOracleTest, NoiseScaleAdaptsToChainDepth) {
  // The release's sensitivity is the max chain's level count, not log V:
  // a path of 1024 pays levels(1023) = 11, a star pays 1 — the mechanism
  // exploits public topology for free (bench_tree_all_pairs E2b).
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph path, MakePathGraph(1024));
  ASSERT_OK_AND_ASSIGN(
      auto path_oracle,
      HldTreeOracle::Build(path, EdgeWeights(1023, 1.0), ctx));
  EXPECT_DOUBLE_EQ(path_oracle->noise_scale(), 11.0);
  ASSERT_OK_AND_ASSIGN(Graph star, MakeStarGraph(1024));
  ASSERT_OK_AND_ASSIGN(
      auto star_oracle,
      HldTreeOracle::Build(star, EdgeWeights(1023, 1.0), ctx));
  EXPECT_DOUBLE_EQ(star_oracle->noise_scale(), 1.0);
}

TEST(HldOracleTest, RejectsNonTrees) {
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph cycle, MakeCycleGraph(6));
  EXPECT_FALSE(HldTreeOracle::Build(cycle, EdgeWeights(6, 1.0), ctx).ok());
}

TEST(HldOracleTest, ComparableErrorRegimeToRecursiveOracle) {
  // Both tree mechanisms are polylog; on the same input their mean errors
  // should be within an order of magnitude of each other.
  int n = 512;
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(n, ctx.rng()));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 5.0, ctx.rng());
  ASSERT_OK_AND_ASSIGN(DistanceMatrix exact, AllPairsDijkstra(g, w));
  ASSERT_OK_AND_ASSIGN(auto hld, HldTreeOracle::Build(g, w, ctx));
  ASSERT_OK_AND_ASSIGN(auto recursive, TreeAllPairsOracle::Build(g, w, ctx));
  ASSERT_OK_AND_ASSIGN(OracleErrorReport hld_report,
                       EvaluateOracleAllPairs(g, exact, *hld));
  ASSERT_OK_AND_ASSIGN(OracleErrorReport rec_report,
                       EvaluateOracleAllPairs(g, exact, *recursive));
  EXPECT_LT(hld_report.mean_abs_error, 10.0 * rec_report.mean_abs_error);
  EXPECT_LT(rec_report.mean_abs_error, 10.0 * hld_report.mean_abs_error);
}

TEST(HldOracleTest, BatchLookaheadBoundaries) {
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  Rng& rng = *ctx.rng();
  const int n = 500;
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(n, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 5.0, &rng);
  ASSERT_OK_AND_ASSIGN(auto oracle, HldTreeOracle::Build(g, w, ctx));
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

TEST(HldOracleTest, RestoredOracleRedrawsUpdatesAtThePersistedScale) {
  // With a neighbor bound rho != 1 the release's scale is L * rho / eps. A
  // restored oracle must redraw an update epoch's blocks at that scale, so
  // the same epoch under the same seed leaves it bit-identical to the
  // oracle it was saved from.
  Rng rng(kTestSeed);
  const int n = 64;
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(n));
  EdgeWeights w = MakeUniformWeights(g, 0.5, 2.0, &rng);
  const PrivacyParams params{1.0, 0.0, 4.0};
  ASSERT_OK_AND_ASSIGN(ReleaseContext build_ctx,
                       ReleaseContext::Create(params, kTestSeed));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<HldTreeOracle> built,
                       HldTreeOracle::Build(g, w, build_ctx));

  std::vector<ReleasedSection> saved;
  ASSERT_OK(built->SaveReleasedState(&saved));
  std::vector<ReleasedSectionView> views;
  for (const ReleasedSection& s : saved) views.push_back({s.label, s.bytes});
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<DistanceOracle> restored,
                       HldTreeOracle::FromReleasedState(g, w, views));
  ASSERT_NE(restored->AsUpdatable(), nullptr);

  const std::vector<EdgeWeightDelta> epoch = {{0, 1.5}, {31, 0.25}, {62, 3.0}};
  for (UpdatableDistanceOracle* oracle :
       {static_cast<UpdatableDistanceOracle*>(built.get()),
        restored->AsUpdatable()}) {
    ASSERT_OK_AND_ASSIGN(ReleaseContext epoch_ctx,
                         ReleaseContext::Create(params, kTestSeed ^ 1));
    ASSERT_OK(oracle->ApplyWeightUpdates(epoch, epoch_ctx));
  }
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_OK_AND_ASSIGN(double want, built->Distance(u, v));
      ASSERT_OK_AND_ASSIGN(double got, restored->Distance(u, v));
      ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << "d(" << u << ", " << v << ")";
    }
  }
}

TEST(HldOracleTest, RestoreRejectsAnUnusableNoiseScale) {
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(Graph g, MakeRandomTree(40, ctx.rng()));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, ctx.rng());
  ASSERT_OK_AND_ASSIGN(auto oracle, HldTreeOracle::Build(g, w, ctx));
  std::vector<ReleasedSection> saved;
  ASSERT_OK(oracle->SaveReleasedState(&saved));
  for (double scale : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<ReleasedSectionView> views;
    std::vector<double> meta;
    for (const ReleasedSection& s : saved) {
      if (s.label != "meta") {
        views.push_back({s.label, s.bytes});
        continue;
      }
      meta.resize(s.bytes.size() / sizeof(double));
      std::memcpy(meta.data(), s.bytes.data(), s.bytes.size());
    }
    ASSERT_EQ(meta.size(), 5u);
    meta[1] = scale;
    views.push_back(
        {"meta", std::span<const uint8_t>(
                     reinterpret_cast<const uint8_t*>(meta.data()),
                     meta.size() * sizeof(double))});
    Result<std::unique_ptr<DistanceOracle>> restored =
        HldTreeOracle::FromReleasedState(g, w, views);
    ASSERT_FALSE(restored.ok()) << "scale " << scale;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
}

// `saved` with the doubles of section `label` passed through `edit`.
template <typename Edit>
std::vector<ReleasedSection> EditDoubles(std::vector<ReleasedSection> saved,
                                         const std::string& label,
                                         Edit edit) {
  for (ReleasedSection& s : saved) {
    if (s.label != label) continue;
    std::vector<double> values(s.bytes.size() / sizeof(double));
    std::memcpy(values.data(), s.bytes.data(), s.bytes.size());
    edit(values);
    s.bytes.resize(values.size() * sizeof(double));
    std::memcpy(s.bytes.data(), values.data(), s.bytes.size());
  }
  return saved;
}

std::vector<uint64_t> AnswerBits(const DistanceOracle& oracle,
                                 const std::vector<VertexPair>& pairs) {
  std::vector<double> out(pairs.size());
  EXPECT_OK(oracle.DistanceInto(pairs, out.data()));
  std::vector<uint64_t> bits;
  for (double d : out) bits.push_back(std::bit_cast<uint64_t>(d));
  return bits;
}

// A random tree splits into hundreds of chains, so restore slices one
// shared block section by every chain's count.
class HldManyChainRestoreTest : public ::testing::Test {
 protected:
  HldManyChainRestoreTest()
      : rng_(kTestSeed),
        graph_(MakeRandomTree(3000, &rng_).value()),
        weights_(MakeUniformWeights(graph_, 0.0, 10.0, &rng_)) {}

  void SetUp() override {
    ReleaseContext ctx = ReleaseContext::Create(kParams, kTestSeed).value();
    built_ = HldTreeOracle::Build(graph_, weights_, ctx).value();
    ASSERT_GE(built_->num_chains(), 500);
    ASSERT_OK(built_->SaveReleasedState(&saved_));
    for (int i = 0; i < 64; ++i) {
      epoch_.push_back(
          {static_cast<EdgeId>(rng_.UniformInt(0, graph_.num_edges() - 1)),
           rng_.Uniform(0.0, 10.0)});
    }
    for (int i = 0; i < 5000; ++i) {
      const int n = graph_.num_vertices();
      pairs_.emplace_back(static_cast<VertexId>(rng_.UniformInt(0, n - 1)),
                          static_cast<VertexId>(rng_.UniformInt(0, n - 1)));
    }
  }

  Result<std::unique_ptr<DistanceOracle>> Restore(
      const std::vector<ReleasedSection>& sections) const {
    return HldTreeOracle::FromReleasedState(graph_, weights_,
                                            Views(sections));
  }

  static constexpr PrivacyParams kParams{1.0, 0.0, 1.0};
  Rng rng_;
  Graph graph_;
  EdgeWeights weights_;
  std::unique_ptr<HldTreeOracle> built_;
  std::vector<ReleasedSection> saved_;
  std::vector<EdgeWeightDelta> epoch_;
  std::vector<VertexPair> pairs_;
};

TEST_F(HldManyChainRestoreTest, SaveRestoreSaveIsByteIdentical) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<DistanceOracle> restored,
                       Restore(saved_));
  std::vector<ReleasedSection> resaved;
  ASSERT_OK(restored->SaveReleasedState(&resaved));
  ASSERT_EQ(resaved.size(), saved_.size());
  for (size_t i = 0; i < saved_.size(); ++i) {
    EXPECT_EQ(resaved[i].label, saved_[i].label);
    EXPECT_TRUE(resaved[i].bytes == saved_[i].bytes) << saved_[i].label;
  }
}

TEST_F(HldManyChainRestoreTest, AnswersMatchBeforeAndAfterAnEpoch) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<DistanceOracle> restored,
                       Restore(saved_));
  ASSERT_NE(restored->AsUpdatable(), nullptr);
  EXPECT_EQ(AnswerBits(*restored, pairs_), AnswerBits(*built_, pairs_));
  for (UpdatableDistanceOracle* oracle :
       {static_cast<UpdatableDistanceOracle*>(built_.get()),
        restored->AsUpdatable()}) {
    ASSERT_OK_AND_ASSIGN(ReleaseContext epoch_ctx,
                         ReleaseContext::Create(kParams, kTestSeed ^ 1));
    ASSERT_OK(oracle->ApplyWeightUpdates(epoch_, epoch_ctx));
  }
  EXPECT_GT(built_->last_update().dirty_blocks, 64);
  EXPECT_EQ(AnswerBits(*restored, pairs_), AnswerBits(*built_, pairs_));
}

TEST_F(HldManyChainRestoreTest, RestoreRefusesAWrongSensitivity) {
  // Epochs charge the release's epsilon times g / sensitivity, so a
  // persisted sensitivity other than the topology's would charge them at
  // the wrong rate (or refuse every one).
  const int sensitivity = built_->sensitivity();
  for (double persisted : {0.0, -3.0, sensitivity + 1.0, 1000.0}) {
    Result<std::unique_ptr<DistanceOracle>> restored =
        Restore(EditDoubles(saved_, "meta", [&](std::vector<double>& v) {
          v[2] = persisted;
        }));
    ASSERT_FALSE(restored.ok()) << "sensitivity " << persisted;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << restored.status().ToString();
  }

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<DistanceOracle> restored,
                       Restore(saved_));
  auto& hld = static_cast<HldTreeOracle&>(*restored);
  EXPECT_EQ(hld.sensitivity(), sensitivity);
  // A one-edge epoch charges the restored oracle what it charges the one
  // it was saved from.
  const std::vector<EdgeWeightDelta> epoch = {epoch_.front()};
  for (HldTreeOracle* oracle : {built_.get(), &hld}) {
    ASSERT_OK_AND_ASSIGN(ReleaseContext epoch_ctx,
                         ReleaseContext::Create(kParams, kTestSeed ^ 1));
    ASSERT_OK(oracle->ApplyWeightUpdates(epoch, epoch_ctx));
  }
  EXPECT_GT(built_->last_update().charged_epsilon, 0.0);
  EXPECT_EQ(hld.last_update().charged_epsilon,
            built_->last_update().charged_epsilon);
}

TEST_F(HldManyChainRestoreTest, InconsistentBlockImagesAreTypedErrors) {
  std::vector<double> counts;
  EditDoubles(saved_, "chain-block-counts",
              [&](std::vector<double>& values) { counts = values; });
  // Two chains with blocks: moving one block of count between them keeps
  // the total, so only the per-chain check catches it.
  std::vector<size_t> with_blocks;
  for (size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] > 0.0) with_blocks.push_back(c);
  }
  ASSERT_GE(with_blocks.size(), 2u);
  const size_t a = with_blocks[0];
  const size_t b = with_blocks[1];
  const std::pair<const char*, std::vector<ReleasedSection>> cases[] = {
      {"counts shifted between two chains",
       EditDoubles(saved_, "chain-block-counts",
                   [&](std::vector<double>& v) {
                     v[a] -= 1.0;
                     v[b] += 1.0;
                   })},
      {"negative count", EditDoubles(saved_, "chain-block-counts",
                                     [&](std::vector<double>& v) {
                                       v[a] = -v[a];
                                     })},
      {"non-integral count", EditDoubles(saved_, "chain-block-counts",
                                         [&](std::vector<double>& v) {
                                           v[b] += 0.5;
                                         })},
      {"count beyond int", EditDoubles(saved_, "chain-block-counts",
                                       [&](std::vector<double>& v) {
                                         v[b] = 1e300;
                                       })},
      {"one block short",
       EditDoubles(saved_, "chain-blocks",
                   [](std::vector<double>& v) { v.pop_back(); })},
      {"one block long",
       EditDoubles(saved_, "chain-blocks",
                   [](std::vector<double>& v) { v.push_back(0.0); })},
  };
  for (const auto& [name, sections] : cases) {
    Result<std::unique_ptr<DistanceOracle>> restored = Restore(sections);
    ASSERT_FALSE(restored.ok()) << name;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
        << name << ": " << restored.status().ToString();
  }
}

}  // namespace
}  // namespace dpsp
