// Conformance suite for the SIMD kernel dispatch (common/cpu.h,
// core/simd_kernels.h): the AVX2 batch kernels and the portable scalar
// loops must be bit-identical — same released structures, same query
// results, same error paths — on every registered oracle. The suite runs
// each workload twice, once under the ambient dispatch and once under
// ScopedForceScalar, and compares with EXPECT_EQ on raw doubles (no
// tolerance: the kernels share one IEEE operation order by construction).
//
// On machines without AVX2 (or with DPSP_FORCE_SCALAR set) both legs run
// the scalar path and the suite degenerates to a determinism check, which
// is still the contract: dispatch must never change results.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cpu.h"
#include "core/oracle_registry.h"
#include "dp/release_context.h"
#include "graph/generators.h"
#include "store/oracle_store.h"
#include "test_util.h"

namespace dpsp {
namespace {

PrivacyParams ParamsFor(const OracleSpec& spec) {
  return spec.loss == LossKind::kZcdp ? PrivacyParams{0.5, 1e-6, 1.0}
                                      : PrivacyParams{1.0, 0.0, 1.0};
}

std::vector<VertexPair> AllPairs(int n) {
  std::vector<VertexPair> pairs;
  pairs.reserve(static_cast<size_t>(n) * static_cast<size_t>(n));
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) pairs.emplace_back(u, v);
  }
  return pairs;
}

TEST(SimdDispatchTest, ForceScalarSwitchControlsDispatch) {
  // Whatever the ambient state, a forced scope must pin scalar and
  // restore on exit.
  bool ambient = SimdKernelsEnabled();
  {
    ScopedForceScalar force(true);
    EXPECT_FALSE(SimdKernelsEnabled());
    EXPECT_TRUE(ForceScalarKernels());
  }
  EXPECT_EQ(SimdKernelsEnabled(), ambient);
  // The dispatch decision is the documented conjunction.
  EXPECT_EQ(SimdKernelsEnabled(),
            SimdKernelsCompiled() && CpuHasAvx2() && !ForceScalarKernels());
  EXPECT_NE(SimdDispatchDescription(), nullptr);
}

TEST(SimdDispatchTest, ScopedForceScalarNests) {
  ScopedForceScalar outer(true);
  EXPECT_TRUE(ForceScalarKernels());
  {
    ScopedForceScalar inner(false);
    EXPECT_FALSE(ForceScalarKernels());
  }
  EXPECT_TRUE(ForceScalarKernels());  // outer override restored
}

// Every registered oracle, small canonical workload: queries and builds
// must not depend on the dispatch path.
class SimdConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr int kNumVertices = 16;

  void SetUp() override {
    Rng rng(kTestSeed);
    ASSERT_OK_AND_ASSIGN(graph_, MakePathGraph(kNumVertices));
    weights_ = MakeUniformWeights(*graph_, 0.1, 0.9, &rng);
  }

  Result<Graph> graph_ = Status::Internal("unset");
  EdgeWeights weights_;
};

TEST_P(SimdConformanceTest, QueriesBitIdenticalAcrossDispatch) {
  const std::string& name = GetParam();
  const OracleSpec* spec = OracleRegistry::Global().Find(name);
  ASSERT_NE(spec, nullptr);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(ParamsFor(*spec), kTestSeed));
  ASSERT_OK_AND_ASSIGN(
      auto oracle,
      OracleRegistry::Global().Create(name, *graph_, weights_, ctx));

  // One released object, the full all-pairs batch (256 pairs clears every
  // kernel's minimum-batch threshold), answered under both dispatch modes.
  std::vector<VertexPair> pairs = AllPairs(kNumVertices);
  ASSERT_OK_AND_ASSIGN(std::vector<double> ambient,
                       oracle->DistanceBatch(pairs));
  ScopedForceScalar force(true);
  ASSERT_OK_AND_ASSIGN(std::vector<double> scalar,
                       oracle->DistanceBatch(pairs));
  ASSERT_EQ(ambient.size(), scalar.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(ambient[i], scalar[i])
        << name << " dispatch mismatch at (" << pairs[i].first << ","
        << pairs[i].second << ")";
  }
}

TEST_P(SimdConformanceTest, BuildsBitIdenticalAcrossDispatch) {
  // Builds route noise through the same fixed Rng stream regardless of
  // dispatch, so two same-seed builds under opposite modes must release
  // identical structures.
  const std::string& name = GetParam();
  const OracleSpec* spec = OracleRegistry::Global().Find(name);
  ASSERT_NE(spec, nullptr);
  PrivacyParams params = ParamsFor(*spec);
  std::vector<VertexPair> pairs = AllPairs(kNumVertices);

  ASSERT_OK_AND_ASSIGN(ReleaseContext ambient_ctx,
                       ReleaseContext::Create(params, kTestSeed));
  ASSERT_OK_AND_ASSIGN(auto ambient_oracle,
                       OracleRegistry::Global().Create(name, *graph_,
                                                       weights_, ambient_ctx));
  ASSERT_OK_AND_ASSIGN(std::vector<double> ambient,
                       ambient_oracle->DistanceBatch(pairs));

  ScopedForceScalar force(true);
  ASSERT_OK_AND_ASSIGN(ReleaseContext scalar_ctx,
                       ReleaseContext::Create(params, kTestSeed));
  ASSERT_OK_AND_ASSIGN(auto scalar_oracle,
                       OracleRegistry::Global().Create(name, *graph_,
                                                       weights_, scalar_ctx));
  ASSERT_OK_AND_ASSIGN(std::vector<double> scalar,
                       scalar_oracle->DistanceBatch(pairs));
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(ambient[i], scalar[i])
        << name << " build mismatch at (" << pairs[i].first << ","
        << pairs[i].second << ")";
  }
}

TEST_P(SimdConformanceTest, ErrorPathsMatchAcrossDispatch) {
  const std::string& name = GetParam();
  const OracleSpec* spec = OracleRegistry::Global().Find(name);
  ASSERT_NE(spec, nullptr);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(ParamsFor(*spec), kTestSeed));
  ASSERT_OK_AND_ASSIGN(
      auto oracle,
      OracleRegistry::Global().Create(name, *graph_, weights_, ctx));

  // A big batch with one invalid pair buried mid-stream: both paths must
  // reject with the same status, however far their main loops advanced.
  std::vector<VertexPair> bad = AllPairs(kNumVertices);
  bad[bad.size() / 2] = {0, kNumVertices + 3};
  bad.push_back({-1, 0});
  Result<std::vector<double>> ambient = oracle->DistanceBatch(bad);
  ScopedForceScalar force(true);
  Result<std::vector<double>> scalar = oracle->DistanceBatch(bad);
  ASSERT_FALSE(ambient.ok()) << name;
  ASSERT_FALSE(scalar.ok()) << name;
  EXPECT_EQ(ambient.status().code(), scalar.status().code()) << name;
  EXPECT_EQ(ambient.status().message(), scalar.status().message()) << name;
}

TEST_P(SimdConformanceTest, SnapshotReloadBitIdenticalAcrossDispatch) {
  // The durability analogue of the dispatch contract: released state
  // saved under one dispatch mode and reloaded under the other must
  // answer bit-identically — a snapshot that froze dispatch-dependent
  // bytes, or a loader that redrew anything, would diverge here.
  const std::string& name = GetParam();
  const OracleSpec* spec = OracleRegistry::Global().Find(name);
  ASSERT_NE(spec, nullptr);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(ParamsFor(*spec), kTestSeed));
  ASSERT_OK_AND_ASSIGN(
      auto oracle,
      OracleRegistry::Global().Create(name, *graph_, weights_, ctx));
  std::vector<VertexPair> pairs = AllPairs(kNumVertices);
  ASSERT_OK_AND_ASSIGN(std::vector<double> ambient,
                       oracle->DistanceBatch(pairs));

  std::string path = ::testing::TempDir() + "dpsp_simd_XXXXXX";
  ASSERT_NE(mkdtemp(path.data()), nullptr);
  path += "/oracle.snap";
  ASSERT_OK(store::SaveOracleSnapshot(path, *oracle,
                                      {name, "path-16", "conformance"}));

  ScopedForceScalar force(true);
  ASSERT_OK_AND_ASSIGN(store::SnapshotReader reader,
                       store::SnapshotReader::Open(path));
  ASSERT_OK_AND_ASSIGN(auto reloaded, store::LoadOracleSnapshot(
                                          reader, *graph_, weights_));
  ASSERT_OK_AND_ASSIGN(std::vector<double> scalar,
                       reloaded->DistanceBatch(pairs));
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(ambient[i], scalar[i])
        << name << " snapshot-reload mismatch at (" << pairs[i].first
        << "," << pairs[i].second << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredOracles, SimdConformanceTest,
    ::testing::ValuesIn(OracleRegistry::Global().Names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;
      for (char& ch : id) {
        if (ch == '-') ch = '_';
      }
      return id;
    });

// Scale case: the gather kernels change code paths with table size (the
// LCA sparse table's float-exponent log2 needs its round-up correction
// only once d exceeds 2^24 exactness — large inputs keep that corner
// honest) so the tree oracles also get a V=131072 leg; tree-hld's long
// multi-chain climbs ride along as a determinism check.
class SimdLargeScaleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SimdLargeScaleTest, LargeTreeBitIdenticalAcrossDispatch) {
  const std::string& name = GetParam();
  constexpr int kBigV = 131072;
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph path, MakePathGraph(kBigV));
  ASSERT_OK_AND_ASSIGN(Graph random_tree, MakeRandomTree(kBigV, &rng));

  for (const Graph* g : {&path, &random_tree}) {
    EdgeWeights w = MakeUniformWeights(*g, 0.0, 10.0, &rng);
    ASSERT_OK_AND_ASSIGN(
        ReleaseContext ctx,
        ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));
    ASSERT_OK_AND_ASSIGN(auto oracle,
                         OracleRegistry::Global().Create(name, *g, w, ctx));
    std::vector<VertexPair> pairs;
    pairs.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
      pairs.emplace_back(static_cast<VertexId>(rng.UniformInt(0, kBigV - 1)),
                         static_cast<VertexId>(rng.UniformInt(0, kBigV - 1)));
    }
    ASSERT_OK_AND_ASSIGN(std::vector<double> ambient,
                         oracle->DistanceBatch(pairs));
    ScopedForceScalar force(true);
    ASSERT_OK_AND_ASSIGN(std::vector<double> scalar,
                         oracle->DistanceBatch(pairs));
    for (size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_EQ(ambient[i], scalar[i])
          << name << " at V=" << kBigV << " pair index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TreeOracles, SimdLargeScaleTest,
                         ::testing::Values("tree-recursive", "tree-hld"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string id = info.param;
                           for (char& ch : id) {
                             if (ch == '-') ch = '_';
                           }
                           return id;
                         });

}  // namespace
}  // namespace dpsp
