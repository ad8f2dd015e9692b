// Conformance suite for the unified oracle registry: every registered
// mechanism family must build through OracleRegistry::Create on a common
// workload and satisfy the shared DistanceOracle contract — zero
// self-distance, symmetry on undirected inputs, batch == serial results,
// and a correctly metered accountant/telemetry trail.

#include "core/oracle_registry.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/baselines.h"
#include "dp/release_context.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dpsp {
namespace {

// An even-length canonical path graph satisfies every registered input
// family at once: it is a path, hence a tree, hence connected, and it has
// a perfect matching (edges 0-1, 2-3, ...) the DP solver handles.
constexpr int kNumVertices = 16;

class RegistryConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    Rng rng(kTestSeed);
    ASSERT_OK_AND_ASSIGN(graph_, MakePathGraph(kNumVertices));
    weights_ = MakeUniformWeights(*graph_, 0.1, 0.9, &rng);
  }

  Result<Graph> graph_ = Status::Internal("unset");
  EdgeWeights weights_;
};

TEST_P(RegistryConformanceTest, BuildsAndSatisfiesOracleContract) {
  const std::string& name = GetParam();
  const OracleSpec* spec = OracleRegistry::Global().Find(name);
  ASSERT_NE(spec, nullptr);

  // The declared loss type picks compatible params: a zCDP-metered
  // (Gaussian-calibrated) mechanism needs approximate params with
  // eps < 1; everything else runs at the pure default.
  PrivacyParams params = spec->loss == LossKind::kZcdp
                             ? PrivacyParams{0.5, 1e-6, 1.0}
                             : PrivacyParams{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(params, kTestSeed));
  ASSERT_OK_AND_ASSIGN(
      auto oracle,
      OracleRegistry::Global().Create(name, *graph_, weights_, ctx));

  // The oracle's self-reported name matches its registry key (modulo a
  // parenthesised variant suffix such as "per-pair-laplace(pure)").
  EXPECT_EQ(oracle->Name().rfind(name, 0), 0u) << oracle->Name();

  // Distance(u, u) == 0 exactly, for every vertex.
  for (VertexId u = 0; u < kNumVertices; ++u) {
    ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(u, u));
    EXPECT_EQ(d, 0.0) << name << " self-distance at " << u;
  }

  // Symmetry on the undirected input.
  for (VertexId u = 0; u < kNumVertices; ++u) {
    for (VertexId v = u + 1; v < kNumVertices; ++v) {
      ASSERT_OK_AND_ASSIGN(double duv, oracle->Distance(u, v));
      ASSERT_OK_AND_ASSIGN(double dvu, oracle->Distance(v, u));
      EXPECT_DOUBLE_EQ(duv, dvu) << name << " asymmetric at (" << u << ","
                                 << v << ")";
    }
  }

  // Batched queries agree exactly with serial queries (queries are
  // post-processing of a fixed released object, so both are
  // deterministic).
  std::vector<VertexPair> pairs;
  for (VertexId u = 0; u < kNumVertices; ++u) {
    for (VertexId v = 0; v < kNumVertices; ++v) {
      pairs.emplace_back(u, v);
    }
  }
  ASSERT_OK_AND_ASSIGN(std::vector<double> batch,
                       oracle->DistanceBatch(pairs));
  ASSERT_EQ(batch.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(double serial,
                         oracle->Distance(pairs[i].first, pairs[i].second));
    EXPECT_EQ(batch[i], serial)
        << name << " batch mismatch at (" << pairs[i].first << ","
        << pairs[i].second << ")";
  }

  // Out-of-range queries fail gracefully in both paths.
  EXPECT_FALSE(oracle->Distance(-1, 0).ok());
  EXPECT_FALSE(oracle->Distance(0, kNumVertices).ok());
  std::vector<VertexPair> bad = {{0, kNumVertices + 3}};
  EXPECT_FALSE(oracle->DistanceBatch(bad).ok());

  // Accountant balance: exactly one metered release for private
  // mechanisms, none for the exact oracle; queries above consumed nothing.
  if (spec->consumes_budget) {
    ASSERT_EQ(ctx.accountant().num_releases(), 1);
    EXPECT_EQ(ctx.accountant().entries()[0].label, name);
    EXPECT_DOUBLE_EQ(ctx.accountant().BasicTotal().epsilon, params.epsilon);
    EXPECT_DOUBLE_EQ(ctx.accountant().BasicTotal().delta, params.delta);
  } else {
    EXPECT_EQ(ctx.accountant().num_releases(), 0);
  }

  // Telemetry: one record naming the mechanism, with sane fields.
  ASSERT_EQ(ctx.telemetry().size(), 1u);
  const ReleaseTelemetry& t = ctx.telemetry()[0];
  EXPECT_EQ(t.mechanism.rfind(name, 0), 0u) << t.mechanism;
  EXPECT_GE(t.wall_ms, 0.0);
  if (spec->consumes_budget) {
    EXPECT_DOUBLE_EQ(t.epsilon, params.epsilon);
    EXPECT_GT(t.noise_scale, 0.0);
    // A degenerate covering can release an empty table, so draws and
    // sensitivity are only required to be coherent, not positive.
    EXPECT_GE(t.noise_draws, 0);
    EXPECT_GE(t.sensitivity, 0.0);
  } else {
    EXPECT_EQ(t.epsilon, 0.0);
  }
}

TEST_P(RegistryConformanceTest, RefusedReleaseDrawsNoNoise) {
  const std::string& name = GetParam();
  const OracleSpec* spec = OracleRegistry::Global().Find(name);
  ASSERT_NE(spec, nullptr);
  if (!spec->consumes_budget) GTEST_SKIP() << name << " charges nothing";
  PrivacyParams params = spec->loss == LossKind::kZcdp
                             ? PrivacyParams{0.5, 1e-6, 1.0}
                             : PrivacyParams{1.0, 0.0, 1.0};
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(params, kTestSeed));
  // Spend the whole budget without drawing noise, the way WAL recovery
  // replays a spent ledger.
  ctx.SetTotalBudget(params);
  ASSERT_OK(ctx.accountant().Record("spent", ctx.ReleaseLoss()));
  Result<std::unique_ptr<DistanceOracle>> refused =
      OracleRegistry::Global().Create(name, *graph_, weights_, ctx);
  ASSERT_FALSE(refused.ok()) << name;
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // Once the budget is raised, the release draws exactly what a fresh
  // context with the same seed draws: the refusal consumed no noise.
  ctx.SetTotalBudget(
      PrivacyParams{4.0 * params.epsilon, 4.0 * params.delta, 1.0});
  ASSERT_OK_AND_ASSIGN(
      auto admitted,
      OracleRegistry::Global().Create(name, *graph_, weights_, ctx));
  ASSERT_OK_AND_ASSIGN(ReleaseContext fresh_ctx,
                       ReleaseContext::Create(params, kTestSeed));
  ASSERT_OK_AND_ASSIGN(
      auto fresh,
      OracleRegistry::Global().Create(name, *graph_, weights_, fresh_ctx));
  for (VertexId u = 0; u < kNumVertices; ++u) {
    for (VertexId v = 0; v < kNumVertices; ++v) {
      ASSERT_OK_AND_ASSIGN(double got, admitted->Distance(u, v));
      ASSERT_OK_AND_ASSIGN(double want, fresh->Distance(u, v));
      ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << name << " d(" << u << ", " << v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredOracles, RegistryConformanceTest,
    ::testing::ValuesIn(OracleRegistry::Global().Names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;
      for (char& ch : id) {
        if (ch == '-') ch = '_';
      }
      return id;
    });

TEST(OracleRegistryTest, RefusedTopologyLogsNoIntentAndDrawsNothing) {
  // Each tree, path, spanning-tree or matching family checks its public
  // topology before the budget check and the WAL intent, so a release
  // over a graph of the wrong shape leaves no intent for recovery to count
  // as spent, and draws nothing.
  ASSERT_OK_AND_ASSIGN(
      Graph cycle,
      Graph::Create(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}));
  // A path, but not in the canonical layout (edge i joins i and i + 1)
  // that path-hierarchy requires.
  ASSERT_OK_AND_ASSIGN(
      Graph shuffled_path,
      Graph::Create(6, {{0, 2}, {2, 1}, {1, 3}, {3, 5}, {5, 4}}));
  // No spanning tree: two components.
  ASSERT_OK_AND_ASSIGN(Graph disconnected,
                       Graph::Create(4, {{0, 1}, {2, 3}}));
  // No perfect matching: an odd vertex count, and an even one split into
  // two odd-size components.
  ASSERT_OK_AND_ASSIGN(Graph odd_triangle,
                       Graph::Create(3, {{0, 1}, {1, 2}, {2, 0}}));
  ASSERT_OK_AND_ASSIGN(
      Graph odd_components,
      Graph::Create(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}));
  const struct {
    const char* mechanism;
    const Graph& graph;
  } cases[] = {{"tree-hld", cycle},
               {"tree-recursive", cycle},
               {"path-hierarchy", cycle},
               {"path-hierarchy", shuffled_path},
               {"private-mst", disconnected},
               {"private-matching", odd_triangle},
               {"private-matching", odd_components}};
  Rng fresh(kTestSeed);
  const double first_draw = fresh.Laplace(1.0);
  for (const auto& c : cases) {
    ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                         ReleaseContext::Create(PrivacyParams{}, kTestSeed));
    CountingHook hook;
    ctx.SetDurabilityHook(&hook);
    Result<std::unique_ptr<DistanceOracle>> refused =
        OracleRegistry::Global().Create(
            c.mechanism, c.graph,
            EdgeWeights(static_cast<size_t>(c.graph.num_edges()), 1.0), ctx);
    const std::string label =
        std::string(c.mechanism) + " over " + c.graph.ToString();
    ASSERT_FALSE(refused.ok()) << label;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << label << ": " << refused.status().ToString();
    EXPECT_EQ(hook.intents, 0u) << label;
    EXPECT_EQ(ctx.accountant().num_releases(), 0) << label;
    EXPECT_EQ(ctx.rng()->Laplace(1.0), first_draw) << label;
  }
}

TEST(OracleRegistryTest, AllSevenMechanismFamiliesRegistered) {
  const OracleRegistry& registry = OracleRegistry::Global();
  for (const char* name :
       {"exact", "per-pair-laplace", "synthetic-graph", "tree-recursive",
        "tree-hld", "path-hierarchy", "bounded-weight", "private-mst",
        "private-matching", "bounded-weight-gaussian"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
  EXPECT_GE(registry.size(), 10);
}

TEST(OracleRegistryTest, EverySpecDeclaresItsLossType) {
  const OracleRegistry& registry = OracleRegistry::Global();
  for (const std::string& name : registry.Names()) {
    const OracleSpec* spec = registry.Find(name);
    ASSERT_NE(spec, nullptr);
    // Laplace-calibrated mechanisms consume the context's params (kPure
    // declaration); only the Gaussian-calibrated variant is zCDP-metered.
    if (name == "bounded-weight-gaussian") {
      EXPECT_EQ(spec->loss, LossKind::kZcdp) << name;
    } else {
      EXPECT_EQ(spec->loss, LossKind::kPure) << name;
    }
  }
}

TEST(OracleRegistryTest, GaussianVariantIsMeteredAtItsZcdpRate) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(16));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  PrivacyParams params{0.5, 1e-6, 1.0};
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(params, kTestSeed, AccountingPolicy::kZcdp));
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       OracleRegistry::Global().Create(
                           "bounded-weight-gaussian", g, w, ctx));
  (void)oracle;
  ASSERT_EQ(ctx.accountant().num_releases(), 1);
  const AccountantEntry& entry = ctx.accountant().entries()[0];
  EXPECT_EQ(entry.loss.kind, LossKind::kZcdp);
  ASSERT_OK_AND_ASSIGN(PrivacyLoss expected,
                       PrivacyLoss::GaussianFromParams(params));
  EXPECT_DOUBLE_EQ(entry.loss.rho, expected.rho);
  // The telemetry mirrors the charged loss.
  ASSERT_EQ(ctx.telemetry().size(), 1u);
  EXPECT_EQ(ctx.telemetry()[0].loss.kind, LossKind::kZcdp);
  EXPECT_DOUBLE_EQ(ctx.telemetry()[0].epsilon, params.epsilon);
}

TEST(OracleRegistryTest, UnknownNameIsNotFound) {
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(4));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  Result<std::unique_ptr<DistanceOracle>> result =
      OracleRegistry::Global().Create("no-such-oracle", g, w, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(OracleRegistryTest, RejectsDuplicateAndInvalidRegistrations) {
  OracleRegistry registry;
  OracleSpec spec;
  spec.name = "custom";
  spec.factory = [](const Graph& g, const EdgeWeights& w,
                    ReleaseContext& ctx) {
    return MakeExactOracle(g, w, ctx);
  };
  ASSERT_OK(registry.Register(spec));
  EXPECT_FALSE(registry.Register(spec).ok());  // duplicate

  OracleSpec unnamed;
  unnamed.factory = spec.factory;
  EXPECT_FALSE(registry.Register(unnamed).ok());

  OracleSpec no_factory;
  no_factory.name = "null-factory";
  EXPECT_FALSE(registry.Register(no_factory).ok());
}

TEST(OracleRegistryTest, NewRegistrationIsCreatableImmediately) {
  // Adding a mechanism to the pipeline is one Register call.
  OracleRegistry registry;
  OracleSpec spec;
  spec.name = "exact-copy";
  spec.consumes_budget = false;
  spec.factory = [](const Graph& g, const EdgeWeights& w,
                    ReleaseContext& ctx) {
    return MakeExactOracle(g, w, ctx);
  };
  ASSERT_OK(registry.Register(std::move(spec)));

  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(6));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, &rng);
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  ASSERT_OK_AND_ASSIGN(auto oracle,
                       registry.Create("exact-copy", g, w, ctx));
  ASSERT_OK_AND_ASSIGN(double d, oracle->Distance(0, 5));
  EXPECT_GT(d, 0.0);
}

TEST(OracleRegistryTest, NamesForInputRespectsTheSpecificityChain) {
  const OracleRegistry& registry = OracleRegistry::Global();

  // A generic connected graph only gets the any-connected mechanisms.
  std::vector<std::string> generic =
      registry.NamesForInput(OracleInput::kAnyConnected);
  for (const char* excluded : {"tree-recursive", "tree-hld",
                               "path-hierarchy", "private-matching"}) {
    for (const std::string& name : generic) EXPECT_NE(name, excluded);
  }

  // A tree additionally gets the tree mechanisms but not the path one.
  std::vector<std::string> tree = registry.NamesForInput(OracleInput::kTree);
  auto contains = [](const std::vector<std::string>& names,
                     const char* name) {
    for (const std::string& n : names) {
      if (n == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains(tree, "tree-recursive"));
  EXPECT_TRUE(contains(tree, "tree-hld"));
  EXPECT_FALSE(contains(tree, "path-hierarchy"));

  // A path gets everything except perfect-matching, unless the caller
  // vouches for one.
  std::vector<std::string> path = registry.NamesForInput(OracleInput::kPath);
  EXPECT_TRUE(contains(path, "path-hierarchy"));
  EXPECT_TRUE(contains(path, "tree-recursive"));
  EXPECT_FALSE(contains(path, "private-matching"));
  std::vector<std::string> path_matchable =
      registry.NamesForInput(OracleInput::kPath,
                             /*has_perfect_matching=*/true);
  EXPECT_TRUE(contains(path_matchable, "private-matching"));
  EXPECT_EQ(path_matchable.size(), OracleRegistry::Global().Names().size());
}

}  // namespace
}  // namespace dpsp
