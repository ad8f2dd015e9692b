// Tests for the shared release pipeline context: validate-once parameters,
// accountant metering through MeteredBuild, total-budget enforcement with
// rollback, and the telemetry trail.

#include "dp/release_context.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "common/table.h"
#include "core/tree_distance.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dpsp {
namespace {

// Meters one release of `loss` under `label` through ctx.MeteredBuild with
// a builder that draws nothing, so a test drives the ledger the way every
// mechanism does without building one.
Status MeterRelease(ReleaseContext& ctx, const std::string& label,
                    const PrivacyLoss& loss) {
  return ctx
      .MeteredBuild(
          label, loss,
          [] { return Result<std::unique_ptr<int>>(std::make_unique<int>()); },
          [](int, ReleaseTelemetry&) {})
      .status();
}

// One release of the context's own params().
Status MeterRelease(ReleaseContext& ctx, const std::string& label) {
  return MeterRelease(ctx, label, ctx.ReleaseLoss());
}

TEST(ReleaseContextTest, ValidatesParamsOnceAtCreation) {
  PrivacyParams bad{/*epsilon=*/-1.0, 0.0, 1.0};
  EXPECT_FALSE(ReleaseContext::Create(bad, kTestSeed).ok());

  PrivacyParams bad_delta{1.0, /*delta=*/1.5, 1.0};
  EXPECT_FALSE(ReleaseContext::Create(bad_delta, kTestSeed).ok());

  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  EXPECT_OK(ctx.params().Validate());
  EXPECT_EQ(ctx.accountant().num_releases(), 0);
  EXPECT_EQ(ctx.last_telemetry(), nullptr);
}

TEST(ReleaseContextTest, MeteredBuildMetersTheAccountant) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{0.5, 0.0, 1.0}, kTestSeed));
  ASSERT_OK(MeterRelease(ctx, "first"));
  ASSERT_OK(MeterRelease(ctx, "second", PrivacyLoss::Pure(0.25)));
  EXPECT_EQ(ctx.accountant().num_releases(), 2);
  EXPECT_DOUBLE_EQ(ctx.accountant().BasicTotal().epsilon, 0.75);
  // One telemetry record per release, in release order, carrying the
  // charged certificate.
  ASSERT_EQ(ctx.telemetry().size(), 2u);
  EXPECT_EQ(ctx.telemetry()[0].mechanism, "first");
  EXPECT_EQ(ctx.telemetry()[1].mechanism, "second");
  EXPECT_DOUBLE_EQ(ctx.telemetry()[1].epsilon, 0.25);
}

TEST(ReleaseContextTest, TotalBudgetBlocksOverspendAndRollsBack) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));
  ctx.SetTotalBudget(PrivacyParams{1.5, 0.0, 1.0});
  ASSERT_OK(MeterRelease(ctx, "fits"));

  Status overspend = MeterRelease(ctx, "does-not-fit");
  EXPECT_FALSE(overspend.ok());
  EXPECT_EQ(overspend.code(), StatusCode::kFailedPrecondition);
  // The rejected charge left the ledger untouched.
  EXPECT_EQ(ctx.accountant().num_releases(), 1);

  // A smaller release still fits.
  ASSERT_OK(MeterRelease(ctx, "small", PrivacyLoss::Pure(0.25)));
  EXPECT_EQ(ctx.accountant().num_releases(), 2);
}

TEST(ReleaseContextTest, BudgetExhaustionStopsOracleConstruction) {
  Rng unused(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph g, MakePathGraph(8));
  EdgeWeights w(static_cast<size_t>(g.num_edges()), 1.0);

  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));
  ctx.SetTotalBudget(PrivacyParams{1.0, 0.0, 1.0});
  ASSERT_OK_AND_ASSIGN(auto first, TreeAllPairsOracle::Build(g, w, ctx));
  (void)first;

  auto second = TreeAllPairsOracle::Build(g, w, ctx);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ctx.accountant().num_releases(), 1);
  EXPECT_EQ(ctx.telemetry().size(), 1u);
}

TEST(ReleaseContextTest, PureBudgetAcceptsBasicCompositionFit) {
  // Regression: once the advanced-composition epsilon drops below the
  // basic total, its delta_slack must not disqualify a pure (delta = 0)
  // budget that the basic total certifiably fits.
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{0.05, 0.0, 1.0}, kTestSeed));
  ctx.SetTotalBudget(PrivacyParams{5.0, 0.0, 1.0}, /*delta_slack=*/1e-9);
  for (int i = 0; i < 96; ++i) {
    ASSERT_OK(MeterRelease(ctx, StrFormat("refresh-%02d", i)));
  }
  EXPECT_EQ(ctx.accountant().num_releases(), 96);
  EXPECT_NEAR(ctx.accountant().BasicTotal().epsilon, 4.8, 1e-9);
}

TEST(ReleaseContextTest, FailedBuildConsumesNoBudget) {
  // A factory that fails validation must leave the shared ledger and
  // telemetry untouched (the charge commits only after a successful
  // build).
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph cycle,
                       Graph::Create(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}));
  EdgeWeights w(4, 1.0);
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed));

  auto not_a_tree = TreeAllPairsOracle::Build(cycle, w, ctx);
  EXPECT_FALSE(not_a_tree.ok());
  EXPECT_EQ(ctx.accountant().num_releases(), 0);
  EXPECT_TRUE(ctx.telemetry().empty());
}

TEST(ReleaseContextTest, TelemetryAccumulatesPerRelease) {
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  ReleaseTelemetry t;
  t.mechanism = "fake";
  t.epsilon = 1.0;
  t.noise_draws = 7;
  ctx.RecordTelemetry(t);
  ASSERT_NE(ctx.last_telemetry(), nullptr);
  EXPECT_EQ(ctx.last_telemetry()->mechanism, "fake");
  EXPECT_EQ(ctx.last_telemetry()->noise_draws, 7);
  EXPECT_NE(ctx.ToString().find("fake"), std::string::npos);
}

TEST(ReleaseContextTest, SeededRngIsDeterministic) {
  ASSERT_OK_AND_ASSIGN(ReleaseContext a,
                       ReleaseContext::Create(PrivacyParams{}, 42));
  ASSERT_OK_AND_ASSIGN(ReleaseContext b,
                       ReleaseContext::Create(PrivacyParams{}, 42));
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.rng()->Uniform(), b.rng()->Uniform());
  }
}

TEST(ReleaseContextTest, DefaultPolicyIsBasic) {
  ASSERT_OK_AND_ASSIGN(ReleaseContext ctx,
                       ReleaseContext::Create(PrivacyParams{}, kTestSeed));
  EXPECT_EQ(ctx.policy(), AccountingPolicy::kBasic);
  EXPECT_EQ(ctx.accountant().policy(), AccountingPolicy::kBasic);
}

TEST(ReleaseContextTest, PolicySelectsTheAccountant) {
  for (AccountingPolicy policy :
       {AccountingPolicy::kBasic, AccountingPolicy::kAdvanced,
        AccountingPolicy::kZcdp}) {
    ASSERT_OK_AND_ASSIGN(
        ReleaseContext ctx,
        ReleaseContext::Create(PrivacyParams{0.5, 1e-6, 1.0}, kTestSeed,
                               policy));
    EXPECT_EQ(ctx.policy(), policy);
  }
}

TEST(ReleaseContextTest, ZcdpPolicyRefusesApproximateLaplaceReleases) {
  // Approximate params charge an approximate-DP loss, which has no exact
  // zCDP rate; the zCDP context refuses BEFORE any noise would be drawn.
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{0.5, 1e-6, 1.0}, kTestSeed,
                             AccountingPolicy::kZcdp));
  Status status = MeterRelease(ctx, "laplace-approx");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ctx.accountant().num_releases(), 0);
  // A Gaussian loss at the same params is its natural currency.
  ASSERT_OK_AND_ASSIGN(PrivacyLoss gaussian,
                       PrivacyLoss::GaussianFromParams(ctx.params()));
  EXPECT_OK(MeterRelease(ctx, "gaussian", gaussian));
}

TEST(ReleaseContextTest, ZcdpBudgetAdmitsMoreGaussianReleasesThanBasic) {
  // The point of the policy: under the same ceiling, rho-sum accounting
  // admits strictly more identical Gaussian releases than summing each
  // release's (eps, delta) certificate.
  PrivacyParams per_release{0.5, 1e-6, 1.0};
  PrivacyParams budget{2.0, 1e-4, 1.0};
  auto count_admitted = [&](AccountingPolicy policy) {
    ReleaseContext ctx =
        ReleaseContext::Create(per_release, kTestSeed, policy).value();
    ctx.SetTotalBudget(budget, /*delta_slack=*/1e-5);
    PrivacyLoss loss = PrivacyLoss::GaussianFromParams(per_release).value();
    int admitted = 0;
    while (MeterRelease(ctx, "gaussian-refresh", loss).ok()) ++admitted;
    return admitted;
  };
  int basic = count_admitted(AccountingPolicy::kBasic);
  int zcdp = count_admitted(AccountingPolicy::kZcdp);
  EXPECT_GT(zcdp, basic);
  EXPECT_EQ(basic, 4);  // floor(2.0 / 0.5) under Lemma 3.3
}

TEST(ReleaseContextTest, SpentAndRemainingBudgetTrackThePolicy) {
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{0.5, 0.0, 1.0}, kTestSeed));
  // No budget installed: infinite headroom.
  EXPECT_TRUE(std::isinf(ctx.RemainingBudget().epsilon));
  ctx.SetTotalBudget(PrivacyParams{2.0, 0.0, 1.0});
  ASSERT_OK(MeterRelease(ctx, "one"));
  ASSERT_OK(MeterRelease(ctx, "two"));
  EXPECT_DOUBLE_EQ(ctx.SpentTotal().epsilon, 1.0);
  EXPECT_DOUBLE_EQ(ctx.RemainingBudget().epsilon, 1.0);
  EXPECT_DOUBLE_EQ(ctx.RemainingBudget().delta, 0.0);
}

TEST(ReleaseContextTest, DeltaExhaustedLedgerReportsZeroHeadroom) {
  // A ledger whose summed delta already exceeds a later-installed
  // budget's delta can never admit again under any bound; epsilon
  // headroom must read zero, not budget-minus-basic-epsilon.
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{0.1, 1e-4, 1.0}, kTestSeed));
  for (int i = 0; i < 5; ++i) ASSERT_OK(MeterRelease(ctx, "early"));
  ctx.SetTotalBudget(PrivacyParams{4.0, 1e-4, 1.0});  // delta < 5e-4 spent
  EXPECT_DOUBLE_EQ(ctx.RemainingBudget().epsilon, 0.0);
  EXPECT_FALSE(MeterRelease(ctx, "late").ok());
}

TEST(ReleaseContextTest, ZcdpHeadroomIsZeroWhenBudgetCannotFundTheSlack) {
  // A zCDP context whose budget delta is below the conversion's target
  // delta will refuse every release; reporting the untouched budget as
  // headroom would tell remote clients to retry forever.
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{0.5, 1e-6, 1.0}, kTestSeed,
                             AccountingPolicy::kZcdp));
  ctx.SetTotalBudget(PrivacyParams{2.0, 0.0, 1.0}, /*delta_slack=*/1e-9);
  EXPECT_DOUBLE_EQ(ctx.RemainingBudget().epsilon, 0.0);
  ASSERT_OK_AND_ASSIGN(PrivacyLoss loss,
                       PrivacyLoss::GaussianFromParams(ctx.params()));
  EXPECT_FALSE(MeterRelease(ctx, "never-admitted", loss).ok());
}

TEST(ReleaseContextTest, PureBudgetHeadroomIgnoresAdvancedBound) {
  // A pure (delta = 0) budget only ever admits through basic
  // composition, so headroom must come off the basic total even where
  // the (delta-carrying) advanced bound has a smaller epsilon.
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext ctx,
      ReleaseContext::Create(PrivacyParams{0.01, 0.0, 1.0}, kTestSeed));
  ctx.SetTotalBudget(PrivacyParams{4.0, 0.0, 1.0});
  for (int i = 0; i < 200; ++i) ASSERT_OK(MeterRelease(ctx, "r"));
  EXPECT_NEAR(ctx.RemainingBudget().epsilon, 2.0, 1e-9);

  // The same ledger under an approximate budget may use the tighter
  // advanced bound for headroom.
  ASSERT_OK_AND_ASSIGN(
      ReleaseContext approx,
      ReleaseContext::Create(PrivacyParams{0.01, 0.0, 1.0}, kTestSeed));
  approx.SetTotalBudget(PrivacyParams{4.0, 1e-5, 1.0});
  for (int i = 0; i < 200; ++i) ASSERT_OK(MeterRelease(approx, "r"));
  EXPECT_GT(approx.RemainingBudget().epsilon, 2.0);
}

}  // namespace
}  // namespace dpsp
