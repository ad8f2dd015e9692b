// The shared execution context every release pipeline runs through.
//
// A deployment serving many mechanisms needs one place that (a) validates
// the privacy parameters exactly once, (b) meters every release through the
// budget accountant, (c) supplies the seeded randomness, and (d) collects
// release telemetry (sensitivity, noise scale, draw count, wall time) for
// monitoring. ReleaseContext bundles all four; every DistanceOracle
// builder takes one instead of raw (params, rng) pairs, and MeteredBuild /
// MeteredUpdate are the only way a release draws noise or charges the
// ledger.
//
// Accounting is pluggable: Create(params, seed, policy) selects which
// composition theorem the ledger certifies totals and admits releases by
// (dp/accountant.h). Every release is metered as a PrivacyLoss — its
// natural currency (pure / approximate / zCDP) — so a Gaussian release can
// spend its exact rho rate instead of being flattened to (eps, delta).

#ifndef DPSP_DP_RELEASE_CONTEXT_H_
#define DPSP_DP_RELEASE_CONTEXT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/table.h"
#include "dp/accountant.h"
#include "dp/privacy.h"
#include "dp/privacy_loss.h"

namespace dpsp {

/// What one release through the pipeline did, for monitoring dashboards.
struct ReleaseTelemetry {
  /// Mechanism name as registered (e.g. "tree-recursive").
  std::string mechanism;
  /// Budget drawn for the release, as its (eps, delta) certificate.
  double epsilon = 0.0;
  double delta = 0.0;
  /// The loss the release was metered at. Left default (invalid) on a
  /// record that charges nothing (RecordTelemetry).
  PrivacyLoss loss;
  /// The l1 sensitivity the noise was calibrated to (0 when exact).
  double sensitivity = 0.0;
  /// Per-value noise scale of the release (0 when exact).
  double noise_scale = 0.0;
  /// Number of noise draws the release consumed (0 when exact).
  int noise_draws = 0;
  /// Wall-clock construction time of the released object.
  double wall_ms = 0.0;

  std::string ToString() const;
};

/// Bundles the per-release PrivacyParams (validated once at construction),
/// the budget accountant, the seeded Rng, and release telemetry. Movable,
/// not copyable: a context is one ledger.
class ReleaseContext {
 public:
  /// Validates `params` once; every release built through this context may
  /// rely on them being valid. The context owns a fresh Rng seeded with
  /// `seed` and an empty accountant for `policy` (kBasic preserves the
  /// historical totals and admission bit-for-bit).
  static Result<ReleaseContext> Create(
      const PrivacyParams& params, uint64_t seed,
      AccountingPolicy policy = AccountingPolicy::kBasic);

  ReleaseContext(ReleaseContext&&) = default;
  ReleaseContext& operator=(ReleaseContext&&) = default;
  ReleaseContext(const ReleaseContext&) = delete;
  ReleaseContext& operator=(const ReleaseContext&) = delete;

  /// The per-release budget mechanisms draw. Always valid.
  const PrivacyParams& params() const { return params_; }
  Rng* rng() { return rng_.get(); }
  Accountant& accountant() { return *accountant_; }
  const Accountant& accountant() const { return *accountant_; }
  AccountingPolicy policy() const { return accountant_->policy(); }

  /// Write-ahead persistence for the ledger. When a hook is installed,
  /// every charge brackets the in-memory mutation with an intent record
  /// (before the mechanism runs — a crash mid-build replays as spent,
  /// never resurrected) and a commit record (after the accountant
  /// records). The dp layer stays storage-free: the hook interface is
  /// implemented over the src/store budget WAL by the serving layer.
  class DurabilityHook {
   public:
    virtual ~DurabilityHook() = default;
    /// Durably logs that `loss` is about to be charged under `label`;
    /// returns an opaque intent id (LSN). Failure refuses the charge
    /// before the ledger moves.
    virtual Result<uint64_t> LogIntent(const std::string& label,
                                       const PrivacyLoss& loss) = 0;
    /// Durably logs that the intent's charge landed in the ledger.
    virtual Status LogCommit(uint64_t intent_lsn) = 0;
  };

  /// Installs (or, with nullptr, removes) the durability hook. Non-owning;
  /// the hook must outlive every charge.
  void SetDurabilityHook(DurabilityHook* hook) { durability_hook_ = hook; }
  DurabilityHook* durability_hook() const { return durability_hook_; }

  /// The loss one release of params() costs under the Laplace-family
  /// calibration: Pure(eps) when delta == 0, Approximate otherwise.
  /// Gaussian-calibrated factories charge PrivacyLoss::GaussianFromParams
  /// instead (their natural zCDP rate).
  PrivacyLoss ReleaseLoss() const { return PrivacyLoss::FromParams(params_); }

  /// Installs a cross-release ceiling: subsequent releases are refused
  /// (before any noise is drawn, without recording) once the accountant's
  /// composed total would exceed `budget` under the active policy.
  /// `delta_slack` is the advanced-composition slack and the zCDP
  /// conversion's target delta.
  void SetTotalBudget(const PrivacyParams& budget, double delta_slack = 1e-9);
  bool has_total_budget() const { return has_total_budget_; }
  const PrivacyParams& total_budget() const { return total_budget_; }
  double delta_slack() const { return delta_slack_; }

  /// The policy-certified total of everything charged so far.
  PrivacyParams SpentTotal() const;

  /// Headroom left under the total budget before admission refuses:
  /// budget minus the accountant's AdmissionTotal, clamped at zero —
  /// which can exceed budget minus SpentTotal() on ledgers the admission
  /// rule certifies through a tighter sound bound than the reported
  /// total. Infinite in both coordinates when no total budget is
  /// installed.
  PrivacyParams RemainingBudget() const;

  /// The one metering protocol every factory runs: check the budget BEFORE
  /// building (an exhausted context refuses without paying construction
  /// cost or drawing noise), time the build, then atomically commit the
  /// release — so a mechanism cannot mis-order the sequence. `loss` is the
  /// PrivacyLoss the release consumes (the context's ReleaseLoss() in the
  /// three-argument overload; Gaussian-calibrated factories pass their
  /// zCDP rate). `build` is a nullary callable returning Result<P> for
  /// some pointer-like P (the factories return
  /// Result<std::unique_ptr<Oracle>>); `annotate` fills the mechanism-
  /// specific telemetry fields (sensitivity, noise scale, draw count) from
  /// the built object: annotate(*pointer, telemetry). Wall time and the
  /// charged loss are filled here. When the commit fails the built object
  /// is discarded unreleased and nothing is recorded.
  template <typename Builder, typename Annotate>
  auto MeteredBuild(const std::string& mechanism, const PrivacyLoss& loss,
                    Builder&& build, Annotate&& annotate) -> decltype(build()) {
    WallTimer timer;
    DPSP_RETURN_IF_ERROR(CheckProspective(mechanism, loss));
    // With a durability hook: log the intent BEFORE the mechanism draws
    // noise, so a crash mid-build recovers as spent (the build may have
    // released output we can no longer see).
    uint64_t intent_lsn = 0;
    DPSP_RETURN_IF_ERROR(LogIntentIfHooked(mechanism, loss, &intent_lsn));
    auto built = build();
    if (!built.ok()) return built.status();
    ReleaseTelemetry t;
    t.mechanism = mechanism;
    t.loss = loss;
    annotate(*built.value(), t);
    t.wall_ms = timer.Ms();
    DPSP_RETURN_IF_ERROR(CommitRelease(std::move(t), intent_lsn));
    return built;
  }

  template <typename Builder, typename Annotate>
  auto MeteredBuild(const std::string& mechanism, Builder&& build,
                    Annotate&& annotate) -> decltype(build()) {
    return MeteredBuild(mechanism, ReleaseLoss(),
                        std::forward<Builder>(build),
                        std::forward<Annotate>(annotate));
  }

  /// The metering protocol for PARTIAL releases — an updatable oracle
  /// redrawing only its dirty blocks. Same discipline as MeteredBuild,
  /// adapted to in-place mutation: the budget is checked for `loss` (the
  /// dirty fraction of a full release, planned by the caller BEFORE any
  /// mutation) first, so an exhausted context refuses with the released
  /// structure untouched; then `apply` (a nullary callable returning
  /// Status) mutates the structure; then the charge and telemetry commit
  /// atomically. `annotate` fills the update-specific telemetry fields:
  /// annotate(telemetry). The commit re-runs the same deterministic check
  /// the protocol opened with, so on a single-threaded ledger it cannot
  /// fail after apply succeeded.
  template <typename Apply, typename Annotate>
  Status MeteredUpdate(const std::string& mechanism, const PrivacyLoss& loss,
                       Apply&& apply, Annotate&& annotate) {
    WallTimer timer;
    DPSP_RETURN_IF_ERROR(CheckProspective(mechanism, loss));
    // Intent goes down before apply() mutates the released structure:
    // a crash mid-epoch recovers as spent.
    uint64_t intent_lsn = 0;
    DPSP_RETURN_IF_ERROR(LogIntentIfHooked(mechanism, loss, &intent_lsn));
    DPSP_RETURN_IF_ERROR(apply());
    ReleaseTelemetry t;
    t.mechanism = mechanism;
    t.loss = loss;
    annotate(t);
    t.wall_ms = timer.Ms();
    return CommitRelease(std::move(t), intent_lsn);
  }

  /// Appends one telemetry record without charging (used by the exact,
  /// non-private oracle).
  void RecordTelemetry(ReleaseTelemetry t);
  const std::vector<ReleaseTelemetry>& telemetry() const {
    return telemetry_;
  }
  /// The most recent record, or nullptr when nothing was released yet.
  const ReleaseTelemetry* last_telemetry() const;

  /// Ledger plus telemetry summary, human-readable.
  std::string ToString() const;

 private:
  ReleaseContext(const PrivacyParams& params, uint64_t seed,
                 AccountingPolicy policy);

  // OK iff one more release of `loss` would still fit the total budget
  // (and the active accountant can compose it), without recording.
  Status CheckProspective(const std::string& label,
                          const PrivacyLoss& loss) const;

  // The single charge choke point, run by the two metered templates after
  // a successful build or apply: re-checks the budget, records t.loss in
  // the accountant, logs the WAL commit for `intent_lsn` (0 when no hook
  // is installed), and appends the telemetry with t.epsilon/t.delta set
  // from t.loss.
  Status CommitRelease(ReleaseTelemetry t, uint64_t intent_lsn);

  // LogIntent through the hook when one is installed; no-op otherwise.
  Status LogIntentIfHooked(const std::string& label, const PrivacyLoss& loss,
                           uint64_t* intent_lsn);

  PrivacyParams params_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<Accountant> accountant_;
  std::vector<ReleaseTelemetry> telemetry_;
  bool has_total_budget_ = false;
  PrivacyParams total_budget_;
  double delta_slack_ = 1e-9;
  // Non-owning; see SetDurabilityHook.
  DurabilityHook* durability_hook_ = nullptr;
};

}  // namespace dpsp

#endif  // DPSP_DP_RELEASE_CONTEXT_H_
