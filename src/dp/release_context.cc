#include "dp/release_context.h"

#include <algorithm>
#include <limits>

#include "common/table.h"

namespace dpsp {

std::string ReleaseTelemetry::ToString() const {
  return StrFormat(
      "%s: %s sensitivity=%g scale=%g draws=%d wall=%.3fms",
      mechanism.c_str(), loss.Validate().ok()
                             ? loss.ToString().c_str()
                             : StrFormat("eps=%g delta=%g", epsilon,
                                         delta).c_str(),
      sensitivity, noise_scale, noise_draws, wall_ms);
}

ReleaseContext::ReleaseContext(const PrivacyParams& params, uint64_t seed,
                               AccountingPolicy policy)
    : params_(params),
      rng_(std::make_unique<Rng>(seed)),
      accountant_(Accountant::Create(policy)) {}

Result<ReleaseContext> ReleaseContext::Create(const PrivacyParams& params,
                                              uint64_t seed,
                                              AccountingPolicy policy) {
  DPSP_RETURN_IF_ERROR(params.Validate());
  return ReleaseContext(params, seed, policy);
}

void ReleaseContext::SetTotalBudget(const PrivacyParams& budget,
                                    double delta_slack) {
  // A slack outside (0, 1) is a programming error: it would not fail
  // here but as a permanent, misleading "budget exhausted" on every
  // later charge (the zCDP conversion returns +inf epsilon).
  DPSP_CHECK_MSG(delta_slack > 0.0 && delta_slack < 1.0,
                 "delta_slack must be in (0, 1)");
  has_total_budget_ = true;
  total_budget_ = budget;
  delta_slack_ = delta_slack;
}

PrivacyParams ReleaseContext::SpentTotal() const {
  return accountant_->Total(delta_slack_);
}

PrivacyParams ReleaseContext::RemainingBudget() const {
  PrivacyParams remaining;
  if (!has_total_budget_) {
    remaining.epsilon = std::numeric_limits<double>::infinity();
    remaining.delta = std::numeric_limits<double>::infinity();
    return remaining;
  }
  // Headroom must predict ADMISSION: on a heterogeneous basic-policy
  // ledger the reported Total() can exceed the budget while the
  // uniformized advanced bound still admits, and clients pacing their
  // releases off this number must not stop while the server would grant.
  PrivacyParams spent =
      accountant_->AdmissionTotal(total_budget_, delta_slack_);
  remaining.epsilon = std::max(0.0, total_budget_.epsilon - spent.epsilon);
  remaining.delta = std::max(0.0, total_budget_.delta - spent.delta);
  return remaining;
}

Status ReleaseContext::CheckProspective(const std::string& label,
                                        const PrivacyLoss& loss) const {
  // Validate (and policy-check) the loss even without a ceiling, so a
  // release the active accountant cannot compose fails BEFORE any noise
  // is drawn rather than at the recording step. Only a budgeted context
  // pays for the prospective ledger copy.
  if (!has_total_budget_) return accountant_->CanRecord(loss);
  std::unique_ptr<Accountant> prospective = accountant_->Clone();
  DPSP_RETURN_IF_ERROR(prospective->Record(label, loss));
  if (prospective->WithinBudget(total_budget_, delta_slack_)) {
    return Status::Ok();
  }
  PrivacyParams total = prospective->Total(delta_slack_);
  return Status::FailedPrecondition(StrFormat(
      "privacy budget exhausted: release '%s' would bring the %s-composed "
      "total to eps=%g delta=%g, over the budget eps=%g delta=%g",
      label.c_str(), AccountingPolicyName(accountant_->policy()),
      total.epsilon, total.delta, total_budget_.epsilon,
      total_budget_.delta));
}

Status ReleaseContext::LogIntentIfHooked(const std::string& label,
                                         const PrivacyLoss& loss,
                                         uint64_t* intent_lsn) {
  if (durability_hook_ == nullptr) {
    *intent_lsn = 0;
    return Status::Ok();
  }
  DPSP_ASSIGN_OR_RETURN(*intent_lsn, durability_hook_->LogIntent(label, loss));
  return Status::Ok();
}

Status ReleaseContext::CommitRelease(ReleaseTelemetry t, uint64_t intent_lsn) {
  DPSP_RETURN_IF_ERROR(CheckProspective(t.mechanism, t.loss));
  DPSP_RETURN_IF_ERROR(accountant_->Record(t.mechanism, t.loss));
  if (durability_hook_ != nullptr) {
    // A failed commit record leaves the charge in memory and an intent-
    // only record on disk — both sides still count it as spent, which is
    // the conservative direction. Surface the durability failure.
    DPSP_RETURN_IF_ERROR(durability_hook_->LogCommit(intent_lsn));
  }
  t.epsilon = t.loss.epsilon;
  t.delta = t.loss.delta;
  telemetry_.push_back(std::move(t));
  return Status::Ok();
}

void ReleaseContext::RecordTelemetry(ReleaseTelemetry t) {
  telemetry_.push_back(std::move(t));
}

const ReleaseTelemetry* ReleaseContext::last_telemetry() const {
  return telemetry_.empty() ? nullptr : &telemetry_.back();
}

std::string ReleaseContext::ToString() const {
  std::string out = "ReleaseContext(\n  params: " + params_.ToString() + "\n";
  if (has_total_budget_) {
    out += "  total budget: " + total_budget_.ToString() + "\n";
  }
  out += "  " + accountant_->ToString() + "\n";
  for (const ReleaseTelemetry& t : telemetry_) {
    out += "  release " + t.ToString() + "\n";
  }
  out += ")";
  return out;
}

}  // namespace dpsp
