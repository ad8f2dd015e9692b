#include "dp/laplace_mechanism.h"

#include <cmath>

namespace dpsp {

Result<double> LaplaceScale(double sensitivity, const PrivacyParams& params) {
  DPSP_RETURN_IF_ERROR(params.Validate());
  if (!(sensitivity > 0.0) || !std::isfinite(sensitivity)) {
    return Status::InvalidArgument("sensitivity must be positive and finite");
  }
  return sensitivity * params.neighbor_l1_bound / params.epsilon;
}

Result<std::vector<double>> LaplaceMechanism(const std::vector<double>& values,
                                             double sensitivity,
                                             const PrivacyParams& params,
                                             Rng* rng) {
  DPSP_ASSIGN_OR_RETURN(double scale, LaplaceScale(sensitivity, params));
  std::vector<double> out(values.size());
  rng->FillLaplace(scale, out);
  for (size_t i = 0; i < values.size(); ++i) out[i] = values[i] + out[i];
  return out;
}

Result<double> LaplaceMechanismScalar(double value, double sensitivity,
                                      const PrivacyParams& params, Rng* rng) {
  DPSP_ASSIGN_OR_RETURN(double scale, LaplaceScale(sensitivity, params));
  return value + rng->Laplace(scale);
}

Status ValidateGamma(double gamma) {
  if (!(gamma > 0.0 && gamma < 1.0) || !std::isfinite(gamma)) {
    return Status::InvalidArgument("gamma must be in (0, 1)");
  }
  return Status::Ok();
}

Result<double> LaplaceTailBound(double scale, double gamma) {
  DPSP_RETURN_IF_ERROR(ValidateGamma(gamma));
  if (!(scale > 0.0) || !std::isfinite(scale)) {
    return Status::InvalidArgument("scale must be positive and finite");
  }
  return scale * std::log(1.0 / gamma);
}

Result<double> LaplaceSumBound(double scale, int t, double gamma) {
  DPSP_RETURN_IF_ERROR(ValidateGamma(gamma));
  if (!(scale > 0.0) || !std::isfinite(scale)) {
    return Status::InvalidArgument("scale must be positive and finite");
  }
  if (t < 0) {
    return Status::InvalidArgument("summand count must be non-negative");
  }
  return 4.0 * scale * std::sqrt(static_cast<double>(t) *
                                 std::log(2.0 / gamma));
}

}  // namespace dpsp
