#include "core/bounded_weight.h"

#include <algorithm>
#include <cmath>

#include "common/table.h"
#include "core/released_state.h"
#include "dp/composition.h"
#include "dp/gaussian_mechanism.h"
#include "dp/laplace_mechanism.h"
#include "graph/all_pairs.h"

namespace dpsp {

int AutoCoveringRadius(int num_vertices, double max_weight,
                       const PrivacyParams& params) {
  DPSP_CHECK_MSG(num_vertices >= 1 && max_weight > 0.0,
                 "invalid AutoCoveringRadius arguments");
  double v = static_cast<double>(num_vertices);
  double me = max_weight * params.epsilon / params.neighbor_l1_bound;
  double k_real;
  if (params.pure()) {
    // Theorem 4.3 (pure): k = floor(V^{2/3} / (M eps)^{1/3}).
    k_real = std::pow(v, 2.0 / 3.0) / std::cbrt(me);
  } else {
    // Theorem 4.3 (approx): k = floor(sqrt(V / (M eps))).
    k_real = std::sqrt(v / me);
  }
  // Clamp before converting: a tiny M * eps makes k_real overflow int.
  return static_cast<int>(std::clamp(std::floor(k_real), 0.0,
                                     static_cast<double>(num_vertices - 1)));
}

namespace {

// Meters one bounded-weight release through ctx.MeteredBuild. A Gaussian
// release spends its natural zCDP rate rho = eps^2 / (4 ln(1.25/delta)) —
// sensitivity-free, so the budget check runs BEFORE the covering (and the
// released vector's size) is known.
template <typename Builder>
Result<std::unique_ptr<BoundedWeightOracle>> MeteredRelease(
    ReleaseContext& ctx, const BoundedWeightOptions& options,
    Builder&& build) {
  bool gaussian =
      options.noise == BoundedWeightOptions::NoiseKind::kGaussian;
  PrivacyLoss loss = ctx.ReleaseLoss();
  if (gaussian) {
    DPSP_ASSIGN_OR_RETURN(loss,
                          PrivacyLoss::GaussianFromParams(ctx.params()));
  }
  return ctx.MeteredBuild(
      gaussian ? BoundedWeightOracle::kGaussianName
               : BoundedWeightOracle::kName,
      loss, std::forward<Builder>(build),
      [](const BoundedWeightOracle& oracle, ReleaseTelemetry& t) {
        // The released vector of Z(Z-1)/2 sensitivity-1 queries: joint l1
        // sensitivity equal to the query count under basic composition
        // (Laplace), joint l2 sensitivity sqrt(count) for the Gaussian
        // variant — the sensitivity its sigma was actually calibrated to.
        t.sensitivity =
            oracle.gaussian()
                ? DistanceVectorL2Sensitivity(oracle.num_noisy_values())
                : oracle.num_noisy_values();
        t.noise_scale = oracle.noise_scale();
        t.noise_draws = oracle.num_noisy_values();
      });
}

}  // namespace

Result<std::unique_ptr<BoundedWeightOracle>> BoundedWeightOracle::Build(
    const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx,
    const BoundedWeightOptions& options) {
  // AutoCoveringRadius needs a vertex and a positive bound, and no graph
  // without a vertex has a covering. Refused before the release is
  // metered, so a refusal draws no noise and logs no intent.
  if (!(options.max_weight > 0.0)) {
    return Status::InvalidArgument("max_weight must be positive");
  }
  if (graph.num_vertices() == 0) {
    return Status::InvalidArgument("graph is empty");
  }
  return MeteredRelease(
      ctx, options, [&]() -> Result<std::unique_ptr<BoundedWeightOracle>> {
        int k = options.k > 0 ? options.k
                              : AutoCoveringRadius(graph.num_vertices(),
                                                   options.max_weight,
                                                   ctx.params());
        k = std::clamp(k, 0, std::max(0, graph.num_vertices() - 1));
        DPSP_ASSIGN_OR_RETURN(
            Covering covering,
            options.strategy == BoundedWeightOptions::CoveringStrategy::kGreedy
                ? GreedyCovering(graph, k)
                : MM75ResidueCovering(graph, k));
        return Release(graph, w, std::move(covering), ctx, options);
      });
}

Result<std::unique_ptr<BoundedWeightOracle>>
BoundedWeightOracle::BuildWithCovering(const Graph& graph,
                                       const EdgeWeights& w, Covering covering,
                                       ReleaseContext& ctx,
                                       const BoundedWeightOptions& options) {
  return MeteredRelease(ctx, options, [&] {
    return Release(graph, w, std::move(covering), ctx, options);
  });
}

Result<std::unique_ptr<BoundedWeightOracle>> BoundedWeightOracle::Release(
    const Graph& graph, const EdgeWeights& w, Covering covering,
    ReleaseContext& ctx, const BoundedWeightOptions& options) {
  const PrivacyParams& params = ctx.params();
  DPSP_RETURN_IF_ERROR(graph.ValidateNonNegativeWeights(w));
  if (!(options.max_weight > 0.0)) {
    return Status::InvalidArgument("max_weight must be positive");
  }
  for (size_t i = 0; i < w.size(); ++i) {
    if (w[i] > options.max_weight + 1e-12) {
      return Status::InvalidArgument(
          StrFormat("edge %zu weight %g exceeds max_weight %g", i, w[i],
                    options.max_weight));
    }
  }
  DPSP_RETURN_IF_ERROR(ValidateCovering(graph, covering));

  auto oracle = std::unique_ptr<BoundedWeightOracle>(new BoundedWeightOracle());
  oracle->covering_ = std::move(covering);
  oracle->pure_ = params.pure();
  oracle->max_weight_ = options.max_weight;

  const std::vector<VertexId>& centers = oracle->covering_.centers;
  int z = static_cast<int>(centers.size());
  int num_queries = std::max(1, z * (z - 1) / 2);

  // Noise scale: each pairwise distance has sensitivity 1; compose the
  // num_queries releases within the (eps, delta) budget.
  double scale;
  bool gaussian =
      options.noise == BoundedWeightOptions::NoiseKind::kGaussian;
  if (gaussian) {
    if (params.pure()) {
      return Status::InvalidArgument(
          "Gaussian noise requires delta > 0 (set NoiseKind::kLaplace)");
    }
    DPSP_ASSIGN_OR_RETURN(
        scale, GaussianSigma(DistanceVectorL2Sensitivity(num_queries),
                             params));
  } else if (oracle->pure_) {
    // Basic composition (Theorem 4.6): Lap(num_queries / eps).
    scale = static_cast<double>(num_queries) *
            params.neighbor_l1_bound / params.epsilon;
  } else {
    // Advanced composition (Theorem 4.5): Lap(1 / eps') with eps' solved
    // from the Lemma 3.4 formula.
    DPSP_ASSIGN_OR_RETURN(
        double eps0, PerQueryEpsilonBest(num_queries, params.epsilon,
                                         params.delta));
    scale = params.neighbor_l1_bound / eps0;
  }
  oracle->gaussian_ = gaussian;
  oracle->noise_scale_ = scale;

  // Exact distances among the centers (private intermediate) — the build
  // bottleneck at scale, fanned out one Dijkstra source per task over the
  // shared CSR — then serial noise so the release is thread-count
  // invariant.
  DPSP_ASSIGN_OR_RETURN(
      std::vector<std::vector<double>> exact,
      MultiSourceDistances(graph, w, centers, options.build_threads));
  oracle->num_centers_ = z;
  oracle->noisy_.assign(static_cast<size_t>(z) * static_cast<size_t>(z),
                        0.0);
  Rng* rng = ctx.rng();
  for (int i = 0; i < z; ++i) {
    for (int j = i + 1; j < z; ++j) {
      double truth =
          exact[static_cast<size_t>(i)][static_cast<size_t>(centers[
              static_cast<size_t>(j)])];
      double noise =
          gaussian ? rng->Gaussian(scale) : rng->Laplace(scale);
      double released = truth + noise;
      oracle->noisy_[static_cast<size_t>(i) * static_cast<size_t>(z) +
                     static_cast<size_t>(j)] = released;
      oracle->noisy_[static_cast<size_t>(j) * static_cast<size_t>(z) +
                     static_cast<size_t>(i)] = released;
    }
  }
  return oracle;
}

Result<double> BoundedWeightOracle::Distance(VertexId u, VertexId v) const {
  int n = static_cast<int>(covering_.assignment.size());
  if (u < 0 || u >= n || v < 0 || v >= n) {
    return Status::InvalidArgument("vertex out of range");
  }
  int zu = covering_.assignment[static_cast<size_t>(u)];
  int zv = covering_.assignment[static_cast<size_t>(v)];
  if (zu == zv) return 0.0;
  return noisy_[static_cast<size_t>(zu) * static_cast<size_t>(num_centers_) +
                static_cast<size_t>(zv)];
}

Status BoundedWeightOracle::DistanceInto(std::span<const VertexPair> pairs,
                                         double* out) const {
  const unsigned n = static_cast<unsigned>(covering_.assignment.size());
  const int* assign = covering_.assignment.data();
  const double* table = noisy_.data();
  const size_t stride = static_cast<size_t>(num_centers_);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& [u, v] = pairs[i];
    if (static_cast<unsigned>(u) >= n || static_cast<unsigned>(v) >= n) {
      return Status::InvalidArgument("vertex out of range");
    }
    size_t zu = static_cast<size_t>(assign[u]);
    size_t zv = static_cast<size_t>(assign[v]);
    out[i] = zu == zv ? 0.0 : table[zu * stride + zv];
  }
  return Status::Ok();
}

std::string BoundedWeightOracle::Name() const {
  if (gaussian_) return kGaussianName;
  return pure_ ? "bounded-weight(pure)" : "bounded-weight(approx)";
}

Status BoundedWeightOracle::SaveReleasedState(
    std::vector<ReleasedSection>* out) const {
  out->push_back(released_state::Pack<double>(
      "zz-table",
      std::span<const double>(noisy_.data(), noisy_.size())));
  out->push_back(released_state::Pack<VertexId>(
      "centers", std::span<const VertexId>(covering_.centers)));
  out->push_back(released_state::Pack<int>(
      "assignment", std::span<const int>(covering_.assignment.data(),
                                         covering_.assignment.size())));
  out->push_back(released_state::Pack<int>(
      "assignment-hops", std::span<const int>(covering_.assignment_hops)));
  out->push_back(released_state::PackScalars(
      "meta", {static_cast<double>(covering_.k), pure_ ? 1.0 : 0.0,
               gaussian_ ? 1.0 : 0.0, max_weight_, noise_scale_,
               static_cast<double>(num_centers_)}));
  return Status::Ok();
}

Result<std::unique_ptr<DistanceOracle>>
BoundedWeightOracle::FromReleasedState(
    const Graph& graph, const EdgeWeights& w,
    std::span<const ReleasedSectionView> sections) {
  (void)w;
  DPSP_ASSIGN_OR_RETURN(std::span<const double> meta,
                        released_state::Require<double>(sections, "meta", 6));
  int k;
  DPSP_ASSIGN_OR_RETURN(k, released_state::AsInt(meta[0], "covering radius"));
  int pure;
  DPSP_ASSIGN_OR_RETURN(pure, released_state::AsInt(meta[1], "pure flag"));
  int gaussian;
  DPSP_ASSIGN_OR_RETURN(gaussian,
                        released_state::AsInt(meta[2], "gaussian flag"));
  int num_centers;
  DPSP_ASSIGN_OR_RETURN(num_centers,
                        released_state::AsInt(meta[5], "center count"));
  if ((pure != 0 && pure != 1) || (gaussian != 0 && gaussian != 1)) {
    return Status::InvalidArgument("snapshot noise flags must be 0 or 1");
  }
  if (k < 0 || num_centers <= 0 ||
      num_centers > graph.num_vertices()) {
    return Status::InvalidArgument(
        "snapshot covering shape is inconsistent with the graph");
  }
  const size_t z = static_cast<size_t>(num_centers);
  DPSP_ASSIGN_OR_RETURN(
      std::span<const double> table,
      released_state::Require<double>(sections, "zz-table",
                                      static_cast<long>(z * z)));
  DPSP_ASSIGN_OR_RETURN(
      std::span<const VertexId> centers,
      released_state::Require<VertexId>(sections, "centers",
                                        static_cast<long>(z)));
  DPSP_ASSIGN_OR_RETURN(
      std::span<const int> assignment,
      released_state::Require<int>(sections, "assignment",
                                   graph.num_vertices()));
  DPSP_ASSIGN_OR_RETURN(
      std::span<const int> hops,
      released_state::Require<int>(sections, "assignment-hops",
                                   graph.num_vertices()));

  auto oracle = std::unique_ptr<BoundedWeightOracle>(new BoundedWeightOracle());
  oracle->covering_.k = k;
  oracle->covering_.centers.assign(centers.begin(), centers.end());
  oracle->covering_.assignment.assign(assignment.begin(), assignment.end());
  oracle->covering_.assignment_hops.assign(hops.begin(), hops.end());
  // The covering property and assignment consistency are re-proved against
  // the public graph — a snapshot from a different graph is rejected here.
  DPSP_RETURN_IF_ERROR(ValidateCovering(graph, oracle->covering_));
  oracle->pure_ = pure == 1;
  oracle->gaussian_ = gaussian == 1;
  oracle->max_weight_ = meta[3];
  oracle->noise_scale_ = meta[4];
  oracle->num_centers_ = num_centers;
  oracle->noisy_.assign(table.begin(), table.end());
  return std::unique_ptr<DistanceOracle>(std::move(oracle));
}

double BoundedWeightOracle::ErrorBound(double gamma) const {
  DPSP_CHECK_MSG(gamma > 0.0 && gamma < 1.0, "gamma must be in (0,1)");
  double z = static_cast<double>(covering_.size());
  double bias = 2.0 * static_cast<double>(covering_.k) * max_weight_;
  double tail;
  if (gaussian_) {
    // Gaussian tail: sigma * sqrt(2 ln(q/gamma)) covers all q values.
    tail = noise_scale_ *
           std::sqrt(2.0 * std::log(std::max(2.0, z * z) / gamma));
  } else {
    tail = noise_scale_ * std::log(std::max(2.0, z * z) / gamma);
  }
  return bias + tail;
}

}  // namespace dpsp
