#include "core/private_matching.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/table.h"
#include "core/released_state.h"
#include "dp/laplace_mechanism.h"
#include "graph/all_pairs.h"
#include "graph/connectivity.h"

namespace dpsp {

namespace {

// The weight-free preconditions of the release: a perfect matching needs
// an undirected graph whose every connected component has even size.
Status CheckMatchable(const Graph& graph) {
  if (graph.directed()) {
    return Status::InvalidArgument("matching requires an undirected graph");
  }
  if (graph.num_vertices() % 2 != 0) {
    return Status::InvalidArgument(
        "odd vertex count has no perfect matching");
  }
  const ConnectedComponents components = FindConnectedComponents(graph);
  std::vector<int> size(static_cast<size_t>(components.num_components), 0);
  for (int c : components.component) ++size[static_cast<size_t>(c)];
  for (int s : size) {
    if (s % 2 != 0) {
      return Status::InvalidArgument(
          "a connected component has odd size; no perfect matching");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<PrivateMatchingResult> PrivateMatching(const Graph& graph,
                                              const EdgeWeights& w,
                                              const PrivacyParams& params,
                                              Rng* rng) {
  DPSP_RETURN_IF_ERROR(params.Validate());
  DPSP_RETURN_IF_ERROR(graph.ValidateWeights(w));
  DPSP_ASSIGN_OR_RETURN(double scale, LaplaceScale(1.0, params));
  DPSP_ASSIGN_OR_RETURN(EdgeWeights noisy,
                        LaplaceMechanism(w, 1.0, params, rng));
  DPSP_ASSIGN_OR_RETURN(Matching matching,
                        MinWeightPerfectMatching(graph, noisy));
  return PrivateMatchingResult{std::move(matching), std::move(noisy), scale};
}

MatchingDistanceOracle::MatchingDistanceOracle(
    PrivateMatchingResult released, DistanceMatrix distances)
    : released_(std::move(released)), distances_(std::move(distances)) {}

Result<std::unique_ptr<MatchingDistanceOracle>>
MatchingDistanceOracle::FromRelease(const Graph& graph,
                                    PrivateMatchingResult released) {
  // Distances are further post-processing of the released noisy weights;
  // clamping at zero keeps Dijkstra applicable (cf. Algorithm 3).
  EdgeWeights clamped = released.noisy_weights;
  for (double& x : clamped) x = std::max(0.0, x);
  DPSP_ASSIGN_OR_RETURN(DistanceMatrix distances,
                        AllPairsDijkstra(graph, clamped));
  return std::unique_ptr<MatchingDistanceOracle>(new MatchingDistanceOracle(
      std::move(released), std::move(distances)));
}

Result<std::unique_ptr<MatchingDistanceOracle>> MatchingDistanceOracle::Build(
    const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx) {
  // The topology and weight checks run before the metered build, so a
  // refused input logs no intent and draws nothing. Negative weights are
  // allowed: a minimum-weight matching is defined for any real weights.
  DPSP_RETURN_IF_ERROR(CheckMatchable(graph));
  DPSP_RETURN_IF_ERROR(graph.ValidateWeights(w));
  return ctx.MeteredBuild(
      kName,
      [&]() -> Result<std::unique_ptr<MatchingDistanceOracle>> {
        DPSP_ASSIGN_OR_RETURN(
            PrivateMatchingResult released,
            PrivateMatching(graph, w, ctx.params(), ctx.rng()));
        return FromRelease(graph, std::move(released));
      },
      [&graph](const MatchingDistanceOracle& oracle, ReleaseTelemetry& t) {
        t.sensitivity = 1.0;  // identity query on the weight vector
        t.noise_scale = oracle.released().noise_scale;
        t.noise_draws = graph.num_edges();
      });
}

Status MatchingDistanceOracle::SaveReleasedState(
    std::vector<ReleasedSection>* out) const {
  out->push_back(released_state::Pack<double>(
      "noisy-weights", std::span<const double>(released_.noisy_weights)));
  out->push_back(
      released_state::PackScalars("meta", {released_.noise_scale}));
  return Status::Ok();
}

Result<std::unique_ptr<DistanceOracle>>
MatchingDistanceOracle::FromReleasedState(
    const Graph& graph, const EdgeWeights& w,
    std::span<const ReleasedSectionView> sections) {
  (void)w;
  DPSP_ASSIGN_OR_RETURN(std::span<const double> meta,
                        released_state::Require<double>(sections, "meta", 1));
  DPSP_ASSIGN_OR_RETURN(
      std::span<const double> noisy,
      released_state::Require<double>(sections, "noisy-weights",
                                      graph.num_edges()));
  PrivateMatchingResult released;
  released.noisy_weights.assign(noisy.begin(), noisy.end());
  released.noise_scale = meta[0];
  // The matching and the distance matrix are deterministic post-processing
  // of the released noisy weights — replaying them reproduces the saved
  // instance exactly (same solver, same weights, same tie-breaks).
  DPSP_ASSIGN_OR_RETURN(
      released.matching,
      MinWeightPerfectMatching(graph, released.noisy_weights));
  DPSP_ASSIGN_OR_RETURN(std::unique_ptr<MatchingDistanceOracle> oracle,
                        FromRelease(graph, std::move(released)));
  return std::unique_ptr<DistanceOracle>(std::move(oracle));
}

Result<double> MatchingDistanceOracle::Distance(VertexId u, VertexId v) const {
  if (u < 0 || u >= distances_.size() || v < 0 || v >= distances_.size()) {
    return Status::InvalidArgument("vertex out of range");
  }
  return distances_.at(u, v);
}

Status MatchingDistanceOracle::DistanceInto(std::span<const VertexPair> pairs,
                                            double* out) const {
  const unsigned n = static_cast<unsigned>(distances_.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& [u, v] = pairs[i];
    if (static_cast<unsigned>(u) >= n || static_cast<unsigned>(v) >= n) {
      return Status::InvalidArgument("vertex out of range");
    }
    out[i] = distances_.at(u, v);
  }
  return Status::Ok();
}

double PrivateMatchingErrorBound(int num_vertices, int num_edges,
                                 const PrivacyParams& params, double gamma) {
  DPSP_CHECK_MSG(num_vertices >= 2 && num_edges >= 1 && gamma > 0.0 &&
                     gamma < 1.0,
                 "invalid error bound arguments");
  double scale = params.neighbor_l1_bound / params.epsilon;
  return static_cast<double>(num_vertices) * scale *
         std::log(static_cast<double>(num_edges) / gamma);
}

Result<double> PrivateMatchingCost(const Graph& graph, const EdgeWeights& w,
                                   const PrivacyParams& params, Rng* rng) {
  DPSP_RETURN_IF_ERROR(params.Validate());
  DPSP_ASSIGN_OR_RETURN(Matching matching, MinWeightPerfectMatching(graph, w));
  DPSP_ASSIGN_OR_RETURN(double scale, LaplaceScale(1.0, params));
  return matching.Weight(w) + rng->Laplace(scale);
}

double MatchingLowerBound(int num_vertices, double epsilon, double delta) {
  DPSP_CHECK_MSG(num_vertices >= 4 && epsilon >= 0.0 && delta >= 0.0,
                 "invalid lower bound arguments");
  double numer = 1.0 - (1.0 + std::exp(epsilon)) * delta;
  if (numer < 0.0) numer = 0.0;
  return (static_cast<double>(num_vertices) / 4.0) * numer /
         (1.0 + std::exp(2.0 * epsilon));
}

}  // namespace dpsp
