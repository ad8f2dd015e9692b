// Private low-weight perfect matchings (Appendix B.2, Theorem B.6).
//
// Add Lap(1/eps) noise to every edge weight and release the exact minimum-
// weight perfect matching of the noisy graph (post-processing, hence
// eps-DP). Conditioned on all |noise| <= (1/eps) log(E/gamma), the released
// matching weighs at most (V/eps) log(E/gamma) more than the optimum.
// Weights may be negative.

#ifndef DPSP_CORE_PRIVATE_MATCHING_H_
#define DPSP_CORE_PRIVATE_MATCHING_H_

#include <memory>

#include "common/random.h"
#include "core/distance_oracle.h"
#include "dp/privacy.h"
#include "dp/release_context.h"
#include "graph/graph.h"
#include "graph/matching.h"

namespace dpsp {

/// The released matching plus the noisy weights it was computed from.
struct PrivateMatchingResult {
  Matching matching;
  EdgeWeights noisy_weights;
  double noise_scale = 0.0;
};

/// Theorem B.6 mechanism. Graph must contain a perfect matching findable by
/// the solvers in graph/matching.h (see DESIGN.md §1.3).
Result<PrivateMatchingResult> PrivateMatching(const Graph& graph,
                                              const EdgeWeights& w,
                                              const PrivacyParams& params,
                                              Rng* rng);

/// The Theorem B.6 high-probability error bound
/// (V/eps) log(E/gamma) * rho.
double PrivateMatchingErrorBound(int num_vertices, int num_edges,
                                 const PrivacyParams& params, double gamma);

/// The Theorem B.4 lower bound on expected matching error for any
/// (eps, delta)-DP algorithm on the hourglass gadget:
/// (V/4) (1 - (1+e^eps) delta) / (1 + e^{2 eps}).
double MatchingLowerBound(int num_vertices, double epsilon, double delta);

/// Distance oracle over the Theorem B.6 release. The mechanism's released
/// object is the noisy weight function (the matching is post-processing of
/// it); further post-processing yields all-pairs distances on the noisy
/// graph, clamped at zero so Dijkstra applies. One eps-DP release thus
/// serves both the matching structure and distance queries. Registered as
/// "private-matching".
class MatchingDistanceOracle final : public DistanceOracle {
 public:
  /// Registry name of this mechanism.
  static constexpr const char* kName = "private-matching";

  /// Builds through the release pipeline: draws one release of
  /// ctx.params() from the accountant and records telemetry. A graph that
  /// is directed or has an odd vertex count or an odd-size connected
  /// component is refused with InvalidArgument before the budget check,
  /// the WAL intent and any draw.
  static Result<std::unique_ptr<MatchingDistanceOracle>> Build(
      const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx);

  Result<double> Distance(VertexId u, VertexId v) const override;
  /// Fused serial kernel: one dense-matrix load per pair.
  Status DistanceInto(std::span<const VertexPair> pairs,
                      double* out) const override;
  std::string Name() const override { return kName; }

  /// The underlying release (matching + noisy weights).
  const PrivateMatchingResult& released() const { return released_; }

  /// Persists the release: the noisy weight function and its scale. The
  /// matching and the distance matrix are deterministic post-processing of
  /// the noisy weights and are recomputed at restore.
  Status SaveReleasedState(std::vector<ReleasedSection>* out) const override;

  /// OracleLoader counterpart: replays the deterministic post-processing
  /// (matching solver + clamped all-pairs Dijkstra) over the persisted
  /// noisy weights. Bit-identical queries, no budget consumed.
  static Result<std::unique_ptr<DistanceOracle>> FromReleasedState(
      const Graph& graph, const EdgeWeights& w,
      std::span<const ReleasedSectionView> sections);

 private:
  MatchingDistanceOracle(PrivateMatchingResult released,
                         DistanceMatrix distances);

  // The oracle over `released`: the clamped all-pairs Dijkstra shared by
  // Build and FromReleasedState.
  static Result<std::unique_ptr<MatchingDistanceOracle>> FromRelease(
      const Graph& graph, PrivateMatchingResult released);

  PrivateMatchingResult released_;
  DistanceMatrix distances_;
};

/// The minimum perfect-matching *cost*: like the MST cost, a sensitivity-1
/// scalar in this model (a unit l1 weight change moves every matching's
/// weight by at most 1), releasable with a single Laplace draw — no
/// Omega(V) barrier, unlike the matching itself (Theorem B.4).
Result<double> PrivateMatchingCost(const Graph& graph, const EdgeWeights& w,
                                   const PrivacyParams& params, Rng* rng);

}  // namespace dpsp

#endif  // DPSP_CORE_PRIVATE_MATCHING_H_
