// Private almost-minimum spanning trees (Appendix B.1, Theorem B.3).
//
// Add Lap(1/eps) noise to every edge weight (one Laplace mechanism
// invocation, sensitivity 1) and release the exact MST of the noisy graph;
// the tree structure is post-processing, hence eps-DP. Conditioned on all
// |noise| <= (1/eps) log(E/gamma), the released tree weighs at most
// 2(V-1)/eps * log(E/gamma) more than the true MST. Edge weights may be
// negative (per the appendix).

#ifndef DPSP_CORE_PRIVATE_MST_H_
#define DPSP_CORE_PRIVATE_MST_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "core/distance_oracle.h"
#include "dp/privacy.h"
#include "dp/release_context.h"
#include "graph/graph.h"
#include "graph/tree.h"

namespace dpsp {

/// The released tree plus the noisy weights it was computed from.
struct PrivateMstResult {
  std::vector<EdgeId> tree_edges;
  /// The noisy weight function (itself eps-DP and publishable).
  EdgeWeights noisy_weights;
  double noise_scale = 0.0;
};

/// Theorem B.3 mechanism. Requires a connected undirected graph; weights
/// may be negative.
Result<PrivateMstResult> PrivateMst(const Graph& graph, const EdgeWeights& w,
                                    const PrivacyParams& params, Rng* rng);

/// The Theorem B.3 high-probability error bound
/// 2 (V-1)/eps * log(E/gamma) * rho.
double PrivateMstErrorBound(int num_vertices, int num_edges,
                            const PrivacyParams& params, double gamma);

/// The Theorem B.1 lower bound on expected MST error for any (eps, delta)-
/// DP algorithm on the Figure-3 gadget:
/// (V-1) * (1 - (1+e^eps) delta) / (1 + e^{2 eps}).
double MstLowerBound(int num_vertices, double epsilon, double delta);

/// Distance oracle over the Theorem B.3 release: answers d(u, v) as the
/// path length between u and v *in the released spanning tree* under the
/// released noisy weights — pure post-processing of the PrivateMstResult,
/// so queries are free. This is the "routing backbone" view of the MST
/// release: one eps-DP release yields both the tree structure and an
/// all-pairs distance table over it. Registered as "private-mst".
class MstDistanceOracle final : public DistanceOracle {
 public:
  /// Registry name of this mechanism.
  static constexpr const char* kName = "private-mst";

  /// Builds through the release pipeline: draws one release of
  /// ctx.params() from the accountant and records telemetry. A graph that
  /// is directed, empty or disconnected is refused with InvalidArgument
  /// before the budget check, the WAL intent and any draw.
  static Result<std::unique_ptr<MstDistanceOracle>> Build(
      const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx);

  // Not copyable/movable: lca_ holds an interior pointer to tree_.
  MstDistanceOracle(const MstDistanceOracle&) = delete;
  MstDistanceOracle& operator=(const MstDistanceOracle&) = delete;

  /// Path length u -> v in the released tree (noisy weights; may be
  /// negative since the release permits negative noisy edges). O(1) via
  /// the shared Euler-tour LCA.
  Result<double> Distance(VertexId u, VertexId v) const override;
  /// Fused serial kernel: three root-distance reads around an O(1) LCA.
  Status DistanceInto(std::span<const VertexPair> pairs,
                      double* out) const override;
  std::string Name() const override { return kName; }

  /// The underlying release (tree edges + noisy weights).
  const PrivateMstResult& released() const { return released_; }

  /// Persists the release verbatim: the tree edge ids, the full noisy
  /// weight function (itself eps-DP and publishable), and the noise
  /// scale. The rooted tree and root distances are deterministic
  /// post-processing, rebuilt at restore.
  Status SaveReleasedState(std::vector<ReleasedSection>* out) const override;

  /// OracleLoader counterpart: revalidates the released tree against the
  /// public graph and replays the deterministic post-processing.
  static Result<std::unique_ptr<DistanceOracle>> FromReleasedState(
      const Graph& graph, const EdgeWeights& w,
      std::span<const ReleasedSectionView> sections);

 private:
  MstDistanceOracle(PrivateMstResult released, RootedTree tree,
                    std::vector<double> root_dist);

  // The oracle over `released`: the deterministic post-processing shared
  // by Build and FromReleasedState. Fails when the released tree is not a
  // spanning tree of `graph`.
  static Result<std::unique_ptr<MstDistanceOracle>> FromRelease(
      const Graph& graph, PrivateMstResult released);

  PrivateMstResult released_;
  RootedTree tree_;
  EulerTourLca lca_;
  // Root-to-vertex path sums in the released tree under noisy weights.
  std::vector<double> root_dist_;
};

/// The MST *cost* (the query studied by [NRS07] under a different privacy
/// model, discussed in §1.3). In the private edge-weight model the cost
/// c(w) = min_T sum_{e in T} w(e) is a sensitivity-1 scalar: a unit l1
/// change in w moves every tree's weight by at most 1, hence the min by at
/// most 1. One Laplace draw suffices — error O(1/eps), with no Omega(V)
/// barrier, in contrast to releasing the tree itself (Theorem B.1). The
/// contrast is exercised in bench_mst.
Result<double> PrivateMstCost(const Graph& graph, const EdgeWeights& w,
                              const PrivacyParams& params, Rng* rng);

}  // namespace dpsp

#endif  // DPSP_CORE_PRIVATE_MST_H_
