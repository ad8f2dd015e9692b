// Private distances on trees (Section 4.1).
//
// Theorem 4.1 / Algorithm 1 — single-source distances on a rooted tree:
// recursively split the tree at the balanced separator v* (Figure 1),
// release the noisy distance root->v* and the noisy weights of the edges
// (v*, child), and recurse into the parts. Each edge participates in at
// most one released value per recursion depth and the depth is at most
// ceil(log2 V) + 1, so the whole released vector has sensitivity
// <= ceil(log2 V) + 1 and a single Laplace mechanism invocation with scale
// (ceil(log2 V)+1)/eps makes the algorithm eps-DP. Every root-to-vertex
// distance is a sum of at most 2 log2 V released values, giving per-vertex
// error O(log^1.5 V log(1/gamma))/eps (Lemma 3.1).
//
// Theorem 4.2 — all-pairs distances: root anywhere, release single-source
// estimates d~(v0, .), and answer d(x, y) by the tree identity
//     d(x,y) = d(v0,x) + d(v0,y) - 2 d(v0, lca(x,y)).

#ifndef DPSP_CORE_TREE_DISTANCE_H_
#define DPSP_CORE_TREE_DISTANCE_H_

#include <memory>
#include <vector>

#include "common/aligned.h"
#include "common/random.h"
#include "core/distance_oracle.h"
#include "dp/privacy.h"
#include "dp/release_context.h"
#include "graph/tree.h"

namespace dpsp {

/// The released single-source estimates plus release metadata.
struct TreeSingleSourceRelease {
  VertexId root = 0;
  /// estimate[v] ~ dw(root, v); estimate[root] == 0 exactly. Cache-line
  /// aligned: the batch kernel reads three entries of it per pair.
  AlignedVector<double> estimates;
  /// Laplace scale used for each released value.
  double noise_scale = 0.0;
  /// Number of Laplace draws (<= 2V).
  int num_noisy_values = 0;
  /// The recursion-depth bound used as the sensitivity (ceil(log2 V) + 1).
  int sensitivity = 0;
};

/// Theorem 4.1: eps-DP single-source distance estimates on a tree.
/// `graph` must be an undirected tree; weights non-negative.
Result<TreeSingleSourceRelease> ReleaseTreeSingleSourceDistances(
    const Graph& graph, const EdgeWeights& w, VertexId root,
    const PrivacyParams& params, Rng* rng);

/// High-probability per-vertex error bound of Theorem 4.1 with explicit
/// constants as proved (Lemma 3.1 over at most 2 log2 V summands of scale
/// (ceil(log2 V)+1) rho / eps):
///   4 * scale * sqrt(2 log2 V * ln(2/gamma)).
double TreeSingleSourceErrorBound(int num_vertices,
                                  const PrivacyParams& params, double gamma);

/// Theorem 4.2: eps-DP all-pairs tree distance oracle (LCA combination of
/// a single-source release).
class TreeAllPairsOracle final : public DistanceOracle {
 public:
  /// Registry name of this mechanism.
  static constexpr const char* kName = "tree-recursive";

  /// Builds the oracle through the release pipeline: draws one release of
  /// ctx.params() from the accountant and records telemetry. `root` = -1
  /// picks vertex 0. The tree is oriented once, and the weights checked
  /// (finite, non-negative), before the budget check, the WAL intent and
  /// any draw, so a refused input spends nothing; the release and the
  /// oracle share that orientation.
  static Result<std::unique_ptr<TreeAllPairsOracle>> Build(
      const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx,
      VertexId root = -1);

  Result<double> Distance(VertexId u, VertexId v) const override;
  /// Fused serial kernel: three flat-array reads around an O(1) Euler-tour
  /// LCA per pair, bounds checks folded into the loop. DistanceBatch and
  /// the sharded executor fan this out.
  Status DistanceInto(std::span<const VertexPair> pairs,
                      double* out) const override;
  std::string Name() const override { return kName; }

  /// Persists the released single-source estimates + release metadata.
  /// The tree orientation and LCA structure are deterministic
  /// post-processing of the public topology and are rebuilt at restore.
  Status SaveReleasedState(std::vector<ReleasedSection>* out) const override;

  /// OracleLoader counterpart of SaveReleasedState: re-orients the public
  /// tree at the persisted root and installs the released estimates.
  /// Bit-identical queries, no budget consumed.
  static Result<std::unique_ptr<DistanceOracle>> FromReleasedState(
      const Graph& graph, const EdgeWeights& w,
      std::span<const ReleasedSectionView> sections);

  const TreeSingleSourceRelease& release() const { return release_; }

 private:
  TreeAllPairsOracle(RootedTree tree, TreeSingleSourceRelease release);

  RootedTree tree_;
  EulerTourLca lca_;
  TreeSingleSourceRelease release_;
};

/// High-probability per-pair error bound of Theorem 4.2: four times the
/// single-source bound (three estimates combine, one doubled).
double TreeAllPairsErrorBound(int num_vertices, const PrivacyParams& params,
                              double gamma);

}  // namespace dpsp

#endif  // DPSP_CORE_TREE_DISTANCE_H_
