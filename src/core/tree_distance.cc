#include "core/tree_distance.h"

#include <cmath>

#include "common/cpu.h"
#include "common/table.h"
#include "core/released_state.h"
#include "core/simd_kernels.h"
#include "dp/laplace_mechanism.h"
#include "graph/tree_partition.h"

namespace dpsp {

namespace {

// ceil(log2 n) for n >= 1.
int CeilLog2(int n) {
  int log = 0;
  int pow = 1;
  while (pow < n) {
    pow *= 2;
    ++log;
  }
  return log;
}

// Recursive worker for Algorithm 1. `base` is the (noisy) estimate of the
// distance from the global root to view.root; exact root distances within
// the original tree are in `root_dist` (private intermediates — only the
// noised combinations below are ever released).
struct Recursion {
  const RootedTree& tree;
  const EdgeWeights& w;
  const std::vector<double>& root_dist;
  double scale;
  Rng* rng;
  AlignedVector<double>& estimates;
  int noisy_count = 0;

  void Run(const SubtreeView& view, double base) {
    estimates[static_cast<size_t>(view.root)] = base;
    if (view.size() == 1) return;

    TreeSplit split = SplitSubtree(tree, view).value();

    // Released value 1: distance view.root -> v* (exact value is the
    // difference of root distances because v* descends from view.root).
    double d_vstar = base;
    if (split.v_star != view.root) {
      double exact = root_dist[static_cast<size_t>(split.v_star)] -
                     root_dist[static_cast<size_t>(view.root)];
      d_vstar = base + exact + rng->Laplace(scale);
      ++noisy_count;
    }

    // Released values 2..t+1: the edges (v*, v_i).
    std::vector<double> child_estimates(split.child_roots.size());
    for (size_t i = 0; i < split.child_roots.size(); ++i) {
      VertexId child = split.child_roots[i];
      EdgeId e = tree.parent_edge(child);
      DPSP_CHECK_MSG(e >= 0 && tree.parent(child) == split.v_star,
                     "split child is not a tree child of v*");
      child_estimates[i] =
          d_vstar + w[static_cast<size_t>(e)] + rng->Laplace(scale);
      ++noisy_count;
    }

    // Recurse: T_0 keeps the current base; each T_i starts from its own
    // noisy estimate.
    Run(split.rest, base);
    for (size_t i = 0; i < split.child_subtrees.size(); ++i) {
      Run(split.child_subtrees[i], child_estimates[i]);
    }
  }
};

// Algorithm 1 over an oriented tree; the weights are already validated.
Result<TreeSingleSourceRelease> ReleaseOnTree(const RootedTree& tree,
                                              const EdgeWeights& w,
                                              const PrivacyParams& params,
                                              Rng* rng) {
  int n = tree.num_vertices();
  // Recursion-depth bound = sensitivity of the full released vector: the
  // subtree sizes shrink to <= ceil(n/2) per level, so the depth is at most
  // ceil(log2 n) + 1; each level's released values have joint sensitivity 1.
  int sensitivity = CeilLog2(n) + 1;
  DPSP_ASSIGN_OR_RETURN(
      double scale,
      LaplaceScale(static_cast<double>(sensitivity), params));

  TreeSingleSourceRelease release;
  release.root = tree.root();
  release.noise_scale = scale;
  release.sensitivity = sensitivity;
  release.estimates.assign(static_cast<size_t>(n), 0.0);

  std::vector<double> root_dist = tree.RootDistances(w);
  Recursion recursion{tree,  w,  root_dist, scale,
                      rng,   release.estimates};
  recursion.Run(FullTreeView(tree), 0.0);
  release.num_noisy_values = recursion.noisy_count;
  return release;
}

}  // namespace

Result<TreeSingleSourceRelease> ReleaseTreeSingleSourceDistances(
    const Graph& graph, const EdgeWeights& w, VertexId root,
    const PrivacyParams& params, Rng* rng) {
  DPSP_RETURN_IF_ERROR(params.Validate());
  DPSP_RETURN_IF_ERROR(graph.ValidateNonNegativeWeights(w));
  DPSP_ASSIGN_OR_RETURN(RootedTree tree, RootedTree::FromGraph(graph, root));
  return ReleaseOnTree(tree, w, params, rng);
}

double TreeSingleSourceErrorBound(int num_vertices,
                                  const PrivacyParams& params, double gamma) {
  DPSP_CHECK_MSG(num_vertices >= 1 && gamma > 0.0 && gamma < 1.0,
                 "invalid error bound arguments");
  int sensitivity = CeilLog2(num_vertices) + 1;
  double scale = static_cast<double>(sensitivity) * params.neighbor_l1_bound /
                 params.epsilon;
  int summands = 2 * CeilLog2(num_vertices) + 2;
  return LaplaceSumBound(scale, summands, gamma).value();
}

double TreeAllPairsErrorBound(int num_vertices, const PrivacyParams& params,
                              double gamma) {
  return 4.0 * TreeSingleSourceErrorBound(num_vertices, params, gamma);
}

TreeAllPairsOracle::TreeAllPairsOracle(RootedTree tree,
                                       TreeSingleSourceRelease release)
    : tree_(std::move(tree)), lca_(tree_), release_(std::move(release)) {}

Result<std::unique_ptr<TreeAllPairsOracle>> TreeAllPairsOracle::Build(
    const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx,
    VertexId root) {
  if (root == -1) root = 0;
  // The topology check runs before the metered build, so a refused
  // topology logs no intent and draws nothing; the release and the oracle
  // share the one orientation.
  DPSP_ASSIGN_OR_RETURN(RootedTree tree, RootedTree::FromGraph(graph, root));
  return ctx.MeteredBuild(
      kName,
      [&]() -> Result<std::unique_ptr<TreeAllPairsOracle>> {
        DPSP_RETURN_IF_ERROR(graph.ValidateNonNegativeWeights(w));
        DPSP_ASSIGN_OR_RETURN(
            TreeSingleSourceRelease release,
            ReleaseOnTree(tree, w, ctx.params(), ctx.rng()));
        return std::unique_ptr<TreeAllPairsOracle>(
            new TreeAllPairsOracle(std::move(tree), std::move(release)));
      },
      [](const TreeAllPairsOracle& oracle, ReleaseTelemetry& t) {
        t.sensitivity = oracle.release().sensitivity;
        t.noise_scale = oracle.release().noise_scale;
        t.noise_draws = oracle.release().num_noisy_values;
      });
}

Status TreeAllPairsOracle::SaveReleasedState(
    std::vector<ReleasedSection>* out) const {
  out->push_back(released_state::Pack<double>(
      "estimates", std::span<const double>(release_.estimates.data(),
                                           release_.estimates.size())));
  out->push_back(released_state::PackScalars(
      "meta", {static_cast<double>(release_.root), release_.noise_scale,
               static_cast<double>(release_.num_noisy_values),
               static_cast<double>(release_.sensitivity)}));
  return Status::Ok();
}

Result<std::unique_ptr<DistanceOracle>> TreeAllPairsOracle::FromReleasedState(
    const Graph& graph, const EdgeWeights& w,
    std::span<const ReleasedSectionView> sections) {
  (void)w;
  DPSP_ASSIGN_OR_RETURN(std::span<const double> meta,
                        released_state::Require<double>(sections, "meta", 4));
  TreeSingleSourceRelease release;
  DPSP_ASSIGN_OR_RETURN(release.root,
                        released_state::AsInt(meta[0], "tree root"));
  release.noise_scale = meta[1];
  DPSP_ASSIGN_OR_RETURN(release.num_noisy_values,
                        released_state::AsInt(meta[2], "noise draw count"));
  DPSP_ASSIGN_OR_RETURN(release.sensitivity,
                        released_state::AsInt(meta[3], "sensitivity"));
  if (release.root < 0 || release.root >= graph.num_vertices()) {
    return Status::InvalidArgument("snapshot tree root is out of range");
  }
  DPSP_ASSIGN_OR_RETURN(std::span<const double> estimates,
                        released_state::Require<double>(
                            sections, "estimates", graph.num_vertices()));
  release.estimates.assign(estimates.begin(), estimates.end());
  DPSP_ASSIGN_OR_RETURN(RootedTree tree,
                        RootedTree::FromGraph(graph, release.root));
  return std::unique_ptr<DistanceOracle>(
      new TreeAllPairsOracle(std::move(tree), std::move(release)));
}

Result<double> TreeAllPairsOracle::Distance(VertexId u, VertexId v) const {
  if (u < 0 || u >= tree_.num_vertices() || v < 0 ||
      v >= tree_.num_vertices()) {
    return Status::InvalidArgument("vertex out of range");
  }
  VertexId z = lca_.Lca(u, v);
  const auto& est = release_.estimates;
  return est[static_cast<size_t>(u)] + est[static_cast<size_t>(v)] -
         2.0 * est[static_cast<size_t>(z)];
}

Status TreeAllPairsOracle::DistanceInto(std::span<const VertexPair> pairs,
                                        double* out) const {
  // Single fused pass: bounds checks fold into the loop (no separate
  // validation sweep) and the per-pair work is three array reads around an
  // O(1) LCA lookup — no per-query Result or virtual dispatch.
  const unsigned n = static_cast<unsigned>(tree_.num_vertices());
  const double* est = release_.estimates.data();
#if defined(DPSP_HAVE_AVX2)
  if (SimdKernelsEnabled() && pairs.size() >= 8 && lca_.SimdCompatible()) {
    static_assert(sizeof(VertexPair) == 2 * sizeof(int32_t),
                  "kernels reinterpret VertexPair as two packed int32s");
    int bad = simd::TreeCombineAvx2(
        lca_.Flat(), est, reinterpret_cast<const int32_t*>(pairs.data()),
        static_cast<int>(pairs.size()), out);
    if (bad < 0) return Status::Ok();
    return Status::InvalidArgument("vertex out of range");
  }
#endif
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& [u, v] = pairs[i];
    if (static_cast<unsigned>(u) >= n || static_cast<unsigned>(v) >= n) {
      return Status::InvalidArgument("vertex out of range");
    }
    VertexId z = lca_.LcaUnchecked(u, v);
    out[i] = est[static_cast<size_t>(u)] + est[static_cast<size_t>(v)] -
             2.0 * est[static_cast<size_t>(z)];
  }
  return Status::Ok();
}

}  // namespace dpsp
