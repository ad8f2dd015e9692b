#include "core/private_mst.h"

#include <cmath>
#include <utility>

#include "common/table.h"
#include "core/released_state.h"
#include "dp/laplace_mechanism.h"
#include "graph/connectivity.h"
#include "graph/spanning_tree.h"

namespace dpsp {

namespace {

// The weight-free preconditions of the release: only a non-empty,
// connected undirected graph has a spanning tree.
Status CheckSpannable(const Graph& graph) {
  if (graph.directed()) {
    return Status::InvalidArgument("spanning trees require undirected graphs");
  }
  if (graph.num_vertices() == 0) {
    return Status::InvalidArgument("graph is empty");
  }
  if (!IsConnected(graph)) {
    return Status::InvalidArgument(
        "graph is not connected, so it has no spanning tree");
  }
  return Status::Ok();
}

}  // namespace

Result<PrivateMstResult> PrivateMst(const Graph& graph, const EdgeWeights& w,
                                    const PrivacyParams& params, Rng* rng) {
  DPSP_RETURN_IF_ERROR(params.Validate());
  DPSP_RETURN_IF_ERROR(graph.ValidateWeights(w));
  DPSP_ASSIGN_OR_RETURN(double scale, LaplaceScale(1.0, params));
  DPSP_ASSIGN_OR_RETURN(EdgeWeights noisy,
                        LaplaceMechanism(w, 1.0, params, rng));
  DPSP_ASSIGN_OR_RETURN(std::vector<EdgeId> tree, KruskalMst(graph, noisy));
  return PrivateMstResult{std::move(tree), std::move(noisy), scale};
}

MstDistanceOracle::MstDistanceOracle(PrivateMstResult released,
                                     RootedTree tree,
                                     std::vector<double> root_dist)
    : released_(std::move(released)),
      tree_(std::move(tree)),
      lca_(tree_),
      root_dist_(std::move(root_dist)) {}

Result<std::unique_ptr<MstDistanceOracle>> MstDistanceOracle::FromRelease(
    const Graph& graph, PrivateMstResult released) {
  // Re-index the released tree as its own graph (tree edge i carries the
  // noisy weight of original edge released.tree_edges[i]) and compute root
  // distances under the released noisy weights. Graph::Create +
  // RootedTree::FromGraph reject edge ids or edge sets that do not form a
  // spanning tree of the public graph.
  std::vector<EdgeEndpoints> endpoints;
  EdgeWeights tree_weights;
  endpoints.reserve(released.tree_edges.size());
  tree_weights.reserve(released.tree_edges.size());
  for (EdgeId e : released.tree_edges) {
    if (e < 0 || e >= graph.num_edges()) {
      return Status::InvalidArgument(
          StrFormat("released tree edge %d is out of range", e));
    }
    endpoints.push_back(graph.edge(e));
    tree_weights.push_back(released.noisy_weights[static_cast<size_t>(e)]);
  }
  DPSP_ASSIGN_OR_RETURN(
      Graph tree_graph,
      Graph::Create(graph.num_vertices(), std::move(endpoints)));
  DPSP_ASSIGN_OR_RETURN(RootedTree tree,
                        RootedTree::FromGraph(tree_graph, 0));
  std::vector<double> root_dist = tree.RootDistances(tree_weights);
  return std::unique_ptr<MstDistanceOracle>(new MstDistanceOracle(
      std::move(released), std::move(tree), std::move(root_dist)));
}

Result<std::unique_ptr<MstDistanceOracle>> MstDistanceOracle::Build(
    const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx) {
  // The topology and weight checks run before the metered build, so a
  // refused input logs no intent and draws nothing. Negative weights are
  // allowed: a spanning tree is defined for any real weights.
  DPSP_RETURN_IF_ERROR(CheckSpannable(graph));
  DPSP_RETURN_IF_ERROR(graph.ValidateWeights(w));
  return ctx.MeteredBuild(
      kName,
      [&]() -> Result<std::unique_ptr<MstDistanceOracle>> {
        DPSP_ASSIGN_OR_RETURN(PrivateMstResult released,
                              PrivateMst(graph, w, ctx.params(), ctx.rng()));
        return FromRelease(graph, std::move(released));
      },
      [&graph](const MstDistanceOracle& oracle, ReleaseTelemetry& t) {
        t.sensitivity = 1.0;  // identity query on the weight vector
        t.noise_scale = oracle.released().noise_scale;
        t.noise_draws = graph.num_edges();
      });
}

Status MstDistanceOracle::SaveReleasedState(
    std::vector<ReleasedSection>* out) const {
  out->push_back(released_state::Pack<EdgeId>(
      "tree-edges", std::span<const EdgeId>(released_.tree_edges)));
  out->push_back(released_state::Pack<double>(
      "noisy-weights", std::span<const double>(released_.noisy_weights)));
  out->push_back(
      released_state::PackScalars("meta", {released_.noise_scale}));
  return Status::Ok();
}

Result<std::unique_ptr<DistanceOracle>> MstDistanceOracle::FromReleasedState(
    const Graph& graph, const EdgeWeights& w,
    std::span<const ReleasedSectionView> sections) {
  (void)w;
  DPSP_ASSIGN_OR_RETURN(std::span<const double> meta,
                        released_state::Require<double>(sections, "meta", 1));
  DPSP_ASSIGN_OR_RETURN(
      std::span<const EdgeId> tree_edges,
      released_state::Require<EdgeId>(sections, "tree-edges",
                                      graph.num_vertices() - 1));
  DPSP_ASSIGN_OR_RETURN(
      std::span<const double> noisy,
      released_state::Require<double>(sections, "noisy-weights",
                                      graph.num_edges()));
  PrivateMstResult released;
  released.tree_edges.assign(tree_edges.begin(), tree_edges.end());
  released.noisy_weights.assign(noisy.begin(), noisy.end());
  released.noise_scale = meta[0];
  // The rooted tree and root distances are deterministic post-processing
  // of the persisted release: replay them.
  DPSP_ASSIGN_OR_RETURN(std::unique_ptr<MstDistanceOracle> oracle,
                        FromRelease(graph, std::move(released)));
  return std::unique_ptr<DistanceOracle>(std::move(oracle));
}

Result<double> MstDistanceOracle::Distance(VertexId u, VertexId v) const {
  if (u < 0 || u >= tree_.num_vertices() || v < 0 ||
      v >= tree_.num_vertices()) {
    return Status::InvalidArgument("vertex out of range");
  }
  VertexId z = lca_.Lca(u, v);
  return root_dist_[static_cast<size_t>(u)] +
         root_dist_[static_cast<size_t>(v)] -
         2.0 * root_dist_[static_cast<size_t>(z)];
}

Status MstDistanceOracle::DistanceInto(std::span<const VertexPair> pairs,
                                       double* out) const {
  const unsigned n = static_cast<unsigned>(tree_.num_vertices());
  const double* dist = root_dist_.data();
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& [u, v] = pairs[i];
    if (static_cast<unsigned>(u) >= n || static_cast<unsigned>(v) >= n) {
      return Status::InvalidArgument("vertex out of range");
    }
    VertexId z = lca_.LcaUnchecked(u, v);
    out[i] = dist[static_cast<size_t>(u)] + dist[static_cast<size_t>(v)] -
             2.0 * dist[static_cast<size_t>(z)];
  }
  return Status::Ok();
}

double PrivateMstErrorBound(int num_vertices, int num_edges,
                            const PrivacyParams& params, double gamma) {
  DPSP_CHECK_MSG(num_vertices >= 2 && num_edges >= 1 && gamma > 0.0 &&
                     gamma < 1.0,
                 "invalid error bound arguments");
  double scale = params.neighbor_l1_bound / params.epsilon;
  return 2.0 * static_cast<double>(num_vertices - 1) * scale *
         std::log(static_cast<double>(num_edges) / gamma);
}

Result<double> PrivateMstCost(const Graph& graph, const EdgeWeights& w,
                              const PrivacyParams& params, Rng* rng) {
  DPSP_RETURN_IF_ERROR(params.Validate());
  DPSP_ASSIGN_OR_RETURN(std::vector<EdgeId> tree, KruskalMst(graph, w));
  DPSP_ASSIGN_OR_RETURN(double scale, LaplaceScale(1.0, params));
  return TotalWeight(w, tree) + rng->Laplace(scale);
}

double MstLowerBound(int num_vertices, double epsilon, double delta) {
  DPSP_CHECK_MSG(num_vertices >= 2 && epsilon >= 0.0 && delta >= 0.0,
                 "invalid lower bound arguments");
  double numer = 1.0 - (1.0 + std::exp(epsilon)) * delta;
  if (numer < 0.0) numer = 0.0;
  return static_cast<double>(num_vertices - 1) * numer /
         (1.0 + std::exp(2.0 * epsilon));
}

}  // namespace dpsp
