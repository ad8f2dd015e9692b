#include "core/private_shortest_path.h"

#include <algorithm>
#include <cmath>

#include "dp/laplace_mechanism.h"

namespace dpsp {

PrivateShortestPaths::PrivateShortestPaths(const Graph& graph,
                                           EdgeWeights released, double offset,
                                           double scale)
    : graph_(graph),
      released_(std::move(released)),
      offset_(offset),
      noise_scale_(scale) {}

Result<PrivateShortestPaths> PrivateShortestPaths::Release(
    const Graph& graph, const EdgeWeights& w,
    const PrivateShortestPathOptions& options, Rng* rng) {
  DPSP_RETURN_IF_ERROR(options.params.Validate());
  DPSP_RETURN_IF_ERROR(graph.ValidateNonNegativeWeights(w));
  DPSP_RETURN_IF_ERROR(ValidateGamma(options.gamma));
  if (graph.num_edges() == 0) {
    return PrivateShortestPaths(graph, EdgeWeights{}, 0.0, 0.0);
  }

  DPSP_ASSIGN_OR_RETURN(double scale, LaplaceScale(1.0, options.params));
  double offset =
      scale * std::log(static_cast<double>(graph.num_edges()) / options.gamma);

  DPSP_ASSIGN_OR_RETURN(EdgeWeights noisy,
                        LaplaceMechanism(w, 1.0, options.params, rng));
  for (double& x : noisy) x = std::max(0.0, x + offset);
  return PrivateShortestPaths(graph, std::move(noisy), offset, scale);
}

Result<std::vector<EdgeId>> PrivateShortestPaths::Path(VertexId u,
                                                       VertexId v) const {
  DPSP_ASSIGN_OR_RETURN(ShortestPathTree tree, PathTree(u));
  return ExtractPathEdges(graph_, tree, v);
}

Result<ShortestPathTree> PrivateShortestPaths::PathTree(VertexId u) const {
  return Dijkstra(graph_, released_, u);
}

double PrivateShortestPaths::ErrorBoundForHops(int k) const {
  DPSP_CHECK_MSG(k >= 0, "hop count must be non-negative");
  return 2.0 * static_cast<double>(k) * offset_;
}

}  // namespace dpsp
