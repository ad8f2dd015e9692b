#include "core/path_graph.h"

#include <algorithm>

#include "common/table.h"
#include "core/released_state.h"
#include "dp/laplace_mechanism.h"

namespace dpsp {

namespace {

Status ValidatePathShape(const Graph& graph) {
  if (graph.directed()) {
    return Status::InvalidArgument("path oracle requires undirected graph");
  }
  if (graph.num_edges() != graph.num_vertices() - 1) {
    return Status::InvalidArgument("not a path graph: E != V - 1");
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const EdgeEndpoints& ep = graph.edge(e);
    if (std::min(ep.u, ep.v) != e || std::max(ep.u, ep.v) != e + 1) {
      return Status::InvalidArgument(
          "not in canonical path layout (edge i must join i and i+1)");
    }
  }
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<PathGraphOracle>> PathGraphOracle::Build(
    const Graph& graph, const EdgeWeights& w, const PrivacyParams& params,
    Rng* rng) {
  DPSP_RETURN_IF_ERROR(params.Validate());
  DPSP_RETURN_IF_ERROR(ValidatePathShape(graph));
  DPSP_RETURN_IF_ERROR(graph.ValidateNonNegativeWeights(w));

  // Every edge lies in exactly one block per level, so the joint release
  // has sensitivity #levels. A single vertex has no edges and no levels.
  const int levels = NoisyDyadicRangeSums::LevelsForSize(graph.num_edges());
  double scale = 0.0;
  if (levels > 0) {
    DPSP_ASSIGN_OR_RETURN(
        scale, LaplaceScale(static_cast<double>(levels), params));
  }
  return std::unique_ptr<PathGraphOracle>(
      new PathGraphOracle(NoisyDyadicRangeSums(w, scale, rng)));
}

Result<std::unique_ptr<PathGraphOracle>> PathGraphOracle::Build(
    const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx) {
  return ctx.MeteredBuild(
      kName, [&] { return Build(graph, w, ctx.params(), ctx.rng()); },
      [](const PathGraphOracle& oracle, ReleaseTelemetry& t) {
        t.sensitivity = oracle.num_levels();
        t.noise_scale = oracle.noise_scale();
        t.noise_draws = oracle.num_noisy_values();
      });
}

Status PathGraphOracle::SaveReleasedState(
    std::vector<ReleasedSection>* out) const {
  out->push_back(released_state::Pack<double>("blocks", sums_.blocks()));
  out->push_back(released_state::PackScalars(
      "meta", {static_cast<double>(num_vertices()),
               static_cast<double>(sums_.size()), sums_.noise_scale()}));
  return Status::Ok();
}

Result<std::unique_ptr<DistanceOracle>> PathGraphOracle::FromReleasedState(
    const Graph& graph, const EdgeWeights& w,
    std::span<const ReleasedSectionView> sections) {
  DPSP_RETURN_IF_ERROR(ValidatePathShape(graph));
  DPSP_RETURN_IF_ERROR(graph.ValidateWeights(w));
  DPSP_ASSIGN_OR_RETURN(std::span<const double> meta,
                        released_state::Require<double>(sections, "meta", 3));
  int num_vertices;
  DPSP_ASSIGN_OR_RETURN(num_vertices,
                        released_state::AsInt(meta[0], "vertex count"));
  int num_edges;
  DPSP_ASSIGN_OR_RETURN(num_edges,
                        released_state::AsInt(meta[1], "edge count"));
  if (num_vertices != graph.num_vertices() ||
      num_edges != graph.num_edges()) {
    return Status::InvalidArgument(StrFormat(
        "snapshot path has %d vertices / %d edges, the graph has %d / %d",
        num_vertices, num_edges, graph.num_vertices(), graph.num_edges()));
  }
  DPSP_ASSIGN_OR_RETURN(std::span<const double> blocks,
                        released_state::Require<double>(sections, "blocks"));
  // Restore rejects a noise scale the structure could not have been drawn
  // at and an image of the wrong block count.
  DPSP_ASSIGN_OR_RETURN(NoisyDyadicRangeSums sums,
                        NoisyDyadicRangeSums::Restore(w, meta[2], blocks));
  return std::unique_ptr<DistanceOracle>(new PathGraphOracle(std::move(sums)));
}

Result<double> PathGraphOracle::Distance(VertexId u, VertexId v) const {
  if (u < 0 || u >= num_vertices() || v < 0 || v >= num_vertices()) {
    return Status::InvalidArgument("vertex out of range");
  }
  return sums_.RangeSumUnchecked(std::min(u, v), std::max(u, v));
}

Status PathGraphOracle::DistanceInto(std::span<const VertexPair> pairs,
                                     double* out) const {
  const unsigned n = static_cast<unsigned>(num_vertices());
  for (const auto& [u, v] : pairs) {
    if (static_cast<unsigned>(u) >= n || static_cast<unsigned>(v) >= n) {
      return Status::InvalidArgument("vertex out of range");
    }
  }
  // Prefetching the blocks of pair i + kLookahead before answering pair i
  // keeps that many queries' misses in flight.
  constexpr size_t kLookahead = 8;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i + kLookahead < pairs.size()) {
      const auto& [u, v] = pairs[i + kLookahead];
      sums_.PrefetchRange(std::min(u, v), std::max(u, v));
    }
    const auto& [u, v] = pairs[i];
    out[i] = sums_.RangeSumUnchecked(std::min(u, v), std::max(u, v));
  }
  return Status::Ok();
}

Result<int> PathGraphOracle::QuerySegmentCount(VertexId u, VertexId v) const {
  if (u < 0 || u >= num_vertices() || v < 0 || v >= num_vertices()) {
    return Status::InvalidArgument("vertex out of range");
  }
  int segments = 0;
  DPSP_RETURN_IF_ERROR(
      sums_.RangeSum(std::min(u, v), std::max(u, v), &segments).status());
  return segments;
}

double PathGraphErrorBound(int num_vertices, const PrivacyParams& params,
                           double gamma) {
  DPSP_CHECK_MSG(num_vertices >= 1 && gamma > 0.0 && gamma < 1.0,
                 "invalid error bound arguments");
  const int num_levels =
      NoisyDyadicRangeSums::LevelsForSize(num_vertices - 1);
  if (num_levels == 0) return 0.0;
  double scale = static_cast<double>(num_levels) * params.neighbor_l1_bound /
                 params.epsilon;
  return LaplaceSumBound(scale, 2 * num_levels, gamma).value();
}

}  // namespace dpsp
