// Private shortest paths (Section 5.2, Algorithm 3, Theorem 5.5).
//
// Release w'(e) = w(e) + Lap(1/eps) + (1/eps) log(E/gamma) for every edge —
// a single Laplace mechanism invocation on the identity query (sensitivity
// 1) plus a data-independent offset, so the release is eps-DP. Every path
// query is post-processing: the approximate shortest path between x and y
// is the exact shortest path in (G, w'). The offset biases the released
// weights upward, which makes the error of a released path proportional to
// its *hop count*: conditioned on all |noise| <= (1/eps) log(E/gamma)
// (probability >= 1 - gamma),
//     w(e) <= w'(e) <= w(e) + (2/eps) log(E/gamma),
// so against any k-hop competitor path the released path is at most
// (2k/eps) log(E/gamma) longer (Theorem 5.5), and at most
// (2V/eps) log(E/gamma) in the worst case (Corollary 5.6).
//
// Released weights are clamped at 0 (post-processing) so Dijkstra applies;
// see DESIGN.md §4 for why this is privacy-free and does not disturb the
// bound outside the gamma-probability bad event.

#ifndef DPSP_CORE_PRIVATE_SHORTEST_PATH_H_
#define DPSP_CORE_PRIVATE_SHORTEST_PATH_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "dp/privacy.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"

namespace dpsp {

/// Options for Algorithm 3.
struct PrivateShortestPathOptions {
  PrivacyParams params;
  /// Failure probability gamma of the high-probability guarantee; also
  /// sets the hop-penalty offset (1/eps) log(E/gamma).
  double gamma = 0.01;
};

/// The released object of Algorithm 3: the noisy offset weights w'.
/// All path/distance queries are post-processing of it.
class PrivateShortestPaths {
 public:
  /// Runs Algorithm 3. Works on directed and undirected graphs (the
  /// shortest-path results of Section 5 apply to both).
  static Result<PrivateShortestPaths> Release(
      const Graph& graph, const EdgeWeights& w,
      const PrivateShortestPathOptions& options, Rng* rng);

  /// The released weight function w' (public).
  const EdgeWeights& released_weights() const { return released_; }

  /// The additive hop penalty (1/eps) log(E/gamma).
  double offset() const { return offset_; }

  /// The approximate shortest path from u to v: edge ids of SP_{w'}(u, v).
  Result<std::vector<EdgeId>> Path(VertexId u, VertexId v) const;

  /// All approximate shortest paths from u (one Dijkstra on w').
  Result<ShortestPathTree> PathTree(VertexId u) const;

  /// Theorem 5.5 bound: a released path loses at most
  /// (2k/eps) log(E/gamma) * rho against any k-hop competitor.
  double ErrorBoundForHops(int k) const;

 private:
  PrivateShortestPaths(const Graph& graph, EdgeWeights released,
                       double offset, double scale);

  Graph graph_;  // shares the caller's topology
  EdgeWeights released_;
  double offset_;
  double noise_scale_;
};

}  // namespace dpsp

#endif  // DPSP_CORE_PRIVATE_SHORTEST_PATH_H_
