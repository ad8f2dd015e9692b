// k-coverings (Definition 4.1): a vertex subset Z such that every vertex is
// within hop distance k of some member of Z. Three constructions:
//
//  * MM75ResidueCovering — the Meir-Moon construction behind Lemma 4.4:
//    take a spanning tree, pick an endpoint x of one of its longest paths,
//    bucket vertices by (tree hop distance from x) mod (k+1), and return the
//    smallest bucket. We additionally insert x itself, which makes the
//    covering property unconditional (vertices closer than k hops to x are
//    covered by x; vertices farther see all k+1 residues on their tree path
//    toward x within their first k+1 steps). Size <= floor(V/(k+1)) + 1.
//
//  * GreedyCovering — repeatedly pick an uncovered vertex and cover its
//    k-ball. Often smaller in practice; used to show the "for specific
//    graphs we can do better" remark after Theorem 4.6.
//
//  * GridCovering — the explicit sqrt(V) x sqrt(V) grid covering from
//    Theorem 4.7: vertices whose row and column are both ≡ -1 mod s form a
//    2s-covering of size ~ V/s^2.

#ifndef DPSP_GRAPH_COVERING_H_
#define DPSP_GRAPH_COVERING_H_

#include <vector>

#include "common/aligned.h"
#include "common/status.h"
#include "graph/graph.h"

namespace dpsp {

/// A k-covering with the per-vertex assignment z(v) of Algorithm 2.
struct Covering {
  int k = 0;
  /// Covering vertices in increasing order.
  std::vector<VertexId> centers;
  /// For each vertex v, the index into `centers` of a covering vertex
  /// within k hops (the nearest in hops, ties to the smallest id).
  /// Cache-aligned: the batch kernel reads it per query.
  AlignedVector<int> assignment;
  /// Hop distance from each vertex to its assigned center.
  std::vector<int> assignment_hops;

  int size() const { return static_cast<int>(centers.size()); }
  VertexId CenterOf(VertexId v) const {
    return centers[static_cast<size_t>(assignment[static_cast<size_t>(v)])];
  }
};

/// Lemma 4.4 construction. Requires a connected undirected graph and
/// k >= 0 with V >= k + 1. Size <= floor(V/(k+1)) + 1.
Result<Covering> MM75ResidueCovering(const Graph& graph, int k);

/// Greedy k-ball covering. Requires a connected undirected graph.
Result<Covering> GreedyCovering(const Graph& graph, int k);

/// Theorem 4.7 covering for the rows x cols grid produced by
/// GridGraph(rows, cols) (row-major vertex ids). `stride` is the spacing s;
/// the result is a (2s)-covering... precisely: it is a k-covering for
/// k = (rows and cols pattern) validated internally. Fails if stride < 1.
Result<Covering> GridCovering(const Graph& graph, int rows, int cols,
                              int stride);

/// Checks the covering property (every vertex within k hops of a center)
/// and the assignment consistency. Used by tests and DPSP_CHECKed by the
/// mechanisms in debug runs.
Status ValidateCovering(const Graph& graph, const Covering& covering);

/// Recomputes the nearest-center assignment for a given center set via
/// multi-source BFS; fails if some vertex is farther than k hops from all
/// centers.
Result<Covering> AssignToCenters(const Graph& graph,
                                 std::vector<VertexId> centers, int k);

}  // namespace dpsp

#endif  // DPSP_GRAPH_COVERING_H_
