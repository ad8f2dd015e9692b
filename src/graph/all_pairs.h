// Exact all-pairs shortest distances: repeated Dijkstra for sparse
// non-negative inputs, Floyd-Warshall for dense or negative inputs. These
// are the ground truth the experiment harnesses compare private releases
// against, and the exact subroutine inside Algorithm 2 (distances among the
// covering set Z).

#ifndef DPSP_GRAPH_ALL_PAIRS_H_
#define DPSP_GRAPH_ALL_PAIRS_H_

#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace dpsp {

/// Dense V x V distance matrix. distance(u, v) is kInfiniteDistance when v
/// is unreachable from u.
class DistanceMatrix {
 public:
  explicit DistanceMatrix(int n);

  int size() const { return n_; }
  double at(VertexId u, VertexId v) const {
    return data_[Index(u, v)];
  }
  void set(VertexId u, VertexId v, double d) { data_[Index(u, v)] = d; }

  /// The flat row-major n*n storage — the serialization image the store
  /// layer persists.
  const std::vector<double>& data() const { return data_; }

  /// Rebuilds a matrix from its flat row-major image (the persistence
  /// inverse of data()). Fails unless data holds exactly n*n values.
  static Result<DistanceMatrix> FromData(int n, std::vector<double> data) {
    if (n < 0 ||
        data.size() != static_cast<size_t>(n) * static_cast<size_t>(n)) {
      return Status::InvalidArgument(
          "distance matrix image does not hold n*n values");
    }
    DistanceMatrix matrix(n);
    matrix.data_ = std::move(data);
    return matrix;
  }

 private:
  size_t Index(VertexId u, VertexId v) const {
    return static_cast<size_t>(u) * static_cast<size_t>(n_) +
           static_cast<size_t>(v);
  }
  int n_;
  std::vector<double> data_;
};

/// All-pairs distances by running Dijkstra from every vertex, sources
/// fanned out over worker threads (shared CSR, thread-local heaps) unless
/// another ParallelFor call is executing when it starts, in which case it
/// runs serially throughout (common/parallel.h).
/// O(V (V + E) log V) work. Requires non-negative weights.
Result<DistanceMatrix> AllPairsDijkstra(const Graph& graph,
                                        const EdgeWeights& w);

/// All-pairs distances by Floyd-Warshall. O(V^3). Handles negative weights;
/// fails on a negative cycle.
Result<DistanceMatrix> FloydWarshall(const Graph& graph, const EdgeWeights& w);

/// Distances from each vertex in `sources` to every vertex, one Dijkstra
/// per source. Row i of the result corresponds to sources[i]. Validates
/// once, then runs one source per task across worker threads over the
/// shared CSR arrays with thread-local heaps — the bounded-weight oracle's
/// Z-center build path. `max_threads` = 0 uses hardware concurrency when
/// no other ParallelFor call is executing, else runs serially; 1 forces
/// the serial build. Results are identical at any thread count.
Result<std::vector<std::vector<double>>> MultiSourceDistances(
    const Graph& graph, const EdgeWeights& w,
    const std::vector<VertexId>& sources, int max_threads = 0);

}  // namespace dpsp

#endif  // DPSP_GRAPH_ALL_PAIRS_H_
