// Graph topology and edge weights, modelling the paper's privacy split:
// the topology (V, E) is public data; the weight function w : E -> R+ is the
// private database. The two are therefore separate types: an immutable
// `Graph` and a plain `EdgeWeights` vector indexed by edge id.
//
// The graph is a multigraph (parallel edges allowed) because the lower-bound
// constructions of Section 5.1 and Appendix B use parallel edge pairs.
// Self-loops are rejected: no algorithm in the paper uses them and they only
// complicate path semantics.

#ifndef DPSP_GRAPH_GRAPH_H_
#define DPSP_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/status.h"

namespace dpsp {

/// Vertex id: 0 .. num_vertices()-1.
using VertexId = int;
/// Edge id: 0 .. num_edges()-1, in insertion order.
using EdgeId = int;

/// An undirected or directed edge between two endpoints. For undirected
/// graphs the (u, v) order is storage order only.
struct EdgeEndpoints {
  VertexId u = 0;
  VertexId v = 0;
};

/// One adjacency entry: the incident edge and the neighbor it leads to.
struct AdjacencyEntry {
  EdgeId edge = 0;
  VertexId to = 0;
};

/// The private database: one non-negative weight per edge id. (MST and
/// matching in Appendix B also permit negative weights; algorithms that
/// require non-negativity validate it themselves.)
using EdgeWeights = std::vector<double>;

/// Immutable (multi)graph topology. Adjacency is stored in compressed
/// sparse row (CSR) form as a struct-of-arrays (neighbor, edge-id) split:
/// one offset array plus two parallel flat arrays, so traversal kernels
/// (Dijkstra, BFS, tree orientation) stream contiguous memory instead of
/// chasing one heap allocation per vertex.
///
/// A Graph is a handle to one reference-counted, immutable storage: a copy
/// (and a move, which is a copy) shares it, so the server, its replicas and
/// the embedding application hold one topology between them, and a copy
/// may outlive its source. Copies may be made and dropped concurrently.
/// Every Graph holds a storage; a moved-from one is unchanged.
class Graph {
 public:
  /// Lightweight view over the CSR adjacency of one vertex. Iterates as
  /// AdjacencyEntry values; the underlying storage stays struct-of-arrays.
  class NeighborRange {
   public:
    class Iterator {
     public:
      Iterator(const VertexId* to, const EdgeId* edge) : to_(to), edge_(edge) {}
      AdjacencyEntry operator*() const { return {*edge_, *to_}; }
      Iterator& operator++() {
        ++to_;
        ++edge_;
        return *this;
      }
      bool operator==(const Iterator& o) const { return to_ == o.to_; }
      bool operator!=(const Iterator& o) const { return to_ != o.to_; }

     private:
      const VertexId* to_;
      const EdgeId* edge_;
    };

    NeighborRange(const VertexId* to, const EdgeId* edge, size_t count)
        : to_(to), edge_(edge), count_(count) {}
    Iterator begin() const { return Iterator(to_, edge_); }
    Iterator end() const { return Iterator(to_ + count_, edge_ + count_); }
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    AdjacencyEntry operator[](size_t i) const { return {edge_[i], to_[i]}; }

   private:
    const VertexId* to_;
    const EdgeId* edge_;
    size_t count_;
  };

  /// Validates endpoints and builds adjacency. Fails on out-of-range
  /// endpoints or self-loops. `directed` edges go u -> v only.
  static Result<Graph> Create(int num_vertices,
                              std::vector<EdgeEndpoints> edges,
                              bool directed = false);

  /// Shares the source's storage. No move operations are declared, so a
  /// move shares it too and leaves the source as it was.
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;

  int num_vertices() const { return storage_->num_vertices; }
  int num_edges() const { return static_cast<int>(storage_->edges.size()); }
  bool directed() const { return storage_->directed; }

  /// Endpoints of edge `e`.
  const EdgeEndpoints& edge(EdgeId e) const {
    return storage_->edges[static_cast<size_t>(e)];
  }

  /// Out-adjacency of `u` (full adjacency for undirected graphs).
  NeighborRange Neighbors(VertexId u) const {
    const Storage& s = *storage_;
    uint32_t begin = s.adj_offset[static_cast<size_t>(u)];
    uint32_t end = s.adj_offset[static_cast<size_t>(u) + 1];
    return NeighborRange(s.adj_to.data() + begin, s.adj_edge.data() + begin,
                         end - begin);
  }

  /// Raw CSR arrays for flat traversal kernels: AdjacencyOffsets()[u] ..
  /// AdjacencyOffsets()[u+1] indexes into the parallel AdjacencyHeads()
  /// (neighbor vertex) and AdjacencyEdges() (incident edge id) arrays.
  /// Every copy of a graph returns the same arrays.
  std::span<const uint32_t> AdjacencyOffsets() const {
    return storage_->adj_offset;
  }
  std::span<const VertexId> AdjacencyHeads() const {
    return storage_->adj_to;
  }
  std::span<const EdgeId> AdjacencyEdges() const {
    return storage_->adj_edge;
  }

  /// Given an edge and one endpoint, the opposite endpoint.
  VertexId OtherEndpoint(EdgeId e, VertexId from) const;

  /// Out-degree of `u` (degree for undirected graphs), counting parallels.
  int Degree(VertexId u) const {
    const AlignedVector<uint32_t>& offset = storage_->adj_offset;
    return static_cast<int>(offset[static_cast<size_t>(u) + 1] -
                            offset[static_cast<size_t>(u)]);
  }

  /// True iff `u` is a valid vertex id.
  bool HasVertex(VertexId u) const { return u >= 0 && u < num_vertices(); }

  /// True iff `other` is a copy of this graph (or this one of `other`):
  /// both hold one storage. A graph created separately with the same
  /// edges does not.
  bool SharesStorageWith(const Graph& other) const {
    return storage_ == other.storage_;
  }

  /// OK iff `w` has exactly one entry per edge and every entry is finite
  /// (no NaN, no infinity).
  Status ValidateWeights(const EdgeWeights& w) const;

  /// OK iff ValidateWeights(w) is and every entry is non-negative. One
  /// pass over `w`.
  Status ValidateNonNegativeWeights(const EdgeWeights& w) const;

  /// Short human-readable description ("Graph(V=5, E=7, undirected)").
  std::string ToString() const;

 private:
  // Everything a graph holds, built once and never written again.
  struct Storage {
    int num_vertices = 0;
    bool directed = false;
    std::vector<EdgeEndpoints> edges;
    // CSR adjacency, struct-of-arrays: entry i of vertex u lives at
    // adj_offset[u] + i in the parallel adj_to / adj_edge arrays.
    // Cache-line aligned so traversal kernels start on a line boundary.
    AlignedVector<uint32_t> adj_offset;
    AlignedVector<VertexId> adj_to;
    AlignedVector<EdgeId> adj_edge;
  };

  Graph(int num_vertices, std::vector<EdgeEndpoints> edges, bool directed);

  std::shared_ptr<const Storage> storage_;
};

/// Total weight of a set of edges.
double TotalWeight(const EdgeWeights& weights, const std::vector<EdgeId>& edges);

}  // namespace dpsp

#endif  // DPSP_GRAPH_GRAPH_H_
