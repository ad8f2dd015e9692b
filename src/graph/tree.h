// Rooted-tree utilities: orientation of an undirected tree graph at a root,
// subtree sizes, depths, and constant-time lowest common ancestors over an
// Euler tour. These back the tree-distance algorithms of Section 4.1.

#ifndef DPSP_GRAPH_TREE_H_
#define DPSP_GRAPH_TREE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/status.h"
#include "graph/graph.h"

namespace dpsp {

/// A tree graph's orientation at a root: its BFS order and each vertex's
/// parent and parent edge.
struct TreeOrientation {
  /// Vertices in BFS order from the root (root first): parents before
  /// children, and each vertex's children together, in adjacency order.
  std::vector<VertexId> order;
  /// Parent of each vertex (-1 at the root).
  std::vector<VertexId> parent;
  /// Edge to each vertex's parent (-1 at the root).
  std::vector<EdgeId> parent_edge;
};

/// Orients `graph` at `root` in one BFS over its CSR arrays. The BFS order
/// doubles as the queue, and each vertex skips only the edge it arrived
/// by, so reaching a vertex already reached means a cycle (parallel edges
/// included). Fails with InvalidArgument unless the graph is an undirected
/// tree (exactly V-1 edges, no cycle, connected) and `root` one of its
/// vertices. The pass RootedTree::FromGraph and HeavyPathIndex share.
Result<TreeOrientation> OrientTree(const Graph& graph, VertexId root);

/// A tree graph oriented away from a chosen root. Parent pointers, children
/// lists, depths, BFS order, and subtree sizes are precomputed.
class RootedTree {
 public:
  /// Orients `graph` at `root` (OrientTree) and derives the rest. Fails
  /// unless the graph is an undirected tree.
  static Result<RootedTree> FromGraph(const Graph& graph, VertexId root);

  VertexId root() const { return root_; }
  int num_vertices() const { return static_cast<int>(parent_.size()); }

  /// Parent of v (-1 at the root).
  VertexId parent(VertexId v) const { return parent_[static_cast<size_t>(v)]; }

  /// Edge to the parent (-1 at the root).
  EdgeId parent_edge(VertexId v) const {
    return parent_edge_[static_cast<size_t>(v)];
  }

  /// Children of v in adjacency order. A view into the flat offset+index
  /// child storage (CSR layout): no per-vertex heap allocation.
  std::span<const VertexId> children(VertexId v) const {
    uint32_t begin = child_offset_[static_cast<size_t>(v)];
    uint32_t end = child_offset_[static_cast<size_t>(v) + 1];
    return {child_list_.data() + begin, static_cast<size_t>(end - begin)};
  }

  /// Hop depth of v (0 at the root).
  int depth(VertexId v) const { return depth_[static_cast<size_t>(v)]; }

  /// Number of vertices in the subtree rooted at v (>= 1).
  int subtree_size(VertexId v) const {
    return subtree_size_[static_cast<size_t>(v)];
  }

  /// Vertices in BFS order from the root (root first). Reverse iteration
  /// visits children before parents.
  const std::vector<VertexId>& bfs_order() const { return bfs_order_; }

  /// Weighted distance from the root to every vertex (sum of parent-edge
  /// weights along the unique root path).
  std::vector<double> RootDistances(const EdgeWeights& w) const;

 private:
  RootedTree() = default;

  VertexId root_ = 0;
  std::vector<VertexId> parent_;
  std::vector<EdgeId> parent_edge_;
  // Flat CSR child storage: children of v occupy child_list_[
  // child_offset_[v] .. child_offset_[v+1]) in adjacency order.
  // Cache-line aligned like the graph CSR arrays.
  AlignedVector<uint32_t> child_offset_;
  AlignedVector<VertexId> child_list_;
  std::vector<int> depth_;
  std::vector<int> subtree_size_;
  std::vector<VertexId> bfs_order_;
};

/// Constant-time lowest-common-ancestor queries via an Euler tour and a
/// sparse table (range-minimum over tour depths). O(V log V) setup memory
/// and time, O(1) per query — the structure the batched tree oracles share
/// so a batch costs one array lookup per pair instead of a lifting walk.
///
/// The sparse table is one row-major buffer with a power-of-two row
/// stride: level k starts at k << stride_shift_, so a query computes both
/// cell addresses with shifts and adds — no per-level vector indirection.
/// Each cell packs (depth << 32) | vertex, making the range-min a single
/// 64-bit compare with no lookup back into the depth array.
class EulerTourLca {
 public:
  explicit EulerTourLca(const RootedTree& tree);

  /// The lowest common ancestor of u and v. O(1). Bounds-checked.
  VertexId Lca(VertexId u, VertexId v) const;

  /// Lca without the bounds check: callers must guarantee valid vertex
  /// ids. The batched-query hot path.
  VertexId LcaUnchecked(VertexId u, VertexId v) const {
    uint32_t a = first_visit_[static_cast<size_t>(u)];
    uint32_t b = first_visit_[static_cast<size_t>(v)];
    if (a > b) std::swap(a, b);
    uint32_t k = log2_floor_[static_cast<size_t>(b - a + 1)];
    const uint64_t* row = table_.data() + (static_cast<size_t>(k)
                                           << stride_shift_);
    uint64_t key = std::min(row[a], row[b - (1u << k) + 1]);
    return static_cast<VertexId>(key & 0xffffffffu);
  }

  /// Length of the Euler tour (2V - 1).
  int tour_size() const { return tour_len_; }

 private:
  int n_ = 0;         // cached vertex count (query hot path)
  int tour_len_ = 0;  // Euler tour length (2V - 1)
  unsigned stride_shift_ = 0;          // row stride = 1 << stride_shift_
  AlignedVector<uint32_t> first_visit_;  // vertex -> first tour index
  AlignedVector<uint8_t> log2_floor_;    // precomputed floor(log2(i))
  // Row-major sparse table: table_[(k << stride_shift_) + i] packs
  // (depth << 32) | vertex for the min-depth vertex in tour[i .. i + 2^k).
  // Cache-line aligned like the graph CSR arrays.
  AlignedVector<uint64_t> table_;
};

/// True iff the undirected graph is a tree (connected, V-1 edges).
bool IsTree(const Graph& graph);

}  // namespace dpsp

#endif  // DPSP_GRAPH_TREE_H_
