// Rooted-tree utilities: orientation of an undirected tree graph at a root,
// subtree sizes, depths, and lowest common ancestors via binary lifting.
// These back the tree-distance algorithms of Section 4.1.

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

/// A tree graph oriented away from a chosen root. Parent pointers, children
/// lists, depths, BFS order, and subtree sizes are precomputed.
class RootedTree {
 public:
  /// Orients `graph` at `root`. Fails unless the graph is an undirected
  /// tree (connected, exactly V-1 edges, no parallel edges forming cycles).
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

/// Lowest-common-ancestor queries in O(log V) after O(V log V) setup
/// (binary lifting over the parent pointers).
class LcaIndex {
 public:
  explicit LcaIndex(const RootedTree& tree);

  /// The lowest common ancestor of u and v.
  VertexId Lca(VertexId u, VertexId v) const;

  /// Hop distance between u and v through their LCA.
  int HopDistance(VertexId u, VertexId v) const;

 private:
  VertexId Ancestor(VertexId v, int steps) const;

  const RootedTree* tree_;
  int log_ = 1;
  // up_[k][v]: the 2^k-th ancestor of v (-1 past the root).
  std::vector<std::vector<VertexId>> up_;
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

  /// Hop distance between u and v through their LCA. O(1).
  int HopDistance(VertexId u, VertexId v) const;

  /// Length of the Euler tour (2V - 1).
  int tour_size() const { return tour_len_; }

  /// Raw pointers into the packed structure, for the batch SIMD kernels:
  /// everything LcaUnchecked touches, with no indirection through `this`.
  struct FlatView {
    const uint32_t* first_visit;
    const uint8_t* log2_floor;
    const uint64_t* table;
    unsigned stride_shift;
    int num_vertices;
  };
  FlatView Flat() const {
    return {first_visit_.data(), log2_floor_.data(), table_.data(),
            stride_shift_, n_};
  }

  /// True iff every table index fits an int32 — the precondition for the
  /// AVX2 gather path (32-bit gather indices). Holds for every V the
  /// oracles accept; false only past ~2^26 vertices.
  bool SimdCompatible() const {
    return table_.size() < (static_cast<size_t>(1) << 31);
  }

 private:
  const RootedTree* tree_;
  int n_ = 0;         // cached vertex count (query hot path)
  int tour_len_ = 0;  // Euler tour length (2V - 1)
  unsigned stride_shift_ = 0;          // row stride = 1 << stride_shift_
  AlignedVector<uint32_t> first_visit_;  // vertex -> first tour index
  AlignedVector<uint8_t> log2_floor_;    // precomputed floor(log2(i))
  // Row-major sparse table: table_[(k << stride_shift_) + i] packs
  // (depth << 32) | vertex for the min-depth vertex in tour[i .. i + 2^k).
  // Cache-line aligned: the gather path reads 4 cells per lane-group.
  AlignedVector<uint64_t> table_;
};

/// True iff the undirected graph is a tree (connected, V-1 edges).
bool IsTree(const Graph& graph);

}  // namespace dpsp

#endif  // DPSP_GRAPH_TREE_H_
