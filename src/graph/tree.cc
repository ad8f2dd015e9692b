#include "graph/tree.h"

#include <utility>

#include "graph/connectivity.h"

namespace dpsp {

Result<TreeOrientation> OrientTree(const Graph& graph, VertexId root) {
  if (graph.directed()) {
    return Status::InvalidArgument(
        "a rooted tree requires an undirected graph");
  }
  if (!graph.HasVertex(root)) {
    return Status::InvalidArgument("root vertex out of range");
  }
  const int n = graph.num_vertices();
  if (graph.num_edges() != n - 1) {
    return Status::InvalidArgument(
        "graph is not a tree: edge count != V - 1");
  }
  TreeOrientation tree;
  tree.parent.assign(static_cast<size_t>(n), -1);
  tree.parent_edge.assign(static_cast<size_t>(n), -1);
  tree.order.reserve(static_cast<size_t>(n));
  tree.order.push_back(root);
  const uint32_t* offset = graph.AdjacencyOffsets().data();
  const VertexId* head = graph.AdjacencyHeads().data();
  const EdgeId* edge = graph.AdjacencyEdges().data();
  for (size_t next = 0; next < tree.order.size(); ++next) {
    const VertexId u = tree.order[next];
    const EdgeId arrived = tree.parent_edge[static_cast<size_t>(u)];
    const uint32_t end = offset[static_cast<size_t>(u) + 1];
    for (uint32_t i = offset[static_cast<size_t>(u)]; i < end; ++i) {
      if (edge[i] == arrived) continue;
      const VertexId v = head[i];
      if (v == root || tree.parent[static_cast<size_t>(v)] != -1) {
        return Status::InvalidArgument("graph is not a tree: it has a cycle");
      }
      tree.parent[static_cast<size_t>(v)] = u;
      tree.parent_edge[static_cast<size_t>(v)] = edge[i];
      tree.order.push_back(v);
    }
  }
  if (static_cast<int>(tree.order.size()) != n) {
    return Status::InvalidArgument("graph is not a tree: not connected");
  }
  return tree;
}

Result<RootedTree> RootedTree::FromGraph(const Graph& graph, VertexId root) {
  DPSP_ASSIGN_OR_RETURN(TreeOrientation orientation, OrientTree(graph, root));
  const int n = graph.num_vertices();
  RootedTree tree;
  tree.root_ = root;
  tree.parent_ = std::move(orientation.parent);
  tree.parent_edge_ = std::move(orientation.parent_edge);
  tree.bfs_order_ = std::move(orientation.order);
  tree.depth_.assign(static_cast<size_t>(n), 0);
  tree.subtree_size_.assign(static_cast<size_t>(n), 1);
  for (VertexId v : tree.bfs_order_) {
    VertexId p = tree.parent_[static_cast<size_t>(v)];
    if (p != -1) {
      tree.depth_[static_cast<size_t>(v)] =
          tree.depth_[static_cast<size_t>(p)] + 1;
    }
  }
  // Flat CSR child lists: count, prefix-sum, scatter. Appending in BFS
  // order reproduces the per-parent adjacency discovery order.
  tree.child_offset_.assign(static_cast<size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    VertexId p = tree.parent_[static_cast<size_t>(v)];
    if (p != -1) ++tree.child_offset_[static_cast<size_t>(p) + 1];
  }
  for (size_t u = 0; u < static_cast<size_t>(n); ++u) {
    tree.child_offset_[u + 1] += tree.child_offset_[u];
  }
  tree.child_list_.resize(static_cast<size_t>(n > 0 ? n - 1 : 0));
  std::vector<uint32_t> cursor(tree.child_offset_.begin(),
                               tree.child_offset_.end() - 1);
  for (VertexId v : tree.bfs_order_) {
    VertexId p = tree.parent_[static_cast<size_t>(v)];
    if (p != -1) tree.child_list_[cursor[static_cast<size_t>(p)]++] = v;
  }
  // Children-before-parents accumulation of subtree sizes.
  for (auto it = tree.bfs_order_.rbegin(); it != tree.bfs_order_.rend();
       ++it) {
    VertexId v = *it;
    VertexId p = tree.parent_[static_cast<size_t>(v)];
    if (p != -1) {
      tree.subtree_size_[static_cast<size_t>(p)] +=
          tree.subtree_size_[static_cast<size_t>(v)];
    }
  }
  return tree;
}

std::vector<double> RootedTree::RootDistances(const EdgeWeights& w) const {
  std::vector<double> dist(parent_.size(), 0.0);
  for (VertexId v : bfs_order_) {
    VertexId p = parent(v);
    if (p != -1) {
      dist[static_cast<size_t>(v)] =
          dist[static_cast<size_t>(p)] +
          w[static_cast<size_t>(parent_edge(v))];
    }
  }
  return dist;
}

LcaIndex::LcaIndex(const RootedTree& tree) : tree_(&tree) {
  int n = tree.num_vertices();
  while ((1 << log_) < n) ++log_;
  up_.assign(static_cast<size_t>(log_ + 1),
             std::vector<VertexId>(static_cast<size_t>(n), -1));
  for (VertexId v = 0; v < n; ++v) up_[0][static_cast<size_t>(v)] = tree.parent(v);
  for (int k = 1; k <= log_; ++k) {
    for (VertexId v = 0; v < n; ++v) {
      VertexId mid = up_[static_cast<size_t>(k - 1)][static_cast<size_t>(v)];
      up_[static_cast<size_t>(k)][static_cast<size_t>(v)] =
          mid == -1 ? -1
                    : up_[static_cast<size_t>(k - 1)][static_cast<size_t>(mid)];
    }
  }
}

VertexId LcaIndex::Ancestor(VertexId v, int steps) const {
  for (int k = 0; k <= log_ && v != -1; ++k) {
    if (steps & (1 << k)) v = up_[static_cast<size_t>(k)][static_cast<size_t>(v)];
  }
  return v;
}

VertexId LcaIndex::Lca(VertexId u, VertexId v) const {
  DPSP_CHECK_MSG(u >= 0 && u < tree_->num_vertices() && v >= 0 &&
                     v < tree_->num_vertices(),
                 "LCA query out of range");
  if (tree_->depth(u) < tree_->depth(v)) std::swap(u, v);
  u = Ancestor(u, tree_->depth(u) - tree_->depth(v));
  if (u == v) return u;
  for (int k = log_; k >= 0; --k) {
    VertexId au = up_[static_cast<size_t>(k)][static_cast<size_t>(u)];
    VertexId av = up_[static_cast<size_t>(k)][static_cast<size_t>(v)];
    if (au != av) {
      u = au;
      v = av;
    }
  }
  return tree_->parent(u);
}

int LcaIndex::HopDistance(VertexId u, VertexId v) const {
  VertexId z = Lca(u, v);
  return tree_->depth(u) + tree_->depth(v) - 2 * tree_->depth(z);
}

EulerTourLca::EulerTourLca(const RootedTree& tree)
    : tree_(&tree), n_(tree.num_vertices()) {
  int n = n_;
  // The tour records a vertex on entry and again after each child returns,
  // so consecutive tour entries differ by one tree edge. Only the level-0
  // table row is the tour itself; no separate tour array is kept.
  std::vector<VertexId> tour;
  tour.reserve(static_cast<size_t>(2 * n - 1));
  first_visit_.assign(static_cast<size_t>(n), 0);

  std::vector<std::pair<VertexId, size_t>> stack;
  stack.reserve(static_cast<size_t>(n));
  first_visit_[static_cast<size_t>(tree.root())] = 0;
  tour.push_back(tree.root());
  stack.emplace_back(tree.root(), 0);
  while (!stack.empty()) {
    auto& [v, next_child] = stack.back();
    std::span<const VertexId> kids = tree.children(v);
    if (next_child < kids.size()) {
      VertexId c = kids[next_child++];
      first_visit_[static_cast<size_t>(c)] =
          static_cast<uint32_t>(tour.size());
      tour.push_back(c);
      stack.emplace_back(c, 0);
    } else {
      stack.pop_back();
      if (!stack.empty()) tour.push_back(stack.back().first);
    }
  }

  int m = static_cast<int>(tour.size());
  tour_len_ = m;
  log2_floor_.assign(static_cast<size_t>(m + 1), 0);
  for (int i = 2; i <= m; ++i) {
    log2_floor_[static_cast<size_t>(i)] =
        static_cast<uint8_t>(log2_floor_[static_cast<size_t>(i / 2)] + 1);
  }
  int levels = log2_floor_[static_cast<size_t>(m)] + 1;

  // One row-major buffer; the row stride is the next power of two >= m so
  // a level's base address is a shift of the level index.
  stride_shift_ = 0;
  while ((1u << stride_shift_) < static_cast<unsigned>(m)) ++stride_shift_;
  size_t stride = static_cast<size_t>(1) << stride_shift_;
  table_.assign(static_cast<size_t>(levels) * stride, 0);
  for (int i = 0; i < m; ++i) {
    VertexId v = tour[static_cast<size_t>(i)];
    table_[static_cast<size_t>(i)] =
        (static_cast<uint64_t>(tree.depth(v)) << 32) |
        static_cast<uint32_t>(v);
  }
  for (int k = 1; k < levels; ++k) {
    const uint64_t* prev = table_.data() + (static_cast<size_t>(k - 1)
                                            << stride_shift_);
    uint64_t* row = table_.data() + (static_cast<size_t>(k) << stride_shift_);
    int half = 1 << (k - 1);
    for (int i = 0; i + (1 << k) <= m; ++i) {
      row[i] = std::min(prev[i], prev[i + half]);
    }
  }
}

VertexId EulerTourLca::Lca(VertexId u, VertexId v) const {
  DPSP_CHECK_MSG(u >= 0 && u < n_ && v >= 0 && v < n_,
                 "LCA query out of range");
  return LcaUnchecked(u, v);
}

int EulerTourLca::HopDistance(VertexId u, VertexId v) const {
  VertexId z = Lca(u, v);
  return tree_->depth(u) + tree_->depth(v) - 2 * tree_->depth(z);
}

bool IsTree(const Graph& graph) {
  if (graph.directed()) return false;
  if (graph.num_edges() != graph.num_vertices() - 1) return false;
  return IsConnected(graph);
}

}  // namespace dpsp
