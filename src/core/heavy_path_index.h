// The public half of the heavy-light tree oracle (core/hld_oracle.h): a
// tree's heavy-path decomposition and each chain's dyadic level table. In
// the paper's model the topology (V, E) is public and only the weights are
// private, so the index is post-processing of public data, built without
// noise, and any number of releases over one topology may share it at no
// privacy cost. HeavyPathIndex::Share hands out one index per topology.
//
// A cold build decomposes straight from one orientation pass over the
// graph's CSR (OrientTree, the pass RootedTree::FromGraph also runs), with
// no RootedTree: subtree sizes and heavy children come children-first off
// the reversed BFS order, and each chain head's depth from the index's own
// depth of its parent.

#ifndef DPSP_CORE_HEAVY_PATH_INDEX_H_
#define DPSP_CORE_HEAVY_PATH_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/status.h"
#include "graph/graph.h"

namespace dpsp {

/// Heavy chains of a rooted tree: every vertex's chain and position, each
/// chain's head depth, head parent, members and dyadic level table, and
/// the edge above each member. Immutable once built.
class HeavyPathIndex {
 public:
  /// The index of `graph` rooted at `root` that a live holder over a graph
  /// sharing `graph`'s storage already holds, or a new one. A graph
  /// created separately with the same edges has its own storage, and so
  /// its own index. The process-wide table behind this keeps weak
  /// references only, so an index is freed with its last holder. Fails
  /// unless `graph` is an undirected tree and `root` one of its vertices.
  /// Thread-safe: concurrent calls for one topology build it once, and a
  /// build holds the table's lock, so calls for other topologies wait.
  static Result<std::shared_ptr<const HeavyPathIndex>> Share(
      const Graph& graph, VertexId root);

  const Graph& graph() const { return graph_; }
  int num_vertices() const { return graph_.num_vertices(); }
  int num_chains() const { return static_cast<int>(head_depth_.size()); }
  /// The root chain's head.
  VertexId root() const { return chain_member_list_[0]; }

  /// The sensitivity of a release over the index, a function of the
  /// topology alone: an edge is either heavy (one block per level of its
  /// chain's structure) or light (one released scalar), so it is the most
  /// levels of any chain's structure, at least 1.
  int sensitivity() const { return sensitivity_; }

  /// Vertex -> its chain, and its position along it (0 at the head). The
  /// arrays a query reads first, hence cache-line aligned.
  std::span<const int> chain_of() const { return chain_of_; }
  std::span<const int> pos_in_chain() const { return pos_in_chain_; }
  /// Chain -> hop depth of its head, and the vertex above its head (-1 at
  /// the root chain): where a climb off the top of the chain lands.
  std::span<const int> head_depth() const { return head_depth_; }
  std::span<const VertexId> head_parent() const { return head_parent_; }
  /// Chain c's members by position are member_list()[member_offset(c),
  /// member_offset(c + 1)); member_offset(num_chains()) == num_vertices().
  /// Chain 0 is the root's.
  uint32_t member_offset(int c) const {
    return chain_member_offset_[static_cast<size_t>(c)];
  }
  std::span<const VertexId> member_list() const { return chain_member_list_; }
  /// Member index -> the edge above that member (-1 at the root), so a
  /// weight vector read through it lists every chain's edges by position.
  std::span<const EdgeId> member_edge() const { return member_edge_; }
  /// Vertex v's member index.
  uint32_t MemberOf(VertexId v) const {
    return member_offset(chain_of_[static_cast<size_t>(v)]) +
           static_cast<uint32_t>(pos_in_chain_[static_cast<size_t>(v)]);
  }
  /// The endpoint of edge `e` below it, whose parent edge it is: the
  /// deeper one.
  VertexId EdgeChild(EdgeId e) const {
    const EdgeEndpoints& ep = graph_.edge(e);
    return Depth(ep.u) > Depth(ep.v) ? ep.u : ep.v;
  }

  /// Chain c's dyadic level table, over its heavy edges by position: its
  /// slots into a release's block buffer, every chain's blocks following
  /// the previous chain's (empty for a chain with no heavy edge).
  std::span<const uint32_t> ChainLevels(int c) const {
    const uint32_t begin = level_index_[static_cast<size_t>(c)];
    return {level_offset_.data() + begin,
            level_index_[static_cast<size_t>(c) + 1] - begin};
  }
  /// Every chain's level table back to back: dyadic::NumBlocks of it is
  /// the size of a release's block buffer.
  std::span<const uint32_t> level_offsets() const { return level_offset_; }

 private:
  explicit HeavyPathIndex(const Graph& graph) : graph_(graph) {}

  // Decomposes `graph` at `root`; what Share builds on a miss. A vertex's
  // heavy child is its child of largest subtree, a tie going to the
  // earliest in adjacency order, and chains are numbered in BFS order of
  // their heads.
  static Result<std::unique_ptr<HeavyPathIndex>> Build(const Graph& graph,
                                                       VertexId root);

  // Hop depth of v: its chain head's plus its position.
  int Depth(VertexId v) const {
    return head_depth_[static_cast<size_t>(chain_of_[static_cast<size_t>(v)])] +
           pos_in_chain_[static_cast<size_t>(v)];
  }

  Graph graph_;
  int sensitivity_ = 1;
  AlignedVector<int> chain_of_;
  AlignedVector<int> pos_in_chain_;
  AlignedVector<int> head_depth_;
  AlignedVector<VertexId> head_parent_;
  std::vector<uint32_t> chain_member_offset_;
  std::vector<VertexId> chain_member_list_;
  std::vector<EdgeId> member_edge_;
  AlignedVector<uint32_t> level_offset_;
  AlignedVector<uint32_t> level_index_;
};

}  // namespace dpsp

#endif  // DPSP_CORE_HEAVY_PATH_INDEX_H_
