#include "core/heavy_path_index.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "core/range_sums.h"
#include "graph/tree.h"

namespace dpsp {
namespace {

// Every index some holder still keeps. An entry whose index was freed is
// dropped by the next lookup.
struct Table {
  std::mutex mutex;
  std::vector<std::weak_ptr<const HeavyPathIndex>> live;
};

Table& SharedTable() {
  static Table* table = new Table();
  return *table;
}

}  // namespace

Result<std::shared_ptr<const HeavyPathIndex>> HeavyPathIndex::Share(
    const Graph& graph, VertexId root) {
  Table& table = SharedTable();
  std::lock_guard<std::mutex> lock(table.mutex);
  std::erase_if(table.live, [](const std::weak_ptr<const HeavyPathIndex>& e) {
    return e.expired();
  });
  for (const std::weak_ptr<const HeavyPathIndex>& entry : table.live) {
    std::shared_ptr<const HeavyPathIndex> index = entry.lock();
    if (index != nullptr && index->root() == root &&
        index->graph().SharesStorageWith(graph)) {
      return index;
    }
  }
  // Built under the lock, so concurrent calls for one topology build once.
  DPSP_ASSIGN_OR_RETURN(std::shared_ptr<const HeavyPathIndex> built,
                        Build(graph, root));
  table.live.push_back(built);
  return built;
}

Result<std::unique_ptr<HeavyPathIndex>> HeavyPathIndex::Build(
    const Graph& graph, VertexId root) {
  DPSP_ASSIGN_OR_RETURN(TreeOrientation tree, OrientTree(graph, root));
  auto index = std::unique_ptr<HeavyPathIndex>(new HeavyPathIndex(graph));
  const int n = graph.num_vertices();
  index->chain_of_.assign(static_cast<size_t>(n), -1);
  index->pos_in_chain_.assign(static_cast<size_t>(n), 0);

  // Subtree sizes and heavy children (the child with the largest
  // subtree), children first: reverse BFS order reaches a vertex after
  // its whole subtree, and siblings last-discovered first, so `>=` leaves
  // a tie with the earliest sibling in adjacency order.
  std::vector<int> size(static_cast<size_t>(n), 1);
  std::vector<VertexId> heavy(static_cast<size_t>(n), -1);
  for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
    const VertexId v = *it;
    const VertexId p = tree.parent[static_cast<size_t>(v)];
    if (p == -1) continue;
    size[static_cast<size_t>(p)] += size[static_cast<size_t>(v)];
    VertexId& h = heavy[static_cast<size_t>(p)];
    const int v_size = size[static_cast<size_t>(v)];
    if (h == -1 || v_size >= size[static_cast<size_t>(h)]) h = v;
  }

  // Assign chains in BFS order (parents first), counting each chain's
  // members into chain_member_offset_[c + 1]. A head hangs one below its
  // parent, whose depth its own chain already gives.
  std::vector<uint32_t>& offset = index->chain_member_offset_;
  offset.push_back(0);
  for (VertexId v : tree.order) {
    VertexId p = tree.parent[static_cast<size_t>(v)];
    if (p == -1 || heavy[static_cast<size_t>(p)] != v) {
      index->chain_of_[static_cast<size_t>(v)] =
          static_cast<int>(offset.size()) - 1;
      index->pos_in_chain_[static_cast<size_t>(v)] = 0;
      index->head_depth_.push_back(p == -1 ? 0 : index->Depth(p) + 1);
      index->head_parent_.push_back(p);
      offset.push_back(1);
    } else {
      int c = index->chain_of_[static_cast<size_t>(p)];
      index->chain_of_[static_cast<size_t>(v)] = c;
      index->pos_in_chain_[static_cast<size_t>(v)] =
          index->pos_in_chain_[static_cast<size_t>(p)] + 1;
      ++offset[static_cast<size_t>(c) + 1];
    }
  }
  const size_t num_chains = offset.size() - 1;
  for (size_t c = 0; c < num_chains; ++c) offset[c + 1] += offset[c];

  // Membership by position, and the edge above each member.
  index->chain_member_list_.resize(static_cast<size_t>(n));
  index->member_edge_.resize(static_cast<size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t i = index->MemberOf(v);
    index->chain_member_list_[i] = v;
    index->member_edge_[i] = tree.parent_edge[static_cast<size_t>(v)];
  }

  // Every chain's level table over its heavy edges, its blocks following
  // the previous chain's.
  index->level_index_.reserve(num_chains + 1);
  uint32_t next_block = 0;
  for (size_t c = 0; c < num_chains; ++c) {
    index->level_index_.push_back(
        static_cast<uint32_t>(index->level_offset_.size()));
    next_block = dyadic::AppendLevelOffsets(
        static_cast<int>(offset[c + 1] - offset[c]) - 1, next_block,
        &index->level_offset_);
  }
  index->level_index_.push_back(
      static_cast<uint32_t>(index->level_offset_.size()));
  for (size_t c = 0; c < num_chains; ++c) {
    index->sensitivity_ =
        std::max(index->sensitivity_,
                 dyadic::NumLevels(index->ChainLevels(static_cast<int>(c))));
  }
  return index;
}

}  // namespace dpsp
