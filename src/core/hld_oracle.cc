#include "core/hld_oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/table.h"
#include "core/released_state.h"
#include "dp/laplace_mechanism.h"
#include "graph/tree.h"

namespace dpsp {

Result<std::unique_ptr<HldTreeOracle>> HldTreeOracle::Decompose(
    const Graph& graph, const EdgeWeights& w, VertexId root,
    std::vector<double>* light_weights) {
  DPSP_RETURN_IF_ERROR(graph.ValidateNonNegativeWeights(w));
  if (root == -1) root = 0;
  DPSP_ASSIGN_OR_RETURN(RootedTree tree, RootedTree::FromGraph(graph, root));

  auto oracle = std::unique_ptr<HldTreeOracle>(new HldTreeOracle());
  int n = tree.num_vertices();
  oracle->num_vertices_ = n;
  oracle->chain_of_.assign(static_cast<size_t>(n), -1);
  oracle->pos_in_chain_.assign(static_cast<size_t>(n), 0);

  // Heavy child of each vertex: the child with the largest subtree.
  std::vector<VertexId> heavy(static_cast<size_t>(n), -1);
  for (VertexId v = 0; v < n; ++v) {
    int best = 0;
    for (VertexId c : tree.children(v)) {
      if (tree.subtree_size(c) > best) {
        best = tree.subtree_size(c);
        heavy[static_cast<size_t>(v)] = c;
      }
    }
  }

  // Assign chains in BFS order (parents first), counting each chain's
  // members into chain_member_offset_[c + 1].
  std::vector<uint32_t>& offset = oracle->chain_member_offset_;
  offset.push_back(0);
  for (VertexId v : tree.bfs_order()) {
    VertexId p = tree.parent(v);
    if (p == -1 || heavy[static_cast<size_t>(p)] != v) {
      oracle->chain_of_[static_cast<size_t>(v)] =
          static_cast<int>(offset.size()) - 1;
      oracle->pos_in_chain_[static_cast<size_t>(v)] = 0;
      oracle->head_depth_.push_back(tree.depth(v));
      oracle->head_parent_.push_back(p);
      offset.push_back(1);
    } else {
      int c = oracle->chain_of_[static_cast<size_t>(p)];
      oracle->chain_of_[static_cast<size_t>(v)] = c;
      oracle->pos_in_chain_[static_cast<size_t>(v)] =
          oracle->pos_in_chain_[static_cast<size_t>(p)] + 1;
      ++offset[static_cast<size_t>(c) + 1];
    }
  }
  const size_t num_chains = offset.size() - 1;
  for (size_t c = 0; c < num_chains; ++c) offset[c + 1] += offset[c];

  // Membership by position, the edge -> child map, and the values each
  // chain's release covers: its heavy edges by position, and the light
  // edge above its head (none at the root chain).
  oracle->chain_member_list_.resize(static_cast<size_t>(n));
  oracle->edge_child_.assign(static_cast<size_t>(graph.num_edges()), -1);
  oracle->heavy_weight_.assign(static_cast<size_t>(n), 0.0);
  if (light_weights != nullptr) light_weights->assign(num_chains, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    const int c = oracle->chain_of_[static_cast<size_t>(v)];
    const int pos = oracle->pos_in_chain_[static_cast<size_t>(v)];
    const size_t i = offset[static_cast<size_t>(c)] + static_cast<size_t>(pos);
    oracle->chain_member_list_[i] = v;
    const EdgeId e = tree.parent_edge(v);
    if (e == -1) continue;
    oracle->edge_child_[static_cast<size_t>(e)] = v;
    if (pos > 0) {
      oracle->heavy_weight_[i] = w[static_cast<size_t>(e)];
    } else if (light_weights != nullptr) {
      (*light_weights)[static_cast<size_t>(c)] = w[static_cast<size_t>(e)];
    }
  }

  // Every chain's level table, its blocks following the previous chain's.
  oracle->level_index_.reserve(num_chains + 1);
  uint32_t next_block = 0;
  for (size_t c = 0; c < num_chains; ++c) {
    oracle->level_index_.push_back(
        static_cast<uint32_t>(oracle->level_offset_.size()));
    next_block = dyadic::AppendLevelOffsets(
        static_cast<int>(offset[c + 1] - offset[c]) - 1, next_block,
        &oracle->level_offset_);
  }
  oracle->level_index_.push_back(
      static_cast<uint32_t>(oracle->level_offset_.size()));
  oracle->ascent_cost_.assign(static_cast<size_t>(n), 0.0);
  return oracle;
}

Result<std::unique_ptr<HldTreeOracle>> HldTreeOracle::Build(
    const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx,
    VertexId root) {
  auto release = [&]() -> Result<std::unique_ptr<HldTreeOracle>> {
    std::vector<double> light_weights;
    DPSP_ASSIGN_OR_RETURN(std::unique_ptr<HldTreeOracle> oracle,
                          Decompose(graph, w, root, &light_weights));
    const int num_chains = oracle->num_chains();
    const int sensitivity = oracle->ChainSensitivity();
    DPSP_ASSIGN_OR_RETURN(
        double scale,
        LaplaceScale(static_cast<double>(sensitivity), ctx.params()));
    oracle->noise_scale_ = scale;
    oracle->sensitivity_ = sensitivity;
    oracle->release_epsilon_ = ctx.params().epsilon;

    // Released structures: per-chain dyadic sums over the heavy edges,
    // plus one noisy scalar per light (chain-head parent) edge, drawn
    // chain by chain.
    Rng* rng = ctx.rng();
    oracle->blocks_.resize(dyadic::NumBlocks(oracle->level_offset_));
    oracle->num_noisy_values_ = static_cast<int>(oracle->blocks_.size());
    oracle->light_noisy_.assign(static_cast<size_t>(num_chains), 0.0);
    std::vector<double> prefix;
    for (int c = 0; c < num_chains; ++c) {
      dyadic::DrawBlocks(oracle->ChainValues(c), oracle->ChainLevels(c),
                         scale, rng, oracle->blocks_, &prefix);
      if (oracle->head_parent_[static_cast<size_t>(c)] != -1) {
        oracle->light_noisy_[static_cast<size_t>(c)] =
            light_weights[static_cast<size_t>(c)] + rng->Laplace(scale);
        ++oracle->num_noisy_values_;
      }
    }

    // Ascent caches (post-processing of the released blocks, no new
    // noise): climbing off the top of v's chain costs the chain prefix up
    // to v plus the light edge above the head, and lands on the head's
    // parent.
    for (int c = 0; c < num_chains; ++c) oracle->RecomputeAscentCosts(c);
    return oracle;
  };
  return ctx.MeteredBuild(
      kName, release, [](const HldTreeOracle& oracle, ReleaseTelemetry& t) {
        t.sensitivity = oracle.sensitivity();
        t.noise_scale = oracle.noise_scale();
        t.noise_draws = oracle.num_noisy_values();
      });
}

Status HldTreeOracle::ApplyWeightUpdates(
    std::span<const EdgeWeightDelta> deltas, ReleaseContext& ctx) {
  update_stats_ = UpdateStats{};
  if (deltas.empty()) return Status::Ok();
  const int num_edges = num_vertices_ - 1;

  // Final weight per dirty edge (last delta wins), then grouped by chain
  // in ascending (chain, position) order so the redraw walk — and with it
  // the noise stream — is deterministic for a given epoch.
  std::map<EdgeId, double> final_weight;
  for (const EdgeWeightDelta& d : deltas) {
    if (d.edge < 0 || d.edge >= num_edges) {
      return Status::InvalidArgument(StrFormat(
          "update edge %d out of range [0, %d)", d.edge, num_edges));
    }
    if (!(d.new_weight >= 0.0) || std::isinf(d.new_weight)) {
      return Status::InvalidArgument(
          "updated edge weights must be finite and non-negative");
    }
    final_weight[d.edge] = d.new_weight;
  }

  // chain -> its dirty value indices (heavy-edge positions), ascending
  std::map<int, std::vector<int>> heavy;
  std::map<int, double> light;  // chain -> new light-edge weight
  for (const auto& [edge, weight] : final_weight) {
    VertexId v = edge_child_[static_cast<size_t>(edge)];
    int c = chain_of_[static_cast<size_t>(v)];
    int pos = pos_in_chain_[static_cast<size_t>(v)];
    if (pos == 0) {
      light[c] = weight;  // the edge above the chain head: one scalar
    } else {
      heavy[c].push_back(pos - 1);
    }
  }
  for (auto& [c, indices] : heavy) std::sort(indices.begin(), indices.end());

  // Planning pass (no mutation): the epoch's sensitivity g is the deepest
  // dirty stack — every dirty heavy edge sits in one block per level of
  // its chain, a dirty light edge in exactly one scalar — and the dirty
  // block count prices the redraw. Charged in the release's natural
  // currency: the redraw at the build-time Laplace scale L*l1/eps is
  // exactly (eps * g / L)-DP.
  int g = light.empty() ? 0 : 1;
  int dirty_blocks = static_cast<int>(light.size());
  for (const auto& [c, indices] : heavy) {
    const int levels = dyadic::NumLevels(ChainLevels(c));
    g = std::max(g, levels);
    dirty_blocks += dyadic::CountDirtyBlocks(levels, indices);
  }
  double charged_epsilon =
      release_epsilon_ * static_cast<double>(g) / sensitivity_;
  PrivacyLoss loss = PrivacyLoss::Pure(charged_epsilon);

  Status metered = ctx.MeteredUpdate(
      std::string(kName) + "-update", loss,
      [&] {
        for (const auto& [edge, weight] : final_weight) {
          const VertexId v = edge_child_[static_cast<size_t>(edge)];
          const int c = chain_of_[static_cast<size_t>(v)];
          const int pos = pos_in_chain_[static_cast<size_t>(v)];
          if (pos == 0) continue;
          heavy_weight_[chain_member_offset_[static_cast<size_t>(c)] +
                        static_cast<size_t>(pos)] = weight;
        }
        for (const auto& [c, indices] : heavy) {
          dyadic::RedrawDirtyBlocks(ChainValues(c), ChainLevels(c), indices,
                                    noise_scale_, ctx.rng(), blocks_);
        }
        for (const auto& [c, weight] : light) {
          light_noisy_[static_cast<size_t>(c)] =
              weight + ctx.rng()->Laplace(noise_scale_);
        }
        // Ascent caches of the dirty chains: post-processing of the
        // redrawn blocks, no new noise. (std::map iteration keeps the
        // chain walk ordered; a chain dirty in both ways is recomputed
        // once — the second pass overwrites with identical values.)
        for (const auto& [c, indices] : heavy) RecomputeAscentCosts(c);
        for (const auto& [c, weight] : light) {
          if (heavy.find(c) == heavy.end()) RecomputeAscentCosts(c);
        }
        return Status::Ok();
      },
      [&](ReleaseTelemetry& t) {
        t.sensitivity = g;
        t.noise_scale = noise_scale_;
        t.noise_draws = dirty_blocks;
      });
  DPSP_RETURN_IF_ERROR(metered);
  update_stats_.dirty_edges = static_cast<int>(final_weight.size());
  update_stats_.dirty_blocks = dirty_blocks;
  update_stats_.sensitivity = g;
  update_stats_.charged_epsilon = charged_epsilon;
  return Status::Ok();
}

void HldTreeOracle::RecomputeAscentCosts(int c) {
  const uint32_t begin = chain_member_offset_[static_cast<size_t>(c)];
  const uint32_t end = chain_member_offset_[static_cast<size_t>(c) + 1];
  const std::span<const uint32_t> levels = ChainLevels(c);
  const double light = light_noisy_[static_cast<size_t>(c)];
  // Chain member p sits at position p: climbing off the top from it costs
  // the chain prefix [0, p) plus the light edge above the head.
  for (uint32_t i = begin; i < end; ++i) {
    VertexId v = chain_member_list_[i];
    ascent_cost_[static_cast<size_t>(v)] =
        dyadic::PrefixSum(levels, blocks_, static_cast<int>(i - begin)) +
        light;
  }
}

Status HldTreeOracle::DistanceInto(std::span<const VertexPair> pairs,
                                   double* out) const {
  const unsigned n = static_cast<unsigned>(num_vertices_);
  for (const auto& [u, v] : pairs) {
    if (static_cast<unsigned>(u) >= n || static_cast<unsigned>(v) >= n) {
      return Status::InvalidArgument("vertex out of range");
    }
  }
  // Each climb starts from its endpoints' chain and position entries;
  // prefetching those of pair i + kLookahead before answering pair i keeps
  // that many pairs' first misses in flight.
  constexpr size_t kLookahead = 8;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i + kLookahead < pairs.size()) {
      const auto& [u, v] = pairs[i + kLookahead];
      __builtin_prefetch(&chain_of_[static_cast<size_t>(u)]);
      __builtin_prefetch(&chain_of_[static_cast<size_t>(v)]);
      __builtin_prefetch(&pos_in_chain_[static_cast<size_t>(u)]);
      __builtin_prefetch(&pos_in_chain_[static_cast<size_t>(v)]);
    }
    out[i] = DistanceUnchecked(pairs[i].first, pairs[i].second);
  }
  return Status::Ok();
}

double HldTreeOracle::DistanceUnchecked(VertexId u, VertexId v) const {
  // While the endpoints sit on different chains, the one whose chain head
  // is at least as deep cannot have the LCA on its chain (were it there,
  // the other endpoint's head would hang strictly below the LCA, so
  // deeper), so it crosses: one cached ascent cost (chain prefix + light
  // edge) and a jump to the head's parent. Each side sums its own
  // crossings bottom-up, so the result is bit-identical to climbing each
  // endpoint separately to the LCA.
  auto cross = [this](VertexId& w, int& chain, double& up) {
    up += ascent_cost_[static_cast<size_t>(w)];
    w = head_parent_[static_cast<size_t>(chain)];
    chain = chain_of_[static_cast<size_t>(w)];
  };
  double up_u = 0.0;
  double up_v = 0.0;
  int cu = chain_of_[static_cast<size_t>(u)];
  int cv = chain_of_[static_cast<size_t>(v)];
  while (cu != cv) {
    if (head_depth_[static_cast<size_t>(cu)] >=
        head_depth_[static_cast<size_t>(cv)]) {
      cross(u, cu, up_u);
    } else {
      cross(v, cv, up_v);
    }
  }
  // Meeting chain: the LCA is whichever endpoint sits higher on it.
  const int pu = pos_in_chain_[static_cast<size_t>(u)];
  const int pv = pos_in_chain_[static_cast<size_t>(v)];
  const int pz = std::min(pu, pv);
  const std::span<const uint32_t> levels = ChainLevels(cu);
  return (up_u + dyadic::RangeSum(levels, blocks_, pz, pu)) +
         (up_v + dyadic::RangeSum(levels, blocks_, pz, pv));
}

Status HldTreeOracle::SaveReleasedState(
    std::vector<ReleasedSection>* out) const {
  // Every noisy value of the release: the per-chain dyadic blocks (the
  // buffer itself, with per-chain counts so restore can check them against
  // the topology), and the light-edge scalars. Everything else — chains,
  // head depths, membership, ascent caches — is deterministic
  // post-processing of the public topology and the blocks.
  const int num_chains = this->num_chains();
  std::vector<double> counts(static_cast<size_t>(num_chains));
  for (int c = 0; c < num_chains; ++c) {
    counts[static_cast<size_t>(c)] = dyadic::NumBlocks(ChainLevels(c));
  }
  out->push_back(released_state::Pack<double>(
      "chain-blocks", std::span<const double>(blocks_.data(), blocks_.size())));
  out->push_back(released_state::Pack<double>(
      "chain-block-counts", std::span<const double>(counts)));
  out->push_back(released_state::Pack<double>(
      "light-noisy",
      std::span<const double>(light_noisy_.data(), light_noisy_.size())));
  out->push_back(released_state::PackScalars(
      "meta", {static_cast<double>(chain_member_list_[0]), noise_scale_,
               static_cast<double>(sensitivity_),
               static_cast<double>(num_noisy_values_), release_epsilon_}));
  return Status::Ok();
}

Result<std::unique_ptr<DistanceOracle>> HldTreeOracle::FromReleasedState(
    const Graph& graph, const EdgeWeights& w,
    std::span<const ReleasedSectionView> sections) {
  DPSP_ASSIGN_OR_RETURN(std::span<const double> meta,
                        released_state::Require<double>(sections, "meta", 5));
  VertexId root;
  DPSP_ASSIGN_OR_RETURN(root, released_state::AsInt(meta[0], "hld root"));
  if (root < 0 || root >= graph.num_vertices()) {
    return Status::InvalidArgument("snapshot hld root is out of range");
  }
  const double noise_scale = meta[1];
  int sensitivity;
  DPSP_ASSIGN_OR_RETURN(sensitivity,
                        released_state::AsInt(meta[2], "hld sensitivity"));
  int num_noisy_values;
  DPSP_ASSIGN_OR_RETURN(num_noisy_values,
                        released_state::AsInt(meta[3], "hld noise draws"));
  const double release_epsilon = meta[4];
  if (!(noise_scale > 0.0 && std::isfinite(noise_scale))) {
    return Status::InvalidArgument(
        "snapshot hld noise scale must be positive and finite");
  }
  if (!(release_epsilon > 0.0)) {
    return Status::InvalidArgument("snapshot hld release epsilon must be > 0");
  }

  // Rebuild the public skeleton (chains, membership, level tables), which
  // depends only on the topology, then install the persisted blocks at the
  // persisted scale, so later update epochs redraw at the release's scale.
  DPSP_ASSIGN_OR_RETURN(std::unique_ptr<HldTreeOracle> oracle,
                        Decompose(graph, w, root, nullptr));

  // Epochs charge release_epsilon * g / sensitivity, so a sensitivity
  // other than the topology's would charge them at the wrong rate.
  if (sensitivity != oracle->ChainSensitivity()) {
    return Status::InvalidArgument(StrFormat(
        "snapshot hld sensitivity is %d, its topology implies %d",
        sensitivity, oracle->ChainSensitivity()));
  }
  const int num_chains = oracle->num_chains();
  DPSP_ASSIGN_OR_RETURN(
      std::span<const double> counts,
      released_state::Require<double>(sections, "chain-block-counts",
                                      static_cast<long>(num_chains)));
  DPSP_ASSIGN_OR_RETURN(
      std::span<const double> light,
      released_state::Require<double>(sections, "light-noisy",
                                      static_cast<long>(num_chains)));
  DPSP_ASSIGN_OR_RETURN(std::span<const double> blocks,
                        released_state::Require<double>(sections,
                                                        "chain-blocks"));

  for (int c = 0; c < num_chains; ++c) {
    int count;
    DPSP_ASSIGN_OR_RETURN(
        count, released_state::AsInt(counts[static_cast<size_t>(c)],
                                     "chain block count"));
    const uint32_t shape = dyadic::NumBlocks(oracle->ChainLevels(c));
    if (count < 0 || static_cast<uint32_t>(count) != shape) {
      return Status::InvalidArgument(StrFormat(
          "snapshot chain %d holds %d blocks, its topology implies %u", c,
          count, shape));
    }
  }
  const uint32_t total = dyadic::NumBlocks(oracle->level_offset_);
  if (blocks.size() != total) {
    return Status::InvalidArgument(StrFormat(
        "snapshot chain-blocks section holds %zu blocks, its counts imply %u",
        blocks.size(), total));
  }
  // Built from the section, not zero-filled and then overwritten.
  oracle->blocks_.assign(blocks.begin(), blocks.end());
  oracle->light_noisy_.assign(light.begin(), light.end());
  oracle->noise_scale_ = noise_scale;
  oracle->sensitivity_ = sensitivity;
  oracle->num_noisy_values_ = num_noisy_values;
  oracle->release_epsilon_ = release_epsilon;
  for (int c = 0; c < num_chains; ++c) oracle->RecomputeAscentCosts(c);
  return std::unique_ptr<DistanceOracle>(std::move(oracle));
}

int HldTreeOracle::ChainSensitivity() const {
  int levels = 1;
  for (int c = 0; c < num_chains(); ++c) {
    levels = std::max(levels, dyadic::NumLevels(ChainLevels(c)));
  }
  return levels;
}

Result<double> HldTreeOracle::Distance(VertexId u, VertexId v) const {
  if (u < 0 || u >= num_vertices_ || v < 0 || v >= num_vertices_) {
    return Status::InvalidArgument("vertex out of range");
  }
  return DistanceUnchecked(u, v);
}

double HldTreeOracle::ErrorBound(int num_vertices,
                                 const PrivacyParams& params, double gamma) {
  DPSP_CHECK_MSG(num_vertices >= 1 && gamma > 0.0 && gamma < 1.0,
                 "invalid error bound arguments");
  int levels = std::max(
      1, NoisyDyadicRangeSums::LevelsForSize(num_vertices - 1));
  double scale = static_cast<double>(levels) * params.neighbor_l1_bound /
                 params.epsilon;
  // Two ascents, each crossing <= levels chains, each chain costing
  // <= 2 levels blocks plus one light edge.
  int summands = 2 * levels * (2 * levels + 1);
  return LaplaceSumBound(scale, summands, gamma).value();
}

}  // namespace dpsp
