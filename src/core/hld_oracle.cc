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
    std::vector<std::vector<double>>* chain_weights,
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

  // Assign chains in BFS order (parents first).
  std::vector<std::vector<VertexId>> members;  // chain -> vertices by pos
  for (VertexId v : tree.bfs_order()) {
    VertexId p = tree.parent(v);
    if (p == -1 || heavy[static_cast<size_t>(p)] != v) {
      oracle->chain_of_[static_cast<size_t>(v)] =
          static_cast<int>(members.size());
      oracle->pos_in_chain_[static_cast<size_t>(v)] = 0;
      oracle->chain_head_.push_back(v);
      oracle->head_depth_.push_back(tree.depth(v));
      members.emplace_back(1, v);
    } else {
      int c = oracle->chain_of_[static_cast<size_t>(p)];
      oracle->chain_of_[static_cast<size_t>(v)] = c;
      oracle->pos_in_chain_[static_cast<size_t>(v)] =
          oracle->pos_in_chain_[static_cast<size_t>(p)] + 1;
      members[static_cast<size_t>(c)].push_back(v);
    }
  }

  // The values each chain's release covers: its heavy edges by position,
  // and the light edge above its head (none at the root chain).
  chain_weights->assign(members.size(), {});
  light_weights->assign(members.size(), 0.0);
  oracle->head_parent_.resize(members.size());
  for (size_t c = 0; c < members.size(); ++c) {
    const std::vector<VertexId>& chain = members[c];
    std::vector<double>& values = (*chain_weights)[c];
    values.reserve(chain.size() - 1);
    for (size_t p = 1; p < chain.size(); ++p) {
      values.push_back(w[static_cast<size_t>(tree.parent_edge(chain[p]))]);
    }
    VertexId head = chain[0];
    oracle->head_parent_[c] = tree.parent(head);
    if (tree.parent(head) != -1) {
      (*light_weights)[c] = w[static_cast<size_t>(tree.parent_edge(head))];
    }
  }

  // Update-path indexes: dirty edge -> child endpoint, and flat chain
  // membership (for recomputing ascent caches of dirty chains).
  oracle->edge_child_.assign(static_cast<size_t>(graph.num_edges()), -1);
  for (VertexId v = 0; v < n; ++v) {
    EdgeId e = tree.parent_edge(v);
    if (e != -1) oracle->edge_child_[static_cast<size_t>(e)] = v;
  }
  oracle->chain_member_offset_.assign(members.size() + 1, 0);
  for (size_t c = 0; c < members.size(); ++c) {
    oracle->chain_member_offset_[c + 1] =
        oracle->chain_member_offset_[c] +
        static_cast<uint32_t>(members[c].size());
  }
  oracle->chain_member_list_.reserve(static_cast<size_t>(n));
  for (const std::vector<VertexId>& chain : members) {
    oracle->chain_member_list_.insert(oracle->chain_member_list_.end(),
                                      chain.begin(), chain.end());
  }
  oracle->ascent_cost_.assign(static_cast<size_t>(n), 0.0);
  return oracle;
}

Result<std::unique_ptr<HldTreeOracle>> HldTreeOracle::Build(
    const Graph& graph, const EdgeWeights& w, const PrivacyParams& params,
    Rng* rng, VertexId root) {
  DPSP_RETURN_IF_ERROR(params.Validate());
  std::vector<std::vector<double>> chain_weights;
  std::vector<double> light_weights;
  DPSP_ASSIGN_OR_RETURN(
      std::unique_ptr<HldTreeOracle> oracle,
      Decompose(graph, w, root, &chain_weights, &light_weights));

  // Joint sensitivity: an edge is either heavy (one block per level of its
  // chain's structure) or light (one released scalar), so the release's
  // sensitivity is max over chains of #levels, at least 1.
  int max_levels = 1;
  for (const std::vector<double>& values : chain_weights) {
    max_levels = std::max(max_levels, NoisyDyadicRangeSums::LevelsForSize(
                                          static_cast<int>(values.size())));
  }
  DPSP_ASSIGN_OR_RETURN(
      double scale,
      LaplaceScale(static_cast<double>(max_levels), params));
  oracle->noise_scale_ = scale;
  oracle->sensitivity_ = max_levels;
  oracle->release_epsilon_ = params.epsilon;

  // Released structures: per-chain dyadic sums over the heavy edges, plus
  // one noisy scalar per light (chain-head parent) edge, drawn chain by
  // chain.
  oracle->light_noisy_.assign(chain_weights.size(), 0.0);
  for (size_t c = 0; c < chain_weights.size(); ++c) {
    oracle->chains_.emplace_back(chain_weights[c], scale, rng);
    oracle->num_noisy_values_ += oracle->chains_.back().num_blocks();
    if (oracle->head_parent_[c] != -1) {
      oracle->light_noisy_[c] = light_weights[c] + rng->Laplace(scale);
      ++oracle->num_noisy_values_;
    }
  }

  // Ascent caches (post-processing of the released blocks, no new noise):
  // climbing off the top of v's chain costs the chain prefix up to v plus
  // the light edge above the head, and lands on the head's parent.
  for (size_t c = 0; c < chain_weights.size(); ++c) {
    oracle->RecomputeAscentCosts(static_cast<int>(c));
  }
  return oracle;
}

Result<std::unique_ptr<HldTreeOracle>> HldTreeOracle::Build(
    const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx,
    VertexId root) {
  return ctx.MeteredBuild(
      kName, [&] { return Build(graph, w, ctx.params(), ctx.rng(), root); },
      [](const HldTreeOracle& oracle, ReleaseTelemetry& t) {
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

  std::map<int, std::vector<std::pair<int, double>>> heavy;  // chain -> ups
  std::map<int, double> light;  // chain -> new light-edge weight
  for (const auto& [edge, weight] : final_weight) {
    VertexId v = edge_child_[static_cast<size_t>(edge)];
    int c = chain_of_[static_cast<size_t>(v)];
    int pos = pos_in_chain_[static_cast<size_t>(v)];
    if (pos == 0) {
      light[c] = weight;  // the edge above the chain head: one scalar
    } else {
      heavy[c].emplace_back(pos - 1, weight);
    }
  }

  // Planning pass (no mutation): the epoch's sensitivity g is the deepest
  // dirty stack — every dirty heavy edge sits in one block per level of
  // its chain, a dirty light edge in exactly one scalar — and the dirty
  // block count prices the redraw. Charged in the release's natural
  // currency: the redraw at the build-time Laplace scale L*l1/eps is
  // exactly (eps * g / L)-DP.
  int g = light.empty() ? 0 : 1;
  int dirty_blocks = static_cast<int>(light.size());
  for (const auto& [c, updates] : heavy) {
    const NoisyDyadicRangeSums& chain = chains_[static_cast<size_t>(c)];
    g = std::max(g, chain.num_levels());
    std::vector<int> indices;
    indices.reserve(updates.size());
    for (const auto& [index, weight] : updates) indices.push_back(index);
    dirty_blocks += chain.DirtyBlockCount(indices);
  }
  double charged_epsilon =
      release_epsilon_ * static_cast<double>(g) / sensitivity_;
  PrivacyLoss loss = PrivacyLoss::Pure(charged_epsilon);

  Status metered = ctx.MeteredUpdate(
      std::string(kName) + "-update", loss,
      [&] {
        for (const auto& [c, updates] : heavy) {
          chains_[static_cast<size_t>(c)].ApplyPointUpdates(updates,
                                                            ctx.rng());
        }
        for (const auto& [c, weight] : light) {
          light_noisy_[static_cast<size_t>(c)] =
              weight + ctx.rng()->Laplace(noise_scale_);
        }
        // Ascent caches of the dirty chains: post-processing of the
        // redrawn blocks, no new noise. (std::map iteration keeps the
        // chain walk ordered; a chain dirty in both ways is recomputed
        // once — the second pass overwrites with identical values.)
        for (const auto& [c, updates] : heavy) RecomputeAscentCosts(c);
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
  const NoisyDyadicRangeSums& chain = chains_[static_cast<size_t>(c)];
  const double light = light_noisy_[static_cast<size_t>(c)];
  // Chain member p sits at position p: climbing off the top from it costs
  // the chain prefix [0, p) plus the light edge above the head.
  for (uint32_t i = begin; i < end; ++i) {
    VertexId v = chain_member_list_[i];
    ascent_cost_[static_cast<size_t>(v)] =
        chain.PrefixSumUnchecked(static_cast<int>(i - begin)) + light;
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
  const NoisyDyadicRangeSums& chain = chains_[static_cast<size_t>(cu)];
  return (up_u + chain.RangeSumUnchecked(pz, pu)) +
         (up_v + chain.RangeSumUnchecked(pz, pv));
}

void HldTreeOracle::AppendReleasedBuffers(
    std::vector<ReleasedBuffer>* out) const {
  out->push_back({"chain-of", chain_of_.data(),
                  chain_of_.size() * sizeof(int)});
  out->push_back({"pos-in-chain", pos_in_chain_.data(),
                  pos_in_chain_.size() * sizeof(int)});
  out->push_back({"ascent-cost", ascent_cost_.data(),
                  ascent_cost_.size() * sizeof(double)});
  out->push_back({"head-parent", head_parent_.data(),
                  head_parent_.size() * sizeof(VertexId)});
  out->push_back({"head-depth", head_depth_.data(),
                  head_depth_.size() * sizeof(int)});
  out->push_back({"light-noisy", light_noisy_.data(),
                  light_noisy_.size() * sizeof(double)});
  for (const NoisyDyadicRangeSums& chain : chains_) {
    std::span<const double> blocks = chain.blocks();
    if (blocks.empty()) continue;
    out->push_back(
        {"dyadic-blocks", blocks.data(), blocks.size() * sizeof(double)});
  }
}

Status HldTreeOracle::SaveReleasedState(
    std::vector<ReleasedSection>* out) const {
  // Every noisy value of the release: the per-chain dyadic blocks
  // (concatenated in chain order, with per-chain counts so restore can
  // slice them back), and the light-edge scalars. Everything else —
  // chains, head depths, membership, ascent caches — is deterministic
  // post-processing of the public topology and the blocks.
  std::vector<double> blocks;
  std::vector<double> counts;
  counts.reserve(chains_.size());
  for (const NoisyDyadicRangeSums& chain : chains_) {
    std::span<const double> chain_blocks = chain.blocks();
    counts.push_back(static_cast<double>(chain_blocks.size()));
    blocks.insert(blocks.end(), chain_blocks.begin(), chain_blocks.end());
  }
  out->push_back(released_state::Pack<double>(
      "chain-blocks", std::span<const double>(blocks)));
  out->push_back(released_state::Pack<double>(
      "chain-block-counts", std::span<const double>(counts)));
  out->push_back(released_state::Pack<double>(
      "light-noisy",
      std::span<const double>(light_noisy_.data(), light_noisy_.size())));
  out->push_back(released_state::PackScalars(
      "meta", {static_cast<double>(chain_head_[0]), noise_scale_,
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

  // Rebuild the public skeleton (chains, membership), which depends only on
  // the topology, then install every chain's persisted blocks at the
  // persisted scale, so later update epochs redraw at the release's scale.
  std::vector<std::vector<double>> chain_weights;
  std::vector<double> light_weights;
  DPSP_ASSIGN_OR_RETURN(
      std::unique_ptr<HldTreeOracle> oracle,
      Decompose(graph, w, root, &chain_weights, &light_weights));

  const size_t num_chains = chain_weights.size();
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

  size_t offset = 0;
  oracle->chains_.reserve(num_chains);
  for (size_t c = 0; c < num_chains; ++c) {
    int count;
    DPSP_ASSIGN_OR_RETURN(
        count, released_state::AsInt(counts[c], "chain block count"));
    if (count < 0 || static_cast<size_t>(count) > blocks.size() - offset) {
      return Status::InvalidArgument(
          "snapshot chain-blocks section is shorter than its counts imply");
    }
    DPSP_ASSIGN_OR_RETURN(
        NoisyDyadicRangeSums chain,
        NoisyDyadicRangeSums::Restore(
            chain_weights[c], noise_scale,
            blocks.subspan(offset, static_cast<size_t>(count))));
    oracle->chains_.push_back(std::move(chain));
    offset += static_cast<size_t>(count);
  }
  if (offset != blocks.size()) {
    return Status::InvalidArgument(
        "snapshot chain-blocks section is longer than its counts imply");
  }
  oracle->light_noisy_.assign(light.begin(), light.end());
  oracle->noise_scale_ = noise_scale;
  oracle->sensitivity_ = sensitivity;
  oracle->num_noisy_values_ = num_noisy_values;
  oracle->release_epsilon_ = release_epsilon;
  for (size_t c = 0; c < num_chains; ++c) {
    oracle->RecomputeAscentCosts(static_cast<int>(c));
  }
  return std::unique_ptr<DistanceOracle>(std::move(oracle));
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
