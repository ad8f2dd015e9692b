#include "core/hld_oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/table.h"
#include "core/released_state.h"
#include "dp/laplace_mechanism.h"

namespace dpsp {

HldTreeOracle::HldTreeOracle(std::shared_ptr<const HeavyPathIndex> index,
                             const EdgeWeights& w)
    : index_(std::move(index)) {
  const std::span<const EdgeId> member_edge = index_->member_edge();
  member_weight_.resize(member_edge.size());
  for (size_t i = 0; i < member_edge.size(); ++i) {
    const EdgeId e = member_edge[i];
    member_weight_[i] = e == -1 ? 0.0 : w[static_cast<size_t>(e)];
  }
  ascent_cost_.resize(member_edge.size());
}

Result<std::unique_ptr<HldTreeOracle>> HldTreeOracle::Build(
    const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx,
    VertexId root) {
  // The topology and weight checks run before the metered build, so a
  // refused input logs no intent and draws nothing.
  DPSP_ASSIGN_OR_RETURN(std::shared_ptr<const HeavyPathIndex> index,
                        HeavyPathIndex::Share(graph, root == -1 ? 0 : root));
  DPSP_RETURN_IF_ERROR(graph.ValidateNonNegativeWeights(w));
  auto release = [&]() -> Result<std::unique_ptr<HldTreeOracle>> {
    auto oracle = std::unique_ptr<HldTreeOracle>(new HldTreeOracle(index, w));
    DPSP_ASSIGN_OR_RETURN(
        double scale,
        LaplaceScale(static_cast<double>(index->sensitivity()), ctx.params()));
    oracle->noise_scale_ = scale;
    oracle->release_epsilon_ = ctx.params().epsilon;

    // Released structures: per-chain dyadic sums over the heavy edges,
    // plus one noisy scalar per light edge (the one above a chain head,
    // whose weight is the head's member weight), drawn chain by chain.
    Rng* rng = ctx.rng();
    const int num_chains = index->num_chains();
    oracle->blocks_.resize(dyadic::NumBlocks(index->level_offsets()));
    oracle->num_noisy_values_ = static_cast<int>(oracle->blocks_.size());
    oracle->light_noisy_.assign(static_cast<size_t>(num_chains), 0.0);
    std::vector<double> prefix;
    for (int c = 0; c < num_chains; ++c) {
      dyadic::DrawBlocks(oracle->ChainValues(c), index->ChainLevels(c), scale,
                         rng, oracle->blocks_, &prefix);
      if (index->head_parent()[static_cast<size_t>(c)] != -1) {
        oracle->light_noisy_[static_cast<size_t>(c)] =
            oracle->member_weight_[index->member_offset(c)] +
            rng->Laplace(scale);
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
  const int num_edges = index_->num_vertices() - 1;

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
  const HeavyPathIndex& index = *index_;
  std::map<int, std::vector<int>> heavy;
  std::map<int, double> light;  // chain -> new light-edge weight
  for (const auto& [edge, weight] : final_weight) {
    VertexId v = index.EdgeChild(edge);
    int c = index.chain_of()[static_cast<size_t>(v)];
    int pos = index.pos_in_chain()[static_cast<size_t>(v)];
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
    const int levels = dyadic::NumLevels(index.ChainLevels(c));
    g = std::max(g, levels);
    dirty_blocks += dyadic::CountDirtyBlocks(levels, indices);
  }
  double charged_epsilon =
      release_epsilon_ * static_cast<double>(g) / index.sensitivity();
  PrivacyLoss loss = PrivacyLoss::Pure(charged_epsilon);

  Status metered = ctx.MeteredUpdate(
      std::string(kName) + "-update", loss,
      [&] {
        for (const auto& [edge, weight] : final_weight) {
          member_weight_[index.MemberOf(index.EdgeChild(edge))] = weight;
        }
        for (const auto& [c, indices] : heavy) {
          dyadic::RedrawDirtyBlocks(ChainValues(c), index.ChainLevels(c),
                                    indices, noise_scale_, ctx.rng(), blocks_);
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
  // A climb crosses off a chain only while the other endpoint's chain head
  // is no deeper, and the root chain's head is the one vertex at depth 0:
  // no climb crosses off chain 0, so its members keep no cache.
  if (c == 0) return;
  const uint32_t begin = index_->member_offset(c);
  const uint32_t end = index_->member_offset(c + 1);
  const std::span<const uint32_t> levels = index_->ChainLevels(c);
  const double light = light_noisy_[static_cast<size_t>(c)];
  // Chain member p sits at position p: climbing off the top from it costs
  // the chain prefix [0, p) plus the light edge above the head.
  for (uint32_t i = begin; i < end; ++i) {
    VertexId v = index_->member_list()[i];
    ascent_cost_[static_cast<size_t>(v)] =
        dyadic::PrefixSum(levels, blocks_, static_cast<int>(i - begin)) +
        light;
  }
}

Status HldTreeOracle::DistanceInto(std::span<const VertexPair> pairs,
                                   double* out) const {
  const unsigned n = static_cast<unsigned>(index_->num_vertices());
  for (const auto& [u, v] : pairs) {
    if (static_cast<unsigned>(u) >= n || static_cast<unsigned>(v) >= n) {
      return Status::InvalidArgument("vertex out of range");
    }
  }
  // Each climb starts from its endpoints' chain and position entries;
  // prefetching those of pair i + kLookahead before answering pair i keeps
  // that many pairs' first misses in flight.
  constexpr size_t kLookahead = 8;
  const HeavyPathIndex& index = *index_;
  const int* chain_of = index.chain_of().data();
  const int* pos_in_chain = index.pos_in_chain().data();
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i + kLookahead < pairs.size()) {
      const auto& [u, v] = pairs[i + kLookahead];
      __builtin_prefetch(chain_of + u);
      __builtin_prefetch(chain_of + v);
      __builtin_prefetch(pos_in_chain + u);
      __builtin_prefetch(pos_in_chain + v);
    }
    out[i] = DistanceUnchecked(index, pairs[i].first, pairs[i].second);
  }
  return Status::Ok();
}

double HldTreeOracle::DistanceUnchecked(const HeavyPathIndex& index,
                                        VertexId u, VertexId v) const {
  // While the endpoints sit on different chains, the one whose chain head
  // is at least as deep cannot have the LCA on its chain (were it there,
  // the other endpoint's head would hang strictly below the LCA, so
  // deeper), so it crosses: one cached ascent cost (chain prefix + light
  // edge) and a jump to the head's parent. Each side sums its own
  // crossings bottom-up, so the result is bit-identical to climbing each
  // endpoint separately to the LCA.
  const std::span<const int> chain_of = index.chain_of();
  const std::span<const int> head_depth = index.head_depth();
  const std::span<const VertexId> head_parent = index.head_parent();
  auto cross = [&](VertexId& w, int& chain, double& up) {
    up += ascent_cost_[static_cast<size_t>(w)];
    w = head_parent[static_cast<size_t>(chain)];
    chain = chain_of[static_cast<size_t>(w)];
  };
  double up_u = 0.0;
  double up_v = 0.0;
  int cu = chain_of[static_cast<size_t>(u)];
  int cv = chain_of[static_cast<size_t>(v)];
  while (cu != cv) {
    if (head_depth[static_cast<size_t>(cu)] >=
        head_depth[static_cast<size_t>(cv)]) {
      cross(u, cu, up_u);
    } else {
      cross(v, cv, up_v);
    }
  }
  // Meeting chain: the LCA is whichever endpoint sits higher on it.
  const int pu = index.pos_in_chain()[static_cast<size_t>(u)];
  const int pv = index.pos_in_chain()[static_cast<size_t>(v)];
  const int pz = std::min(pu, pv);
  const std::span<const uint32_t> levels = index.ChainLevels(cu);
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
    counts[static_cast<size_t>(c)] = dyadic::NumBlocks(index_->ChainLevels(c));
  }
  out->push_back(released_state::Pack<double>(
      "chain-blocks", std::span<const double>(blocks_.data(), blocks_.size())));
  out->push_back(released_state::Pack<double>(
      "chain-block-counts", std::span<const double>(counts)));
  out->push_back(released_state::Pack<double>(
      "light-noisy",
      std::span<const double>(light_noisy_.data(), light_noisy_.size())));
  out->push_back(released_state::PackScalars(
      "meta", {static_cast<double>(index_->root()), noise_scale_,
               static_cast<double>(sensitivity()),
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

  // The public skeleton (chains, membership, level tables) depends only on
  // the topology: the index a live release over it holds, or a new one.
  // The persisted blocks are installed at the persisted scale, so later
  // update epochs redraw at the release's scale.
  DPSP_ASSIGN_OR_RETURN(std::shared_ptr<const HeavyPathIndex> index,
                        HeavyPathIndex::Share(graph, root));
  DPSP_RETURN_IF_ERROR(graph.ValidateNonNegativeWeights(w));

  // Epochs charge release_epsilon * g / sensitivity, so a sensitivity
  // other than the topology's would charge them at the wrong rate.
  if (sensitivity != index->sensitivity()) {
    return Status::InvalidArgument(StrFormat(
        "snapshot hld sensitivity is %d, its topology implies %d",
        sensitivity, index->sensitivity()));
  }
  const int num_chains = index->num_chains();
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

  // Compared as doubles: a count that is negative, fractional, NaN or out
  // of int's range differs from every shape.
  for (int c = 0; c < num_chains; ++c) {
    const double count = counts[static_cast<size_t>(c)];
    const uint32_t shape = dyadic::NumBlocks(index->ChainLevels(c));
    if (count != static_cast<double>(shape)) {
      return Status::InvalidArgument(StrFormat(
          "snapshot chain %d holds %g blocks, its topology implies %u", c,
          count, shape));
    }
  }
  const uint32_t total = dyadic::NumBlocks(index->level_offsets());
  if (blocks.size() != total) {
    return Status::InvalidArgument(StrFormat(
        "snapshot chain-blocks section holds %zu blocks, its counts imply %u",
        blocks.size(), total));
  }
  auto oracle = std::unique_ptr<HldTreeOracle>(new HldTreeOracle(index, w));
  // Built from the section, not zero-filled and then overwritten.
  oracle->blocks_.assign(blocks.begin(), blocks.end());
  oracle->light_noisy_.assign(light.begin(), light.end());
  oracle->noise_scale_ = noise_scale;
  oracle->num_noisy_values_ = num_noisy_values;
  oracle->release_epsilon_ = release_epsilon;
  for (int c = 0; c < num_chains; ++c) oracle->RecomputeAscentCosts(c);
  return std::unique_ptr<DistanceOracle>(std::move(oracle));
}

Result<double> HldTreeOracle::Distance(VertexId u, VertexId v) const {
  const int n = index_->num_vertices();
  if (u < 0 || u >= n || v < 0 || v >= n) {
    return Status::InvalidArgument("vertex out of range");
  }
  return DistanceUnchecked(*index_, u, v);
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
