// Heavy-light tree distance oracle — an alternative all-pairs mechanism
// for trees, composing the paper's two tree results.
//
// Decompose the tree into heavy chains (each root-to-leaf walk crosses at
// most log2 V chains) and release a noisy dyadic range structure
// (core/range_sums.h, i.e. the Appendix-A hierarchy) over each chain's
// edge weights. Every edge lies on exactly one chain and in one block per
// level of that chain's structure, so the joint release has sensitivity
// max_chain(#levels) <= ceil(log2 V): one Laplace mechanism invocation at
// scale (max levels)/eps makes it eps-DP.
//
// A query d(x, y) climbs both endpoints chain by chain until they meet on
// the chain holding their LCA — the side whose chain head is deeper
// crosses next, so no LCA index is needed. That is at most 2 log2 V
// chain-range queries, each summing at most 2 log2 V noisy blocks, so
// the error is a sum of O(log^2 V) Laplace terms of scale
// O(log V)/eps — O(log^2 V sqrt(log(1/gamma)))/eps by Lemma 3.1, a log^0.5
// factor above Theorem 4.2's recursion. The trade: this oracle's released
// object supports *edge-interval* analytics on chains (subpath sums along
// any chain prefix) that the Algorithm-1 release does not, and its
// construction is a single pass. bench_tree_all_pairs (E2b) compares the
// two empirically.

#ifndef DPSP_CORE_HLD_ORACLE_H_
#define DPSP_CORE_HLD_ORACLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "core/distance_oracle.h"
#include "core/heavy_path_index.h"
#include "core/range_sums.h"
#include "dp/privacy.h"
#include "dp/release_context.h"

// Incremental release (continual weight updates): every edge lives in one
// heavy-chain dyadic structure (one block per level of that chain) or in
// one released light scalar. When an epoch drifts k edges, only the
// blocks containing those edges are invalidated and redrawn — the
// Theorem 4.2 / Appendix-A recursion rebuilt on just the dirty subtrees.
// The epoch's sensitivity is g = the deepest dirty stack (max levels over
// dirty chains, 1 if only light edges drifted), so the partial release is
// (g/L) x one full release in the calibration's own currency, where L is
// the build-time sensitivity. ApplyWeightUpdates charges exactly that
// fraction through ReleaseContext::MeteredUpdate.

namespace dpsp {

/// eps-DP all-pairs tree distance oracle via heavy-light decomposition.
/// The first updatable mechanism in the registry: supports incremental
/// weight-update epochs through ApplyWeightUpdates.
class HldTreeOracle final : public UpdatableDistanceOracle {
 public:
  /// Registry name of this mechanism.
  static constexpr const char* kName = "tree-hld";

  /// Builds the oracle through the release pipeline: draws one release of
  /// ctx.params() from the accountant and records telemetry. `graph` must
  /// be an undirected tree with non-negative weights; `root` = -1 picks
  /// vertex 0. The heavy-path skeleton is HeavyPathIndex::Share's, so a
  /// release over a graph that shares another live release's storage and
  /// root shares its skeleton. A graph that is not a tree, or weights
  /// that are negative or not finite, are refused before the budget
  /// check, the WAL intent and any draw.
  static Result<std::unique_ptr<HldTreeOracle>> Build(
      const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx,
      VertexId root = -1);

  Result<double> Distance(VertexId u, VertexId v) const override;
  /// Fused serial kernel: validates every pair first, then answers pair i
  /// with one two-sided chain climb (DistanceUnchecked) while prefetching
  /// the chain and position entries of pair i + 8's endpoints.
  Status DistanceInto(std::span<const VertexPair> pairs,
                      double* out) const override;
  std::string Name() const override { return kName; }

  /// One incremental update epoch: maps each dirty edge to its heavy-
  /// chain block stack (or light scalar), redraws fresh noise for only
  /// those blocks at the build-time scale, recomputes the ascent caches
  /// of the dirty chains, and charges Pure(build_eps * g / sensitivity())
  /// where g is the epoch's own sensitivity (see the header comment).
  /// Budget-exhausted epochs refuse before touching any block.
  Status ApplyWeightUpdates(std::span<const EdgeWeightDelta> deltas,
                            ReleaseContext& ctx) override;

  int num_chains() const { return index_->num_chains(); }
  double noise_scale() const { return noise_scale_; }
  /// Release sensitivity (max chain levels) and total noise draws, for
  /// telemetry.
  int sensitivity() const { return index_->sensitivity(); }
  int num_noisy_values() const { return num_noisy_values_; }
  /// The public skeleton this release answers over, shared with every
  /// live release and restore over the same topology and root.
  const std::shared_ptr<const HeavyPathIndex>& index() const {
    return index_;
  }

  /// High-probability per-pair error bound with the constants proved in
  /// the header comment (Lemma 3.1 over at most 4 log^2 V summands).
  static double ErrorBound(int num_vertices, const PrivacyParams& params,
                           double gamma);

  /// Persists the released noisy state: every chain's dyadic blocks
  /// (back to back in chain order, as the oracle holds them, with
  /// per-chain counts), the light-edge scalars, and the release
  /// calibration. The decomposition itself (chains, head depths,
  /// membership) is deterministic post-processing of the public topology
  /// and is not persisted: a restore takes it from HeavyPathIndex::Share.
  Status SaveReleasedState(std::vector<ReleasedSection>* out) const override;

  /// OracleLoader counterpart: takes the skeleton from
  /// HeavyPathIndex::Share (shared with a live release over the same
  /// topology and root, so only the first restore after none is alive
  /// decomposes the tree), checks every chain's persisted block count and
  /// the persisted sensitivity (which later epochs charge against)
  /// against what the topology implies, copies the blocks in at the
  /// persisted noise scale (no noise drawn), and recomputes the ascent
  /// caches.
  /// Queries and later update epochs are bit-identical to the saved
  /// instance. Post-restart update epochs recompute dirty block sums from
  /// the CURRENT workload weights — if updates had drifted the weights
  /// before the snapshot, the first post-restart epoch re-bases those sums
  /// (documented warm-restart semantic; privacy is unaffected).
  static Result<std::unique_ptr<DistanceOracle>> FromReleasedState(
      const Graph& graph, const EdgeWeights& w,
      std::span<const ReleasedSectionView> sections);

 private:
  // Holds `index` and reads member_weight_ from `w`, which must match the
  // graph's edge count.
  HldTreeOracle(std::shared_ptr<const HeavyPathIndex> index,
                const EdgeWeights& w);

  // Chain c's private values: its heavy-edge weights by position, the
  // member weights after its head's.
  std::span<const double> ChainValues(int c) const {
    const uint32_t head = index_->member_offset(c);
    return {member_weight_.data() + head + 1,
            index_->member_offset(c + 1) - head - 1};
  }

  // Noisy u-v distance; both must be valid vertices. Each endpoint sums
  // its own chain crossings bottom-up, then its range on the meeting
  // chain, and the two sides are added last. `index` is *index_, which a
  // batch dereferences once.
  double DistanceUnchecked(const HeavyPathIndex& index, VertexId u,
                           VertexId v) const;

  // Rebuilds the ascent caches of chain `c` from its (possibly redrawn)
  // released blocks; the root chain has none.
  void RecomputeAscentCosts(int c);

  // The public skeleton, determined by the topology and shared: chains,
  // positions, head depths and parents, CSR membership, the edge above
  // each member, every chain's dyadic level table and the sensitivity.
  std::shared_ptr<const HeavyPathIndex> index_;
  double noise_scale_ = 0.0;
  int num_noisy_values_ = 0;
  // The per-release epsilon the noise scale was calibrated to at build;
  // incremental epochs charge their dirty fraction of it.
  double release_epsilon_ = 0.0;
  // The private weights by member index: entry i holds the weight of the
  // edge above the index's member i (0 at the root). A chain head's entry
  // is its light edge's weight, and the entries after it are the chain's
  // heavy-edge weights. Kept to re-sum dirty blocks; never released.
  std::vector<double> member_weight_;
  // The release: every chain's noisy dyadic blocks, back to back in chain
  // order and level-major within a chain, byte for byte the chain-blocks
  // section. Chain c's blocks are the slots index_->ChainLevels(c) names.
  // Read by every query, hence cache-line aligned.
  AlignedVector<double> blocks_;
  // chain -> noisy weight of the light edge above its head (0 at the root
  // chain).
  AlignedVector<double> light_noisy_;
  // Ascent hot-path cache, pure post-processing of the release: the noisy
  // cost of climbing from v off the top of its chain (the chain-prefix
  // block sum plus the light edge), after which the climb lands on the
  // index's head_parent of v's chain. 0 on the root chain, which no climb
  // crosses off.
  AlignedVector<double> ascent_cost_;
};

}  // namespace dpsp

#endif  // DPSP_CORE_HLD_ORACLE_H_
