// Noisy dyadic range sums: the DNPR10 binary-counting tree, released
// once and read by both the Appendix-A path hierarchy (path_graph.h) and
// the heavy-light tree oracle (hld_oracle.h, one per heavy chain). It is
// the repo's only dyadic structure: one flat buffer, one save image (the
// blocks() span), and one scalar query kernel.
//
// Given a value vector x[0..m), the structure stores, for every dyadic
// block [j 2^l, min(m, (j+1) 2^l)), the block sum plus one Laplace draw of
// a caller-chosen scale. Each index lies in exactly one block per level,
// so releasing the whole structure is a single Laplace-mechanism
// invocation with l1 sensitivity (#levels) * (per-index sensitivity of x).
// Any range sum over [lo, hi) is answered from at most 2 #levels noisy
// blocks, read off the set bits of two integers (WalkRange): each block's
// address is computed from its own bit, not from the previous block, so a
// query's misses overlap and a batch kernel can prefetch a later query's
// blocks (PrefetchRange).
//
// The structure is incrementally releasable: a point update x[i] = v
// invalidates exactly one block per level (the #levels blocks containing
// i), and ApplyPointUpdates redraws fresh noise for only those blocks.
// Because each dirty index re-releases at most #levels blocks — the same
// stack the sensitivity argument counts — an update epoch is itself one
// Laplace invocation over the dirty blocks, at the same per-block cost as
// the original release. The raw value vector is retained internally to
// recompute dirty block sums; it is PRIVATE state of the holder, never
// part of the released object.

#ifndef DPSP_CORE_RANGE_SUMS_H_
#define DPSP_CORE_RANGE_SUMS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "common/random.h"
#include "common/status.h"

namespace dpsp {

/// Noisy dyadic block sums over a fixed value vector.
class NoisyDyadicRangeSums {
 public:
  /// Builds the structure, adding Lap(noise_scale) to every block sum.
  /// An empty value vector is allowed (all queries return 0).
  NoisyDyadicRangeSums(const std::vector<double>& values, double noise_scale,
                       Rng* rng);

  /// Reinstalls a persisted release without drawing noise: `blocks` is the
  /// blocks() image of a structure over `values` drawn at `noise_scale`,
  /// the scale later update epochs redraw at. `values` is the holder's
  /// current private value vector (a later epoch recomputes dirty block
  /// sums from it: the documented warm-restart semantic). Fails unless the
  /// image holds exactly the block count of a values.size() structure and,
  /// for a non-empty vector, the scale is positive and finite.
  static Result<NoisyDyadicRangeSums> Restore(
      const std::vector<double>& values, double noise_scale,
      std::span<const double> blocks);

  /// Number of levels (0 for an empty vector). The release's sensitivity
  /// multiplier.
  int num_levels() const {
    return level_offset_.empty()
               ? 0
               : static_cast<int>(level_offset_.size()) - 1;
  }

  /// Number of stored (noisy) block sums.
  int num_blocks() const;

  /// Noisy sum over indices [lo, hi). Requires 0 <= lo <= hi <= size.
  /// `segments`, if non-null, receives the number of blocks summed.
  Result<double> RangeSum(int lo, int hi, int* segments = nullptr) const;

  /// RangeSum without validation or segment counting; the caller must
  /// guarantee 0 <= lo <= hi <= size. The batched-query hot path.
  double RangeSumUnchecked(int lo, int hi) const {
    double sum = 0.0;
    WalkRange(lo, hi, [&](size_t slot) { sum += blocks_[slot]; });
    return sum;
  }

  /// Prefetches the blocks RangeSumUnchecked(lo, hi) reads, so a batch
  /// kernel can start a later pair's misses before it answers this one.
  /// Same precondition as RangeSumUnchecked.
  void PrefetchRange(int lo, int hi) const {
    WalkRange(lo, hi,
              [&](size_t slot) { __builtin_prefetch(&blocks_[slot]); });
  }

  /// A prefix [0, hi) walked back to front: one block per set bit of hi
  /// (the popcount(hi) blocks a Fenwick walk visits), lowest bit first.
  /// The HLD oracle caches every chain prefix in this order at build, so
  /// its ascent caches depend on it. Caller must guarantee
  /// 0 <= hi <= size.
  double PrefixSumUnchecked(int hi) const;

  /// Number of stored values.
  int size() const { return size_; }

  /// The Laplace scale every block was (and every redraw is) drawn at.
  double noise_scale() const { return noise_scale_; }

  /// The released noisy block sums, level-major in one cache-aligned
  /// buffer: what a holder saves, ships and hands to NUMA placement.
  std::span<const double> blocks() const {
    return {blocks_.data(), blocks_.size()};
  }

  /// Point updates (index, new value): sets each value, then recomputes
  /// and redraws Lap(noise_scale) for every dyadic block containing a
  /// dirty index — one block per level per distinct index, deduplicated,
  /// redrawn in (level, block) order so a fixed Rng stream gives a
  /// deterministic result. Blocks containing no dirty index keep their
  /// original noisy sums bit-for-bit. Duplicate indices: the last value
  /// wins. Indices must lie in [0, size()). Returns the number of blocks
  /// redrawn (== DirtyBlockCount of the distinct indices).
  int ApplyPointUpdates(std::span<const std::pair<int, double>> updates,
                        Rng* rng);

  /// How many blocks ApplyPointUpdates would redraw for these indices —
  /// the per-block privacy planning pass, with no mutation. Duplicates
  /// are deduplicated; indices must lie in [0, size()).
  int DirtyBlockCount(std::span<const int> indices) const;

  /// How many dyadic levels a vector of `size` values needs.
  static int LevelsForSize(int size);

 private:
  // The structure's shape over `values` (level offsets, zeroed blocks),
  // with no noise drawn.
  NoisyDyadicRangeSums(const std::vector<double>& values, double noise_scale);

  // The greedy aligned decomposition of [lo, hi) (from lo, repeatedly take
  // the largest dyadic block that starts there and fits), in closed form:
  // with d the highest bit where lo and hi differ and m = hi with its bits
  // below d cleared, greedy takes one block per set bit l of m - lo,
  // lowest first, up to the 2^d-aligned point m, then one per set bit of
  // hi - m, highest first. Calls visit(slot) for each block in that
  // order. Requires 0 <= lo <= hi <= size.
  template <typename Visit>
  void WalkRange(int lo, int hi, Visit visit) const {
    if (lo >= hi) return;
    const unsigned ulo = static_cast<unsigned>(lo);
    const unsigned uhi = static_cast<unsigned>(hi);
    const int d = static_cast<int>(std::bit_width(ulo ^ uhi)) - 1;
    const unsigned m = uhi >> d << d;
    // r's bits below l are clear, so the block starts 2^l-aligned at m - r.
    for (unsigned r = m - ulo; r != 0; r &= r - 1) {
      const int l = std::countr_zero(r);
      visit(BlockSlot(l, (m - r) >> l));
    }
    // m's bits below d are clear, so bit l of hi is set and the block
    // ending at hi with its bits below l cleared is (hi >> l) - 1.
    for (unsigned s = uhi - m; s != 0;) {
      const int l = static_cast<int>(std::bit_width(s)) - 1;
      s ^= 1u << l;
      visit(BlockSlot(l, (uhi >> l) - 1));
    }
  }

  // blocks_ slot of dyadic block j at level l.
  size_t BlockSlot(int level, size_t j) const {
    return static_cast<size_t>(level_offset_[static_cast<size_t>(level)]) +
           j;
  }

  int size_ = 0;
  double noise_scale_ = 0.0;
  // The private value vector, retained to recompute dirty block sums on
  // updates. Not part of the released structure.
  std::vector<double> values_;
  // The released structure, flattened level-major into one cache-aligned
  // buffer: the noisy sum of block j at level l — dyadic range
  // [j 2^l, min(size, (j+1) 2^l)) — lives at BlockSlot(l, j).
  AlignedVector<double> blocks_;
  // num_levels + 1 offsets into blocks_ (empty for an empty vector).
  AlignedVector<uint32_t> level_offset_;
};

}  // namespace dpsp

#endif  // DPSP_CORE_RANGE_SUMS_H_
