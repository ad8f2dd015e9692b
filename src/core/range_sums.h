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
// blocks, each one's level found in closed form (no level probing).
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

#include <algorithm>
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
  double RangeSumUnchecked(int lo, int hi) const;

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

  /// Overwrites the released noisy block sums with a persisted image (a
  /// snapshot of another same-shape structure's blocks()). The
  /// private value vector is untouched: a later update epoch recomputes
  /// dirty block sums from the holder's current values, which is the
  /// documented warm-restart semantic. Fails unless the image holds
  /// exactly num_blocks() values.
  Status RestoreBlocks(std::span<const double> blocks) {
    if (blocks.size() != blocks_.size()) {
      return Status::InvalidArgument(
          "dyadic block image does not match the structure's block count");
    }
    std::copy(blocks.begin(), blocks.end(), blocks_.begin());
    return Status::Ok();
  }

  /// How many dyadic levels a vector of `size` values needs.
  static int LevelsForSize(int size);

 private:
  // The shared greedy dyadic decomposition behind both query paths.
  double SumRange(int lo, int hi, int* segments) const;

  // blocks_ slot of dyadic block j at level l.
  size_t BlockSlot(int level, int j) const {
    return static_cast<size_t>(level_offset_[static_cast<size_t>(level)]) +
           static_cast<size_t>(j);
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
