// Noisy dyadic range sums: the DNPR10 binary-counting tree, released by
// both the Appendix-A path hierarchy (path_graph.h) and the heavy-light
// tree oracle (hld_oracle.h, one structure per heavy chain). The release,
// the range and prefix walks and the dirty-block redraw exist once, in
// namespace dyadic, over a level-offset table and a block span:
// NoisyDyadicRangeSums owns one structure in its own buffer, and tree-hld
// keeps every chain's blocks back to back in one shared buffer.
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
// i), and dyadic::RedrawDirtyBlocks redraws fresh noise for only those
// blocks, re-summed from the holder's value vector. Because each dirty
// index re-releases at most #levels blocks — the same stack the
// sensitivity argument counts — an update epoch is itself one Laplace
// invocation over the dirty blocks, at the same per-block cost as the
// original release. tree-hld's epochs redraw this way; the value vector
// stays PRIVATE state of that holder. NoisyDyadicRangeSums is the
// build-once structure (the path hierarchy's): it keeps only the released
// blocks, never the values it was drawn from.

#ifndef DPSP_CORE_RANGE_SUMS_H_
#define DPSP_CORE_RANGE_SUMS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/random.h"
#include "common/status.h"

namespace dpsp {

/// The dyadic structure's shape and walks, over a level-offset table: the
/// blocks of level l of a structure over `size` values occupy slots
/// [level_offset[l], level_offset[l + 1]) of a block span, level l holding
/// ceil(size / 2^l) of them, so dyadic block j of level l sits at slot
/// level_offset[l] + j. An empty structure has an empty table. Several
/// structures can share one block span, each with its own table. The query
/// walks are templates over the table and block containers, so a holder
/// passes its own buffers (or spans of them) with nothing in between.
namespace dyadic {

/// Levels of the structure a table describes.
inline int NumLevels(std::span<const uint32_t> level_offset) {
  return level_offset.empty() ? 0
                              : static_cast<int>(level_offset.size()) - 1;
}

/// Blocks the table spans: all of a structure's, or of every structure
/// in a run of tables appended back to back from slot 0.
inline uint32_t NumBlocks(std::span<const uint32_t> level_offset) {
  return level_offset.empty() ? 0 : level_offset.back() - level_offset.front();
}

/// Appends the table of a `size`-value structure whose blocks start at
/// slot `base` (nothing for size 0) and returns the slot after its last
/// block.
uint32_t AppendLevelOffsets(int size, uint32_t base,
                            AlignedVector<uint32_t>* level_offset);

/// The release: writes into `blocks` every block's sum of `values` (a
/// difference of running prefix sums) plus one Lap(noise_scale) draw, in
/// (level, block) order. The draws come from one Rng::FillLaplace over the
/// structure's slots, so their transform may run on ParallelFor workers;
/// each slot is sum + draw, the value a Laplace call per block gives.
/// `prefix` is scratch space.
void DrawBlocks(std::span<const double> values,
                std::span<const uint32_t> level_offset, double noise_scale,
                Rng* rng, std::span<double> blocks,
                std::vector<double>* prefix);

/// An update epoch: for sorted, distinct dirty `indices` into `values`
/// (already holding the new values), re-sums every block containing one
/// sequentially from `values` and adds a fresh Lap(noise_scale) draw, in
/// (level, block) order. Returns the number of blocks redrawn.
int RedrawDirtyBlocks(std::span<const double> values,
                      std::span<const uint32_t> level_offset,
                      std::span<const int> indices, double noise_scale,
                      Rng* rng, std::span<double> blocks);

/// How many blocks RedrawDirtyBlocks would redraw for sorted, distinct
/// `indices` in a structure of `levels` levels.
int CountDirtyBlocks(int levels, std::span<const int> indices);

/// The greedy aligned decomposition of [lo, hi) (from lo, repeatedly take
/// the largest dyadic block that starts there and fits), in closed form:
/// with d the highest bit where lo and hi differ and m = hi with its bits
/// below d cleared, greedy takes one block per set bit l of m - lo,
/// lowest first, up to the 2^d-aligned point m, then one per set bit of
/// hi - m, highest first. Calls visit(slot) for each block in that
/// order. Requires 0 <= lo <= hi <= size.
template <typename LevelTable, typename Visit>
inline void WalkRange(const LevelTable& level_offset, int lo, int hi,
                      Visit visit) {
  if (lo >= hi) return;
  const unsigned ulo = static_cast<unsigned>(lo);
  const unsigned uhi = static_cast<unsigned>(hi);
  const int d = static_cast<int>(std::bit_width(ulo ^ uhi)) - 1;
  const unsigned m = uhi >> d << d;
  // r's bits below l are clear, so the block starts 2^l-aligned at m - r.
  for (unsigned r = m - ulo; r != 0; r &= r - 1) {
    const int l = std::countr_zero(r);
    visit(size_t{level_offset[static_cast<size_t>(l)]} + ((m - r) >> l));
  }
  // m's bits below d are clear, so bit l of hi is set and the block
  // ending at hi with its bits below l cleared is (hi >> l) - 1.
  for (unsigned s = uhi - m; s != 0;) {
    const int l = static_cast<int>(std::bit_width(s)) - 1;
    s ^= 1u << l;
    visit(size_t{level_offset[static_cast<size_t>(l)]} + ((uhi >> l) - 1));
  }
}

/// Noisy sum over [lo, hi), the blocks added in WalkRange order. Same
/// precondition as WalkRange.
template <typename LevelTable, typename Blocks>
inline double RangeSum(const LevelTable& level_offset, const Blocks& blocks,
                       int lo, int hi) {
  double sum = 0.0;
  WalkRange(level_offset, lo, hi, [&](size_t slot) { sum += blocks[slot]; });
  return sum;
}

/// A prefix [0, hi) walked back to front: one block per set bit of hi
/// (the popcount(hi) blocks a Fenwick walk visits), lowest bit first.
/// Requires 0 <= hi <= size.
template <typename LevelTable, typename Blocks>
inline double PrefixSum(const LevelTable& level_offset, const Blocks& blocks,
                        int hi) {
  // Clearing the lowest set bit each round walks the blocks back to front:
  // the block of width 2^l ending at i starts at i - 2^l, which is
  // 2^l-aligned, so it is dyadic block (i >> l) - 1 of level l.
  double sum = 0.0;
  for (unsigned i = static_cast<unsigned>(hi); i != 0; i &= i - 1) {
    const int l = std::countr_zero(i);
    sum += blocks[size_t{level_offset[static_cast<size_t>(l)]} +
                  ((i >> l) - 1)];
  }
  return sum;
}

}  // namespace dyadic

/// Noisy dyadic block sums over a value vector, released once: the
/// values are read by the draw and not kept.
class NoisyDyadicRangeSums {
 public:
  /// Builds the structure, adding Lap(noise_scale) to every block sum.
  /// An empty value vector is allowed (all queries return 0).
  NoisyDyadicRangeSums(const std::vector<double>& values, double noise_scale,
                       Rng* rng);

  /// Reinstalls a persisted release without drawing noise: `blocks` is the
  /// blocks() image of a structure over `size` values drawn at
  /// `noise_scale`. Fails unless the image holds exactly the block count of
  /// a `size`-value structure and, for size > 0, the scale is positive and
  /// finite.
  static Result<NoisyDyadicRangeSums> Restore(int size, double noise_scale,
                                              std::span<const double> blocks);

  /// Number of levels (0 for an empty vector). The release's sensitivity
  /// multiplier.
  int num_levels() const { return dyadic::NumLevels(level_offset_); }

  /// Number of stored (noisy) block sums.
  int num_blocks() const;

  /// Noisy sum over indices [lo, hi). Requires 0 <= lo <= hi <= size.
  /// `segments`, if non-null, receives the number of blocks summed.
  Result<double> RangeSum(int lo, int hi, int* segments = nullptr) const;

  /// RangeSum without validation or segment counting; the caller must
  /// guarantee 0 <= lo <= hi <= size. The batched-query hot path.
  double RangeSumUnchecked(int lo, int hi) const {
    return dyadic::RangeSum(level_offset_, blocks_, lo, hi);
  }

  /// Prefetches the blocks RangeSumUnchecked(lo, hi) reads, so a batch
  /// kernel can start a later pair's misses before it answers this one.
  /// Same precondition as RangeSumUnchecked.
  void PrefetchRange(int lo, int hi) const {
    dyadic::WalkRange(level_offset_, lo, hi, [&](size_t slot) {
      __builtin_prefetch(&blocks_[slot]);
    });
  }

  /// dyadic::PrefixSum over [0, hi). Caller must guarantee
  /// 0 <= hi <= size.
  double PrefixSumUnchecked(int hi) const {
    return dyadic::PrefixSum(level_offset_, blocks_, hi);
  }

  /// Number of stored values.
  int size() const { return size_; }

  /// The Laplace scale every block was drawn at.
  double noise_scale() const { return noise_scale_; }

  /// The released noisy block sums, level-major in one cache-aligned
  /// buffer: what a holder saves and ships.
  std::span<const double> blocks() const {
    return {blocks_.data(), blocks_.size()};
  }

  /// How many dyadic levels a vector of `size` values needs.
  static int LevelsForSize(int size);

 private:
  // The shape of a `size`-value structure (level offsets, zeroed blocks),
  // with no noise drawn.
  NoisyDyadicRangeSums(int size, double noise_scale);

  int size_ = 0;
  double noise_scale_ = 0.0;
  // The released structure, flattened level-major into one cache-aligned
  // buffer: the noisy sum of block j at level l — dyadic range
  // [j 2^l, min(size, (j+1) 2^l)) — lives at level_offset_[l] + j.
  AlignedVector<double> blocks_;
  // The structure's dyadic level table, starting at slot 0.
  AlignedVector<uint32_t> level_offset_;
};

}  // namespace dpsp

#endif  // DPSP_CORE_RANGE_SUMS_H_
