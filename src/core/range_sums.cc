#include "core/range_sums.h"

#include <algorithm>
#include <bit>

#include "common/table.h"

namespace dpsp {

int NoisyDyadicRangeSums::LevelsForSize(int size) {
  DPSP_CHECK_MSG(size >= 0, "size must be non-negative");
  if (size == 0) return 0;
  int levels = 1;
  while ((1 << (levels - 1)) < size) ++levels;
  return levels;
}

NoisyDyadicRangeSums::NoisyDyadicRangeSums(const std::vector<double>& values,
                                           double noise_scale, Rng* rng)
    : size_(static_cast<int>(values.size())),
      noise_scale_(noise_scale),
      values_(values) {
  if (size_ == 0) return;
  DPSP_CHECK_MSG(noise_scale > 0.0, "noise scale must be positive");

  std::vector<double> prefix(values.size() + 1, 0.0);
  for (size_t i = 0; i < values.size(); ++i) {
    prefix[i + 1] = prefix[i] + values[i];
  }

  // One flat level-major buffer: level_offset_ first (block counts per
  // level), then every block sum + Laplace draw in (level, block) order —
  // the same Rng walk as a per-level layout, so fixed seeds reproduce.
  int num_levels = LevelsForSize(size_);
  level_offset_.assign(static_cast<size_t>(num_levels) + 1, 0);
  for (int l = 0; l < num_levels; ++l) {
    int width = 1 << l;
    int count = (size_ + width - 1) / width;
    level_offset_[static_cast<size_t>(l) + 1] =
        level_offset_[static_cast<size_t>(l)] + static_cast<uint32_t>(count);
  }
  blocks_.resize(level_offset_.back());
  for (int l = 0; l < num_levels; ++l) {
    int width = 1 << l;
    int count = static_cast<int>(level_offset_[static_cast<size_t>(l) + 1] -
                                 level_offset_[static_cast<size_t>(l)]);
    for (int j = 0; j < count; ++j) {
      int lo = j * width;
      int hi = std::min(size_, lo + width);
      blocks_[BlockSlot(l, j)] =
          prefix[static_cast<size_t>(hi)] - prefix[static_cast<size_t>(lo)] +
          rng->Laplace(noise_scale);
    }
  }
}

namespace {

// Distinct block ids `i >> level` of the (sorted, deduplicated) dirty
// indices, ascending.
std::vector<int> DirtyBlocksAtLevel(const std::vector<int>& indices,
                                    int level) {
  std::vector<int> blocks;
  blocks.reserve(indices.size());
  for (int i : indices) {
    int j = i >> level;
    if (blocks.empty() || blocks.back() != j) blocks.push_back(j);
  }
  return blocks;
}

}  // namespace

int NoisyDyadicRangeSums::ApplyPointUpdates(
    std::span<const std::pair<int, double>> updates, Rng* rng) {
  if (updates.empty()) return 0;
  DPSP_CHECK_MSG(size_ > 0, "cannot update an empty structure");
  std::vector<int> indices;
  indices.reserve(updates.size());
  for (const auto& [i, v] : updates) {
    DPSP_CHECK_MSG(i >= 0 && i < size_, "update index out of range");
    values_[static_cast<size_t>(i)] = v;  // duplicates: last value wins
    indices.push_back(i);
  }
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());

  // Redraw in (level, block) order — the deterministic walk the planning
  // pass counts, so a fixed Rng stream replays to an identical structure.
  int redrawn = 0;
  for (int l = 0; l < num_levels(); ++l) {
    int width = 1 << l;
    for (int j : DirtyBlocksAtLevel(indices, l)) {
      int lo = j * width;
      int hi = std::min(size_, lo + width);
      double sum = 0.0;
      for (int i = lo; i < hi; ++i) sum += values_[static_cast<size_t>(i)];
      blocks_[BlockSlot(l, j)] = sum + rng->Laplace(noise_scale_);
      ++redrawn;
    }
  }
  return redrawn;
}

int NoisyDyadicRangeSums::DirtyBlockCount(std::span<const int> indices) const {
  if (indices.empty() || size_ == 0) return 0;
  std::vector<int> sorted(indices.begin(), indices.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  DPSP_CHECK_MSG(sorted.front() >= 0 && sorted.back() < size_,
                 "dirty index out of range");
  int count = 0;
  for (int l = 0; l < num_levels(); ++l) {
    count += static_cast<int>(DirtyBlocksAtLevel(sorted, l).size());
  }
  return count;
}

int NoisyDyadicRangeSums::num_blocks() const {
  return level_offset_.empty() ? 0 : static_cast<int>(level_offset_.back());
}

Result<double> NoisyDyadicRangeSums::RangeSum(int lo, int hi,
                                              int* segments) const {
  if (lo < 0 || hi > size_ || lo > hi) {
    return Status::InvalidArgument(
        StrFormat("range [%d, %d) out of bounds [0, %d)", lo, hi, size_));
  }
  return SumRange(lo, hi, segments);
}

double NoisyDyadicRangeSums::RangeSumUnchecked(int lo, int hi) const {
  return SumRange(lo, hi, nullptr);
}

double NoisyDyadicRangeSums::PrefixSumUnchecked(int hi) const {
  // Clearing the lowest set bit each round walks the blocks back to front:
  // the block of width 2^l ending at i starts at i - 2^l, which is
  // 2^l-aligned, so it is dyadic block (i >> l) - 1 of level l.
  double sum = 0.0;
  for (unsigned i = static_cast<unsigned>(hi); i != 0; i &= i - 1) {
    int l = std::countr_zero(i);
    sum += blocks_[BlockSlot(l, static_cast<int>((i >> l) - 1))];
  }
  return sum;
}

double NoisyDyadicRangeSums::SumRange(int lo, int hi, int* segments) const {
  // Greedy aligned decomposition, front to back: each step takes the
  // largest block that starts at lo (2^level divides lo), fits in
  // [lo, hi) and exists. All three caps are monotone in the level, so the
  // level is their minimum; countr_zero(0) = 32 leaves lo = 0 uncapped.
  double sum = 0.0;
  const int top = num_levels() - 1;
  while (lo < hi) {
    const int fit =
        static_cast<int>(std::bit_width(static_cast<unsigned>(hi - lo))) - 1;
    const int level =
        std::min({top, fit, std::countr_zero(static_cast<unsigned>(lo))});
    sum += blocks_[BlockSlot(level, lo >> level)];
    if (segments != nullptr) ++(*segments);
    lo += 1 << level;
  }
  return sum;
}

}  // namespace dpsp
