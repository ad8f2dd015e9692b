#include "core/range_sums.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/table.h"

namespace dpsp {

namespace dyadic {

namespace {

// Distinct block ids `i >> level` of the (sorted, deduplicated) dirty
// indices, ascending.
std::vector<int> DirtyBlocksAtLevel(std::span<const int> indices, int level) {
  std::vector<int> blocks;
  blocks.reserve(indices.size());
  for (int i : indices) {
    int j = i >> level;
    if (blocks.empty() || blocks.back() != j) blocks.push_back(j);
  }
  return blocks;
}

}  // namespace

uint32_t AppendLevelOffsets(int size, uint32_t base,
                            AlignedVector<uint32_t>* level_offset) {
  // Level l holds ceil(size / 2^l) blocks.
  const int num_levels = NoisyDyadicRangeSums::LevelsForSize(size);
  if (num_levels == 0) return base;
  level_offset->push_back(base);
  for (int l = 0; l < num_levels; ++l) {
    const int width = 1 << l;
    base += static_cast<uint32_t>((size + width - 1) / width);
    level_offset->push_back(base);
  }
  return base;
}

void DrawBlocks(std::span<const double> values,
                std::span<const uint32_t> level_offset, double noise_scale,
                Rng* rng, std::span<double> blocks,
                std::vector<double>* prefix) {
  if (values.empty()) return;
  DPSP_CHECK_MSG(noise_scale > 0.0, "noise scale must be positive");
  prefix->assign(values.size() + 1, 0.0);
  for (size_t i = 0; i < values.size(); ++i) {
    (*prefix)[i + 1] = (*prefix)[i] + values[i];
  }
  // The structure's slots are contiguous and (level, block) order is slot
  // order, so one fill draws every block's noise in the order the blocks
  // are summed; each sum is then added in front of its draw.
  rng->FillLaplace(noise_scale, blocks.subspan(level_offset.front(),
                                                NumBlocks(level_offset)));
  const int size = static_cast<int>(values.size());
  for (int l = 0; l < NumLevels(level_offset); ++l) {
    const int width = 1 << l;
    const uint32_t begin = level_offset[static_cast<size_t>(l)];
    const int count =
        static_cast<int>(level_offset[static_cast<size_t>(l) + 1] - begin);
    for (int j = 0; j < count; ++j) {
      const int lo = j * width;
      const int hi = std::min(size, lo + width);
      double& block = blocks[begin + static_cast<size_t>(j)];
      block = (*prefix)[static_cast<size_t>(hi)] -
              (*prefix)[static_cast<size_t>(lo)] + block;
    }
  }
}

int RedrawDirtyBlocks(std::span<const double> values,
                      std::span<const uint32_t> level_offset,
                      std::span<const int> indices, double noise_scale,
                      Rng* rng, std::span<double> blocks) {
  const int size = static_cast<int>(values.size());
  int redrawn = 0;
  for (int l = 0; l < NumLevels(level_offset); ++l) {
    const int width = 1 << l;
    for (int j : DirtyBlocksAtLevel(indices, l)) {
      const int lo = j * width;
      const int hi = std::min(size, lo + width);
      double sum = 0.0;
      for (int i = lo; i < hi; ++i) sum += values[static_cast<size_t>(i)];
      blocks[level_offset[static_cast<size_t>(l)] + static_cast<size_t>(j)] =
          sum + rng->Laplace(noise_scale);
      ++redrawn;
    }
  }
  return redrawn;
}

int CountDirtyBlocks(int levels, std::span<const int> indices) {
  int count = 0;
  for (int l = 0; l < levels; ++l) {
    count += static_cast<int>(DirtyBlocksAtLevel(indices, l).size());
  }
  return count;
}

}  // namespace dyadic

int NoisyDyadicRangeSums::LevelsForSize(int size) {
  DPSP_CHECK_MSG(size >= 0, "size must be non-negative");
  if (size == 0) return 0;
  int levels = 1;
  while ((1 << (levels - 1)) < size) ++levels;
  return levels;
}

NoisyDyadicRangeSums::NoisyDyadicRangeSums(int size, double noise_scale)
    : size_(size), noise_scale_(noise_scale) {
  blocks_.resize(dyadic::AppendLevelOffsets(size_, 0, &level_offset_));
}

NoisyDyadicRangeSums::NoisyDyadicRangeSums(const std::vector<double>& values,
                                           double noise_scale, Rng* rng)
    : NoisyDyadicRangeSums(static_cast<int>(values.size()), noise_scale) {
  // Every block sum + Laplace draw in (level, block) order — the same Rng
  // walk as a per-level layout, so fixed seeds reproduce.
  std::vector<double> prefix;
  dyadic::DrawBlocks(values, level_offset_, noise_scale, rng, blocks_,
                     &prefix);
}

Result<NoisyDyadicRangeSums> NoisyDyadicRangeSums::Restore(
    int size, double noise_scale, std::span<const double> blocks) {
  if (size > 0 && !(noise_scale > 0.0 && std::isfinite(noise_scale))) {
    return Status::InvalidArgument(
        "dyadic noise scale must be positive and finite");
  }
  NoisyDyadicRangeSums sums(size, noise_scale);
  if (blocks.size() != sums.blocks_.size()) {
    return Status::InvalidArgument(StrFormat(
        "dyadic block image holds %zu blocks, a structure over %d values "
        "has %zu",
        blocks.size(), size, sums.blocks_.size()));
  }
  std::copy(blocks.begin(), blocks.end(), sums.blocks_.begin());
  return sums;
}

int NoisyDyadicRangeSums::num_blocks() const {
  return static_cast<int>(blocks_.size());
}

Result<double> NoisyDyadicRangeSums::RangeSum(int lo, int hi,
                                              int* segments) const {
  if (lo < 0 || hi > size_ || lo > hi) {
    return Status::InvalidArgument(
        StrFormat("range [%d, %d) out of bounds [0, %d)", lo, hi, size_));
  }
  double sum = 0.0;
  int count = 0;
  dyadic::WalkRange(level_offset_, lo, hi, [&](size_t slot) {
    sum += blocks_[slot];
    ++count;
  });
  if (segments != nullptr) *segments += count;
  return sum;
}

}  // namespace dpsp
