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
  const int size = static_cast<int>(values.size());
  for (int l = 0; l < NumLevels(level_offset); ++l) {
    const int width = 1 << l;
    const uint32_t begin = level_offset[static_cast<size_t>(l)];
    const int count =
        static_cast<int>(level_offset[static_cast<size_t>(l) + 1] - begin);
    for (int j = 0; j < count; ++j) {
      const int lo = j * width;
      const int hi = std::min(size, lo + width);
      blocks[begin + static_cast<size_t>(j)] =
          (*prefix)[static_cast<size_t>(hi)] -
          (*prefix)[static_cast<size_t>(lo)] + rng->Laplace(noise_scale);
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

NoisyDyadicRangeSums::NoisyDyadicRangeSums(const std::vector<double>& values,
                                           double noise_scale)
    : size_(static_cast<int>(values.size())),
      noise_scale_(noise_scale),
      values_(values) {
  blocks_.resize(dyadic::AppendLevelOffsets(size_, 0, &level_offset_));
}

NoisyDyadicRangeSums::NoisyDyadicRangeSums(const std::vector<double>& values,
                                           double noise_scale, Rng* rng)
    : NoisyDyadicRangeSums(values, noise_scale) {
  // Every block sum + Laplace draw in (level, block) order — the same Rng
  // walk as a per-level layout, so fixed seeds reproduce.
  std::vector<double> prefix;
  dyadic::DrawBlocks(values, level_offset_, noise_scale, rng, blocks_,
                     &prefix);
}

Result<NoisyDyadicRangeSums> NoisyDyadicRangeSums::Restore(
    const std::vector<double>& values, double noise_scale,
    std::span<const double> blocks) {
  if (!values.empty() && !(noise_scale > 0.0 && std::isfinite(noise_scale))) {
    return Status::InvalidArgument(
        "dyadic noise scale must be positive and finite");
  }
  NoisyDyadicRangeSums sums(values, noise_scale);
  if (blocks.size() != sums.blocks_.size()) {
    return Status::InvalidArgument(StrFormat(
        "dyadic block image holds %zu blocks, a structure over %zu values "
        "has %zu",
        blocks.size(), values.size(), sums.blocks_.size()));
  }
  std::copy(blocks.begin(), blocks.end(), sums.blocks_.begin());
  return sums;
}

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
  return dyadic::RedrawDirtyBlocks(values_, level_offset_, indices,
                                   noise_scale_, rng, blocks_);
}

int NoisyDyadicRangeSums::DirtyBlockCount(std::span<const int> indices) const {
  if (indices.empty() || size_ == 0) return 0;
  std::vector<int> sorted(indices.begin(), indices.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  DPSP_CHECK_MSG(sorted.front() >= 0 && sorted.back() < size_,
                 "dirty index out of range");
  return dyadic::CountDirtyBlocks(num_levels(), sorted);
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
