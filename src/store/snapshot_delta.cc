#include "store/snapshot_delta.h"

#include <bit>
#include <cstring>

#include "common/crc32c.h"
#include "common/table.h"

namespace dpsp {
namespace store {

namespace {

// Two changed runs closer than this merge into one range: a fused range
// re-ships a few identical bytes but saves the 16-byte per-range framing
// and keeps patch tables short when an epoch dirties adjacent blocks.
constexpr size_t kCoalesceGapBytes = 32;

static_assert(std::endian::native == std::endian::little,
              "FirstDifference reads the lowest-addressed byte as the "
              "lowest-order byte of a word");

uint64_t LoadWord(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

// The first index in [i, n) where a and b differ, or n. Equal stretches
// are skipped a 64-byte chunk, then a word, at a time.
size_t FirstDifference(const uint8_t* a, const uint8_t* b, size_t i,
                       size_t n) {
  for (; n - i >= 64; i += 64) {
    uint64_t diff = 0;
    for (size_t k = 0; k < 64; k += 8) {
      diff |= LoadWord(a + i + k) ^ LoadWord(b + i + k);
    }
    if (diff != 0) break;
  }
  for (; n - i >= 8; i += 8) {
    const uint64_t diff = LoadWord(a + i) ^ LoadWord(b + i);
    if (diff != 0) return i + static_cast<size_t>(std::countr_zero(diff)) / 8;
  }
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

Result<std::vector<SectionPatch>> ComputeSectionDelta(
    std::span<const ReleasedSection> before,
    std::span<const ReleasedSection> after) {
  if (before.size() != after.size()) {
    return Status::FailedPrecondition(
        StrFormat("section count changed across epoch (%zu -> %zu); a "
                  "delta cannot express a reshaped release",
                  before.size(), after.size()));
  }
  std::vector<SectionPatch> patches;
  for (size_t s = 0; s < before.size(); ++s) {
    const ReleasedSection& old_section = before[s];
    const ReleasedSection& new_section = after[s];
    if (old_section.label != new_section.label ||
        old_section.bytes.size() != new_section.bytes.size()) {
      return Status::FailedPrecondition(
          StrFormat("section '%s' changed shape across epoch; a delta "
                    "cannot express a reshaped release",
                    old_section.label.c_str()));
    }
    const uint8_t* a = old_section.bytes.data();
    const uint8_t* b = new_section.bytes.data();
    const size_t n = new_section.bytes.size();
    SectionPatch patch;
    size_t i = FirstDifference(a, b, 0, n);
    while (i < n) {
      // A changed run starts here; extend it to every later difference
      // that follows the previous one within the coalescing threshold.
      const size_t start = i;
      size_t last_diff = i;
      for (;;) {
        i = FirstDifference(a, b, last_diff + 1, n);
        if (i == n || i - last_diff > kCoalesceGapBytes) break;
        last_diff = i;
      }
      SectionRange range;
      range.offset = start;
      range.bytes.assign(b + start, b + last_diff + 1);
      patch.ranges.push_back(std::move(range));
    }
    if (patch.ranges.empty()) continue;
    patch.label = new_section.label;
    patch.section_bytes = n;
    patch.post_crc32c = Crc32c(b, n);
    patches.push_back(std::move(patch));
  }
  return patches;
}

Status ApplySectionDelta(std::vector<ReleasedSection>& image,
                         std::span<const SectionPatch> patches) {
  for (const SectionPatch& patch : patches) {
    ReleasedSection* section = nullptr;
    for (ReleasedSection& candidate : image) {
      if (candidate.label == patch.label) {
        section = &candidate;
        break;
      }
    }
    if (section == nullptr) {
      return Status::InvalidArgument(
          StrFormat("delta patches unknown section '%s'",
                    patch.label.c_str()));
    }
    if (section->bytes.size() != patch.section_bytes) {
      return Status::InvalidArgument(
          StrFormat("delta for section '%s' expects %llu bytes, image "
                    "holds %zu",
                    patch.label.c_str(),
                    static_cast<unsigned long long>(patch.section_bytes),
                    section->bytes.size()));
    }
    for (const SectionRange& range : patch.ranges) {
      if (range.bytes.empty()) continue;
      if (range.offset > section->bytes.size() ||
          range.bytes.size() > section->bytes.size() - range.offset) {
        return Status::InvalidArgument(
            StrFormat("delta range [%llu, +%zu) overruns section '%s'",
                      static_cast<unsigned long long>(range.offset),
                      range.bytes.size(), patch.label.c_str()));
      }
      std::memcpy(section->bytes.data() + range.offset, range.bytes.data(),
                  range.bytes.size());
    }
    const uint32_t crc = Crc32c(section->bytes.data(), section->bytes.size());
    if (crc != patch.post_crc32c) {
      return Status::InvalidArgument(
          StrFormat("section '%s' checksum mismatch after delta "
                    "(got %08x, want %08x); image is corrupt — resync",
                    patch.label.c_str(), crc, patch.post_crc32c));
    }
  }
  return Status::Ok();
}

uint64_t SectionDeltaBytes(std::span<const SectionPatch> patches) {
  uint64_t total = 0;
  for (const SectionPatch& patch : patches) {
    for (const SectionRange& range : patch.ranges) {
      total += range.bytes.size();
    }
  }
  return total;
}

}  // namespace store
}  // namespace dpsp
