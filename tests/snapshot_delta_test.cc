// Tests for the byte-range section-delta codec the replication tier
// ships update epochs with: diff/apply round trips, gap coalescing (and
// the word-at-a-time scan against the byte loop it replaced), shape-change
// refusal (the full-chunk fallback signal), bounds checking against
// hostile patches, and post-apply CRC verification.

#include "store/snapshot_delta.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "test_util.h"

namespace dpsp {
namespace store {
namespace {

ReleasedSection MakeSection(const std::string& label,
                            std::vector<uint8_t> bytes) {
  ReleasedSection section;
  section.label = label;
  section.bytes = std::move(bytes);
  return section;
}

// The byte-at-a-time scan ComputeSectionDelta used before it skipped
// equal stretches a word or a 64-byte chunk at a time, kept as the
// reference its ranges must equal: a changed run extends across equal gaps
// of up to 32 bytes.
std::vector<SectionRange> ByteLoopRanges(const std::vector<uint8_t>& before,
                                         const std::vector<uint8_t>& after) {
  std::vector<SectionRange> ranges;
  const size_t n = after.size();
  size_t i = 0;
  while (i < n) {
    if (before[i] == after[i]) {
      ++i;
      continue;
    }
    const size_t start = i;
    size_t last_diff = i;
    while (i < n && i - last_diff <= 32) {
      if (before[i] != after[i]) last_diff = i;
      ++i;
    }
    SectionRange range;
    range.offset = start;
    range.bytes.assign(after.begin() + static_cast<std::ptrdiff_t>(start),
                       after.begin() + static_cast<std::ptrdiff_t>(last_diff) +
                           1);
    ranges.push_back(std::move(range));
  }
  return ranges;
}

TEST(SnapshotDeltaTest, RangesEqualTheByteLoop) {
  // Sections of every length up to a few chunks, edited in clusters whose
  // gaps straddle the coalescing threshold and the word and chunk sizes.
  constexpr size_t kGaps[] = {1, 2, 7, 8, 9, 31, 32, 33, 34, 63, 64, 65, 130};
  Rng rng(kTestSeed);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 300));
    std::vector<uint8_t> before(n);
    for (uint8_t& b : before) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    std::vector<uint8_t> after = before;
    size_t pos = static_cast<size_t>(rng.UniformInt(0, 70));
    for (int e = static_cast<int>(rng.UniformInt(0, 10)); e > 0 && pos < n;
         --e) {
      after[pos] ^= static_cast<uint8_t>(rng.UniformInt(1, 255));
      pos += kGaps[static_cast<size_t>(
          rng.UniformInt(0, std::size(kGaps) - 1))];
    }
    if (n > 0 && rng.Bernoulli(0.2)) after[n - 1] ^= 0x5a;

    ASSERT_OK_AND_ASSIGN(
        std::vector<SectionPatch> patches,
        ComputeSectionDelta(std::vector{MakeSection("s", before)},
                            std::vector{MakeSection("s", after)}));
    const std::vector<SectionRange> want = ByteLoopRanges(before, after);
    if (want.empty()) {
      EXPECT_TRUE(patches.empty()) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(patches.size(), 1u) << "trial " << trial;
    EXPECT_EQ(patches[0].section_bytes, n);
    EXPECT_EQ(patches[0].post_crc32c, Crc32c(after.data(), n));
    ASSERT_EQ(patches[0].ranges.size(), want.size()) << "trial " << trial;
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(patches[0].ranges[r].offset, want[r].offset)
          << "trial " << trial << " range " << r;
      EXPECT_EQ(patches[0].ranges[r].bytes, want[r].bytes)
          << "trial " << trial << " range " << r;
    }
  }
}

TEST(SnapshotDeltaTest, IdenticalImagesProduceAnEmptyDelta) {
  std::vector<ReleasedSection> image = {
      MakeSection("a", {1, 2, 3, 4}),
      MakeSection("b", std::vector<uint8_t>(256, 7))};
  ASSERT_OK_AND_ASSIGN(std::vector<SectionPatch> patches,
                       ComputeSectionDelta(image, image));
  EXPECT_TRUE(patches.empty());
  EXPECT_EQ(SectionDeltaBytes(patches), 0u);
}

TEST(SnapshotDeltaTest, DiffApplyRoundTripsSparseEdits) {
  Rng rng(kTestSeed);
  std::vector<uint8_t> base(4096);
  for (uint8_t& b : base) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  std::vector<ReleasedSection> before = {MakeSection("blocks", base)};
  // Sparse dirty ranges far enough apart not to coalesce.
  std::vector<uint8_t> edited = base;
  edited[10] ^= 0xff;
  edited[1000] ^= 0x01;
  edited[1001] ^= 0x80;
  edited[4095] ^= 0x42;
  std::vector<ReleasedSection> after = {MakeSection("blocks", edited)};

  ASSERT_OK_AND_ASSIGN(std::vector<SectionPatch> patches,
                       ComputeSectionDelta(before, after));
  ASSERT_EQ(patches.size(), 1u);
  EXPECT_EQ(patches[0].label, "blocks");
  EXPECT_EQ(patches[0].ranges.size(), 3u);
  // The delta moves far fewer payload bytes than the image.
  EXPECT_LT(SectionDeltaBytes(patches), base.size() / 4);

  std::vector<ReleasedSection> image = before;
  ASSERT_OK(ApplySectionDelta(image, patches));
  EXPECT_EQ(image[0].bytes, edited);
}

TEST(SnapshotDeltaTest, NearbyEditsCoalesceIntoOneRange) {
  std::vector<uint8_t> base(512, 0);
  std::vector<uint8_t> edited = base;
  edited[100] = 1;
  edited[110] = 2;  // 9 clean bytes apart: under the 32-byte gap, coalesce
  std::vector<ReleasedSection> before = {MakeSection("s", base)};
  std::vector<ReleasedSection> after = {MakeSection("s", edited)};
  ASSERT_OK_AND_ASSIGN(std::vector<SectionPatch> patches,
                       ComputeSectionDelta(before, after));
  ASSERT_EQ(patches.size(), 1u);
  EXPECT_EQ(patches[0].ranges.size(), 1u);
  std::vector<ReleasedSection> image = before;
  ASSERT_OK(ApplySectionDelta(image, patches));
  EXPECT_EQ(image[0].bytes, edited);
}

TEST(SnapshotDeltaTest, ShapeChangesAreFailedPrecondition) {
  std::vector<ReleasedSection> before = {MakeSection("a", {1, 2, 3})};
  // Different section size.
  std::vector<ReleasedSection> resized = {MakeSection("a", {1, 2, 3, 4})};
  Result<std::vector<SectionPatch>> r1 =
      ComputeSectionDelta(before, resized);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kFailedPrecondition);
  // Different label.
  std::vector<ReleasedSection> relabeled = {MakeSection("b", {1, 2, 3})};
  EXPECT_EQ(ComputeSectionDelta(before, relabeled).status().code(),
            StatusCode::kFailedPrecondition);
  // Different section count.
  std::vector<ReleasedSection> extended = {MakeSection("a", {1, 2, 3}),
                                           MakeSection("extra", {9})};
  EXPECT_EQ(ComputeSectionDelta(before, extended).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SnapshotDeltaTest, ApplyRejectsUnknownLabelAndOutOfBoundsRanges) {
  std::vector<ReleasedSection> image = {
      MakeSection("a", std::vector<uint8_t>(16, 0))};

  SectionPatch unknown;
  unknown.label = "nope";
  unknown.section_bytes = 16;
  EXPECT_FALSE(
      ApplySectionDelta(image, std::vector<SectionPatch>{unknown}).ok());

  SectionPatch oversized;
  oversized.label = "a";
  oversized.section_bytes = 16;
  oversized.ranges.push_back(SectionRange{12, {1, 2, 3, 4, 5, 6}});
  EXPECT_FALSE(
      ApplySectionDelta(image, std::vector<SectionPatch>{oversized}).ok());

  SectionPatch offset_overflow;
  offset_overflow.label = "a";
  offset_overflow.section_bytes = 16;
  offset_overflow.ranges.push_back(
      SectionRange{~uint64_t{0} - 1, {1, 2}});
  EXPECT_FALSE(
      ApplySectionDelta(image, std::vector<SectionPatch>{offset_overflow})
          .ok());

  // None of the rejected patches touched the image.
  EXPECT_EQ(image[0].bytes, std::vector<uint8_t>(16, 0));
}

TEST(SnapshotDeltaTest, ApplyVerifiesThePostImageCrc) {
  std::vector<uint8_t> base(64, 0), edited(64, 0);
  edited[5] = 1;
  std::vector<ReleasedSection> before = {MakeSection("a", base)};
  std::vector<ReleasedSection> after = {MakeSection("a", edited)};
  ASSERT_OK_AND_ASSIGN(std::vector<SectionPatch> patches,
                       ComputeSectionDelta(before, after));
  ASSERT_EQ(patches.size(), 1u);
  // A patch whose payload was corrupted in flight still applies its
  // ranges, but the post-image CRC catches it: the apply must fail and
  // signal resync.
  patches[0].ranges[0].bytes[0] ^= 0xff;
  std::vector<ReleasedSection> image = before;
  Status applied = ApplySectionDelta(image, patches);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotDeltaTest, EmptySectionsDiffCleanly) {
  std::vector<ReleasedSection> empty = {MakeSection("a", {})};
  ASSERT_OK_AND_ASSIGN(std::vector<SectionPatch> patches,
                       ComputeSectionDelta(empty, empty));
  EXPECT_TRUE(patches.empty());
}

}  // namespace
}  // namespace store
}  // namespace dpsp
