#include "core/range_sums.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "test_util.h"

namespace dpsp {
namespace {

TEST(LevelsForSizeTest, Values) {
  EXPECT_EQ(NoisyDyadicRangeSums::LevelsForSize(0), 0);
  EXPECT_EQ(NoisyDyadicRangeSums::LevelsForSize(1), 1);
  EXPECT_EQ(NoisyDyadicRangeSums::LevelsForSize(2), 2);
  EXPECT_EQ(NoisyDyadicRangeSums::LevelsForSize(3), 3);
  EXPECT_EQ(NoisyDyadicRangeSums::LevelsForSize(4), 3);
  EXPECT_EQ(NoisyDyadicRangeSums::LevelsForSize(1024), 11);
}

TEST(RangeSumsTest, EmptyVector) {
  Rng rng(kTestSeed);
  NoisyDyadicRangeSums sums({}, 1.0, &rng);
  EXPECT_EQ(sums.num_levels(), 0);
  EXPECT_EQ(sums.num_blocks(), 0);
  ASSERT_OK_AND_ASSIGN(double s, sums.RangeSum(0, 0));
  EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(RangeSumsTest, TinyNoiseRecoversExactSums) {
  Rng rng(kTestSeed);
  std::vector<double> values{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  NoisyDyadicRangeSums sums(values, 1e-9, &rng);
  for (int lo = 0; lo <= 7; ++lo) {
    for (int hi = lo; hi <= 7; ++hi) {
      double exact = 0.0;
      for (int i = lo; i < hi; ++i) exact += values[static_cast<size_t>(i)];
      ASSERT_OK_AND_ASSIGN(double s, sums.RangeSum(lo, hi));
      EXPECT_NEAR(s, exact, 1e-6) << lo << " " << hi;
    }
  }
}

TEST(RangeSumsTest, SegmentCountBounded) {
  Rng rng(kTestSeed);
  std::vector<double> values(1000, 1.0);
  NoisyDyadicRangeSums sums(values, 1.0, &rng);
  for (int trial = 0; trial < 200; ++trial) {
    int lo = static_cast<int>(rng.UniformInt(0, 1000));
    int hi = static_cast<int>(rng.UniformInt(lo, 1000));
    int segments = 0;
    ASSERT_OK(sums.RangeSum(lo, hi, &segments).status());
    EXPECT_LE(segments, 2 * sums.num_levels());
  }
}

TEST(RangeSumsTest, OutOfBoundsRejected) {
  Rng rng(kTestSeed);
  NoisyDyadicRangeSums sums({1.0, 2.0}, 1.0, &rng);
  EXPECT_FALSE(sums.RangeSum(-1, 1).ok());
  EXPECT_FALSE(sums.RangeSum(0, 3).ok());
  EXPECT_FALSE(sums.RangeSum(2, 1).ok());
}

TEST(RangeSumsTest, NoiseIsPerBlockNotPerQuery) {
  // Querying the same range twice returns the identical noisy value —
  // the release is a fixed object, queries are post-processing.
  Rng rng(kTestSeed);
  std::vector<double> values(64, 1.0);
  NoisyDyadicRangeSums sums(values, 5.0, &rng);
  ASSERT_OK_AND_ASSIGN(double a, sums.RangeSum(3, 37));
  ASSERT_OK_AND_ASSIGN(double b, sums.RangeSum(3, 37));
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(RangeSumsTest, BlockCountIsLinear) {
  Rng rng(kTestSeed);
  std::vector<double> values(100, 1.0);
  NoisyDyadicRangeSums sums(values, 1.0, &rng);
  // sum over levels of ceil(100/2^l) < 2 * 100 + levels.
  EXPECT_LT(sums.num_blocks(), 2 * 100 + sums.num_levels());
}

TEST(RangeSumsTest, ReleaseIsEachBlockSumPlusOneLaplaceCallInOrder) {
  // The release draws its noise in one bulk fill; each block must still be
  // its sum plus the draw one Laplace call per block, in (level, block)
  // order, would give, with the stream left where those calls leave it.
  // A structure over kLaplaceFillGrain values has 2 * kLaplaceFillGrain - 1
  // blocks, one short of the count from which the fill's transform runs on
  // more than one worker, and one more value passes it.
  const int grain = static_cast<int>(Rng::kLaplaceFillGrain);
  for (int size : {1, 1000, grain, grain + 1}) {
    Rng value_rng(kTestSeed);
    std::vector<double> values(static_cast<size_t>(size));
    for (double& v : values) v = value_rng.Uniform(0.0, 10.0);
    Rng rng(kTestSeed + 1);
    NoisyDyadicRangeSums sums(values, 3.0, &rng);

    Rng reference(kTestSeed + 1);
    std::vector<double> prefix(values.size() + 1, 0.0);
    for (size_t i = 0; i < values.size(); ++i) {
      prefix[i + 1] = prefix[i] + values[i];
    }
    size_t slot = 0;
    for (int l = 0; l < sums.num_levels(); ++l) {
      const int width = 1 << l;
      for (int lo = 0; lo < size; lo += width) {
        const int hi = std::min(size, lo + width);
        const double want = prefix[static_cast<size_t>(hi)] -
                            prefix[static_cast<size_t>(lo)] +
                            reference.Laplace(3.0);
        ASSERT_LT(slot, sums.blocks().size());
        ASSERT_EQ(std::bit_cast<uint64_t>(sums.blocks()[slot]),
                  std::bit_cast<uint64_t>(want))
            << "size " << size << " slot " << slot;
        ++slot;
      }
    }
    EXPECT_EQ(slot, sums.blocks().size()) << "size " << size;
    EXPECT_EQ(rng.NextSeed(), reference.NextSeed()) << "size " << size;
  }
}

// The greedy aligned decomposition the closed-form walk replaced, kept as
// its reference: from lo, take the largest block that starts at lo (2^level
// divides lo), fits in [lo, hi) and exists, read straight from blocks().
class GreedyReference {
 public:
  explicit GreedyReference(const NoisyDyadicRangeSums& sums) : sums_(sums) {
    // Level-major layout: level l holds ceil(size / 2^l) blocks.
    offset_.push_back(0);
    for (int l = 0; l < sums.num_levels(); ++l) {
      const size_t width = size_t{1} << l;
      offset_.push_back(offset_.back() +
                        (static_cast<size_t>(sums.size()) + width - 1) / width);
    }
    EXPECT_EQ(offset_.back(), sums.blocks().size());
  }

  double RangeSum(int lo, int hi, int* segments) const {
    std::span<const double> blocks = sums_.blocks();
    double sum = 0.0;
    const int top = sums_.num_levels() - 1;
    while (lo < hi) {
      const int fit =
          static_cast<int>(std::bit_width(static_cast<unsigned>(hi - lo))) - 1;
      const int level =
          std::min({top, fit, std::countr_zero(static_cast<unsigned>(lo))});
      sum += blocks[offset_[static_cast<size_t>(level)] +
                    static_cast<size_t>(lo >> level)];
      ++(*segments);
      lo += 1 << level;
    }
    return sum;
  }

 private:
  const NoisyDyadicRangeSums& sums_;
  std::vector<size_t> offset_;
};

// Both query paths equal the greedy reference bit for bit, and RangeSum
// counts the same blocks.
void ExpectMatchesGreedy(const NoisyDyadicRangeSums& sums,
                         const GreedyReference& greedy, int lo, int hi) {
  int expected_segments = 0;
  const uint64_t expected =
      std::bit_cast<uint64_t>(greedy.RangeSum(lo, hi, &expected_segments));
  int segments = 0;
  ASSERT_OK_AND_ASSIGN(double checked, sums.RangeSum(lo, hi, &segments));
  ASSERT_EQ(std::bit_cast<uint64_t>(checked), expected)
      << "size " << sums.size() << " [" << lo << ", " << hi << ")";
  ASSERT_EQ(segments, expected_segments)
      << "size " << sums.size() << " [" << lo << ", " << hi << ")";
  ASSERT_EQ(std::bit_cast<uint64_t>(sums.RangeSumUnchecked(lo, hi)), expected)
      << "size " << sums.size() << " [" << lo << ", " << hi << ")";
}

std::vector<double> RandomValues(int size, Rng* rng) {
  std::vector<double> values(static_cast<size_t>(size));
  for (double& v : values) v = rng->Uniform(0.0, 10.0);
  return values;
}

TEST(RangeSumsWalkTest, EveryRangeOfSmallSizesMatchesGreedy) {
  Rng rng(kTestSeed);
  for (int size = 1; size <= 130; ++size) {
    NoisyDyadicRangeSums sums(RandomValues(size, &rng), 3.0, &rng);
    GreedyReference greedy(sums);
    for (int lo = 0; lo <= size; ++lo) {
      for (int hi = lo; hi <= size; ++hi) {
        ExpectMatchesGreedy(sums, greedy, lo, hi);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(RangeSumsWalkTest, RandomRangesAroundAPowerOfTwoMatchGreedy) {
  Rng rng(kTestSeed);
  for (int size : {(1 << 19) - 1, 1 << 19, (1 << 19) + 1}) {
    NoisyDyadicRangeSums sums(RandomValues(size, &rng), 3.0, &rng);
    GreedyReference greedy(sums);
    for (int trial = 0; trial < 100000; ++trial) {
      int lo = static_cast<int>(rng.UniformInt(0, size));
      int hi = static_cast<int>(rng.UniformInt(0, size));
      ExpectMatchesGreedy(sums, greedy, std::min(lo, hi), std::max(lo, hi));
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace dpsp
