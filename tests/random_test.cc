#include "common/random.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/statistics.h"
#include "test_util.h"

namespace dpsp {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Uniform(), b.Uniform());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformInOpenUnitInterval) {
  Rng rng(kTestSeed);
  for (int i = 0; i < 100000; ++i) {
    double u = rng.Uniform();
    EXPECT_GT(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(kTestSeed);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) {
    double u = rng.Uniform(-3.0, 7.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 7.0);
    stats.Add(u);
  }
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(kTestSeed);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    int64_t v = rng.UniformInt(0, 9);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 9);
    ++counts[static_cast<size_t>(v)];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(kTestSeed);
  int successes = 0;
  for (int i = 0; i < 100000; ++i) successes += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(successes / 100000.0, 0.3, 0.01);
}

TEST(RngTest, LaplaceMomentsMatchTheory) {
  // Lap(b): mean 0, variance 2 b^2.
  Rng rng(kTestSeed);
  double b = 2.5;
  OnlineStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Laplace(b));
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.variance(), 2.0 * b * b, 0.3);
}

TEST(RngTest, LaplaceTailMatchesDefinition31) {
  // Pr[|Y| > t b] = e^{-t} (Definition 3.1).
  Rng rng(kTestSeed);
  double b = 1.0;
  int exceed1 = 0, exceed2 = 0;
  int n = 200000;
  for (int i = 0; i < n; ++i) {
    double y = std::fabs(rng.Laplace(b));
    if (y > 1.0 * b) ++exceed1;
    if (y > 2.0 * b) ++exceed2;
  }
  EXPECT_NEAR(exceed1 / static_cast<double>(n), std::exp(-1.0), 0.01);
  EXPECT_NEAR(exceed2 / static_cast<double>(n), std::exp(-2.0), 0.01);
}

TEST(RngTest, LaplaceSymmetric) {
  Rng rng(kTestSeed);
  int positive = 0;
  int n = 100000;
  for (int i = 0; i < n; ++i) positive += rng.Laplace(1.0) > 0.0 ? 1 : 0;
  EXPECT_NEAR(positive / static_cast<double>(n), 0.5, 0.01);
}

TEST(RngTest, FillLaplaceEqualsSuccessiveLaplaceCalls) {
  // Bit for bit, and leaving the stream where the calls leave it: for no,
  // one and seven values, and on both sides of the size from which the
  // transform runs on more than one worker.
  const size_t floor = 2 * Rng::kLaplaceFillGrain;
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, floor - 1, floor,
                   4 * floor + 3}) {
    Rng bulk(kTestSeed + n);
    Rng single(kTestSeed + n);
    std::vector<double> filled(n);
    bulk.FillLaplace(2.5, filled);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(filled[i]),
                std::bit_cast<uint64_t>(single.Laplace(2.5)))
          << n << " values, value " << i;
    }
    EXPECT_EQ(bulk.NextSeed(), single.NextSeed()) << n << " values";
  }
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(kTestSeed);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
  EXPECT_GE(stats.min(), 0.0);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(kTestSeed);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Gaussian(3.0));
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(kTestSeed);
  std::vector<int> perm = rng.Permutation(50);
  std::vector<bool> seen(50, false);
  for (int v : perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 50);
    ASSERT_FALSE(seen[static_cast<size_t>(v)]);
    seen[static_cast<size_t>(v)] = true;
  }
}

TEST(RngTest, PermutationUniformFirstElement) {
  Rng rng(kTestSeed);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[static_cast<size_t>(rng.Permutation(5)[0])];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(RngTest, NextSeedProducesIndependentStreams) {
  Rng parent(kTestSeed);
  Rng child1(parent.NextSeed());
  Rng child2(parent.NextSeed());
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.Uniform() == child2.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, PermutationOfZeroAndOne) {
  Rng rng(kTestSeed);
  EXPECT_TRUE(rng.Permutation(0).empty());
  EXPECT_EQ(rng.Permutation(1), std::vector<int>{0});
}

}  // namespace
}  // namespace dpsp
