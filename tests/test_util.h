// Shared helpers for the test suite.

#ifndef DPSP_TESTS_TEST_UTIL_H_
#define DPSP_TESTS_TEST_UTIL_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/distance_oracle.h"

// Asserts that a Status (or the .status() of a Result) is OK.
#define ASSERT_OK(expr)                                 \
  do {                                                  \
    const ::dpsp::Status dpsp_test_status_ = (expr);    \
    ASSERT_TRUE(dpsp_test_status_.ok())                 \
        << dpsp_test_status_.ToString();                \
  } while (0)

#define EXPECT_OK(expr)                                 \
  do {                                                  \
    const ::dpsp::Status dpsp_test_status_ = (expr);    \
    EXPECT_TRUE(dpsp_test_status_.ok())                 \
        << dpsp_test_status_.ToString();                \
  } while (0)

// Unwraps a Result<T> into `lhs`, failing the test on error.
#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                             \
  ASSERT_OK_AND_ASSIGN_IMPL(DPSP_CONCAT(dpsp_test_result_, __LINE__), \
                            lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(result, lhs, rexpr)         \
  auto result = (rexpr);                                      \
  ASSERT_TRUE(result.ok()) << result.status().ToString();     \
  lhs = std::move(result).value()

namespace dpsp {

/// Fixed seed used across the suite; tests that need multiple independent
/// streams derive child seeds from it.
inline constexpr uint64_t kTestSeed = 0x5ea1f00d2016ULL;

/// Checks a batch kernel's lookahead boundaries: DistanceInto over the
/// first k of `pairs`, for batches shorter than, equal to and longer than
/// an 8-pair lookahead, answers bit for bit what per-pair Distance() does.
/// `pairs` needs at least 17 entries.
inline void ExpectBatchesMatchPerPairDistance(
    const DistanceOracle& oracle, std::span<const VertexPair> pairs) {
  ASSERT_GE(pairs.size(), 17u);
  for (size_t k : {0, 1, 7, 8, 9, 17}) {
    std::vector<double> out(k);
    ASSERT_OK(oracle.DistanceInto(pairs.first(k), out.data()));
    for (size_t i = 0; i < k; ++i) {
      Result<double> single =
          oracle.Distance(pairs[i].first, pairs[i].second);
      ASSERT_OK(single.status());
      EXPECT_EQ(std::bit_cast<uint64_t>(out[i]),
                std::bit_cast<uint64_t>(single.value()))
          << "batch of " << k << ", pair " << i;
    }
  }
}

/// An out-of-range vertex (`bad`, as either endpoint) at the first, a
/// middle or the last position of a 20-pair batch of `pairs` makes
/// DistanceInto return InvalidArgument.
inline void ExpectOutOfRangeRejectedAnywhere(
    const DistanceOracle& oracle, std::span<const VertexPair> pairs,
    VertexId bad) {
  ASSERT_GE(pairs.size(), 20u);
  for (size_t at : {0, 10, 19}) {
    for (bool first : {true, false}) {
      std::vector<VertexPair> batch(pairs.begin(), pairs.begin() + 20);
      (first ? batch[at].first : batch[at].second) = bad;
      std::vector<double> out(batch.size());
      Status status = oracle.DistanceInto(batch, out.data());
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << "bad vertex " << bad << " at " << at << ": "
          << status.ToString();
    }
  }
}

}  // namespace dpsp

#endif  // DPSP_TESTS_TEST_UTIL_H_
