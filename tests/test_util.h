// Shared helpers for the test suite.

#ifndef DPSP_TESTS_TEST_UTIL_H_
#define DPSP_TESTS_TEST_UTIL_H_

#include <sys/resource.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/distance_oracle.h"
#include "dp/release_context.h"

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

/// Counts the ledger's write-ahead records: install one on a context to
/// see whether a release logged its intent.
class CountingHook : public ReleaseContext::DurabilityHook {
 public:
  Result<uint64_t> LogIntent(const std::string&, const PrivacyLoss&) override {
    return ++intents;
  }
  Status LogCommit(uint64_t) override { return Status::Ok(); }
  uint64_t intents = 0;
};

/// Views over saved sections, as the snapshot reader hands them to
/// restore.
inline std::vector<ReleasedSectionView> Views(
    const std::vector<ReleasedSection>& sections) {
  std::vector<ReleasedSectionView> views;
  for (const ReleasedSection& s : sections) views.push_back({s.label, s.bytes});
  return views;
}

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

/// Exit code of a forked child whose environment cannot refuse it threads
/// (the parent skips the test).
inline constexpr int kThreadLimitUnavailable = 77;

/// For a forked child only. Root is exempt from RLIMIT_NPROC, so a child
/// running as root becomes the nobody user first. False if it cannot.
inline bool DropRootForThreadLimit() {
  return geteuid() != 0 || setuid(65534) == 0;
}

/// For a forked child only: lowers the soft RLIMIT_NPROC to 1, so that
/// starting a thread fails with EAGAIN, and checks that it does. `saved`
/// receives the limits to restore before _exit, so that no exit-time work
/// runs under the lowered limit. False (with the limit restored) if
/// threads still start.
inline bool LowerThreadLimit(rlimit* saved) {
  if (getrlimit(RLIMIT_NPROC, saved) != 0) return false;
  rlimit lowered = *saved;
  lowered.rlim_cur = 1;
  if (setrlimit(RLIMIT_NPROC, &lowered) != 0) return false;
  try {
    std::thread([] {}).join();
  } catch (const std::system_error&) {
    return true;
  }
  setrlimit(RLIMIT_NPROC, saved);
  return false;
}

}  // namespace dpsp

#endif  // DPSP_TESTS_TEST_UTIL_H_
