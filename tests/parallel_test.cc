// Tests for ParallelFor: every index covered exactly once at any size and
// thread count, the fan-out rule (a default call fans out only when no
// other call is executing), error aggregation in ParallelForStatus on the
// inline and the fanned-out path, and a caller that runs every chunk when
// no worker thread can start.

#include "common/parallel.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <latch>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "test_util.h"

namespace dpsp {
namespace {

/// Runs ParallelFor over [0, n) and returns how often each index was
/// visited; fails the test on an empty or out-of-range chunk.
std::vector<int> CountVisits(size_t n, int max_threads,
                             size_t min_items_per_worker) {
  std::vector<std::atomic<int>> visits(n);
  std::atomic<bool> bad_chunk{false};
  ParallelFor(
      n, max_threads,
      [&](size_t begin, size_t end) {
        if (begin >= end || end > n) bad_chunk.store(true);
        for (size_t i = begin; i < end && i < n; ++i) visits[i].fetch_add(1);
      },
      min_items_per_worker);
  EXPECT_FALSE(bad_chunk.load());
  std::vector<int> counts;
  counts.reserve(n);
  for (const std::atomic<int>& v : visits) counts.push_back(v.load());
  return counts;
}

/// The threads one ParallelFor call ran its chunks on, and the chunks in
/// the order they started.
struct CallRecord {
  std::set<std::thread::id> threads;
  std::vector<std::pair<size_t, size_t>> chunks;
};

CallRecord RecordCall(size_t n, int max_threads) {
  CallRecord record;
  std::mutex mutex;
  ParallelFor(
      n, max_threads,
      [&](size_t begin, size_t end) {
        std::lock_guard<std::mutex> lock(mutex);
        record.threads.insert(std::this_thread::get_id());
        record.chunks.emplace_back(begin, end);
      },
      /*min_items_per_worker=*/1);
  return record;
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t n : {1, 2, 7, 4096, 65537}) {
    for (int max_threads : {0, 1, 3, 8}) {
      for (size_t min_items : {size_t{1}, size_t{2048}}) {
        std::vector<int> counts = CountVisits(n, max_threads, min_items);
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(counts[i], 1)
              << "n " << n << ", max_threads " << max_threads
              << ", min_items " << min_items << ", index " << i;
        }
      }
    }
  }
}

TEST(ParallelForTest, DefaultCallFansOutOnlyWhenNothingElseIsExecuting) {
  constexpr size_t kItems = 64;  // enough for one worker per core
  // Call A holds its only chunk until released, so it stays in progress.
  std::latch a_inside(1);
  std::latch release_a(1);
  std::thread a([&] {
    ParallelFor(1, /*max_threads=*/0, [&](size_t, size_t) {
      a_inside.count_down();
      release_a.wait();
    });
  });
  a_inside.wait();

  // B would fan out in an idle process; with A executing it runs every
  // chunk of the same plan, in order, on its calling thread.
  CallRecord b = RecordCall(kItems, /*max_threads=*/0);
  EXPECT_EQ(b.threads, std::set<std::thread::id>{std::this_thread::get_id()});
  const size_t workers =
      static_cast<size_t>(ParallelWorkerCount(kItems, 0, 1));
  const size_t chunk = (kItems + workers - 1) / workers;
  std::vector<std::pair<size_t, size_t>> planned;
  for (size_t begin = 0; begin < kItems; begin += chunk) {
    planned.emplace_back(begin, std::min(kItems, begin + chunk));
  }
  EXPECT_EQ(b.chunks, planned);

  // An explicit thread count ignores the rule.
  CallRecord c = RecordCall(kItems, /*max_threads=*/4);
  EXPECT_GE(c.threads.size(), 2u);

  release_a.count_down();
  a.join();

  // Alone again, a default call spreads over the cores.
  if (std::thread::hardware_concurrency() >= 2) {
    CallRecord lone = RecordCall(kItems, /*max_threads=*/0);
    EXPECT_GE(lone.threads.size(), 2u);
  }
}

TEST(ParallelForTest, StatusReturnsAFailingChunksErrorInlineAndFannedOut) {
  constexpr size_t kItems = 1000;
  constexpr size_t kBadIndex = 700;  // not in the first chunk
  for (int max_threads : {1, 4}) {
    std::atomic<size_t> visited{0};
    Status status = ParallelForStatus(
        kItems, max_threads,
        [&](size_t begin, size_t end) {
          visited.fetch_add(end - begin);
          if (begin <= kBadIndex && kBadIndex < end) {
            return Status::Internal("chunk holding the bad index");
          }
          return Status::Ok();
        },
        /*min_items_per_worker=*/1);
    EXPECT_EQ(status.code(), StatusCode::kInternal)
        << "max_threads " << max_threads;
    EXPECT_EQ(status.message(), "chunk holding the bad index");
    // The other chunks still ran to completion.
    EXPECT_EQ(visited.load(), kItems) << "max_threads " << max_threads;
  }
}

/// Forked-child body: ParallelFor with 4 threads while none can start.
/// 0 if every index was covered exactly once. noexcept, so that an escaping
/// exception ends the child rather than reaching gtest's handler in it.
int CoverEveryIndexWithoutThreads() noexcept {
  rlimit saved{};
  if (!DropRootForThreadLimit() || !LowerThreadLimit(&saved)) {
    return kThreadLimitUnavailable;
  }
  constexpr size_t kItems = 1000;
  std::vector<int> visits(kItems, 0);
  ParallelFor(
      kItems, /*max_threads=*/4,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) ++visits[i];
      },
      /*min_items_per_worker=*/1);
  setrlimit(RLIMIT_NPROC, &saved);
  for (int v : visits) {
    if (v != 1) return 1;
  }
  return 0;
}

TEST(ParallelForTest, CallerRunsEveryChunkWhenNoThreadCanStart) {
  // Regression: a failed thread start threw out of ParallelFor, which
  // with any worker already started calls std::terminate.
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  // Child: no gtest machinery may run in here.
  if (pid == 0) _exit(CoverEveryIndexWithoutThreads());
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_FALSE(WIFSIGNALED(wstatus)) << "signal " << WTERMSIG(wstatus);
  ASSERT_TRUE(WIFEXITED(wstatus));
  if (WEXITSTATUS(wstatus) == kThreadLimitUnavailable) {
    GTEST_SKIP() << "RLIMIT_NPROC does not bind in this environment";
  }
  EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "an index was not covered once";
}

}  // namespace
}  // namespace dpsp
