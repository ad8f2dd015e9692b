#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

namespace dpsp {

namespace {

// ParallelFor calls in progress anywhere in the process, inline ones
// included: each keeps at least its calling thread busy.
std::atomic<int> calls_in_progress{0};

}  // namespace

int ParallelWorkerCount(size_t n, int max_threads,
                        size_t min_items_per_worker) {
  if (n == 0) return 1;
  size_t by_size = std::max<size_t>(1, n / std::max<size_t>(
                                           1, min_items_per_worker));
  // An explicit max_threads overrides the hardware-concurrency default
  // (it may exceed it; tests use this to force real thread fan-out).
  size_t cap = max_threads > 0
                   ? static_cast<size_t>(max_threads)
                   : std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(by_size, cap));
}

void ParallelFor(size_t n, int max_threads,
                 const std::function<void(size_t, size_t)>& fn,
                 size_t min_items_per_worker) {
  if (n == 0) return;
  // Decided once, on entry: a default-sized call fans out only when no
  // other call is executing, since the others already hold the cores.
  const bool others_executing = calls_in_progress.fetch_add(1) > 0;
  struct Leave {
    ~Leave() { calls_in_progress.fetch_sub(1); }
  } leave;
  const size_t workers = static_cast<size_t>(
      ParallelWorkerCount(n, max_threads, min_items_per_worker));
  const size_t chunk = (n + workers - 1) / workers;
  const size_t to_spawn =
      max_threads == 0 && others_executing ? 0 : workers - 1;
  std::vector<std::thread> threads;
  threads.reserve(to_spawn);
  size_t begin = chunk;  // the calling thread takes [0, chunk)
  try {
    for (; threads.size() < to_spawn && begin < n; begin += chunk) {
      threads.emplace_back(fn, begin, std::min(n, begin + chunk));
    }
  } catch (const std::system_error&) {
    // No thread to be had: the chunks not handed out run here instead.
  }
  fn(0, std::min(n, chunk));
  for (; begin < n; begin += chunk) fn(begin, std::min(n, begin + chunk));
  for (std::thread& thread : threads) thread.join();
}

Status ParallelForStatus(size_t n, int max_threads,
                         const std::function<Status(size_t, size_t)>& fn,
                         size_t min_items_per_worker) {
  std::atomic<bool> failed{false};
  Status first_error;
  std::mutex error_mutex;
  ParallelFor(
      n, max_threads,
      [&](size_t begin, size_t end) {
        Status status = fn(begin, end);
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!failed.exchange(true)) first_error = std::move(status);
        }
      },
      min_items_per_worker);
  if (failed.load()) return first_error;
  return Status::Ok();
}

}  // namespace dpsp
