// Minimal data-parallel loop used by the batched oracle query paths.
//
// The released objects behind every DistanceOracle are immutable after
// construction, so answering a batch of queries is embarrassingly parallel.
// ParallelFor splits an index range into contiguous chunks, one per worker
// thread; small batches run inline to avoid paying thread start-up on the
// latency path.
//
// Fan-out rule: a call with the default thread count (max_threads = 0)
// fans out only when no other ParallelFor call is executing anywhere in
// the process. Otherwise it runs all its chunks, in order, on its calling
// thread: the calls already in progress hold the cores, and more threads
// would only oversubscribe them (the process-control rule of Tucker &
// Gupta, SOSP 1989). Each call decides once, on entry. The chunk plan is
// the same either way, so results do not depend on the path taken.
// Trade-off: a long build loop (AllPairsDijkstra, the bounded-weight
// Z-centre pass) that starts while a query batch is executing runs
// serially for its whole length.

#ifndef DPSP_COMMON_PARALLEL_H_
#define DPSP_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "common/status.h"

namespace dpsp {

/// Workers ParallelFor would use for `n` items in an otherwise idle
/// process: capped so each worker gets at least `min_items_per_worker`
/// items, and by `max_threads` when positive (which overrides the
/// hardware-concurrency default). Always >= 1. A pure planning function:
/// it does not look at the calls in progress.
int ParallelWorkerCount(size_t n, int max_threads = 0,
                        size_t min_items_per_worker = 2048);

/// Runs fn(begin, end) over a partition of [0, n) using up to `max_threads`
/// workers (0 = hardware concurrency; a positive value overrides it). With
/// one worker, runs inline on the calling thread. With `max_threads` = 0
/// and another call executing, runs every chunk inline too (see the
/// fan-out rule above); an explicit `max_threads` always fans out. If a
/// worker thread cannot be started, the calling thread runs the chunks
/// that were not handed out. `fn` must be safe to call concurrently on
/// disjoint ranges. `min_items_per_worker` tunes the fan-out threshold:
/// batched pair queries keep the default so tiny batches stay on the
/// latency path, while coarse units (one Dijkstra source, one shard)
/// pass 1.
void ParallelFor(size_t n, int max_threads,
                 const std::function<void(size_t begin, size_t end)>& fn,
                 size_t min_items_per_worker = 2048);

/// ParallelFor for fallible chunks: runs fn(begin, end) over a partition
/// of [0, n) and returns the first error any chunk reported (other chunks
/// still run to completion). The single home of the cross-thread error
/// aggregation both the batched oracle paths and the sharded executor
/// fan-outs use.
Status ParallelForStatus(
    size_t n, int max_threads,
    const std::function<Status(size_t begin, size_t end)>& fn,
    size_t min_items_per_worker = 2048);

}  // namespace dpsp

#endif  // DPSP_COMMON_PARALLEL_H_
