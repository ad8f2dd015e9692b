// Sharded batch execution over released distance oracles — the serving
// layer between a query stream and the DistanceOracle kernels.
//
// A released oracle answers queries by pure reads of an immutable
// structure, so a batch of pairs can be partitioned arbitrarily. The
// executor exploits that freedom for cache residency: it splits an
// incoming span into shards — contiguous chunks by default, or groups
// keyed by a per-vertex cell id (connected component for forests, covering
// cell for the bounded-weight oracle) — pins each shard to a worker via
// the common ParallelFor pool, runs the oracle's fused serial DistanceInto
// kernel shard-locally, and merges results back in input order. Keyed
// shards keep each worker's reads inside one region of the released
// structure (one component's estimate range, one covering row block)
// instead of striding the whole table.
//
// Every execution strategy runs the same serial kernel over the same
// pairs, so sharded, chunk-parallel, and serial results are bit-identical.
//
// Privacy composition: serving consumes no budget (queries are
// post-processing), but a sharded *build* pipeline constructs per-shard
// oracles through ReleaseContext::Fork children and composes their spend
// into the single parent ledger with ReleaseContext::AbsorbShard.
//
// Continual updates: ApplyUpdates propagates a weight-update epoch into a
// released updatable oracle WITHOUT re-sharding — the topology is public
// and static, so the installed per-vertex cells stay valid across epochs.
// The executor routes each delta to its covering cell (the same keys the
// query path shards by) to report which shard regions were dirtied, and
// applies the whole epoch through the oracle in one input-ordered call:
// the update draws from the single ledger's noise stream, so serialized
// application is exactly what keeps sharded and serial query execution
// bit-identical before and after every epoch.

#ifndef DPSP_SERVE_BATCH_EXECUTOR_H_
#define DPSP_SERVE_BATCH_EXECUTOR_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/distance_oracle.h"
#include "graph/covering.h"
#include "graph/graph.h"

namespace dpsp {

/// Tuning knobs for the executor.
struct BatchExecutorOptions {
  /// Target shard count; 0 derives one shard per available worker.
  int num_shards = 0;
  /// Worker threads the shards are pinned across (0 = hardware
  /// concurrency, 1 = serial execution of every shard).
  int max_threads = 0;
  /// Minimum pairs per shard: small batches collapse to fewer shards so
  /// the latency path never pays fan-out overhead for a handful of
  /// queries.
  size_t min_shard_pairs = 2048;
  /// NUMA-aware scheduling (common/numa.h): shard workers pin to the CPU
  /// set of node (shard % nodes), and PlaceReleasedBuffers interleaves an
  /// installed oracle's flat buffers across nodes so every worker streams
  /// at uniform distance. A cheap no-op on single-node machines, non-Linux
  /// builds, and under DPSP_NUMA=0; results are bit-identical regardless —
  /// placement moves pages, never work.
  bool numa_aware = true;
};

/// Partitions query batches into shards and runs them across workers.
class BatchExecutor {
 public:
  BatchExecutor() = default;
  explicit BatchExecutor(BatchExecutorOptions options) : options_(options) {}

  /// Installs per-vertex cell ids: queries whose *first* endpoint shares a
  /// cell are grouped into the same shard (cells are packed into shards
  /// largest-first to balance load). Vertices outside [0, cells.size())
  /// fall into a catch-all shard and fail inside the oracle kernel with
  /// the usual out-of-range error. An empty vector restores contiguous
  /// chunking.
  void SetShardCells(std::vector<int> cells);

  /// Answers `pairs` through `oracle`, sharded per the options, results in
  /// input order. Bit-identical to DistanceBatchOf(oracle, pairs, 1).
  Result<std::vector<double>> Execute(const DistanceOracle& oracle,
                                      std::span<const VertexPair> pairs) const;

  /// Execute into a caller-owned span: answer i lands in out[i], so a
  /// caller that reuses its buffer (the query server, per connection)
  /// allocates nothing for the answers. `out` must hold exactly one slot
  /// per pair, else InvalidArgument and nothing is written. On a kernel
  /// error `out` holds unspecified values.
  Status ExecuteInto(const DistanceOracle& oracle,
                     std::span<const VertexPair> pairs,
                     std::span<double> out) const;

  /// What one propagated update epoch touched, for telemetry and the
  /// serving dashboards.
  struct UpdateReport {
    /// Distinct installed shard cells containing a dirty edge (0 when the
    /// executor shards contiguously — there is no cell map to consult).
    int dirty_cells = 0;
    /// Noisy values the oracle redrew for the epoch.
    int dirty_blocks = 0;
    /// The epoch's sensitivity multiplier (UpdateStats::sensitivity).
    int update_sensitivity = 0;
    /// Privacy loss the epoch charged to the ledger.
    double charged_epsilon = 0.0;
  };

  /// Propagates one weight-update epoch into a released oracle: routes
  /// each delta to its shard cell via the installed per-vertex keys (the
  /// edge's `graph` endpoints pick the cell; no re-shard happens — the
  /// public topology is unchanged), then applies the epoch through the
  /// oracle's update capability in input order under `ctx`'s ledger.
  /// Fails with FailedPrecondition for a build-once oracle and passes
  /// through the oracle's own budget/validation errors; on failure the
  /// released structure is untouched.
  Result<UpdateReport> ApplyUpdates(DistanceOracle& oracle,
                                    const Graph& graph,
                                    std::span<const EdgeWeightDelta> deltas,
                                    ReleaseContext& ctx) const;

  /// Places an installed oracle's released flat buffers for NUMA-balanced
  /// streaming: interleaves each buffer's pages across nodes (workers on
  /// every node then pay the same average distance). Call once after
  /// installing an oracle and again after an update epoch. Returns the
  /// number of buffers actually moved — 0 on single-node machines, when
  /// numa_aware is off, or for oracles that expose no buffers.
  int PlaceReleasedBuffers(const DistanceOracle& oracle) const;

  /// Shards Execute would use for a batch of `num_pairs` (for reports).
  int PlannedShardCount(size_t num_pairs) const;

  const BatchExecutorOptions& options() const { return options_; }

 private:
  BatchExecutorOptions options_;
  std::vector<int> cells_;  // vertex -> cell id; empty = contiguous
  int num_cells_ = 0;
};

/// Per-vertex connected-component ids of `graph`, for component sharding
/// of forest workloads.
std::vector<int> ComponentCells(const Graph& graph);

/// Per-vertex covering-cell ids (the Algorithm 2 center assignment), for
/// cell sharding of bounded-weight workloads.
std::vector<int> CoveringCells(const Covering& covering);

}  // namespace dpsp

#endif  // DPSP_SERVE_BATCH_EXECUTOR_H_
