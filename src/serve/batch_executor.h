// Sharded batch execution over released distance oracles — the serving
// layer between a query stream and the DistanceOracle kernels.
//
// A released oracle answers queries by pure reads of an immutable
// structure, so a batch of pairs can be split anywhere. The executor
// cuts an incoming span into contiguous chunks, one shard each, runs the
// oracle's fused serial DistanceInto kernel on every shard across the
// common ParallelFor workers, and lets each shard write its own slice of
// the output, so results land in input order with no merge step.
//
// Every shard runs the same serial kernel over its own pairs, so sharded
// and serial results are bit-identical.
//
// Under load the plan stays and only its placement changes: with the
// default max_threads, a batch that starts while another ParallelFor call
// is executing (another connection's batch, say) runs all its shards in
// order on the calling thread instead of spawning workers, per
// ParallelFor's fan-out rule. Its answers keep their bits either way.
//
// Privacy composition: serving consumes no budget (queries are
// post-processing). Every release is metered once, through the single
// ledger's ReleaseContext::MeteredBuild, before the executor sees it.
//
// Continual updates: ApplyUpdates propagates a weight-update epoch into a
// released updatable oracle in one input-ordered call: the update draws
// from the single ledger's noise stream, so serialized application is
// exactly what keeps sharded and serial query execution bit-identical
// before and after every epoch.

#ifndef DPSP_SERVE_BATCH_EXECUTOR_H_
#define DPSP_SERVE_BATCH_EXECUTOR_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/distance_oracle.h"
#include "graph/graph.h"

namespace dpsp {

/// Tuning knobs for the executor.
struct BatchExecutorOptions {
  /// Target shard count; 0 derives one shard per available worker.
  int num_shards = 0;
  /// Worker threads the shards run across (0 = hardware concurrency when
  /// nothing else is executing, else the calling thread alone; 1 = serial
  /// execution of every shard).
  int max_threads = 0;
  /// Minimum pairs per shard: small batches collapse to fewer shards so
  /// the latency path never pays fan-out overhead for a handful of
  /// queries.
  size_t min_shard_pairs = 2048;
};

/// Partitions query batches into shards and runs them across workers.
class BatchExecutor {
 public:
  BatchExecutor() = default;
  explicit BatchExecutor(BatchExecutorOptions options) : options_(options) {}

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
    /// Noisy values the oracle redrew for the epoch.
    int dirty_blocks = 0;
    /// The epoch's sensitivity multiplier (UpdateStats::sensitivity).
    int update_sensitivity = 0;
    /// Privacy loss the epoch charged to the ledger.
    double charged_epsilon = 0.0;
  };

  /// Propagates one weight-update epoch into a released oracle: applies
  /// it through the oracle's update capability in input order under
  /// `ctx`'s ledger. Fails with FailedPrecondition for a build-once
  /// oracle and passes through the oracle's own budget/validation errors;
  /// on failure the released structure is untouched.
  // The Graph is unused; it stays because perfbench/ still passes one.
  Result<UpdateReport> ApplyUpdates(DistanceOracle& oracle, const Graph&,
                                    std::span<const EdgeWeightDelta> deltas,
                                    ReleaseContext& ctx) const;

  /// Shards Execute would use for a batch of `num_pairs` (for reports):
  /// the plan, which an idle process runs one shard per worker and a
  /// loaded one runs inline.
  int PlannedShardCount(size_t num_pairs) const;

  const BatchExecutorOptions& options() const { return options_; }

 private:
  BatchExecutorOptions options_;
};

}  // namespace dpsp

#endif  // DPSP_SERVE_BATCH_EXECUTOR_H_
