#include "serve/batch_executor.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/table.h"

namespace dpsp {

int BatchExecutor::PlannedShardCount(size_t num_pairs) const {
  if (num_pairs == 0) return 1;
  size_t by_size = std::max<size_t>(
      1, num_pairs / std::max<size_t>(1, options_.min_shard_pairs));
  if (options_.num_shards > 0) {
    return static_cast<int>(
        std::min(by_size, static_cast<size_t>(options_.num_shards)));
  }
  return ParallelWorkerCount(num_pairs, options_.max_threads,
                             std::max<size_t>(1, options_.min_shard_pairs));
}

Result<std::vector<double>> BatchExecutor::Execute(
    const DistanceOracle& oracle, std::span<const VertexPair> pairs) const {
  std::vector<double> out(pairs.size(), 0.0);
  DPSP_RETURN_IF_ERROR(ExecuteInto(oracle, pairs, out));
  return out;
}

Status BatchExecutor::ExecuteInto(const DistanceOracle& oracle,
                                  std::span<const VertexPair> pairs,
                                  std::span<double> out) const {
  if (out.size() != pairs.size()) {
    return Status::InvalidArgument(
        StrFormat("output span holds %zu answers for %zu pairs", out.size(),
                  pairs.size()));
  }
  // Empty and single-pair batches bypass shard planning entirely: no
  // worker spawn — the empty result is well-defined and one pair runs the
  // serial kernel inline on the calling thread.
  if (pairs.empty()) return Status::Ok();
  if (pairs.size() == 1) return oracle.DistanceInto(pairs, out.data());
  // Shard s owns one contiguous chunk of the input span, so each kernel
  // writes its own slice of `out` and there is nothing to merge.
  const size_t num_shards =
      static_cast<size_t>(PlannedShardCount(pairs.size()));
  const size_t chunk = (pairs.size() + num_shards - 1) / num_shards;
  return ParallelForStatus(
      num_shards, options_.max_threads,
      [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          size_t lo = s * chunk;
          size_t hi = std::min(pairs.size(), lo + chunk);
          if (lo >= hi) continue;
          DPSP_RETURN_IF_ERROR(oracle.DistanceInto(
              pairs.subspan(lo, hi - lo), out.data() + lo));
        }
        return Status::Ok();
      },
      /*min_items_per_worker=*/1);
}

Result<BatchExecutor::UpdateReport> BatchExecutor::ApplyUpdates(
    DistanceOracle& oracle, const Graph&,
    std::span<const EdgeWeightDelta> deltas, ReleaseContext& ctx) const {
  UpdatableDistanceOracle* updatable = oracle.AsUpdatable();
  if (updatable == nullptr) {
    return Status::FailedPrecondition(
        "oracle '" + oracle.Name() +
        "' is build-once: it does not support incremental weight updates");
  }
  // One input-ordered application: the epoch draws from ctx's single
  // noise stream, so serialized application here is what keeps sharded
  // and serial query execution bit-identical across epochs.
  DPSP_RETURN_IF_ERROR(updatable->ApplyWeightUpdates(deltas, ctx));
  const UpdatableDistanceOracle::UpdateStats& stats =
      updatable->last_update();
  UpdateReport report;
  report.dirty_blocks = stats.dirty_blocks;
  report.update_sensitivity = stats.sensitivity;
  report.charged_epsilon = stats.charged_epsilon;
  return report;
}

}  // namespace dpsp
