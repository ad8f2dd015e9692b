#include "serve/batch_executor.h"

#include <algorithm>
#include <utility>

#include "common/numa.h"
#include "common/parallel.h"
#include "common/table.h"
#include "graph/connectivity.h"

namespace dpsp {

namespace {

// Pins the calling shard worker to the CPUs of node (shard % nodes).
// No-op (and no syscall) on single-node machines or when the option is
// off. ParallelFor spawns fresh threads per call, so the affinity never
// outlives the batch.
void MaybePinShardWorker(bool numa_aware, int shard) {
  if (!numa_aware) return;
  const NumaTopology& topo = NumaTopologyInfo();
  if (!topo.available) return;
  PinCurrentThreadToNode(shard % topo.num_nodes);
}

}  // namespace

void BatchExecutor::SetShardCells(std::vector<int> cells) {
  cells_ = std::move(cells);
  num_cells_ = 0;
  for (int c : cells_) num_cells_ = std::max(num_cells_, c + 1);
}

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

namespace {

// Runs `fn(shard)` for every shard index, one shard pinned to a worker at
// a time, and returns the first error any shard reported.
Status RunShards(int num_shards, int max_threads,
                 const std::function<Status(int shard)>& fn) {
  return ParallelForStatus(
      static_cast<size_t>(num_shards), max_threads,
      [&](size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          DPSP_RETURN_IF_ERROR(fn(static_cast<int>(s)));
        }
        return Status::Ok();
      },
      /*min_items_per_worker=*/1);
}

}  // namespace

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
  // worker spawn, no bucket scatter — the empty result is well-defined and
  // one pair runs the serial kernel inline on the calling thread.
  if (pairs.empty()) return Status::Ok();
  if (pairs.size() == 1) return oracle.DistanceInto(pairs, out.data());
  int num_shards = PlannedShardCount(pairs.size());

  if (cells_.empty() || num_shards <= 1) {
    // Contiguous policy: shard s owns one chunk of the input span, so the
    // merge is the identity — each kernel writes its slice of `out`.
    size_t chunk = (pairs.size() + static_cast<size_t>(num_shards) - 1) /
                   static_cast<size_t>(num_shards);
    return RunShards(num_shards, options_.max_threads, [&](int s) {
      size_t lo = static_cast<size_t>(s) * chunk;
      size_t hi = std::min(pairs.size(), lo + chunk);
      if (lo >= hi) return Status::Ok();
      MaybePinShardWorker(options_.numa_aware, s);
      return oracle.DistanceInto(pairs.subspan(lo, hi - lo), out.data() + lo);
    });
  }

  // Keyed policy. Bucket query indices by the cell of the first endpoint
  // (counting sort keeps input order within a bucket), then pack cells
  // into shards largest-first so shard loads balance.
  const int catch_all = num_cells_;  // out-of-range endpoints
  const int num_buckets = num_cells_ + 1;
  auto bucket_of = [&](const VertexPair& p) {
    return p.first >= 0 && static_cast<size_t>(p.first) < cells_.size()
               ? cells_[static_cast<size_t>(p.first)]
               : catch_all;
  };
  std::vector<uint32_t> bucket_count(static_cast<size_t>(num_buckets), 0);
  for (const VertexPair& p : pairs) {
    ++bucket_count[static_cast<size_t>(bucket_of(p))];
  }
  std::vector<uint32_t> bucket_offset(static_cast<size_t>(num_buckets) + 1,
                                      0);
  for (int b = 0; b < num_buckets; ++b) {
    bucket_offset[static_cast<size_t>(b) + 1] =
        bucket_offset[static_cast<size_t>(b)] +
        bucket_count[static_cast<size_t>(b)];
  }
  std::vector<uint32_t> order(pairs.size());
  std::vector<uint32_t> cursor(bucket_offset.begin(),
                               bucket_offset.end() - 1);
  for (size_t i = 0; i < pairs.size(); ++i) {
    order[cursor[static_cast<size_t>(bucket_of(pairs[i]))]++] =
        static_cast<uint32_t>(i);
  }

  // Longest-processing-time packing: non-empty cells, largest first, each
  // into the currently lightest shard.
  std::vector<int> by_size;
  for (int b = 0; b < num_buckets; ++b) {
    if (bucket_count[static_cast<size_t>(b)] > 0) by_size.push_back(b);
  }
  std::sort(by_size.begin(), by_size.end(), [&](int a, int b) {
    return bucket_count[static_cast<size_t>(a)] >
           bucket_count[static_cast<size_t>(b)];
  });
  num_shards = std::min(num_shards, static_cast<int>(by_size.size()));
  std::vector<std::vector<int>> shard_buckets(
      static_cast<size_t>(num_shards));
  std::vector<size_t> shard_load(static_cast<size_t>(num_shards), 0);
  for (int b : by_size) {
    size_t lightest = 0;
    for (size_t s = 1; s < shard_load.size(); ++s) {
      if (shard_load[s] < shard_load[lightest]) lightest = s;
    }
    shard_buckets[lightest].push_back(b);
    shard_load[lightest] += bucket_count[static_cast<size_t>(b)];
  }

  // Each shard gathers its pairs into a contiguous local batch (cache-
  // resident kernel input), runs the serial kernel, and scatters results
  // back to input positions.
  return RunShards(
      num_shards, options_.max_threads, [&](int s) {
        MaybePinShardWorker(options_.numa_aware, s);
        const std::vector<int>& buckets =
            shard_buckets[static_cast<size_t>(s)];
        size_t local_size = shard_load[static_cast<size_t>(s)];
        std::vector<VertexPair> local_pairs;
        std::vector<uint32_t> local_index;
        local_pairs.reserve(local_size);
        local_index.reserve(local_size);
        for (int b : buckets) {
          for (uint32_t k = bucket_offset[static_cast<size_t>(b)];
               k < bucket_offset[static_cast<size_t>(b) + 1]; ++k) {
            uint32_t i = order[k];
            local_pairs.push_back(pairs[i]);
            local_index.push_back(i);
          }
        }
        std::vector<double> local_out(local_pairs.size());
        DPSP_RETURN_IF_ERROR(
            oracle.DistanceInto(local_pairs, local_out.data()));
        for (size_t j = 0; j < local_out.size(); ++j) {
          out[local_index[j]] = local_out[j];
        }
        return Status::Ok();
      });
}

Result<BatchExecutor::UpdateReport> BatchExecutor::ApplyUpdates(
    DistanceOracle& oracle, const Graph& graph,
    std::span<const EdgeWeightDelta> deltas, ReleaseContext& ctx) const {
  UpdatableDistanceOracle* updatable = oracle.AsUpdatable();
  if (updatable == nullptr) {
    return Status::FailedPrecondition(
        "oracle '" + oracle.Name() +
        "' is build-once: it does not support incremental weight updates");
  }
  // Dirty-cell routing: the same per-vertex keys the query path shards by
  // decide which shard regions this epoch touches. An edge belongs to the
  // cell of its first endpoint (matching the query-side bucket rule); the
  // cell map itself never changes — the topology is public and static, so
  // no re-shard happens.
  UpdateReport report;
  if (!cells_.empty()) {
    std::vector<uint8_t> dirty(static_cast<size_t>(num_cells_) + 1, 0);
    for (const EdgeWeightDelta& d : deltas) {
      if (d.edge < 0 || d.edge >= graph.num_edges()) {
        return Status::InvalidArgument(
            StrFormat("update edge %d out of range [0, %d)", d.edge,
                      graph.num_edges()));
      }
      VertexId u = graph.edge(d.edge).u;
      size_t cell = u >= 0 && static_cast<size_t>(u) < cells_.size()
                        ? static_cast<size_t>(cells_[static_cast<size_t>(u)])
                        : static_cast<size_t>(num_cells_);  // catch-all
      if (!dirty[cell]) {
        dirty[cell] = 1;
        ++report.dirty_cells;
      }
    }
  }
  // One input-ordered application: the epoch draws from ctx's single
  // noise stream, so serialized application here is what keeps sharded
  // and serial query execution bit-identical across epochs.
  DPSP_RETURN_IF_ERROR(updatable->ApplyWeightUpdates(deltas, ctx));
  const UpdatableDistanceOracle::UpdateStats& stats =
      updatable->last_update();
  report.dirty_blocks = stats.dirty_blocks;
  report.update_sensitivity = stats.sensitivity;
  report.charged_epsilon = stats.charged_epsilon;
  // Re-place after the epoch: updates can touch pages first-written by
  // the updating thread, pulling them onto its node.
  PlaceReleasedBuffers(oracle);
  return report;
}

int BatchExecutor::PlaceReleasedBuffers(const DistanceOracle& oracle) const {
  if (!options_.numa_aware) return 0;
  const NumaTopology& topo = NumaTopologyInfo();
  if (!topo.available) return 0;
  std::vector<ReleasedBuffer> buffers;
  oracle.AppendReleasedBuffers(&buffers);
  int placed = 0;
  for (const ReleasedBuffer& b : buffers) {
    if (InterleaveMemory(b.data, b.bytes)) ++placed;
  }
  return placed;
}

std::vector<int> ComponentCells(const Graph& graph) {
  return FindConnectedComponents(graph).component;
}

std::vector<int> CoveringCells(const Covering& covering) {
  return {covering.assignment.begin(), covering.assignment.end()};
}

}  // namespace dpsp
