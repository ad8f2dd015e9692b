// The common interface all distance-release mechanisms implement, plus the
// error-evaluation harness the experiments share. Every mechanism in this
// library (exact, baselines, tree recursion, HLD, path hierarchy,
// bounded-weight covering, MST/matching releases) is a DistanceOracle
// registered in core/oracle_registry.h, so benches and serving pipelines
// sweep them uniformly.

#ifndef DPSP_CORE_DISTANCE_ORACLE_H_
#define DPSP_CORE_DISTANCE_ORACLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/all_pairs.h"
#include "graph/graph.h"

namespace dpsp {

class ReleaseContext;
class UpdatableDistanceOracle;

/// One (u, v) distance query.
using VertexPair = std::pair<VertexId, VertexId>;

/// One edge of the private weight map drifting to a new value — the unit
/// of a continual-release update epoch. The topology is public and never
/// changes; only the private weights do.
struct EdgeWeightDelta {
  EdgeId edge = 0;
  double new_weight = 0.0;
};

/// One owning labeled byte section of an oracle's released state — the
/// unit the src/store snapshot format persists. Released state is post-DP
/// output: it may be copied and stored in plaintext. Raw private values
/// (e.g. the retained value vectors the incremental-update machinery
/// keeps) must NEVER appear in a section.
struct ReleasedSection {
  std::string label;
  std::vector<uint8_t> bytes;
};

/// A non-owning view of a section, as handed to restore factories by the
/// snapshot reader (zero-copy views into the mapped file).
struct ReleasedSectionView {
  std::string_view label;
  std::span<const uint8_t> bytes;
};

/// A released all-pairs distance estimator. Queries are post-processing of
/// an already-released private object, so calling Distance() or
/// DistanceBatch() any number of times consumes no additional privacy
/// budget. Query methods are const and safe to call concurrently.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Estimated distance between u and v.
  virtual Result<double> Distance(VertexId u, VertexId v) const = 0;

  /// Serial fused kernel: answers `pairs` into out[0 .. pairs.size()) on
  /// the calling thread, one virtual dispatch for the whole span. This is
  /// the unit of work the parallel DistanceBatch fan-out and the sharded
  /// serve::BatchExecutor both schedule, so every execution strategy
  /// produces bit-identical results. Oracles override it with a flat-array
  /// loop (released estimates + O(1) LCA, dense table rows, dyadic
  /// prefixes); the default loops Distance(). On error nothing is
  /// guaranteed about out.
  virtual Status DistanceInto(std::span<const VertexPair> pairs,
                              double* out) const;

  /// Estimated distances for a batch of pairs, in order — the hot path a
  /// query-serving deployment uses. The default implementation chunks the
  /// span across worker threads (valid because this interface requires
  /// const query methods to be concurrency-safe) and runs the
  /// DistanceInto kernel per chunk.
  virtual Result<std::vector<double>> DistanceBatch(
      std::span<const VertexPair> pairs) const;

  /// Mechanism name for reports.
  virtual std::string Name() const = 0;

  /// Appends this oracle's complete released state as owning labeled
  /// sections — everything a same-mechanism restore factory needs, given
  /// the public topology and the workload weights, to reconstruct an
  /// oracle whose queries are bit-identical to this one. Mechanisms that
  /// have not opted into persistence return Unimplemented and the caller
  /// skips them (never an error path for serving).
  virtual Status SaveReleasedState(std::vector<ReleasedSection>* out) const {
    (void)out;
    return Status::Unimplemented(Name() + " does not persist released state");
  }

  /// The incremental-update capability, or nullptr for build-once
  /// mechanisms. Callers route through this instead of dynamic_cast so
  /// the serving layers (executor, network server) can advertise and
  /// dispatch updatability uniformly.
  virtual UpdatableDistanceOracle* AsUpdatable() { return nullptr; }
  virtual const UpdatableDistanceOracle* AsUpdatable() const {
    return nullptr;
  }
};

/// A released oracle that supports incremental weight-update epochs: when
/// few edges drift between epochs, only the released blocks covering the
/// dirty edges are redrawn and only their share of the budget is charged,
/// instead of re-releasing the whole structure at full cost.
///
/// Concurrency: ApplyWeightUpdates mutates the released structure and is
/// NOT safe against concurrent queries — callers must exclude queries for
/// the duration of an update (the network server holds a per-handle
/// writer lock). Queries remain const and concurrency-safe between
/// updates, per the DistanceOracle contract.
class UpdatableDistanceOracle : public DistanceOracle {
 public:
  /// What the last ApplyWeightUpdates epoch did, for telemetry, wire
  /// responses, and the ledger-equality tests. Zeroed at the start of
  /// every epoch (an empty epoch reports all zeros).
  struct UpdateStats {
    /// Distinct edges whose weight changed this epoch.
    int dirty_edges = 0;
    /// Noisy values redrawn (dirty dyadic blocks plus dirty scalars).
    int dirty_blocks = 0;
    /// The epoch's sensitivity multiplier: the largest number of redrawn
    /// blocks any single dirty edge appears in. The epoch charges
    /// loss = (sensitivity / full-release sensitivity) x one release of
    /// the context's params — the dirty fraction in the release's own
    /// sensitivity currency.
    int sensitivity = 0;
    /// The PrivacyLoss epsilon actually charged to the ledger.
    double charged_epsilon = 0.0;
  };

  /// Applies one epoch of weight updates in place through the release
  /// pipeline: plans the dirty-block set, meters the partial release
  /// (check-before-apply — an exhausted budget refuses BEFORE any block
  /// is touched, leaving the oracle unchanged), redraws fresh noise for
  /// only the dirty blocks, and commits the charge plus telemetry.
  /// Duplicate edges in one epoch: the last delta wins. An empty epoch is
  /// a no-op that charges nothing.
  virtual Status ApplyWeightUpdates(std::span<const EdgeWeightDelta> deltas,
                                    ReleaseContext& ctx) = 0;

  const UpdateStats& last_update() const { return update_stats_; }

  UpdatableDistanceOracle* AsUpdatable() final { return this; }
  const UpdatableDistanceOracle* AsUpdatable() const final { return this; }

 protected:
  UpdateStats update_stats_;
};

/// Answers `pairs` by running oracle.DistanceInto() chunk-wise across
/// worker threads (the default DistanceBatch body, exposed so callers can
/// cap the thread count). With `max_threads` = 0 the chunks run inline
/// while another ParallelFor call is executing (common/parallel.h).
/// `max_threads` = 1 is the strictly serial reference path the sharded
/// executor tests compare against.
Result<std::vector<double>> DistanceBatchOf(const DistanceOracle& oracle,
                                            std::span<const VertexPair> pairs,
                                            int max_threads = 0);

/// Aggregate error of an oracle against exact distances.
struct OracleErrorReport {
  double max_abs_error = 0.0;
  double mean_abs_error = 0.0;
  double p50_abs_error = 0.0;
  double p95_abs_error = 0.0;
  int num_pairs = 0;
};

/// Compares the oracle against the exact distance matrix over all ordered
/// pairs u < v (skipping unreachable pairs). Queries go through
/// DistanceBatch.
Result<OracleErrorReport> EvaluateOracleAllPairs(const Graph& graph,
                                                 const DistanceMatrix& exact,
                                                 const DistanceOracle& oracle);

/// Compares the oracle against exact distances over an explicit pair list.
Result<OracleErrorReport> EvaluateOraclePairs(
    const Graph& graph, const DistanceMatrix& exact,
    const DistanceOracle& oracle, const std::vector<VertexPair>& pairs);

}  // namespace dpsp

#endif  // DPSP_CORE_DISTANCE_ORACLE_H_
