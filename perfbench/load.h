// The load phases: closed-loop query clients, the live workload's
// open-loop updater with its replica-lag watcher, and the correctness
// gates that compare what the wire returned with the local reference.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "stack.h"

namespace perfbench {

struct LoadOptions {
  /// Untimed warm-up before the first phase's window opens (caches, lazy
  /// set-up); later phases warm their fresh connections briefly.
  double warmup_s = 1.0;
  /// Timed seconds over all phases.
  double seconds = 10.0;
  /// Back-to-back phases, each with fresh client threads and connections,
  /// so one run samples several thread placements.
  int phases = 10;
  /// Compare every answer bit for bit with Reference::expected (only
  /// valid while no update epoch has been applied).
  bool verify = false;
  /// Record a span per request (the traced run's load phase).
  bool spans = false;
  /// Live only: send inputs.epochs[epoch_offset, epoch_offset + epochs),
  /// split evenly over the phases.
  size_t epoch_offset = 0;
  int epochs = 0;
};

/// A latency sample standing for `weight` queries.
struct WeightedSample {
  double ms = 0.0;
  double weight = 1.0;
};

/// Nearest-rank weighted quantile; +inf samples (failures) sort last.
double WeightedQuantile(std::vector<WeightedSample> samples, double q);

/// One client's query latencies in one phase, per endpoint (0 = the
/// budget-holding server, 1 = the replica), in fixed-size uniform
/// reservoirs. The buffers are allocated and touched up front, so the
/// benchmark's own memory stays constant however many queries complete
/// and peak RSS stays the system's.
class LatencyStore {
 public:
  static constexpr size_t kCapacity = size_t{1} << 16;

  LatencyStore(int endpoints, uint64_t seed);

  void Add(int endpoint, double ms);

  /// Appends the kept samples of `endpoint` (-1 = every endpoint), each
  /// weighted by its reservoir's seen / kept.
  void Collect(int endpoint, std::vector<WeightedSample>* out) const;

  uint64_t seen() const;

 private:
  struct Reservoir {
    std::vector<double> kept = std::vector<double>(kCapacity, 0.0);
    uint64_t seen = 0;
  };
  uint64_t rng_;
  std::vector<Reservoir> reservoirs_;
};

/// One query request as seen by its client.
struct Span {
  Clock::time_point start;
  Clock::time_point end;
};

/// What one phase did.
struct LoadResult {
  /// From the window opening to the last windowed query's completion.
  double seconds = 0.0;
  /// Queries started inside the phase's window.
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t pairs = 0;
  /// Round trips of the windowed queries, one store per client; failed
  /// queries are +inf.
  std::vector<LatencyStore> latency;
  /// Answers (warm-up included) that differed from the reference.
  uint64_t mismatches = 0;
  uint64_t verified_batches = 0;
  /// kOverloaded retries clients performed; kOverloaded rejections the
  /// servers counted during the phase.
  uint64_t client_retries = 0;
  uint64_t overload_rejected = 0;
  std::vector<Span> spans;

  // Live updater (empty otherwise).
  uint64_t epochs_attempted = 0;
  uint64_t epochs_ok = 0;
  uint64_t epochs_refused = 0;
  uint64_t epochs_failed = 0;
  /// From each epoch's due time to its ack; failures are +inf.
  std::vector<double> update_ms;
  /// How late the generator sent each epoch relative to its due time.
  std::vector<double> send_late_ms;
  /// From an epoch's ack to the replica's WaitForLsn returning for it.
  std::vector<double> lag_ms;
  double epoch_interval_ms = 0.0;
  double charged_eps = 0.0;
  /// Indices into inputs.epochs that the coordinator applied, in order.
  std::vector<size_t> applied_epochs;
};

/// Runs options.phases load phases back to back against `stack`.
std::vector<LoadResult> RunLoad(const WorkloadSpec& spec, const Inputs& inputs,
                                Stack& stack, const Reference& ref,
                                const LoadOptions& options);

/// The phases' counters and live samples summed into one record (its
/// latency stores are left empty).
LoadResult Totals(const std::vector<LoadResult>& phases);

/// The live gate: waits for the replica to reach the coordinator's last
/// epoch, replays `applied_epochs` into the reference through
/// BatchExecutor::ApplyUpdates, and requires coordinator, replica and
/// replay to answer every pool batch bit-identically. Fails the run on
/// any mismatch; returns the number of pairs compared.
uint64_t CheckLiveGate(const Inputs& inputs, Stack& stack, Reference& ref,
                       const std::vector<size_t>& applied_epochs);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
