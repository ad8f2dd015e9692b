// Workload definitions, seeded input generation, the in-process serving
// stack each workload runs against, and the same-seed local reference
// release the correctness gate compares wire answers with.

#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/replica.h"
#include "core/distance_oracle.h"
#include "dp/release_context.h"
#include "graph/graph.h"
#include "net/server.h"
#include "serve/batch_executor.h"

namespace perfbench {

using dpsp::EdgeWeightDelta;
using dpsp::VertexPair;

/// One workload: its inputs, its traffic mix, and its deployment.
struct WorkloadSpec {
  std::string name;
  /// "path" (canonical path graph), "road" (synthetic road grid with
  /// congestion weights rescaled into [0, 1]) or "random-tree".
  std::string graph_kind;
  /// Vertices for path / random-tree; grid side for road.
  int size = 0;
  /// Released in this order; clients alternate over them per batch.
  std::vector<std::string> mechanisms;
  /// Closed-loop query clients, one connection each (two for live: one to
  /// the coordinator, one to the replica, alternating per batch).
  int clients = 0;
  int pairs_per_batch = 0;
  /// Distinct batches generated per released handle.
  int batch_pool = 0;
  /// Coordinator (with persistence) + one unpaced replica + the updater.
  bool live = false;
  /// Update epochs the open-loop updater sends during the timed phase.
  int epochs = 0;
  int deltas_per_epoch = 0;
};

/// The named workload at full size, or at the self-check's tiny size.
/// Fails on an unknown name.
WorkloadSpec SpecFor(const std::string& name, bool tiny);

/// Everything generated from the workload seed.
struct Inputs {
  dpsp::Graph graph;
  dpsp::EdgeWeights weights;
  /// batches[h][i]: the i-th query batch for handle h.
  std::vector<std::vector<std::vector<VertexPair>>> batches;
  /// Update epochs, in send order (live only).
  std::vector<std::vector<EdgeWeightDelta>> epochs;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// The per-release privacy parameters and the noise seed both the server
/// and the local reference release with.
dpsp::ReleaseContext MakeContext(uint64_t seed);

/// Executor settings shared by the servers and the local reference.
dpsp::BatchExecutorOptions ExecutorOptions();

/// The running in-process deployment of one workload: a budget-holding
/// QueryServer with every handle released over the wire, and for live
/// workloads its Coordinator (persistence on) plus one replica-mode
/// QueryServer fed by a cluster::Replica, synced to the release.
class Stack {
 public:
  /// Builds and starts the stack; `persistence_dir` is used only by live
  /// workloads and must not exist yet.
  static std::unique_ptr<Stack> Start(const WorkloadSpec& spec,
                                      const Inputs& inputs, uint64_t seed,
                                      const std::string& persistence_dir);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  dpsp::net::QueryServer& server() { return *server_; }
  /// Null unless the workload is live.
  dpsp::net::QueryServer* replica_server() { return replica_server_.get(); }
  dpsp::cluster::Replica* replica() { return replica_.get(); }
  /// Handle ids, parallel to spec.mechanisms.
  const std::vector<uint32_t>& handles() const { return handles_; }

 private:
  Stack() = default;

  std::unique_ptr<dpsp::net::QueryServer> server_;
  std::unique_ptr<dpsp::cluster::Coordinator> coordinator_;
  std::unique_ptr<dpsp::net::QueryServer> replica_server_;
  std::unique_ptr<dpsp::cluster::Replica> replica_;
  std::vector<uint32_t> handles_;
};

/// The same releases built locally from the same seed in the same order:
/// bit-identical to what the stack serves before any update epoch.
struct Reference {
  dpsp::ReleaseContext ctx;
  std::vector<std::unique_ptr<dpsp::DistanceOracle>> oracles;
  dpsp::BatchExecutor executor;
  /// expected[h][i]: BatchExecutor answers to inputs.batches[h][i].
  std::vector<std::vector<std::vector<double>>> expected;
};

/// Builds the reference; with `answer_batches` also fills `expected`.
std::unique_ptr<Reference> BuildReference(const WorkloadSpec& spec,
                                          const Inputs& inputs, uint64_t seed,
                                          bool answer_batches);

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
