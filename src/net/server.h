// The network query-server front end: a multi-threaded TCP server that
// loads graph workloads, releases distance oracles through the
// OracleRegistry + ReleaseContext pipeline, and serves distance batches by
// fanning each QueryRequest into the sharded serve::BatchExecutor.
//
// Admission control is budget-driven, mirroring the paper's serving
// asymmetry: a RELEASE is a privacy spend, so release requests pass
// through the ReleaseContext budget check and an exhausted budget is a
// typed kBudgetExhausted rejection BEFORE any construction work runs; a
// QUERY is free post-processing of an already-released structure, so
// query requests are only subject to queue-depth backpressure (a bounded
// in-flight gauge) and oversized-batch limits — the server sheds load with
// typed kOverloaded errors instead of queueing unboundedly. An UPDATE
// sits in between: a partial re-release of one handle's dirty blocks,
// budget-checked like a release (at its dirty-fraction price) and
// applied under the handle's writer lock so concurrent query batches
// never observe a half-updated structure. Updates are handle-scoped:
// they mutate the addressed release, not the workload table (which stays
// the load-time snapshot other releases build from).
//
// Threading model: one acceptor thread polls the listener; each accepted
// connection gets a reader/writer thread running the frame dispatch loop.
// A ReplicaSubscribe hands the connection's socket, with a catch-up of
// every live handle's current image, to the replication observer
// (cluster::Coordinator) and ends that thread; a server with no observer
// answers it kUnsupported. The server is the only owner of released
// images: the observer keeps no copy of them. Releases are serialized on
// the single ReleaseContext ledger (its Rng is one stream); queries run
// concurrently — oracle query methods are const and concurrency-safe by
// the DistanceOracle contract, and the handle table hands out
// shared_ptrs so a handle stays alive for the duration of any in-flight
// batch.

// Replica mode: a QueryServer constructed WITHOUT a ReleaseContext is a
// read replica. It holds no ledger, no accountant, and no noise stream —
// it cannot release or update even by accident; both paths answer
// kUnsupported. Its handle table is fed by cluster::Replica installing
// images the coordinator shipped, and its query path is byte-for-byte
// the standalone one, so replicated answers are bit-identical to the
// coordinator's.

#ifndef DPSP_NET_SERVER_H_
#define DPSP_NET_SERVER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/oracle_registry.h"
#include "dp/release_context.h"
#include "graph/graph.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "serve/batch_executor.h"
#include "store/oracle_store.h"

namespace dpsp {
namespace net {

struct QueryServerOptions {
  /// IPv4 address to bind. Loopback by default: exposing a private-data
  /// server beyond the host is a deployment decision, not a default.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port() after Start.
  uint16_t port = 0;
  /// Concurrent connections; further accepts are rejected kOverloaded.
  int max_connections = 64;
  /// Queue-depth backpressure: query batches executing at once. Requests
  /// beyond this are rejected kOverloaded (clients retry; the server never
  /// queues unboundedly). 0 derives 4x the hardware concurrency; negative
  /// is drain (lame-duck) mode — every query is shed, releases still run.
  int max_inflight_queries = 0;
  /// Largest pair count in one QueryRequest; larger is a kTooLarge error
  /// (clients split batches instead of the server buffering hugely).
  uint32_t max_pairs_per_query = 1u << 20;
  /// Sharding configuration for the per-request BatchExecutor fan-out.
  BatchExecutorOptions executor;
  /// Directory for crash-safe state (created if absent). When set, Start
  /// replays the budget WAL into the ledger (intent-without-commit counts
  /// as spent), reloads every oracle snapshot against its workload, and
  /// installs the WAL hook so each further charge is durably logged
  /// before the ledger moves; each granted release (and each applied
  /// update epoch) is snapshotted atomically. Empty disables persistence.
  std::string persistence_dir;
  /// A connection that sends no frame for this long is closed, so
  /// abandoned peers cannot pin connection slots forever. 0 disables
  /// (the pre-timeout behavior: wait on the peer indefinitely).
  int idle_timeout_ms = 60000;
};

/// The serving front end over one ReleaseContext ledger.
class QueryServer {
 public:
  /// Ordered feed of every granted release and applied update epoch, as
  /// the replication frame it produced, plus the replicas subscribing to
  /// that feed. Both calls run under the ledger lock, so frames arrive in
  /// epoch-LSN order — exactly the stream replicas must apply to stay
  /// bit-identical — and each subscription lands between two epochs.
  /// Oracles that do not implement SaveReleasedState produce no frame
  /// (they cannot be replicated).
  class ReplicationObserver {
   public:
    virtual ~ReplicationObserver() = default;
    /// A release's SnapshotChunk, or an update epoch's DeltaFrame (a
    /// SnapshotChunk when the epoch reshaped the image), as a frame body.
    virtual void OnFrame(MessageType type, std::vector<uint8_t> body) = 0;
    /// A replica subscribed on `socket`, which the observer now owns: it
    /// sends `catch_up` — one SnapshotChunk body per live handle, its
    /// current image, in epoch-LSN order — then every later frame.
    virtual void OnSubscribe(ReplicaSubscribe subscribe, Socket socket,
                             std::vector<std::vector<uint8_t>> catch_up) = 0;
  };

  /// The context is the server's single budget ledger: install a total
  /// budget (ReleaseContext::SetTotalBudget) before handing it over to
  /// make the admission controller enforce a hard release ceiling.
  QueryServer(QueryServerOptions options, ReleaseContext context);

  /// Replica mode: no ledger, no accountant, no releases. Handles arrive
  /// through InstallReplicaHandle (driven by cluster::Replica); release
  /// and update requests answer kUnsupported. Replicas never persist —
  /// they resync from the coordinator — so persistence_dir must be empty.
  explicit QueryServer(QueryServerOptions options);

  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Registers a named workload (public topology + private weights)
  /// clients can release oracles over. Call before Start; fails on a
  /// duplicate name or a weight/edge count mismatch.
  Status AddWorkload(std::string name, Graph graph, EdgeWeights weights);

  /// Binds the listener and starts the acceptor thread.
  Status Start();

  /// Stops accepting, shuts down live connections, joins all threads.
  /// Idempotent; also run by the destructor.
  void Stop();

  bool running() const { return running_.load(); }

  /// The bound port (useful with options.port = 0).
  uint16_t port() const { return listener_.port(); }

  /// Counter snapshot. The wire-level StatsResponse additionally carries
  /// the ledger's budget position (active AccountingPolicy, policy-
  /// certified spend, remaining headroom), served from a snapshot
  /// refreshed after every committed release so stats polls never wait
  /// out an in-flight build.
  ServerStats stats() const;

  /// The ledger after whatever the remote clients did — telemetry rows,
  /// composed totals. Not synchronized with in-flight releases; read it
  /// when the server is quiesced (tests) or treat it as a snapshot.
  /// Budget-holding servers only; a replica has no ledger to return.
  const ReleaseContext& context() const { return *context_; }

  /// True when constructed without a ledger (the replica-mode ctor).
  bool replica_mode() const { return !context_.has_value(); }

  /// This node's place in the read tier, for Stats. Defaults to
  /// kStandalone (kReplica for the replica ctor); cluster::Coordinator
  /// promotes its server to kCoordinator.
  void set_role(NodeRole role) { role_.store(role); }
  NodeRole role() const { return role_.load(); }

  /// Highest replication epoch this node has assigned (coordinator) or
  /// applied (replica); 0 before any release. A coordinator's is
  /// monotone; a replica's restarts with each subscription.
  uint64_t last_epoch_lsn() const { return epoch_lsn_.load(); }

  /// Sets last_epoch_lsn to `lsn`: the replica's applied epoch, published
  /// by cluster::Replica.
  void SetEpochLsn(uint64_t lsn) { epoch_lsn_.store(lsn); }

  /// Subscribes `observer` to the release/update frame stream and routes
  /// ReplicaSubscribe requests to it (nullptr unsubscribes, after any
  /// in-flight subscribe). Handles recovered at Start or released before
  /// this call reach replicas through each subscription's catch-up. The
  /// pointer is non-owning and must outlive the server or be cleared
  /// first.
  void SetReplicationObserver(ReplicationObserver* observer);

  /// Installs `fn` to fill the Stats cluster aggregation fields
  /// (num_replicas, replica_lag, replica serve counters) on every stats
  /// snapshot — the coordinator/replica objects own that state.
  using ClusterStatsFn = std::function<void(ServerStats&)>;
  void SetClusterStatsProvider(ClusterStatsFn fn);

  /// Publishes (or atomically replaces) a replicated handle at
  /// `handle_id`, mirroring the coordinator's dense id assignment. Gaps
  /// up to the id are padded with empty entries that answer kNotFound.
  /// The swap happens under the handle-table lock only: in-flight query
  /// batches keep the old oracle alive through their shared_ptr, and the
  /// new oracle is never mutated in place, so no writer lock is needed.
  Status InstallReplicaHandle(uint32_t handle_id, const std::string& name,
                              const std::string& mechanism,
                              const std::string& workload,
                              std::shared_ptr<DistanceOracle> oracle);

  /// Withdraws every replicated handle whose id `live` does not list; it
  /// answers kNotFound like an id never installed. The replica calls it
  /// after a catch-up, which lists every handle the coordinator holds.
  void RetainReplicaHandles(std::span<const uint32_t> live);

  /// The named workload's topology/weights, or nullptr. Workloads are
  /// fixed after Start, so the returned pointers stay valid while the
  /// server lives (the replica materialization path reads them).
  const Graph* WorkloadGraph(const std::string& name) const;
  const EdgeWeights* WorkloadWeights(const std::string& name) const;

  /// Pairs of batch capacity the open connections keep for reuse (16
  /// bytes each: a pair and its answer). Each connection keeps room for
  /// the largest batch it accepted, at most max_pairs_per_query, and
  /// frees it when it closes; frame bodies, capped at kMaxBodyBytes, are
  /// not counted here.
  size_t retained_batch_pairs() const;

 private:
  struct Workload {
    std::string name;
    Graph graph;
    EdgeWeights weights;
  };
  /// One granted release: the handle id is the index into this table.
  /// `guard` arbitrates queries (shared) against weight-update epochs
  /// (exclusive): the DistanceOracle contract only makes const queries
  /// concurrency-safe BETWEEN updates, never during one.
  struct HandleEntry {
    std::string name;
    std::string mechanism;
    /// Name of the workload the oracle was released over (snapshot meta).
    std::string workload;
    std::shared_ptr<DistanceOracle> oracle;
    std::shared_ptr<std::shared_mutex> guard;
    /// Where this handle's snapshot lives; empty when persistence is off
    /// (or the mechanism does not implement SaveReleasedState).
    std::string snapshot_path;
    /// The epoch that produced the current image: its release or last
    /// update (set under the ledger lock).
    uint64_t epoch_lsn = 0;
  };
  /// What a connection reuses from request to request, so a steady
  /// stream of batches allocates nothing: the last frame read, and pair
  /// and answer buffers sized for the largest batch accepted so far.
  struct QueryBuffers {
    Frame frame;
    std::vector<VertexPair> pairs;
    std::vector<double> answers;
  };
  struct Connection {
    /// Moved out under connections_mutex_ when a subscribe takes it, so
    /// Stop never shuts down a socket mid-move.
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
    QueryBuffers buffers;
    /// buffers.pairs.size(), readable from other threads.
    std::atomic<size_t> batch_pairs{0};
  };

  void AcceptLoop();
  void ReapFinishedConnections();
  /// Warm-restart recovery against options_.persistence_dir: replays the
  /// budget WAL through the accountant, reloads every handle snapshot
  /// against its named workload, removes stray .tmp files, and opens the
  /// WAL for appending with the durability hook installed. Runs once,
  /// before the listener binds; a corrupt snapshot or mid-file WAL damage
  /// fails Start loudly rather than serving silently smaller state.
  Status RecoverPersistentState();
  /// Resolves a handle id to its oracle + guard (both null when the id
  /// is unknown) — the one lookup the query and update paths share.
  void LookupHandle(uint32_t handle_id,
                    std::shared_ptr<DistanceOracle>* oracle,
                    std::shared_ptr<std::shared_mutex>* guard) const;
  /// Recomputes the cached budget position from the ledger. Call with
  /// ledger_mutex_ held (or before Start): HandleStats serves the cache
  /// so a stats poll never waits out a multi-second release build.
  void RefreshBudgetSnapshot();
  void ServeConnection(Connection* connection);
  /// Dispatches the connection's last frame; returns false when the
  /// connection's thread must end (framing is broken and the stream
  /// cannot be resynchronized, or a subscribe took the socket).
  bool DispatchFrame(Connection& connection);
  void HandleRelease(Socket& socket, std::span<const uint8_t> body);
  /// Answers the QueryRequest in the connection's frame out of its
  /// reused buffers: the pairs are copied once out of the frame, the
  /// executor writes the answers in place, and the response is gathered
  /// from them. The buffers grow only for a batch that passed every
  /// check, so a refused request never enlarges them.
  void HandleQuery(Connection& connection);
  /// One incremental update epoch: validated, budget-checked at its
  /// dirty-fraction price, applied under the handle's writer lock and the
  /// ledger lock (one noise stream), answered with the charged loss and
  /// remaining headroom.
  void HandleUpdate(Socket& socket, std::span<const uint8_t> body);
  void HandleStats(Socket& socket);
  /// Hands the connection's socket, decoded ReplicaSubscribe and
  /// CatchUpChunks() to the replication observer under the ledger lock;
  /// returns false once the socket is gone. Without an observer the
  /// answer is kUnsupported and the connection keeps serving.
  bool HandleSubscribe(Connection& connection);
  /// One SnapshotChunk body per live, replicable handle — its current
  /// image, stamped with the epoch that produced it — in epoch-LSN order.
  /// Call with ledger_mutex_ held, so no epoch changes an image meanwhile.
  std::vector<std::vector<uint8_t>> CatchUpChunks() const;
  void SendError(Socket& socket, ErrorKind kind, const Status& status);

  const QueryServerOptions options_;
  const int inflight_limit_;

  // Releases serialize on this mutex: one ledger, one noise stream.
  std::mutex ledger_mutex_;
  // Absent in replica mode: a replica holds no budget, draws no noise.
  std::optional<ReleaseContext> context_;

  // The ledger's budget position, snapshotted after every committed
  // release. ledger_mutex_ is held across whole oracle builds, so stats
  // must not read context_ directly — they serve this cache instead.
  mutable std::mutex budget_mutex_;
  PrivacyParams spent_snapshot_;
  PrivacyParams remaining_snapshot_;

  std::vector<Workload> workloads_;  // fixed after Start

  mutable std::mutex handles_mutex_;
  std::vector<HandleEntry> handles_;

  // Durability state (null / zero when persistence is off). The WAL and
  // hook are created once by RecoverPersistentState and live until the
  // server is destroyed — the ledger's hook pointer is non-owning, so
  // order matters: wal_hook_ must outlive the last charge.
  std::unique_ptr<store::BudgetWal> wal_;
  std::unique_ptr<store::WalDurabilityHook> wal_hook_;
  /// Next handle-%06u.snap file index: past the largest recovered index,
  /// so a recovery with gaps never reuses a live handle's file.
  uint32_t next_snapshot_file_ = 0;
  // Set once during Start, read-only after (no lock needed).
  bool warm_restart_ = false;
  uint32_t recovered_handles_ = 0;
  uint64_t recovered_charges_ = 0;

  // Replication epoch clock: bumped under the ledger lock for every
  // granted release and applied update epoch; replicas set it to the
  // epoch they applied. Atomic so stats polls read it lock-free.
  std::atomic<uint64_t> epoch_lsn_{0};
  std::atomic<NodeRole> role_{NodeRole::kStandalone};
  // Set under ledger_mutex_, read under it (the release, update and
  // subscribe paths).
  ReplicationObserver* replication_observer_ = nullptr;
  // Fills the Stats aggregation fields; guarded by its own mutex (the
  // provider is installed after Start, when stats may already be polled).
  mutable std::mutex cluster_stats_mutex_;
  ClusterStatsFn cluster_stats_fn_;

  BatchExecutor executor_;
  std::atomic<int> inflight_queries_{0};

  Listener listener_;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  mutable std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  struct Counters {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> queries_served{0};
    std::atomic<uint64_t> pairs_served{0};
    std::atomic<uint64_t> releases_granted{0};
    std::atomic<uint64_t> budget_rejected{0};
    std::atomic<uint64_t> overload_rejected{0};
  };
  mutable Counters counters_;
};

}  // namespace net
}  // namespace dpsp

#endif  // DPSP_NET_SERVER_H_
