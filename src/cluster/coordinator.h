// The replicated read tier's write side: a Coordinator wraps the one
// budget-holding QueryServer and streams its release/update images to
// read replicas. A replica subscribes with a ReplicaSubscribe request on
// the server's query port; the server hands that connection over, and it
// becomes the replica's stream. The coordinator binds no port; its only
// threads are each subscribed replica's writer and reader.
//
// The coordinator is the ONLY node that executes releases and weight
// updates — it alone holds the ReleaseContext ledger, so budget is
// charged exactly once no matter how many replicas serve the result.
// Replication ships post-DP bytes only (the same released sections the
// PR 7 snapshots persist), which is the trust argument: adding replicas
// adds query throughput without touching privacy accounting.
//
// Shipping policy per epoch (fed by QueryServer::ReplicationObserver, in
// LSN order under the ledger lock; handles that exist when the
// coordinator starts arrive first, each as a release at the LSN of the
// epoch that produced its image):
//   * a new release, an unknown handle, or a shape-changing update ships
//     a full SnapshotChunk (per-section CRC32C, verified on install) and
//     rebases the handle's delta log on it;
//   * an update epoch against a known image ships a DeltaFrame holding
//     only the dirty byte ranges (store/snapshot_delta.h), so steady-
//     state replication cost tracks the update's dirty fraction, not the
//     image size;
//   * once a handle's logged delta bytes exceed compaction_factor x its
//     base image, the log is compacted: the current image becomes the
//     new base and future subscribers start from one chunk instead of a
//     long replay.
// Late joiners (or replicas that resynced after a failure) subscribe
// with the last LSN they applied; the coordinator answers with whatever
// closes the gap — base chunk + delta replay, or just the missed deltas
// — followed by a ReplicaStats marker carrying its own LSN so the
// replica knows the target it is converging to. Subscriptions arrive
// under the same ledger lock as epochs, so each epoch is either in a
// session's replay or broadcast to it, never both.

#ifndef DPSP_CLUSTER_COORDINATOR_H_
#define DPSP_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"

namespace dpsp {
namespace cluster {

struct CoordinatorOptions {
  /// Compact a handle's delta log once it outweighs this many times the
  /// base image (catch-up cost ceiling). <= 0 compacts every epoch.
  double compaction_factor = 4.0;
  /// Subscriptions beyond this are refused with a typed kOverloaded.
  int max_replicas = 16;
};

/// Cumulative replication output, counted once per logical frame at
/// encode time (catch-up replays of already-logged frames don't count) —
/// the "deltas only" byte accounting the replication test asserts on.
struct ShipStats {
  uint64_t full_frames = 0;
  uint64_t delta_frames = 0;
  uint64_t full_bytes = 0;
  uint64_t delta_bytes = 0;
};

class Coordinator : public net::QueryServer::ReplicationObserver {
 public:
  /// `server` must be a budget-holding (non-replica) QueryServer and must
  /// outlive the coordinator. Start() promotes it to NodeRole::kCoordinator
  /// and subscribes to its image stream and its replica subscriptions.
  Coordinator(CoordinatorOptions options, net::QueryServer* server);
  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Hooks into the server: from here on replicas can subscribe on its
  /// query port. Starts no thread.
  Status Start();

  /// Unsubscribes from the server (after any in-flight subscribe), closes
  /// every replica session, joins all threads. Idempotent; also run by
  /// the destructor.
  void Stop();

  /// The port replicas subscribe on: the server's query port. An alias
  /// kept only because perfbench/stack.cc still calls it.
  uint16_t replication_port() const { return server_->port(); }

  /// QueryServer::ReplicationObserver: one granted release or applied
  /// update epoch, in LSN order.
  void OnHandleImage(uint32_t handle_id, uint64_t epoch_lsn, bool is_update,
                     const std::string& name, const std::string& mechanism,
                     const std::string& workload,
                     std::vector<ReleasedSection> sections) override;

  /// QueryServer::ReplicationObserver: a replica subscribed on `socket`.
  /// Refuses it kOverloaded when the roster is full; otherwise queues the
  /// catch-up replay and its LSN marker and starts the session's writer
  /// and reader threads.
  void OnSubscribe(net::ReplicaSubscribe subscribe,
                   net::Socket socket) override;

  ShipStats ship_stats() const;

  /// Live subscriber count.
  int connected_replicas() const;

  /// The lowest LSN any live replica has acked (the server's own LSN when
  /// no replica is subscribed) — the fleet's replication low-water mark.
  uint64_t min_acked_lsn() const;

 private:
  /// One frame queued for a session's writer (bodies are shared across
  /// sessions so a broadcast never copies a released image per replica).
  struct Outbound {
    net::MessageType type = net::MessageType::kError;
    std::shared_ptr<const std::vector<uint8_t>> body;
  };

  /// One subscribed replica: a writer thread draining the frame queue and
  /// a reader thread consuming its ReplicaStats acks.
  struct Session {
    std::string name;
    net::Socket socket;
    std::thread writer;
    std::thread reader;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Outbound> queue;
    std::atomic<bool> done{false};
    std::atomic<uint64_t> acked_lsn{0};
    std::atomic<uint64_t> queries_served{0};
    std::atomic<uint64_t> pairs_served{0};
  };

  struct LoggedDelta {
    uint64_t lsn = 0;
    std::shared_ptr<const std::vector<uint8_t>> body;
  };

  /// Replication state for one handle: the base image subscribers start
  /// from, the current image deltas are computed against, and the delta
  /// log replayed to stragglers.
  struct HandleState {
    std::string name;
    std::string mechanism;
    std::string workload;
    uint64_t base_lsn = 0;
    std::vector<ReleasedSection> base_sections;
    std::vector<ReleasedSection> current_sections;
    std::vector<LoggedDelta> delta_log;
    uint64_t logged_delta_bytes = 0;
  };

  void WriterLoop(Session* session);
  void ReaderLoop(Session* session);
  /// Joins and erases finished sessions (run at each subscribe).
  void ReapSessions();
  /// Enqueues one frame on every live session.
  void Broadcast(net::MessageType type,
                 std::shared_ptr<const std::vector<uint8_t>> body);
  /// Marks every session done and shuts its socket (replicas reconnect
  /// and resync) — the ship-failpoint failure path.
  void DropAllSessions();
  /// Encodes `state`'s base image as a SnapshotChunk body at base_lsn.
  /// Call with state_mutex_ held.
  std::shared_ptr<const std::vector<uint8_t>> EncodeBaseChunk(
      uint32_t handle_id, const HandleState& state) const;

  const CoordinatorOptions options_;
  net::QueryServer* const server_;

  // Handle replication state; OnHandleImage writes it, OnSubscribe reads
  // it for catch-up. The server makes both calls under its ledger lock,
  // which orders subscriptions against epochs.
  mutable std::mutex state_mutex_;
  std::map<uint32_t, HandleState> states_;

  mutable std::mutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;

  struct ShipCounters {
    std::atomic<uint64_t> full_frames{0};
    std::atomic<uint64_t> delta_frames{0};
    std::atomic<uint64_t> full_bytes{0};
    std::atomic<uint64_t> delta_bytes{0};
  };
  ShipCounters ship_;

  std::atomic<bool> running_{false};
};

}  // namespace cluster
}  // namespace dpsp

#endif  // DPSP_CLUSTER_COORDINATOR_H_
