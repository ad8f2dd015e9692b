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
// Replication ships post-DP bytes only (the released image the snapshot
// files persist), which is the trust argument: adding replicas adds
// query throughput without touching privacy accounting.
//
// The coordinator keeps no image of its own: the server is the only
// owner of released images. Through QueryServer::ReplicationObserver it
// receives, in LSN order under the ledger lock, each epoch's frame as the
// server encoded it:
//   * a release ships a SnapshotChunk: the handle id, then the bytes of
//     the handle's snapshot file (store/snapshot.h), which the replica
//     validates with the same reader that opens files;
//   * an update epoch ships a DeltaFrame holding only the dirty byte
//     ranges (store/snapshot_delta.h), so steady-state replication cost
//     tracks the update's dirty fraction, not the image size.
// Every subscription — a new replica, a late joiner, or one that lost its
// session — starts from the server's current image of every live handle,
// followed by a ReplicaStats marker carrying the server's LSN, which the
// replica adopts as its applied LSN. No catch-up compares LSNs, so a
// replica follows a coordinator whose LSNs restarted (no persistence) or
// were reused (a lost epoch) as surely as one that never stopped.
// Subscriptions arrive under the same ledger lock as epochs, so each
// epoch is either in a session's catch-up images or broadcast to it,
// never both.

#ifndef DPSP_CLUSTER_COORDINATOR_H_
#define DPSP_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
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
  /// Subscriptions beyond this are refused with a typed kOverloaded.
  int max_replicas = 16;
};

/// Cumulative replication output, counted once per epoch's frame
/// (catch-up images don't count) — the "deltas only" byte accounting the
/// replication test asserts on.
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
  /// and subscribes to its frame stream and its replica subscriptions.
  Coordinator(CoordinatorOptions options, net::QueryServer* server);
  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Hooks into the server: from here on replicas can subscribe on its
  /// query port, and handles that already exist reach them through
  /// catch-up. Starts no thread.
  Status Start();

  /// Unsubscribes from the server (after any in-flight subscribe), closes
  /// every replica session, joins all threads. Idempotent; also run by
  /// the destructor.
  void Stop();

  /// The port replicas subscribe on: the server's query port. An alias
  /// kept only because perfbench/stack.cc still calls it.
  uint16_t replication_port() const { return server_->port(); }

  /// QueryServer::ReplicationObserver: one granted release or applied
  /// update epoch's frame, in LSN order; broadcast to every session.
  void OnFrame(net::MessageType type, std::vector<uint8_t> body) override;

  /// QueryServer::ReplicationObserver: a replica subscribed on `socket`.
  /// Refuses it kOverloaded when the roster is full; otherwise queues the
  /// catch-up images and the LSN marker and starts the session's writer
  /// and reader threads.
  void OnSubscribe(net::ReplicaSubscribe subscribe, net::Socket socket,
                   std::vector<std::vector<uint8_t>> catch_up) override;

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

  const CoordinatorOptions options_;
  net::QueryServer* const server_;

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
