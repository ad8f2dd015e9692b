// The replicated read tier's read side: a Replica subscribes a replica-
// mode QueryServer to a Coordinator's replication stream and keeps its
// handle table bit-identical to the coordinator's.
//
// The sync loop is a single thread: connect to the coordinator's query
// port, subscribe, then apply whatever arrives. Each subscription starts
// with the coordinator's current image of every live handle, one
// SnapshotChunk each, validated by the same store::SnapshotReader::Parse
// that opens snapshot files, then a ReplicaStats marker carrying the
// coordinator's LSN, which becomes this replica's applied LSN even when
// it is lower than before (a restarted coordinator). After the marker, a
// SnapshotChunk replaces a handle's image wholesale and a DeltaFrame
// patches the dirty byte ranges in place (post-CRC verified by
// store::ApplySectionDelta), each advancing the applied LSN. Every
// applied frame re-materializes the oracle through the registry loader
// and swaps it into the server, then acks the LSN back with the node's
// serve counters (the coordinator's lag/aggregation input).
//
// Failure policy: any install failure — a corrupt chunk, a delta for a
// handle this replica never saw, a failpoint — counts a resync and
// reconnects; a session that ends for any reason drops the applied LSN
// to 0 until the next marker, so a convergence barrier never passes on
// an epoch of a previous session. Already-installed oracles keep serving
// (stale) until their replacement lands; queries never observe a
// half-applied image because the server swap is a whole-oracle pointer
// swap. A torn frame (header arrives, body stalls) trips the socket's
// receive timeout instead of hanging the loop forever.

#ifndef DPSP_CLUSTER_REPLICA_H_
#define DPSP_CLUSTER_REPLICA_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/status.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "serve/handle_image.h"

namespace dpsp {
namespace cluster {

struct ReplicaOptions {
  std::string coordinator_address = "127.0.0.1";
  /// The coordinator's query port: replicas subscribe where clients query.
  uint16_t coordinator_port = 0;
  /// Operator-visible name sent in the subscribe frame.
  std::string name = "replica";
  /// Capped exponential backoff between reconnect attempts.
  int reconnect_backoff_ms = 50;
  int max_reconnect_backoff_ms = 1000;
  /// Receive timeout while MID-frame (SO_RCVTIMEO): a coordinator that
  /// sends a frame header and then wedges fails the read after this long
  /// instead of hanging the sync loop. Waiting for the NEXT frame is not
  /// bounded by this (an idle coordinator is normal).
  int read_timeout_ms = 2000;
};

class Replica {
 public:
  /// `server` must be a replica-mode QueryServer (no ledger) and must
  /// outlive the replica.
  Replica(ReplicaOptions options, net::QueryServer* server);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Starts the sync thread (connects and resubscribes forever).
  Status Start();

  /// Disconnects and joins the sync thread. Idempotent; also run by the
  /// destructor. Installed handles keep serving.
  void Stop();

  /// The coordinator epoch this replica's images correspond to: the
  /// current session's catch-up marker or its latest frame since; 0
  /// between sessions and during catch-up.
  uint64_t last_applied_lsn() const { return last_applied_.load(); }

  /// The coordinator LSN last heard of (the catch-up marker or a later
  /// frame) — the target last_applied_lsn converges to.
  uint64_t coordinator_lsn() const { return coordinator_lsn_.load(); }

  uint64_t deltas_applied() const { return deltas_applied_.load(); }
  uint64_t full_installs() const { return full_installs_.load(); }

  /// Times an install failure made this replica resubscribe.
  uint64_t resyncs() const { return resyncs_.load(); }

  bool connected() const { return connected_.load(); }

  /// Blocks until last_applied_lsn() >= target (kUnavailable on timeout)
  /// — the test/smoke harness's convergence barrier.
  Status WaitForLsn(uint64_t target, int timeout_ms);

 private:
  void SyncLoop();
  /// One connection's lifetime: subscribe, apply frames until the stream
  /// errors or Stop shuts the socket down.
  Status RunSession(net::Socket& socket);
  /// Both return the applied frame's epoch LSN. The caller bumps the
  /// public counters BEFORE publishing the LSN (PublishLsn wakes
  /// WaitForLsn waiters, who may read those counters immediately).
  Result<uint64_t> InstallChunk(const net::Frame& frame);
  Result<uint64_t> ApplyDeltaFrame(const net::Frame& frame);
  /// Rebuilds the handle's oracle from `image` and swaps it into the
  /// server.
  Status MaterializeAndInstall(uint32_t handle_id,
                               const serve::HandleImage& image);
  Status SendAck(net::Socket& socket);
  /// Sets the applied LSN (here and on the server's epoch clock), raises
  /// the coordinator LSN to it, and wakes WaitForLsn waiters.
  void PublishLsn(uint64_t lsn);
  /// Interruptible reconnect backoff; returns false when stopping.
  bool SleepBackoff(int* backoff_ms);

  const ReplicaOptions options_;
  net::QueryServer* const server_;

  /// This session's images per handle id (sync thread only).
  std::unordered_map<uint32_t, serve::HandleImage> images_;

  std::atomic<uint64_t> last_applied_{0};
  std::atomic<uint64_t> coordinator_lsn_{0};
  std::atomic<uint64_t> deltas_applied_{0};
  std::atomic<uint64_t> full_installs_{0};
  std::atomic<uint64_t> resyncs_{0};
  std::atomic<bool> connected_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> running_{false};

  // WaitForLsn and the backoff sleeper wait here; PublishLsn and Stop
  // notify.
  mutable std::mutex mu_;
  std::condition_variable cv_;

  // Stop must unblock a sync thread parked in WaitReadable/ReadAll: it
  // shuts down the live socket, whose pointer is published here.
  std::mutex socket_mutex_;
  net::Socket* active_socket_ = nullptr;

  std::thread sync_thread_;
};

}  // namespace cluster
}  // namespace dpsp

#endif  // DPSP_CLUSTER_REPLICA_H_
