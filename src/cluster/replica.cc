#include "cluster/replica.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/table.h"

namespace dpsp {
namespace cluster {

Replica::Replica(ReplicaOptions options, net::QueryServer* server)
    : options_(std::move(options)), server_(server) {}

Replica::~Replica() { Stop(); }

Status Replica::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("replica already started");
  }
  if (server_ == nullptr || !server_->replica_mode()) {
    return Status::InvalidArgument(
        "cluster::Replica needs a replica-mode QueryServer (no ledger)");
  }
  stopping_.store(false);
  running_.store(true);
  server_->SetClusterStatsProvider([this](net::ServerStats& stats) {
    const uint64_t target = coordinator_lsn_.load();
    const uint64_t applied = last_applied_.load();
    stats.replica_lag = target > applied ? target - applied : 0;
  });
  sync_thread_ = std::thread(&Replica::SyncLoop, this);
  return Status::Ok();
}

void Replica::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(socket_mutex_);
    if (active_socket_ != nullptr) active_socket_->ShutdownBoth();
  }
  cv_.notify_all();
  if (sync_thread_.joinable()) sync_thread_.join();
  server_->SetClusterStatsProvider(nullptr);
}

Status Replica::WaitForLsn(uint64_t target, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  bool reached = cv_.wait_for(
      lock, std::chrono::milliseconds(timeout_ms),
      [this, target] { return last_applied_.load() >= target; });
  if (!reached) {
    return Status::Unavailable(
        StrFormat("replica stuck at epoch %llu waiting for %llu",
                  static_cast<unsigned long long>(last_applied_.load()),
                  static_cast<unsigned long long>(target)));
  }
  return Status::Ok();
}

void Replica::SyncLoop() {
  int backoff_ms = options_.reconnect_backoff_ms;
  while (!stopping_.load()) {
    Result<net::Socket> dialed =
        net::Connect(options_.coordinator_address, options_.coordinator_port);
    if (!dialed.ok()) {
      if (!SleepBackoff(&backoff_ms)) return;
      continue;
    }
    net::Socket socket = std::move(dialed).value();
    {
      std::lock_guard<std::mutex> lock(socket_mutex_);
      active_socket_ = &socket;
    }
    backoff_ms = options_.reconnect_backoff_ms;
    (void)RunSession(socket);
    {
      std::lock_guard<std::mutex> lock(socket_mutex_);
      active_socket_ = nullptr;
    }
    connected_.store(false);
    if (stopping_.load()) return;
    if (!SleepBackoff(&backoff_ms)) return;
  }
}

Status Replica::RunSession(net::Socket& socket) {
  net::ReplicaSubscribe subscribe;
  subscribe.last_epoch_lsn = last_applied_.load();
  subscribe.replica_name = options_.name;
  std::vector<uint8_t> body = net::EncodeReplicaSubscribe(subscribe);
  DPSP_RETURN_IF_ERROR(
      net::WriteFrame(socket, net::MessageType::kReplicaSubscribe, body));
  // Mid-frame stalls (a torn delta frame) must fail the read, not hang
  // the loop; idle waits between frames go through WaitReadable instead
  // and are not bounded.
  DPSP_RETURN_IF_ERROR(socket.SetRecvTimeout(options_.read_timeout_ms));
  connected_.store(true);
  for (;;) {
    if (stopping_.load()) return Status::Ok();
    Status readable = socket.WaitReadable(500);
    if (!readable.ok()) {
      if (readable.code() == StatusCode::kUnavailable) {
        // Idle tick: push a fresh stats ack so the coordinator's lag and
        // query/pair aggregates stay current even with no epochs moving.
        DPSP_RETURN_IF_ERROR(SendAck(socket));
        continue;
      }
      return readable;
    }
    Result<net::Frame> read =
        net::ReadFrame(socket, net::kMaxReplicationBodyBytes);
    if (!read.ok()) return read.status();
    net::Frame frame = std::move(read).value();
    switch (frame.type) {
      case net::MessageType::kSnapshotChunk: {
        Result<uint64_t> installed = InstallChunk(frame);
        if (!installed.ok()) {
          Resync();
          return installed.status();
        }
        // Counter before LSN: a WaitForLsn waiter woken by AdvanceLsn
        // must already see this install reflected in full_installs().
        full_installs_.fetch_add(1);
        AdvanceLsn(installed.value());
        DPSP_RETURN_IF_ERROR(SendAck(socket));
        break;
      }
      case net::MessageType::kDeltaFrame: {
        Result<uint64_t> applied = ApplyDeltaFrame(frame);
        if (!applied.ok()) {
          Resync();
          return applied.status();
        }
        deltas_applied_.fetch_add(1);
        AdvanceLsn(applied.value());
        DPSP_RETURN_IF_ERROR(SendAck(socket));
        break;
      }
      case net::MessageType::kReplicaStats: {
        // The coordinator's catch-up marker: its LSN at subscribe time.
        DPSP_ASSIGN_OR_RETURN(net::ReplicaStatsFrame marker,
                              net::DecodeReplicaStatsFrame(frame.body));
        uint64_t seen = coordinator_lsn_.load();
        while (marker.last_epoch_lsn > seen &&
               !coordinator_lsn_.compare_exchange_weak(
                   seen, marker.last_epoch_lsn)) {
        }
        // The marker may BE the convergence point (catch-up with no new
        // frames); wake WaitForLsn waiters either way.
        cv_.notify_all();
        break;
      }
      case net::MessageType::kError: {
        DPSP_ASSIGN_OR_RETURN(net::WireError error,
                              net::DecodeError(frame.body));
        return error.ToStatus();
      }
      default:
        return Status::InvalidArgument(
            StrFormat("unexpected frame type %u on the replication stream",
                      static_cast<unsigned>(frame.type)));
    }
  }
}

Result<uint64_t> Replica::InstallChunk(const net::Frame& frame) {
  DPSP_RETURN_IF_ERROR(EvalFailpoint(failpoints::kClusterInstallSnapshot));
  DPSP_ASSIGN_OR_RETURN(net::SnapshotChunk chunk,
                        net::DecodeSnapshotChunk(frame.body));
  // The wire CRCs were computed by the encoder; recompute from the bytes
  // that actually arrived so in-flight corruption fails the install.
  if (chunk.section_crcs.size() != chunk.sections.size()) {
    return Status::InvalidArgument(
        "snapshot chunk CRC list does not match its sections");
  }
  for (size_t i = 0; i < chunk.sections.size(); ++i) {
    const std::vector<uint8_t>& bytes = chunk.sections[i].bytes;
    uint32_t crc = Crc32c(bytes.data(), bytes.size());
    if (crc != chunk.section_crcs[i]) {
      return Status::InvalidArgument(
          StrFormat("snapshot chunk section '%s' failed its CRC32C check",
                    chunk.sections[i].label.c_str()));
    }
  }
  const uint32_t handle_id = chunk.handle_id;
  const uint64_t epoch_lsn = chunk.epoch_lsn;
  serve::HandleImage& image = images_[handle_id];
  image.InstallFull(std::move(chunk.handle_name), std::move(chunk.mechanism),
                    std::move(chunk.workload), std::move(chunk.sections),
                    epoch_lsn);
  DPSP_RETURN_IF_ERROR(MaterializeAndInstall(handle_id, image));
  return epoch_lsn;
}

Result<uint64_t> Replica::ApplyDeltaFrame(const net::Frame& frame) {
  DPSP_RETURN_IF_ERROR(EvalFailpoint(failpoints::kClusterInstallDelta));
  DPSP_ASSIGN_OR_RETURN(net::DeltaFrame delta,
                        net::DecodeDeltaFrame(frame.body));
  auto it = images_.find(delta.handle_id);
  if (it == images_.end()) {
    return Status::InvalidArgument(
        StrFormat("delta for handle %u this replica holds no image of",
                  delta.handle_id));
  }
  DPSP_RETURN_IF_ERROR(it->second.ApplyDelta(delta.patches, delta.epoch_lsn));
  DPSP_RETURN_IF_ERROR(MaterializeAndInstall(delta.handle_id, it->second));
  return delta.epoch_lsn;
}

Status Replica::MaterializeAndInstall(uint32_t handle_id,
                                      const serve::HandleImage& image) {
  const Graph* graph = server_->WorkloadGraph(image.workload());
  const EdgeWeights* weights = server_->WorkloadWeights(image.workload());
  if (graph == nullptr || weights == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("replica has no workload '%s' loaded",
                  image.workload().c_str()));
  }
  DPSP_ASSIGN_OR_RETURN(std::shared_ptr<DistanceOracle> oracle,
                        image.Materialize(*graph, *weights));
  DPSP_RETURN_IF_ERROR(server_->InstallReplicaHandle(
      handle_id, image.name(), image.mechanism(), image.workload(),
      std::move(oracle)));
  server_->BumpEpochLsn(image.epoch_lsn());
  return Status::Ok();
}

Status Replica::SendAck(net::Socket& socket) {
  net::ServerStats stats = server_->stats();
  net::ReplicaStatsFrame ack;
  ack.role = static_cast<uint16_t>(net::NodeRole::kReplica);
  ack.last_epoch_lsn = last_applied_.load();
  ack.queries_served = stats.queries_served;
  ack.pairs_served = stats.pairs_served;
  std::vector<uint8_t> body = net::EncodeReplicaStatsFrame(ack);
  return net::WriteFrame(socket, net::MessageType::kReplicaStats, body);
}

void Replica::Resync() {
  // The image set is suspect; forget it and resubscribe from LSN 0 so
  // the coordinator ships fresh full chunks. Installed oracles keep
  // serving (stale) until their replacements land.
  images_.clear();
  last_applied_.store(0);
  resyncs_.fetch_add(1);
}

void Replica::AdvanceLsn(uint64_t lsn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t current = last_applied_.load();
    last_applied_.store(std::max(current, lsn));
    // An applied frame at LSN x is proof the coordinator reached x —
    // don't wait for the next catch-up marker to say so.
    uint64_t seen = coordinator_lsn_.load();
    while (lsn > seen &&
           !coordinator_lsn_.compare_exchange_weak(seen, lsn)) {
    }
  }
  cv_.notify_all();
}

bool Replica::SleepBackoff(int* backoff_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(*backoff_ms),
               [this] { return stopping_.load(); });
  *backoff_ms = std::min(*backoff_ms * 2, options_.max_reconnect_backoff_ms);
  return !stopping_.load();
}

}  // namespace cluster
}  // namespace dpsp
