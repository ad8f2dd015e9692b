#include "cluster/replica.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/table.h"
#include "store/oracle_store.h"

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
    // What this replica applied belongs to the session that ended. The
    // next one may reach another life of the coordinator, whose LSNs
    // restart or repeat, so no barrier may pass on the old value.
    PublishLsn(0);
    connected_.store(false);
    if (stopping_.load()) return;
    if (!SleepBackoff(&backoff_ms)) return;
  }
}

Status Replica::RunSession(net::Socket& socket) {
  net::ReplicaSubscribe subscribe;
  subscribe.replica_name = options_.name;
  std::vector<uint8_t> body = net::EncodeReplicaSubscribe(subscribe);
  DPSP_RETURN_IF_ERROR(
      net::WriteFrame(socket, net::MessageType::kReplicaSubscribe, body));
  // Mid-frame stalls (a torn delta frame) must fail the read, not hang
  // the loop; idle waits between frames go through WaitReadable instead
  // and are not bounded.
  DPSP_RETURN_IF_ERROR(socket.SetRecvTimeout(options_.read_timeout_ms));
  connected_.store(true);
  // The catch-up replaces every image an earlier session left.
  images_.clear();
  bool caught_up = false;  // the marker arrived; frames now advance the LSN
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
          resyncs_.fetch_add(1);
          return installed.status();
        }
        // Counter before LSN: a WaitForLsn waiter woken by PublishLsn
        // must already see this install reflected in full_installs().
        full_installs_.fetch_add(1);
        if (caught_up) PublishLsn(installed.value());
        DPSP_RETURN_IF_ERROR(SendAck(socket));
        break;
      }
      case net::MessageType::kDeltaFrame: {
        Result<uint64_t> applied = ApplyDeltaFrame(frame);
        if (!applied.ok()) {
          resyncs_.fetch_add(1);
          return applied.status();
        }
        deltas_applied_.fetch_add(1);
        if (caught_up) PublishLsn(applied.value());
        DPSP_RETURN_IF_ERROR(SendAck(socket));
        break;
      }
      case net::MessageType::kReplicaStats: {
        // The catch-up marker: every image the coordinator holds is
        // installed, so this replica stands at the coordinator's LSN —
        // adopted even when below an earlier session's.
        DPSP_ASSIGN_OR_RETURN(net::ReplicaStatsFrame marker,
                              net::DecodeReplicaStatsFrame(frame.body));
        // A handle the catch-up did not ship is not the coordinator's
        // (an earlier life's): stop serving it.
        std::vector<uint32_t> live;
        for (const auto& [id, image] : images_) live.push_back(id);
        server_->RetainReplicaHandles(live);
        coordinator_lsn_.store(marker.last_epoch_lsn);
        PublishLsn(marker.last_epoch_lsn);
        caught_up = true;
        DPSP_RETURN_IF_ERROR(SendAck(socket));
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
  DPSP_ASSIGN_OR_RETURN(store::OracleSnapshotMeta meta,
                        store::ReadOracleSnapshotMeta(chunk.image));
  // The container's payloads are not aligned inside the frame body: copy
  // them into the image rather than hand a restore factory views there.
  std::vector<ReleasedSection> sections;
  sections.reserve(chunk.image.sections().size());
  for (const ReleasedSectionView& view : chunk.image.sections()) {
    sections.push_back({std::string(view.label),
                        {view.bytes.begin(), view.bytes.end()}});
  }
  const uint64_t epoch_lsn = chunk.image.epoch_lsn();
  serve::HandleImage& image = images_[chunk.handle_id];
  image.InstallFull(std::move(meta.handle), std::move(meta.mechanism),
                    std::move(meta.workload), std::move(sections),
                    epoch_lsn);
  DPSP_RETURN_IF_ERROR(MaterializeAndInstall(chunk.handle_id, image));
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
  return server_->InstallReplicaHandle(handle_id, image.name(),
                                      image.mechanism(), image.workload(),
                                      std::move(oracle));
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

void Replica::PublishLsn(uint64_t lsn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_applied_.store(lsn);
    server_->SetEpochLsn(lsn);
    // An applied frame at LSN x is proof the coordinator reached x —
    // don't wait for the next catch-up marker to say so.
    if (lsn > coordinator_lsn_.load()) coordinator_lsn_.store(lsn);
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
