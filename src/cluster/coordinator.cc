#include "cluster/coordinator.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"

namespace dpsp {
namespace cluster {

Coordinator::Coordinator(CoordinatorOptions options, net::QueryServer* server)
    : options_(std::move(options)), server_(server) {}

Coordinator::~Coordinator() { Stop(); }

Status Coordinator::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("coordinator already started");
  }
  if (server_ == nullptr || server_->replica_mode()) {
    return Status::InvalidArgument(
        "coordinator needs a budget-holding QueryServer");
  }
  running_.store(true);
  server_->set_role(net::NodeRole::kCoordinator);
  server_->SetReplicationObserver(this);
  server_->SetClusterStatsProvider([this](net::ServerStats& stats) {
    const uint64_t lsn = server_->last_epoch_lsn();
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    uint64_t min_acked = lsn;
    for (const std::unique_ptr<Session>& session : sessions_) {
      if (session->done.load()) continue;
      ++stats.num_replicas;
      min_acked = std::min(min_acked, session->acked_lsn.load());
      stats.replica_queries_served += session->queries_served.load();
      stats.replica_pairs_served += session->pairs_served.load();
    }
    stats.replica_lag = lsn - min_acked;
  });
  return Status::Ok();
}

void Coordinator::Stop() {
  if (!running_.exchange(false)) return;
  // Unhook from the server first: no new frames, subscriptions or stats
  // callbacks may reach a coordinator that is tearing down. The unhook
  // takes the ledger lock, so it waits out an in-flight subscribe.
  server_->SetReplicationObserver(nullptr);
  server_->SetClusterStatsProvider(nullptr);
  DropAllSessions();
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  for (std::unique_ptr<Session>& session : sessions_) {
    if (session->writer.joinable()) session->writer.join();
    if (session->reader.joinable()) session->reader.join();
  }
  sessions_.clear();
}

void Coordinator::OnFrame(net::MessageType type, std::vector<uint8_t> body) {
  const bool full = type == net::MessageType::kSnapshotChunk;
  (full ? ship_.full_frames : ship_.delta_frames).fetch_add(1);
  (full ? ship_.full_bytes : ship_.delta_bytes).fetch_add(body.size());
  if (!EvalFailpoint(full ? failpoints::kClusterShipSnapshot
                          : failpoints::kClusterShipDelta)
           .ok()) {
    // Injected ship failure: drop every session. Replicas resubscribe and
    // start from the server's current images, so no epoch is lost — only
    // re-sent.
    DropAllSessions();
    return;
  }
  Broadcast(type,
            std::make_shared<const std::vector<uint8_t>>(std::move(body)));
}

ShipStats Coordinator::ship_stats() const {
  ShipStats stats;
  stats.full_frames = ship_.full_frames.load();
  stats.delta_frames = ship_.delta_frames.load();
  stats.full_bytes = ship_.full_bytes.load();
  stats.delta_bytes = ship_.delta_bytes.load();
  return stats;
}

int Coordinator::connected_replicas() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  int live = 0;
  for (const std::unique_ptr<Session>& session : sessions_) {
    if (!session->done.load()) ++live;
  }
  return live;
}

uint64_t Coordinator::min_acked_lsn() const {
  uint64_t min_acked = server_->last_epoch_lsn();
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  for (const std::unique_ptr<Session>& session : sessions_) {
    if (session->done.load()) continue;
    min_acked = std::min(min_acked, session->acked_lsn.load());
  }
  return min_acked;
}

void Coordinator::OnSubscribe(net::ReplicaSubscribe subscribe,
                              net::Socket socket,
                              std::vector<std::vector<uint8_t>> catch_up) {
  ReapSessions();
  if (connected_replicas() >= options_.max_replicas) {
    std::vector<uint8_t> error = net::EncodeError(
        net::ErrorKind::kOverloaded,
        Status::Unavailable("replica roster is full; retry later"));
    (void)net::WriteFrame(socket, net::MessageType::kError, error);
    return;
  }

  // Catch-up: the server's current image of every live handle, then the
  // marker carrying the server's LSN, which the replica adopts once it
  // holds those images. The server holds its ledger lock across this
  // call and across each epoch's broadcast, so an epoch is either in
  // the images or broadcast after the session joins the roster below —
  // never lost, never duplicated.
  auto session = std::make_unique<Session>();
  session->name = subscribe.replica_name;
  session->socket = std::move(socket);
  for (std::vector<uint8_t>& chunk : catch_up) {
    session->queue.push_back(
        Outbound{net::MessageType::kSnapshotChunk,
                 std::make_shared<const std::vector<uint8_t>>(
                     std::move(chunk))});
  }
  net::ReplicaStatsFrame marker;
  marker.role = static_cast<uint16_t>(net::NodeRole::kCoordinator);
  marker.last_epoch_lsn = server_->last_epoch_lsn();
  session->queue.push_back(
      Outbound{net::MessageType::kReplicaStats,
               std::make_shared<const std::vector<uint8_t>>(
                   net::EncodeReplicaStatsFrame(marker))});
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  Session* raw = session.get();
  raw->writer = std::thread(&Coordinator::WriterLoop, this, raw);
  raw->reader = std::thread(&Coordinator::ReaderLoop, this, raw);
  sessions_.push_back(std::move(session));
}

void Coordinator::WriterLoop(Session* session) {
  for (;;) {
    Outbound out;
    {
      std::unique_lock<std::mutex> lock(session->mu);
      session->cv.wait(lock, [session] {
        return session->done.load() || !session->queue.empty();
      });
      if (session->done.load()) return;
      out = std::move(session->queue.front());
      session->queue.pop_front();
    }
    Status written = net::WriteFrame(session->socket, out.type, *out.body);
    if (!written.ok()) {
      session->done.store(true);
      session->socket.ShutdownBoth();
      session->cv.notify_all();
      return;
    }
  }
}

void Coordinator::ReaderLoop(Session* session) {
  for (;;) {
    Result<net::Frame> read = net::ReadFrame(session->socket);
    if (!read.ok()) break;
    net::Frame frame = std::move(read).value();
    if (frame.type != net::MessageType::kReplicaStats) continue;
    Result<net::ReplicaStatsFrame> stats =
        net::DecodeReplicaStatsFrame(frame.body);
    if (!stats.ok()) break;
    session->acked_lsn.store(stats->last_epoch_lsn);
    session->queries_served.store(stats->queries_served);
    session->pairs_served.store(stats->pairs_served);
  }
  session->done.store(true);
  session->socket.ShutdownBoth();
  session->cv.notify_all();
}

void Coordinator::ReapSessions() {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (!(*it)->done.load()) {
      ++it;
      continue;
    }
    if ((*it)->writer.joinable()) (*it)->writer.join();
    if ((*it)->reader.joinable()) (*it)->reader.join();
    it = sessions_.erase(it);
  }
}

void Coordinator::Broadcast(
    net::MessageType type,
    std::shared_ptr<const std::vector<uint8_t>> body) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  for (std::unique_ptr<Session>& session : sessions_) {
    if (session->done.load()) continue;
    std::lock_guard<std::mutex> session_lock(session->mu);
    session->queue.push_back(Outbound{type, body});
    session->cv.notify_all();
  }
}

void Coordinator::DropAllSessions() {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  for (std::unique_ptr<Session>& session : sessions_) {
    session->done.store(true);
    session->socket.ShutdownBoth();
    session->cv.notify_all();
  }
}

}  // namespace cluster
}  // namespace dpsp
