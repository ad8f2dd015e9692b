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
  DPSP_ASSIGN_OR_RETURN(
      listener_,
      net::Listener::Bind(options_.bind_address, options_.replication_port));
  stopping_.store(false);
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
  accept_thread_ = std::thread(&Coordinator::AcceptLoop, this);
  return Status::Ok();
}

void Coordinator::Stop() {
  if (!running_.exchange(false)) return;
  // Unhook from the server first: no new images or stats callbacks may
  // reach a coordinator that is tearing down.
  server_->SetReplicationObserver(nullptr);
  server_->SetClusterStatsProvider(nullptr);
  stopping_.store(true);
  // Join before closing: the accept loop polls and accepts on the
  // listener's fd, and closing it under that thread could accept on a
  // reused fd. The loop sees stopping_ at its next poll timeout.
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  DropAllSessions();
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  for (std::unique_ptr<Session>& session : sessions_) {
    if (session->writer.joinable()) session->writer.join();
    if (session->reader.joinable()) session->reader.join();
  }
  sessions_.clear();
}

void Coordinator::OnHandleImage(uint32_t handle_id, uint64_t epoch_lsn,
                                bool is_update, const std::string& name,
                                const std::string& mechanism,
                                const std::string& workload,
                                std::vector<ReleasedSection> sections) {
  net::MessageType type = net::MessageType::kSnapshotChunk;
  std::shared_ptr<const std::vector<uint8_t>> body;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    HandleState& state = states_[handle_id];
    bool ship_full = !is_update || state.mechanism.empty();
    std::vector<store::SectionPatch> patches;
    if (!ship_full) {
      Result<std::vector<store::SectionPatch>> delta =
          store::ComputeSectionDelta(state.current_sections, sections);
      if (delta.ok()) {
        patches = std::move(delta).value();
      } else {
        // Section shape changed (labels, counts, sizes): a delta cannot
        // express it, rebase on a full chunk.
        ship_full = true;
      }
    }
    if (ship_full) {
      net::SnapshotChunk chunk;
      chunk.handle_id = handle_id;
      chunk.epoch_lsn = epoch_lsn;
      chunk.handle_name = name;
      chunk.mechanism = mechanism;
      chunk.workload = workload;
      chunk.sections = sections;
      body = std::make_shared<const std::vector<uint8_t>>(
          net::EncodeSnapshotChunk(chunk));
      type = net::MessageType::kSnapshotChunk;
      state.name = name;
      state.mechanism = mechanism;
      state.workload = workload;
      state.base_lsn = epoch_lsn;
      state.base_sections = std::move(chunk.sections);
      state.current_sections = std::move(sections);
      state.delta_log.clear();
      state.logged_delta_bytes = 0;
      ship_.full_frames.fetch_add(1);
      ship_.full_bytes.fetch_add(body->size());
    } else {
      net::DeltaFrame frame;
      frame.handle_id = handle_id;
      frame.epoch_lsn = epoch_lsn;
      frame.patches = std::move(patches);
      body = std::make_shared<const std::vector<uint8_t>>(
          net::EncodeDeltaFrame(frame));
      type = net::MessageType::kDeltaFrame;
      state.current_sections = std::move(sections);
      state.delta_log.push_back(LoggedDelta{epoch_lsn, body});
      state.logged_delta_bytes += body->size();
      ship_.delta_frames.fetch_add(1);
      ship_.delta_bytes.fetch_add(body->size());
      uint64_t base_bytes = 0;
      for (const ReleasedSection& section : state.base_sections) {
        base_bytes += section.bytes.size();
      }
      if (static_cast<double>(state.logged_delta_bytes) >
          options_.compaction_factor * static_cast<double>(base_bytes)) {
        // Compact: the current image becomes the base, so a subscriber's
        // catch-up cost stays bounded by ~(1 + factor) x image size.
        state.base_lsn = epoch_lsn;
        state.base_sections = state.current_sections;
        state.delta_log.clear();
        state.logged_delta_bytes = 0;
      }
    }
  }
  const char* site = type == net::MessageType::kSnapshotChunk
                         ? failpoints::kClusterShipSnapshot
                         : failpoints::kClusterShipDelta;
  if (!EvalFailpoint(site).ok()) {
    // Injected ship failure: drop every session. Replicas reconnect and
    // catch up from the (already updated) handle state, so no epoch is
    // lost — only re-sent.
    DropAllSessions();
    return;
  }
  Broadcast(type, std::move(body));
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

void Coordinator::AcceptLoop() {
  while (!stopping_.load()) {
    ReapSessions();
    Result<net::Socket> accepted = listener_.Accept(200);
    if (!accepted.ok()) continue;  // timeout or failed accept: retry
    ServeSubscriber(std::move(accepted).value());
  }
}

void Coordinator::ServeSubscriber(net::Socket socket) {
  // A dialer that never sends its subscribe must not stall the accept
  // loop: bound the whole handshake read.
  (void)socket.SetRecvTimeout(options_.subscribe_timeout_ms);
  Result<net::Frame> first = net::ReadFrame(socket);
  if (!first.ok()) return;
  net::Frame frame = std::move(first).value();
  if (frame.type != net::MessageType::kReplicaSubscribe) {
    std::vector<uint8_t> error = net::EncodeError(
        net::ErrorKind::kMalformed,
        Status::InvalidArgument(
            "replication listener expects a ReplicaSubscribe frame"));
    (void)net::WriteFrame(socket, net::MessageType::kError, error,
                          frame.version);
    return;
  }
  if (frame.version < net::kReplicationProtocolVersion) {
    // The peer's own protocol version does not define replication frames
    // — reject, never act on a frame from before the exchange existed.
    std::vector<uint8_t> error = net::EncodeError(
        net::ErrorKind::kMalformed,
        Status::InvalidArgument(
            "replication frames require protocol v5; peer stamped an "
            "older version"));
    (void)net::WriteFrame(socket, net::MessageType::kError, error,
                          frame.version);
    return;
  }
  Result<net::ReplicaSubscribe> decoded =
      net::DecodeReplicaSubscribe(frame.body);
  if (!decoded.ok()) {
    std::vector<uint8_t> error =
        net::EncodeError(net::ErrorKind::kMalformed, decoded.status());
    (void)net::WriteFrame(socket, net::MessageType::kError, error,
                          frame.version);
    return;
  }
  net::ReplicaSubscribe subscribe = std::move(decoded).value();
  if (connected_replicas() >= options_.max_replicas) {
    std::vector<uint8_t> error = net::EncodeError(
        net::ErrorKind::kOverloaded,
        Status::Unavailable("replica roster is full; retry later"));
    (void)net::WriteFrame(socket, net::MessageType::kError, error,
                          frame.version);
    return;
  }
  // The subscribe deadline served its purpose; from here the writer owns
  // the socket and the reader blocks on acks indefinitely.
  (void)socket.SetRecvTimeout(0);

  // Catch-up: everything the replica is missing, in LSN order. Taking
  // state_mutex_ here serializes against OnHandleImage, so a concurrent
  // epoch is either in the replay or broadcast after the session joins
  // the roster below — never lost, never duplicated.
  std::vector<std::pair<uint64_t, Outbound>> replay;
  auto session = std::make_unique<Session>();
  {
    std::lock_guard<std::mutex> state_lock(state_mutex_);
    for (const auto& [handle_id, state] : states_) {
      if (state.mechanism.empty()) continue;
      if (subscribe.last_epoch_lsn < state.base_lsn) {
        replay.emplace_back(
            state.base_lsn,
            Outbound{net::MessageType::kSnapshotChunk,
                     EncodeBaseChunk(handle_id, state)});
        for (const LoggedDelta& delta : state.delta_log) {
          replay.emplace_back(
              delta.lsn,
              Outbound{net::MessageType::kDeltaFrame, delta.body});
        }
      } else {
        for (const LoggedDelta& delta : state.delta_log) {
          if (delta.lsn <= subscribe.last_epoch_lsn) continue;
          replay.emplace_back(
              delta.lsn,
              Outbound{net::MessageType::kDeltaFrame, delta.body});
        }
      }
    }
    std::sort(replay.begin(), replay.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // The catch-up marker: the coordinator's LSN at subscribe time, so
    // the replica knows when it has converged.
    net::ReplicaStatsFrame marker;
    marker.role = static_cast<uint16_t>(net::NodeRole::kCoordinator);
    marker.last_epoch_lsn = server_->last_epoch_lsn();
    replay.emplace_back(
        ~uint64_t{0},
        Outbound{net::MessageType::kReplicaStats,
                 std::make_shared<const std::vector<uint8_t>>(
                     net::EncodeReplicaStatsFrame(marker))});

    session->name = subscribe.replica_name;
    session->socket = std::move(socket);
    session->acked_lsn.store(subscribe.last_epoch_lsn);
    for (auto& [lsn, outbound] : replay) {
      session->queue.push_back(std::move(outbound));
    }
    // Register under state_mutex_ still held: an OnHandleImage racing in
    // right now blocks until the roster already includes this session.
    std::lock_guard<std::mutex> sessions_lock(sessions_mutex_);
    Session* raw = session.get();
    raw->writer = std::thread(&Coordinator::WriterLoop, this, raw);
    raw->reader = std::thread(&Coordinator::ReaderLoop, this, raw);
    sessions_.push_back(std::move(session));
  }
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

std::shared_ptr<const std::vector<uint8_t>> Coordinator::EncodeBaseChunk(
    uint32_t handle_id, const HandleState& state) const {
  net::SnapshotChunk chunk;
  chunk.handle_id = handle_id;
  chunk.epoch_lsn = state.base_lsn;
  chunk.handle_name = state.name;
  chunk.mechanism = state.mechanism;
  chunk.workload = state.workload;
  chunk.sections = state.base_sections;
  return std::make_shared<const std::vector<uint8_t>>(
      net::EncodeSnapshotChunk(chunk));
}

}  // namespace cluster
}  // namespace dpsp
