#include "net/server.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "common/table.h"

namespace dpsp {
namespace net {

namespace {

/// RAII slot in the in-flight query gauge; `admitted()` is false when the
/// gauge was already at the limit (the caller sheds the request).
class InflightSlot {
 public:
  InflightSlot(std::atomic<int>* gauge, int limit) : gauge_(gauge) {
    admitted_ = gauge_->fetch_add(1, std::memory_order_acq_rel) < limit;
    if (!admitted_) gauge_->fetch_sub(1, std::memory_order_acq_rel);
  }
  ~InflightSlot() {
    if (admitted_) gauge_->fetch_sub(1, std::memory_order_acq_rel);
  }
  InflightSlot(const InflightSlot&) = delete;
  InflightSlot& operator=(const InflightSlot&) = delete;

  bool admitted() const { return admitted_; }

 private:
  std::atomic<int>* gauge_;
  bool admitted_ = false;
};

int DeriveInflightLimit(int configured) {
  if (configured < 0) return 0;  // drain mode: shed every query
  if (configured > 0) return configured;
  return 4 * static_cast<int>(
                 std::max(1u, std::thread::hardware_concurrency()));
}

/// The error kind a failed release maps to: the budget ceiling is the one
/// FailedPrecondition the release path produces, and it must reach the
/// client as the typed "stop retrying" signal.
ErrorKind ReleaseErrorKind(const Status& status) {
  switch (status.code()) {
    case StatusCode::kFailedPrecondition:
      return ErrorKind::kBudgetExhausted;
    case StatusCode::kNotFound:
      return ErrorKind::kNotFound;
    case StatusCode::kInvalidArgument:
      return ErrorKind::kMalformed;
    default:
      return ErrorKind::kInternal;
  }
}

}  // namespace

QueryServer::QueryServer(QueryServerOptions options, ReleaseContext context)
    : options_(std::move(options)),
      inflight_limit_(DeriveInflightLimit(options_.max_inflight_queries)),
      context_(std::move(context)),
      executor_(options_.executor) {
  RefreshBudgetSnapshot();
}

QueryServer::QueryServer(QueryServerOptions options)
    : options_(std::move(options)),
      inflight_limit_(DeriveInflightLimit(options_.max_inflight_queries)),
      executor_(options_.executor) {
  role_.store(NodeRole::kReplica);
}

void QueryServer::RefreshBudgetSnapshot() {
  if (!context_.has_value()) return;  // replica: no ledger to snapshot
  PrivacyParams spent = context_->SpentTotal();
  PrivacyParams remaining = context_->RemainingBudget();
  std::lock_guard<std::mutex> lock(budget_mutex_);
  spent_snapshot_ = spent;
  remaining_snapshot_ = remaining;
}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::AddWorkload(std::string name, Graph graph,
                                EdgeWeights weights) {
  if (running_.load()) {
    return Status::FailedPrecondition(
        "workloads must be added before Start()");
  }
  if (name.empty()) {
    return Status::InvalidArgument("workload name must not be empty");
  }
  for (const Workload& workload : workloads_) {
    if (workload.name == name) {
      return Status::InvalidArgument("workload '" + name +
                                     "' is already loaded");
    }
  }
  if (static_cast<int>(weights.size()) != graph.num_edges()) {
    return Status::InvalidArgument(
        "weight vector length disagrees with the edge count");
  }
  workloads_.push_back({std::move(name), std::move(graph),
                        std::move(weights)});
  return Status::Ok();
}

Status QueryServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("server is already running");
  }
  if (replica_mode() && !options_.persistence_dir.empty()) {
    return Status::FailedPrecondition(
        "replicas do not persist (they resync from the coordinator); "
        "unset persistence_dir");
  }
  // Recover BEFORE the listener binds, so a client can never observe the
  // pre-recovery ledger; the wal_ guard makes a Stop/Start cycle skip the
  // replay (the ledger already holds the recovered charges).
  if (!options_.persistence_dir.empty() && wal_ == nullptr) {
    DPSP_RETURN_IF_ERROR(RecoverPersistentState());
  }
  DPSP_ASSIGN_OR_RETURN(
      listener_, Listener::Bind(options_.bind_address, options_.port));
  stopping_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

Status QueryServer::RecoverPersistentState() {
  const std::string& dir = options_.persistence_dir;
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal(StrFormat("mkdir %s failed: %s", dir.c_str(),
                                      strerror(errno)));
  }
  const std::string wal_path = dir + "/budget.wal";
  DPSP_ASSIGN_OR_RETURN(store::WalRecovery recovery,
                        store::ReplayBudgetWal(wal_path));
  // Every recovered intent is spent — committed or not — so a crash
  // mid-build can only over-count the ledger, never resurrect budget.
  DPSP_RETURN_IF_ERROR(store::ApplyWalRecovery(recovery, *context_));
  recovered_charges_ = recovery.charges.size();
  if (recovery.discarded_tail_bytes > 0) {
    // Drop the torn tail before appending again: new records written
    // after garbage bytes would read as mid-file corruption (a hard
    // error) on the NEXT replay, not a discardable tail.
    if (truncate(wal_path.c_str(),
                 static_cast<off_t>(recovery.valid_bytes)) != 0) {
      return Status::Internal(StrFormat("truncating torn WAL tail: %s",
                                        strerror(errno)));
    }
  }

  // Scan for handle snapshots. Stray .tmp files are dead partial writes
  // (the atomic-rename protocol never publishes them); remove them so
  // they cannot accumulate.
  std::vector<std::string> snapshot_files;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    return Status::Internal(StrFormat("opendir %s failed: %s", dir.c_str(),
                                      strerror(errno)));
  }
  while (dirent* entry = readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      unlink((dir + "/" + name).c_str());
      continue;
    }
    unsigned index = 0;
    if (std::sscanf(name.c_str(), "handle-%u.snap", &index) == 1) {
      snapshot_files.push_back(name);
      next_snapshot_file_ = std::max(next_snapshot_file_, index + 1);
    }
  }
  closedir(d);
  // Sorted order restores handles with the ids they held before the
  // crash (snapshot files are written densely in release order).
  std::sort(snapshot_files.begin(), snapshot_files.end());

  for (const std::string& file : snapshot_files) {
    const std::string path = dir + "/" + file;
    // A corrupt snapshot fails Start loudly: silently skipping it would
    // shift every later handle id and serve smaller state than the
    // operator believes is durable.
    DPSP_ASSIGN_OR_RETURN(store::SnapshotReader reader,
                          store::SnapshotReader::Open(path));
    DPSP_ASSIGN_OR_RETURN(store::OracleSnapshotMeta meta,
                          store::ReadOracleSnapshotMeta(reader));
    const Workload* workload = nullptr;
    for (const Workload& candidate : workloads_) {
      if (candidate.name == meta.workload) workload = &candidate;
    }
    if (workload == nullptr) {
      return Status::FailedPrecondition(StrFormat(
          "snapshot %s was released over workload '%s', which is not "
          "loaded; AddWorkload it before Start",
          path.c_str(), meta.workload.c_str()));
    }
    for (const HandleEntry& handle : handles_) {
      if (handle.name == meta.handle) {
        return Status::FailedPrecondition(StrFormat(
            "snapshot %s duplicates recovered handle '%s'", path.c_str(),
            meta.handle.c_str()));
      }
    }
    DPSP_ASSIGN_OR_RETURN(
        std::unique_ptr<DistanceOracle> oracle,
        store::LoadOracleSnapshot(reader, workload->graph,
                                  workload->weights));
    handles_.push_back({meta.handle, meta.mechanism, workload->name,
                        std::shared_ptr<DistanceOracle>(std::move(oracle)),
                        std::make_shared<std::shared_mutex>(), path});
    // The epoch clock resumes past everything recovered, so post-restart
    // releases stamp fresh LSNs.
    BumpEpochLsn(reader.epoch_lsn());
  }
  recovered_handles_ = static_cast<uint32_t>(snapshot_files.size());
  warm_restart_ = recovery.records > 0 || recovered_handles_ > 0;

  // From here on, every metered charge is intent/commit-logged before the
  // in-memory ledger moves.
  DPSP_ASSIGN_OR_RETURN(wal_, store::BudgetWal::Open(wal_path,
                                                     recovery.next_lsn));
  wal_hook_ = std::make_unique<store::WalDurabilityHook>(wal_.get());
  context_->SetDurabilityHook(wal_hook_.get());
  RefreshBudgetSnapshot();
  return Status::Ok();
}

void QueryServer::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // Unblock every connection thread stuck in ReadFrame, then join. The
  // acceptor is dead, so this thread is the only mutator of the list.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& connection : connections_) connection->socket.ShutdownBoth();
  }
  for (auto& connection : connections_) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  // retained_batch_pairs() may be reading the list.
  std::lock_guard<std::mutex> lock(connections_mutex_);
  connections_.clear();
}

ServerStats QueryServer::stats() const {
  ServerStats stats;
  stats.connections_accepted = counters_.connections_accepted.load();
  stats.queries_served = counters_.queries_served.load();
  stats.pairs_served = counters_.pairs_served.load();
  stats.releases_granted = counters_.releases_granted.load();
  stats.budget_rejected = counters_.budget_rejected.load();
  stats.overload_rejected = counters_.overload_rejected.load();
  {
    std::lock_guard<std::mutex> lock(handles_mutex_);
    // Count live handles: a replica's table may hold empty gap entries
    // for ids it has not received yet.
    uint32_t open = 0;
    for (const HandleEntry& handle : handles_) {
      if (handle.oracle != nullptr) ++open;
    }
    stats.open_handles = open;
  }
  stats.has_recovery = true;
  stats.warm_restart = warm_restart_;
  stats.recovered_handles = recovered_handles_;
  stats.recovered_charges = recovered_charges_;
  stats.has_cluster = true;
  stats.role = static_cast<uint16_t>(role_.load());
  stats.last_epoch_lsn = epoch_lsn_.load();
  {
    std::lock_guard<std::mutex> lock(cluster_stats_mutex_);
    if (cluster_stats_fn_) cluster_stats_fn_(stats);
  }
  return stats;
}

void QueryServer::BumpEpochLsn(uint64_t lsn) {
  uint64_t current = epoch_lsn_.load();
  while (lsn > current &&
         !epoch_lsn_.compare_exchange_weak(current, lsn)) {
  }
}

void QueryServer::SetReplicationObserver(ReplicationObserver* observer) {
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  replication_observer_ = observer;
}

void QueryServer::SetClusterStatsProvider(ClusterStatsFn fn) {
  std::lock_guard<std::mutex> lock(cluster_stats_mutex_);
  cluster_stats_fn_ = std::move(fn);
}

void QueryServer::NotifyReplication(uint32_t handle_id, uint64_t epoch_lsn,
                                    bool is_update, const std::string& name,
                                    const std::string& mechanism,
                                    const std::string& workload,
                                    const DistanceOracle& oracle) {
  if (replication_observer_ == nullptr) return;
  std::vector<ReleasedSection> sections;
  // Unimplemented: the mechanism has no released-state serialization, so
  // it cannot be replicated (exactly the handles that also cannot be
  // snapshotted — replicas answer kNotFound for them).
  if (!oracle.SaveReleasedState(&sections).ok()) return;
  replication_observer_->OnHandleImage(handle_id, epoch_lsn, is_update,
                                       name, mechanism, workload,
                                       std::move(sections));
}

Status QueryServer::InstallReplicaHandle(
    uint32_t handle_id, const std::string& name,
    const std::string& mechanism, const std::string& workload,
    std::shared_ptr<DistanceOracle> oracle) {
  if (oracle == nullptr) {
    return Status::InvalidArgument("replica install needs an oracle");
  }
  // A coordinator assigns handle ids densely; a wildly sparse id is a
  // corrupt or hostile stream, not a gap to pad.
  constexpr uint32_t kMaxHandleId = 1u << 20;
  if (handle_id > kMaxHandleId) {
    return Status::OutOfRange(
        StrFormat("replicated handle id %u exceeds the sanity ceiling",
                  handle_id));
  }
  std::lock_guard<std::mutex> lock(handles_mutex_);
  while (handles_.size() <= handle_id) {
    handles_.push_back({"", "", "", nullptr,
                        std::make_shared<std::shared_mutex>(), ""});
  }
  HandleEntry& entry = handles_[handle_id];
  entry.name = name;
  entry.mechanism = mechanism;
  entry.workload = workload;
  // Swap, don't mutate: in-flight batches hold the old oracle via their
  // shared_ptr and finish against a consistent image; new batches pick up
  // the new one on their next LookupHandle.
  entry.oracle = std::move(oracle);
  return Status::Ok();
}

const Graph* QueryServer::WorkloadGraph(const std::string& name) const {
  for (const Workload& workload : workloads_) {
    if (workload.name == name) return &workload.graph;
  }
  return nullptr;
}

const EdgeWeights* QueryServer::WorkloadWeights(
    const std::string& name) const {
  for (const Workload& workload : workloads_) {
    if (workload.name == name) return &workload.weights;
  }
  return nullptr;
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load()) {
    Result<Socket> accepted = listener_.Accept(/*timeout_ms=*/100);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kUnavailable) {
        ReapFinishedConnections();
        continue;  // poll timeout: check the stop flag and wait again
      }
      break;  // listener failed or was closed underneath us
    }
    counters_.connections_accepted.fetch_add(1);
    ReapFinishedConnections();
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      counters_.overload_rejected.fetch_add(1);
      Socket socket = std::move(accepted).value();
      SendError(socket, ErrorKind::kOverloaded,
                Status::Unavailable("connection limit reached, retry later"));
      continue;  // socket closes on scope exit
    }
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(accepted).value();
    Connection* raw = connection.get();
    connections_.push_back(std::move(connection));
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
}

void QueryServer::ReapFinishedConnections() {
  // Move finished connections out under the lock in ONE evaluation of the
  // done flag, then join outside it: re-checking the flag separately for
  // join and erase would let a connection finish in between and be
  // destroyed joinable (std::terminate).
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    auto live = std::partition(
        connections_.begin(), connections_.end(),
        [](const std::unique_ptr<Connection>& connection) {
          return !connection->done.load();
        });
    for (auto it = live; it != connections_.end(); ++it) {
      finished.push_back(std::move(*it));
    }
    connections_.erase(live, connections_.end());
  }
  for (auto& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void QueryServer::ServeConnection(Connection* connection) {
  Socket& socket = connection->socket;
  // The version the peer last spoke; best-effort errors for unreadable
  // frames echo it so an older peer can still decode them. Before the
  // first good frame, guess the OLDEST supported version: this build's
  // decoder accepts the whole range, so a v1-stamped error is readable
  // by every peer, where a v2 stamp would be rejected by a v1 client's
  // equality check.
  uint16_t peer_version = kMinProtocolVersion;
  while (!stopping_.load()) {
    if (options_.idle_timeout_ms > 0) {
      // Idle-connection timeout: a peer that sends nothing for the
      // window is hung up on without an error frame (it is not waiting
      // for one), freeing the connection slot. Stop() still unblocks
      // this wait — its shutdown makes the socket readable (EOF).
      if (!socket.WaitReadable(options_.idle_timeout_ms).ok()) break;
    }
    Status read = ReadFrameInto(socket, &connection->buffers.frame);
    if (!read.ok()) {
      // kNotFound is the peer hanging up cleanly; anything else is a
      // framing failure worth one best-effort typed error before closing
      // (the stream cannot be resynchronized either way).
      if (read.code() != StatusCode::kNotFound && !stopping_.load()) {
        SendError(socket, ErrorKind::kMalformed, read, peer_version);
      }
      break;
    }
    peer_version = connection->buffers.frame.version;
    if (!DispatchFrame(*connection)) break;
  }
  // Free the buffers now, not when the acceptor gets around to reaping.
  connection->buffers = QueryBuffers();
  connection->batch_pairs.store(0);
  connection->done.store(true);
}

size_t QueryServer::retained_batch_pairs() const {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  size_t total = 0;
  for (const auto& connection : connections_) {
    total += connection->batch_pairs.load();
  }
  return total;
}

bool QueryServer::DispatchFrame(Connection& connection) {
  Socket& socket = connection.socket;
  const Frame& frame = connection.buffers.frame;
  switch (frame.type) {
    case MessageType::kReleaseRequest:
      HandleRelease(socket, frame.body, frame.version);
      return true;
    case MessageType::kQueryRequest:
      HandleQuery(connection);
      return true;
    case MessageType::kUpdateRequest:
      HandleUpdate(socket, frame.body, frame.version);
      return true;
    case MessageType::kStatsRequest:
      HandleStats(socket, frame.version);
      return true;
    default:
      SendError(socket, ErrorKind::kMalformed,
                Status::InvalidArgument(
                    "unexpected message type for a request"),
                frame.version);
      return false;
  }
}

void QueryServer::HandleRelease(Socket& socket,
                                std::span<const uint8_t> body,
                                uint16_t version) {
  if (replica_mode()) {
    // Not a budget rejection (budget_rejected stays untouched): this node
    // simply has no ledger. The failover-aware client routes releases to
    // the coordinator.
    SendError(socket, ErrorKind::kUnsupported,
              Status::FailedPrecondition(
                  "this node is a read replica; releases run on the "
                  "coordinator"), version);
    return;
  }
  Result<ReleaseRequest> request = DecodeReleaseRequest(body);
  if (!request.ok()) {
    SendError(socket, ErrorKind::kMalformed, request.status(), version);
    return;
  }
  const Workload* workload = nullptr;
  for (const Workload& candidate : workloads_) {
    if (candidate.name == request->workload) workload = &candidate;
  }
  if (workload == nullptr) {
    SendError(socket, ErrorKind::kNotFound,
              Status::NotFound("no workload loaded under '" +
                               request->workload + "'"), version);
    return;
  }
  const OracleRegistry& registry = OracleRegistry::Global();
  if (!registry.Contains(request->mechanism)) {
    SendError(socket, ErrorKind::kNotFound,
              Status::NotFound("no oracle registered under '" +
                               request->mechanism + "'"), version);
    return;
  }
  if (request->handle_name.empty()) {
    SendError(socket, ErrorKind::kMalformed,
              Status::InvalidArgument("handle name must not be empty"), version);
    return;
  }
  ReleaseInfo info;
  {
    // One ledger, one noise stream: releases serialize here, and the
    // ledger lock also spans the duplicate-name check AND the handle
    // insertion — two concurrent releases of the same name must not both
    // pass the check and double-charge the budget. (handles_mutex_ is
    // only ever taken inside ledger_mutex_ or alone, never the reverse.)
    std::lock_guard<std::mutex> ledger_lock(ledger_mutex_);
    {
      std::lock_guard<std::mutex> lock(handles_mutex_);
      for (const HandleEntry& handle : handles_) {
        if (handle.name == request->handle_name) {
          // A release is a budget spend: silently re-running it on a name
          // collision would double-charge, so the collision is an error.
          SendError(socket, ErrorKind::kMalformed,
                    Status::InvalidArgument("handle '" +
                                            request->handle_name +
                                            "' already exists"), version);
          return;
        }
      }
    }
    // The budget check inside the factory protocol (MeteredBuild) runs
    // BEFORE the build, so an over-budget request is refused without
    // construction cost — that check is the release half of admission
    // control.
    Result<std::unique_ptr<DistanceOracle>> built = registry.Create(
        request->mechanism, workload->graph, workload->weights, *context_);
    if (!built.ok()) {
      if (built.status().code() == StatusCode::kFailedPrecondition) {
        counters_.budget_rejected.fetch_add(1);
      }
      SendError(socket, ReleaseErrorKind(built.status()), built.status(),
                version);
      return;
    }
    if (const ReleaseTelemetry* t = context_->last_telemetry()) {
      info.epsilon = t->epsilon;
      info.delta = t->delta;
      info.wall_ms = t->wall_ms;
    }
    std::shared_ptr<DistanceOracle> oracle(std::move(built).value());
    // Each granted release is one replication epoch (bumped under the
    // ledger lock, so LSNs assign in the same order observers see them).
    const uint64_t epoch_lsn = epoch_lsn_.fetch_add(1) + 1;
    std::string snapshot_path;
    if (wal_ != nullptr) {
      snapshot_path = StrFormat("%s/handle-%06u.snap",
                                options_.persistence_dir.c_str(),
                                next_snapshot_file_++);
    }
    {
      std::lock_guard<std::mutex> lock(handles_mutex_);
      info.handle_id = static_cast<uint32_t>(handles_.size());
      handles_.push_back({request->handle_name, request->mechanism,
                          workload->name, oracle,
                          std::make_shared<std::shared_mutex>(),
                          snapshot_path});
    }
    if (!snapshot_path.empty()) {
      store::OracleSnapshotMeta meta{request->mechanism, workload->name,
                                     request->handle_name};
      Status saved = store::SaveOracleSnapshot(snapshot_path, *oracle, meta,
                                               epoch_lsn);
      if (saved.code() == StatusCode::kUnimplemented) {
        // The mechanism has no released-state serialization: serve it,
        // but it will not survive a restart (its budget charge, already
        // in the WAL, will — conservative).
        std::lock_guard<std::mutex> lock(handles_mutex_);
        handles_.back().snapshot_path.clear();
      } else if (!saved.ok()) {
        // Durability was promised and could not be delivered: withdraw
        // the handle. The budget stays spent (the intent is logged; the
        // noise was drawn) — over-charging is safe, resurrecting is not.
        {
          std::lock_guard<std::mutex> lock(handles_mutex_);
          handles_.pop_back();
        }
        RefreshBudgetSnapshot();
        SendError(socket, ErrorKind::kInternal, saved, version);
        return;
      }
    }
    // Durability first, then replication: the observer ships an image the
    // coordinator has already made crash-safe.
    NotifyReplication(info.handle_id, epoch_lsn, /*is_update=*/false,
                      request->handle_name, request->mechanism,
                      workload->name, *oracle);
    RefreshBudgetSnapshot();  // still under the ledger lock
  }
  counters_.releases_granted.fetch_add(1);
  std::vector<uint8_t> response = EncodeReleaseInfo(info);
  WriteFrame(socket, MessageType::kReleaseResponse, response, version);
}

void QueryServer::LookupHandle(
    uint32_t handle_id, std::shared_ptr<DistanceOracle>* oracle,
    std::shared_ptr<std::shared_mutex>* guard) const {
  std::lock_guard<std::mutex> lock(handles_mutex_);
  if (handle_id < handles_.size()) {
    *oracle = handles_[handle_id].oracle;
    *guard = handles_[handle_id].guard;
  }
}

void QueryServer::HandleQuery(Connection& connection) {
  Socket& socket = connection.socket;
  QueryBuffers& buffers = connection.buffers;
  const uint16_t version = buffers.frame.version;
  // Queue-depth backpressure first: shedding happens before the body is
  // even decoded, so an overloaded server does the minimum work per
  // rejected request.
  InflightSlot slot(&inflight_queries_, inflight_limit_);
  if (!slot.admitted()) {
    counters_.overload_rejected.fetch_add(1);
    SendError(socket, ErrorKind::kOverloaded,
              Status::Unavailable("query queue depth limit reached, "
                                  "retry later"), version);
    return;
  }
  Result<QueryRequestView> request = ParseQueryRequest(buffers.frame.body);
  if (!request.ok()) {
    SendError(socket, ErrorKind::kMalformed, request.status(), version);
    return;
  }
  if (request->num_pairs > options_.max_pairs_per_query) {
    SendError(socket, ErrorKind::kTooLarge,
              Status::OutOfRange(StrFormat(
                  "batch of %u pairs exceeds the per-request limit of %u",
                  request->num_pairs, options_.max_pairs_per_query)),
              version);
    return;
  }
  std::shared_ptr<DistanceOracle> oracle;
  std::shared_ptr<std::shared_mutex> guard;
  LookupHandle(request->handle_id, &oracle, &guard);
  if (oracle == nullptr) {
    SendError(socket, ErrorKind::kNotFound,
              Status::NotFound(StrFormat("no released oracle with handle %u",
                                         request->handle_id)), version);
    return;
  }
  const size_t n = request->num_pairs;
  if (buffers.pairs.size() < n) {
    // Exact-size buffers, not resize's doubling: a connection retains
    // its largest accepted batch, never twice that.
    buffers.pairs = std::vector<VertexPair>(n);
    buffers.answers = std::vector<double>(n);
    connection.batch_pairs.store(n);
  }
  std::span<VertexPair> pairs(buffers.pairs.data(), n);
  std::span<double> answers(buffers.answers.data(), n);
  CopyPairs(*request, pairs);
  Status executed;
  {
    // Reader side of the handle guard: any number of query batches run
    // concurrently, but never across an in-flight update epoch. The
    // answers are this connection's own, so the guard is not held while
    // they are written out.
    std::shared_lock<std::shared_mutex> read_lock(*guard);
    executed = executor_.ExecuteInto(*oracle, pairs, answers);
  }
  if (!executed.ok()) {
    // Out-of-range vertices and the like: the client's fault, typed so.
    SendError(socket, ErrorKind::kMalformed, executed, version);
    return;
  }
  counters_.queries_served.fetch_add(1);
  counters_.pairs_served.fetch_add(n);
  WriteQueryResponse(socket, answers, version);
}

void QueryServer::HandleUpdate(Socket& socket, std::span<const uint8_t> body,
                               uint16_t version) {
  if (replica_mode()) {
    SendError(socket, ErrorKind::kUnsupported,
              Status::FailedPrecondition(
                  "this node is a read replica; update epochs run on the "
                  "coordinator"), version);
    return;
  }
  if (version < kUpdateProtocolVersion) {
    // The peer's own protocol does not define this exchange; acting on it
    // would be guessing at semantics the peer never agreed to.
    SendError(socket, ErrorKind::kMalformed,
              Status::InvalidArgument(StrFormat(
                  "UpdateWeights requires protocol v%u (peer spoke v%u)",
                  kUpdateProtocolVersion, version)), version);
    return;
  }
  Result<UpdateRequest> request = DecodeUpdateRequest(body);
  if (!request.ok()) {
    SendError(socket, ErrorKind::kMalformed, request.status(), version);
    return;
  }
  if (request->deltas.size() > options_.max_pairs_per_query) {
    SendError(socket, ErrorKind::kTooLarge,
              Status::OutOfRange(StrFormat(
                  "epoch of %zu deltas exceeds the per-request limit of %u",
                  request->deltas.size(), options_.max_pairs_per_query)),
              version);
    return;
  }
  std::shared_ptr<DistanceOracle> oracle;
  std::shared_ptr<std::shared_mutex> guard;
  LookupHandle(request->handle_id, &oracle, &guard);
  if (oracle == nullptr) {
    SendError(socket, ErrorKind::kNotFound,
              Status::NotFound(StrFormat("no released oracle with handle %u",
                                         request->handle_id)), version);
    return;
  }
  UpdatableDistanceOracle* updatable = oracle->AsUpdatable();
  if (updatable == nullptr) {
    SendError(socket, ErrorKind::kUnsupported,
              Status::FailedPrecondition(
                  "release '" + oracle->Name() +
                  "' is build-once: it does not support incremental "
                  "weight updates"), version);
    return;
  }
  UpdateInfo info;
  {
    // Updates serialize with releases on the ledger (one noise stream,
    // one budget) and exclude this handle's queries for the duration of
    // the in-place redraw. Lock order: ledger before handle guard,
    // matching HandleRelease's ledger-then-handles discipline.
    std::lock_guard<std::mutex> ledger_lock(ledger_mutex_);
    std::unique_lock<std::shared_mutex> write_lock(*guard);
    Status applied = updatable->ApplyWeightUpdates(request->deltas,
                                                   *context_);
    if (!applied.ok()) {
      if (applied.code() == StatusCode::kFailedPrecondition) {
        counters_.budget_rejected.fetch_add(1);
      }
      SendError(socket, ReleaseErrorKind(applied), applied, version);
      return;
    }
    const UpdatableDistanceOracle::UpdateStats& stats =
        updatable->last_update();
    info.charged_epsilon = stats.charged_epsilon;
    info.charged_delta = 0.0;  // partial releases charge in pure currency
    info.dirty_blocks = static_cast<uint32_t>(stats.dirty_blocks);
    if (const ReleaseTelemetry* t = context_->last_telemetry();
        t != nullptr && stats.dirty_edges > 0) {
      info.wall_ms = t->wall_ms;
    }
    PrivacyParams remaining = context_->RemainingBudget();
    info.remaining_epsilon = remaining.epsilon;
    info.remaining_delta = remaining.delta;
    RefreshBudgetSnapshot();  // still under the ledger lock
    const uint64_t epoch_lsn = epoch_lsn_.fetch_add(1) + 1;
    std::string snapshot_path;
    store::OracleSnapshotMeta meta;
    {
      std::lock_guard<std::mutex> lock(handles_mutex_);
      const HandleEntry& entry = handles_[request->handle_id];
      snapshot_path = entry.snapshot_path;
      meta = {entry.mechanism, entry.workload, entry.name};
    }
    if (!snapshot_path.empty()) {
      // Rewrite under the write lock so the snapshot is a consistent
      // post-epoch image. Failure is a durability DEGRADATION, not an
      // update failure: the atomic-write protocol leaves the previous
      // epoch's complete file, so a crash now recovers the pre-update
      // oracle while the WAL still charges the epoch — conservative, and
      // the client's update already took effect in memory.
      (void)store::SaveOracleSnapshot(snapshot_path, *oracle, meta,
                                      epoch_lsn);
    }
    // Ship the post-epoch image while the writer lock still excludes
    // queries: the observer diffs it against the previous epoch to build
    // the dirty-block delta replicas apply.
    NotifyReplication(request->handle_id, epoch_lsn, /*is_update=*/true,
                      meta.handle, meta.mechanism, meta.workload, *oracle);
  }
  std::vector<uint8_t> response = EncodeUpdateInfo(info);
  WriteFrame(socket, MessageType::kUpdateResponse, response, version);
}

void QueryServer::HandleStats(Socket& socket, uint16_t version) {
  ServerStats snapshot = stats();
  snapshot.has_accounting = true;
  if (context_.has_value()) {
    // The policy never changes after construction; the budget position is
    // served from the post-commit snapshot so a stats poll is O(1) even
    // while a release build holds the ledger lock for seconds.
    snapshot.accounting_policy = static_cast<uint16_t>(context_->policy());
    std::lock_guard<std::mutex> lock(budget_mutex_);
    snapshot.spent_epsilon = spent_snapshot_.epsilon;
    snapshot.spent_delta = spent_snapshot_.delta;
    snapshot.remaining_epsilon = remaining_snapshot_.epsilon;
    snapshot.remaining_delta = remaining_snapshot_.delta;
  }
  // Replica: the accounting fields stay zero — the budget lives on the
  // coordinator, and role (v5) tells the client which node it asked.
  std::vector<uint8_t> response = EncodeServerStats(snapshot, version);
  WriteFrame(socket, MessageType::kStatsResponse, response, version);
}

void QueryServer::SendError(Socket& socket, ErrorKind kind,
                            const Status& status, uint16_t version) {
  std::vector<uint8_t> body = EncodeError(kind, status);
  // Best-effort: the peer may already be gone; its read loop will notice.
  WriteFrame(socket, MessageType::kError, body, version);
}

}  // namespace net
}  // namespace dpsp
