// The length-prefixed binary wire protocol the query server and client
// speak — one frame per request or response over a TCP stream.
//
// Frame layout (all integers little-endian; the codecs copy host bytes
// straight onto the wire, so the build refuses big-endian targets with a
// static_assert instead of speaking a different format there):
//
//   offset  size  field
//   0       4     magic 0x44505350 ("DPSP")
//   4       2     protocol version (kProtocolVersion)
//   6       2     message type (MessageType)
//   8       4     body size in bytes
//   12      ...   body (per-type encoding below)
//
// Bodies:
//   ReleaseRequest   str workload, str mechanism, str handle_name
//   ReleaseResponse  u32 handle_id, f64 epsilon, f64 delta, f64 wall_ms
//   QueryRequest     u32 handle_id, u32 num_pairs, num_pairs x (i32 u, i32 v)
//   QueryResponse    u32 num_pairs, num_pairs x f64 distance
//   StatsRequest     (empty)
//   StatsResponse    6 x u64 counters, u32 open_handles (ServerStats order);
//                    accounting: u16 policy (AccountingPolicy),
//                    f64 spent_epsilon, f64 spent_delta,
//                    f64 remaining_epsilon,
//                    f64 remaining_delta (+inf when no total budget);
//                    recovery: u32 warm_restart (0/1),
//                    u32 recovered_handles, u64 recovered_charges;
//                    cluster: u16 role (NodeRole), u64 last_epoch_lsn,
//                    u32 num_replicas, u64 replica_lag,
//                    u64 replica_queries_served, u64 replica_pairs_served
//   UpdateRequest    u32 handle_id, u32 num_deltas,
//                    num_deltas x (i32 edge, f64 new_weight)
//   UpdateResponse   f64 charged_epsilon, f64 charged_delta,
//                    f64 remaining_epsilon, f64 remaining_delta,
//                    u32 dirty_blocks, f64 wall_ms
//   ReplicaSubscribe str replica_name
//   SnapshotChunk    u32 handle_id, then one snapshot container
//                    (store/snapshot.h: epoch LSN, sections, CRC32Cs)
//   DeltaFrame       u32 handle_id, u64 epoch_lsn, u32 num_patches,
//                    num_patches x (str label, u64 section_bytes,
//                    u32 post_crc32c, u32 num_ranges,
//                    num_ranges x (u64 offset, u64 len, raw bytes))
//   ReplicaStats     u16 role (NodeRole), u64 last_epoch_lsn,
//                    u64 queries_served, u64 pairs_served
//   Error            u16 kind (ErrorKind), u16 status code (StatusCode),
//                    str message
//
// Every peer speaks kProtocolVersion: a header stamped with any other
// version is refused with a typed kMalformed error before dispatch.
// A ReplicaSubscribe turns its query-port connection into a replication
// stream: SnapshotChunk and DeltaFrame frames flow to the replica, its
// ReplicaStats acks flow back.
//
// Strings are u32 length + raw bytes (no terminator). Every decoder
// validates length prefixes against the remaining body and rejects
// trailing bytes, so a malformed or truncated frame is a typed kMalformed
// error, never a crash. The error frame is "typed": `kind` tells clients
// WHY mechanically (budget exhausted vs. overloaded vs. unknown handle)
// while the embedded status code/message reproduce the server-side Status
// so Client can surface the same Result the in-process call would return.
//
// The query exchange copies a batch at most once in user space on each
// end. Every frame goes out as one gather write of {stack-built header,
// body pieces}, so WriteQueryRequest sends a caller's pair array and
// WriteQueryResponse an answer array as they lie in memory, each behind a
// few prefix bytes. On the way in, ReadFrameInto refills a caller-owned
// Frame, and ParseQueryRequest checks a body's shape before CopyPairs
// moves its pairs out in one memcpy. The Encode/Decode functions build
// and read the same bytes through buffers of their own.

#ifndef DPSP_NET_PROTOCOL_H_
#define DPSP_NET_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/distance_oracle.h"
#include "net/socket.h"
#include "store/snapshot.h"
#include "store/snapshot_delta.h"

namespace dpsp {
namespace net {

inline constexpr uint32_t kFrameMagic = 0x44505350u;  // "DPSP"
inline constexpr uint16_t kProtocolVersion = 6;
/// Frames above this body size are rejected before allocation: 1M pairs.
inline constexpr uint32_t kMaxBodyBytes = 16u << 20;
/// Body-size ceiling on a replication stream, where one SnapshotChunk
/// carries a whole released image (ReadFrame callers on that stream pass
/// this instead of kMaxBodyBytes).
inline constexpr uint32_t kMaxReplicationBodyBytes = 256u << 20;

enum class MessageType : uint16_t {
  kReleaseRequest = 1,
  kReleaseResponse = 2,
  kQueryRequest = 3,
  kQueryResponse = 4,
  kStatsRequest = 5,
  kStatsResponse = 6,
  kError = 7,
  kUpdateRequest = 8,
  kUpdateResponse = 9,
  kReplicaSubscribe = 10,
  kSnapshotChunk = 11,
  kDeltaFrame = 12,
  kReplicaStats = 13,
};

/// Where a node sits in the replicated read tier (the Stats and
/// ReplicaStats role fields).
enum class NodeRole : uint16_t {
  /// A single node doing both releases and queries (no cluster).
  kStandalone = 0,
  /// The budget holder: the only node that executes releases/updates.
  kCoordinator = 1,
  /// A read replica: serves queries from replicated images, holds no
  /// budget, refuses releases/updates with kUnsupported.
  kReplica = 2,
};

const char* NodeRoleName(NodeRole role);

/// Machine-readable reason an Error frame was sent. The admission
/// controller's two rejection paths get distinct kinds so clients can
/// back off (kOverloaded: retry later) or stop (kBudgetExhausted: no
/// retry will ever succeed).
enum class ErrorKind : uint16_t {
  kMalformed = 0,
  kNotFound = 1,
  kBudgetExhausted = 2,
  kOverloaded = 3,
  kTooLarge = 4,
  kInternal = 5,
  /// The addressed release or node exists but does not support the
  /// requested operation (an UpdateRequest against a build-once
  /// mechanism, a ReplicaSubscribe to a node that is not a coordinator).
  kUnsupported = 6,
};

const char* ErrorKindName(ErrorKind kind);

/// One decoded frame.
struct Frame {
  MessageType type = MessageType::kError;
  std::vector<uint8_t> body;
};

/// Writes one frame (header + body) as one gather write: the body is not
/// copied behind the header first.
Status WriteFrame(Socket& socket, MessageType type,
                  std::span<const uint8_t> body);

/// Reads one frame, validating magic, version, and the body-size ceiling.
/// A clean EOF before the header surfaces as kNotFound (peer hung up).
Result<Frame> ReadFrame(Socket& socket, uint32_t max_body_bytes = kMaxBodyBytes);

/// ReadFrame into a caller-owned frame whose body buffer is reused: it
/// grows (to exactly the body size) only when a body outgrows it, so a
/// reader of similar-sized frames stops allocating after the first.
Status ReadFrameInto(Socket& socket, Frame* frame,
                     uint32_t max_body_bytes = kMaxBodyBytes);

// ------------------------------------------------------------- messages --

struct ReleaseRequest {
  /// Which loaded workload (graph + private weights) to release over.
  std::string workload;
  /// Registry name of the mechanism to build.
  std::string mechanism;
  /// Client-chosen name for the release; re-releasing an existing name is
  /// refused (a release is a budget spend, never silently repeated).
  std::string handle_name;
};

/// What the server returns for a granted release.
struct ReleaseInfo {
  uint32_t handle_id = 0;
  double epsilon = 0.0;
  double delta = 0.0;
  double wall_ms = 0.0;
};

struct QueryRequest {
  uint32_t handle_id = 0;
  std::vector<VertexPair> pairs;
};

/// One incremental weight-update epoch against a released handle. The
/// deltas are the continual-release drift: edge ids
/// into the workload's public topology plus their new private weights.
struct UpdateRequest {
  uint32_t handle_id = 0;
  std::vector<EdgeWeightDelta> deltas;
};

/// What the server returns for an applied update epoch: the partial-
/// release loss actually charged plus the ledger's remaining headroom, so
/// a remote updater can pace its epochs without a stats round trip.
struct UpdateInfo {
  double charged_epsilon = 0.0;
  double charged_delta = 0.0;
  double remaining_epsilon = 0.0;
  double remaining_delta = 0.0;
  /// Noisy values the epoch redrew (dirty dyadic blocks + scalars).
  uint32_t dirty_blocks = 0;
  double wall_ms = 0.0;
};

/// Server-side counters, exposed over StatsRequest for monitoring and the
/// load generator's sanity checks. The frame also carries the budget
/// position under the server's active accounting policy
/// (dp/accountant.h), so remote clients can pace their releases without
/// a server-side round trip per attempt.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t queries_served = 0;
  uint64_t pairs_served = 0;
  uint64_t releases_granted = 0;
  uint64_t budget_rejected = 0;
  uint64_t overload_rejected = 0;
  uint32_t open_handles = 0;

  /// The server ledger's AccountingPolicy, as its wire value.
  uint16_t accounting_policy = 0;
  /// The policy-certified total spent so far (ReleaseContext::SpentTotal).
  double spent_epsilon = 0.0;
  double spent_delta = 0.0;
  /// Headroom under the server's total budget before admission refuses
  /// (ReleaseContext::RemainingBudget); +infinity when none is installed.
  /// Derived from the admission rule's tightest sound bound, so
  /// spent + remaining may exceed the budget on ledgers where the
  /// reported total is looser than what admission certifies.
  double remaining_epsilon = 0.0;
  double remaining_delta = 0.0;

  /// True when the server recovered state from a persistence directory at
  /// Start (ledger replayed from the WAL and/or snapshots reloaded),
  /// false for a fresh boot — a monitoring client's recovered-vs-fresh
  /// signal.
  bool warm_restart = false;
  /// Handles reloaded from snapshots at Start.
  uint32_t recovered_handles = 0;
  /// Budget charges replayed from the WAL at Start (intents; uncommitted
  /// ones count — intent-without-commit is spent).
  uint64_t recovered_charges = 0;

  /// The node's NodeRole, as its wire value.
  uint16_t role = 0;
  /// Highest replication epoch this node has applied (a coordinator: the
  /// epoch it last assigned; a replica: the epoch it last installed).
  uint64_t last_epoch_lsn = 0;
  /// Coordinator only: replicas currently subscribed.
  uint32_t num_replicas = 0;
  /// Epochs behind: a coordinator reports its lag to the slowest
  /// subscribed replica; a replica reports how far it trails the
  /// coordinator epoch it last heard of.
  uint64_t replica_lag = 0;
  /// Coordinator only: queries/pairs served across subscribed replicas,
  /// summed from their ReplicaStats acks (the read tier's aggregate
  /// throughput next to the coordinator's own counters).
  uint64_t replica_queries_served = 0;
  uint64_t replica_pairs_served = 0;
};

// --------------------------------------------------- replication frames --

/// A replica's request on the coordinator's query port; the connection
/// it arrives on becomes that replica's replication stream, which starts
/// from the coordinator's current image of every live handle.
struct ReplicaSubscribe {
  /// Operator-visible name for logs and lag reports.
  std::string replica_name;
};

/// One handle's complete released image: the handle's snapshot container
/// (the bytes of its snapshot file), validated on decode by the same
/// store::SnapshotReader::Parse that opens files.
struct SnapshotChunk {
  uint32_t handle_id = 0;
  /// Views into the decoded frame body, which must outlive it. The
  /// container starts 4 bytes into the body, so its payloads are not
  /// aligned there: copy them out before a restore factory sees them.
  store::SnapshotReader image;
};

/// One update epoch as byte-range patches against the previous image
/// (store/snapshot_delta.h) — only the dirty dyadic blocks travel.
struct DeltaFrame {
  uint32_t handle_id = 0;
  uint64_t epoch_lsn = 0;
  std::vector<store::SectionPatch> patches;
};

/// Bidirectional progress frame: a replica acks every applied epoch with
/// its role + serve counters (the coordinator's lag tracking and stats
/// aggregation input); the coordinator sends one after catch-up with its
/// own LSN so the replica knows the target it is converging to.
struct ReplicaStatsFrame {
  uint16_t role = 0;  // NodeRole wire value
  uint64_t last_epoch_lsn = 0;
  uint64_t queries_served = 0;
  uint64_t pairs_served = 0;
};

/// A decoded Error frame.
struct WireError {
  ErrorKind kind = ErrorKind::kInternal;
  StatusCode code = StatusCode::kInternal;
  std::string message;

  /// The server-side Status this error reproduces.
  Status ToStatus() const;
};

std::vector<uint8_t> EncodeReleaseRequest(const ReleaseRequest& request);
Result<ReleaseRequest> DecodeReleaseRequest(std::span<const uint8_t> body);

std::vector<uint8_t> EncodeReleaseInfo(const ReleaseInfo& info);
Result<ReleaseInfo> DecodeReleaseInfo(std::span<const uint8_t> body);

std::vector<uint8_t> EncodeQueryRequest(uint32_t handle_id,
                                        std::span<const VertexPair> pairs);
Result<QueryRequest> DecodeQueryRequest(std::span<const uint8_t> body);

/// A QueryRequest body whose shape has been checked (the pair count
/// matches the body size) but whose pairs have not been copied out yet:
/// `pair_bytes` still points into the body.
struct QueryRequestView {
  uint32_t handle_id = 0;
  uint32_t num_pairs = 0;
  std::span<const uint8_t> pair_bytes;
};
Result<QueryRequestView> ParseQueryRequest(std::span<const uint8_t> body);
/// Copies the view's pairs into `out`, which must hold exactly
/// `view.num_pairs` pairs.
void CopyPairs(const QueryRequestView& view, std::span<VertexPair> out);

/// Sends a QueryRequest frame straight from `pairs`.
Status WriteQueryRequest(Socket& socket, uint32_t handle_id,
                         std::span<const VertexPair> pairs);

std::vector<uint8_t> EncodeQueryResponse(std::span<const double> distances);
Result<std::vector<double>> DecodeQueryResponse(std::span<const uint8_t> body);

/// Sends a QueryResponse frame straight from `distances`.
Status WriteQueryResponse(Socket& socket, std::span<const double> distances);

std::vector<uint8_t> EncodeUpdateRequest(uint32_t handle_id,
                                         std::span<const EdgeWeightDelta> deltas);
Result<UpdateRequest> DecodeUpdateRequest(std::span<const uint8_t> body);

std::vector<uint8_t> EncodeUpdateInfo(const UpdateInfo& info);
Result<UpdateInfo> DecodeUpdateInfo(std::span<const uint8_t> body);

std::vector<uint8_t> EncodeServerStats(const ServerStats& stats);
Result<ServerStats> DecodeServerStats(std::span<const uint8_t> body);

std::vector<uint8_t> EncodeError(ErrorKind kind, const Status& status);
Result<WireError> DecodeError(std::span<const uint8_t> body);

std::vector<uint8_t> EncodeReplicaSubscribe(const ReplicaSubscribe& sub);
Result<ReplicaSubscribe> DecodeReplicaSubscribe(std::span<const uint8_t> body);

/// `container` is a store::EncodeSnapshot result.
std::vector<uint8_t> EncodeSnapshotChunk(uint32_t handle_id,
                                         std::span<const uint8_t> container);
Result<SnapshotChunk> DecodeSnapshotChunk(std::span<const uint8_t> body);

std::vector<uint8_t> EncodeDeltaFrame(const DeltaFrame& frame);
Result<DeltaFrame> DecodeDeltaFrame(std::span<const uint8_t> body);

std::vector<uint8_t> EncodeReplicaStatsFrame(const ReplicaStatsFrame& stats);
Result<ReplicaStatsFrame> DecodeReplicaStatsFrame(
    std::span<const uint8_t> body);

}  // namespace net
}  // namespace dpsp

#endif  // DPSP_NET_PROTOCOL_H_
