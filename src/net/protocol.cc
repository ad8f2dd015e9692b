#include "net/protocol.h"

#include <sys/uio.h>

#include <bit>
#include <cstring>

#include "common/crc32c.h"
#include "common/table.h"

namespace dpsp {
namespace net {

namespace {

// ---------------------------------------------------------- wire buffers --
// The wire is little-endian and so is every host this builds for, so
// scalars and arrays go on and off the wire as host bytes, one memcpy
// each. A big-endian port would need byte swaps here; it fails to compile
// instead of silently speaking a different format.
static_assert(std::endian::native == std::endian::little,
              "the wire codecs copy host bytes; big-endian hosts are not "
              "supported");
// The query codecs move pair arrays as packed int32 lanes (the same view
// the SIMD kernels take).
static_assert(sizeof(VertexPair) == 2 * sizeof(int32_t),
              "codecs move VertexPair arrays as two packed int32s");

class WireWriter {
 public:
  void U16(uint16_t v) { Raw(&v, sizeof(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  /// Raw payload bytes with a u64 length prefix (replication sections can
  /// exceed the u32 string limit's comfort zone).
  void Bytes(std::span<const uint8_t> bytes) {
    U64(bytes.size());
    Raw(bytes.data(), bytes.size());
  }
  void Raw(const void* data, size_t n) {
    const auto* bytes = static_cast<const uint8_t*>(data);
    out_.insert(out_.end(), bytes, bytes + n);
  }
  void Reserve(size_t n) { out_.reserve(out_.size() + n); }

  std::vector<uint8_t> Take() { return std::move(out_); }

 private:
  std::vector<uint8_t> out_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> data) : data_(data) {}

  Status U16(uint16_t* v) { return Raw(v, sizeof(*v)); }
  Status U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  Status U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  Status I32(int32_t* v) { return Raw(v, sizeof(*v)); }
  Status F64(double* v) { return Raw(v, sizeof(*v)); }
  Status Str(std::string* s) {
    uint32_t len = 0;
    DPSP_RETURN_IF_ERROR(U32(&len));
    DPSP_RETURN_IF_ERROR(Need(len));
    s->assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return Status::Ok();
  }
  /// u64-length-prefixed raw bytes. The length is validated against the
  /// remaining body BEFORE the vector allocates, so a lying prefix is a
  /// typed error rather than a multi-gigabyte resize.
  Status Bytes(std::vector<uint8_t>* bytes) {
    uint64_t len = 0;
    DPSP_RETURN_IF_ERROR(U64(&len));
    if (len > remaining()) {
      return Status::InvalidArgument(
          "byte-payload length exceeds remaining body");
    }
    bytes->assign(data_.begin() + static_cast<ptrdiff_t>(pos_),
                  data_.begin() + static_cast<ptrdiff_t>(pos_ + len));
    pos_ += len;
    return Status::Ok();
  }
  /// `n` raw bytes into `out`.
  Status Raw(void* out, size_t n) {
    DPSP_RETURN_IF_ERROR(Need(n));
    if (n == 0) return Status::Ok();  // out may be null
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status::Ok();
  }
  size_t remaining() const { return data_.size() - pos_; }

  /// Decoders call this last: trailing bytes mean the peer and we disagree
  /// about the encoding, which must not pass silently.
  Status ExpectEnd() const {
    if (pos_ != data_.size()) {
      return Status::InvalidArgument(
          StrFormat("%zu trailing bytes after message body",
                    data_.size() - pos_));
    }
    return Status::Ok();
  }

 private:
  Status Need(size_t n) const {
    if (data_.size() - pos_ < n) {
      return Status::InvalidArgument("truncated message body");
    }
    return Status::Ok();
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace

const char* ErrorKindName(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kMalformed:
      return "malformed";
    case ErrorKind::kNotFound:
      return "not-found";
    case ErrorKind::kBudgetExhausted:
      return "budget-exhausted";
    case ErrorKind::kOverloaded:
      return "overloaded";
    case ErrorKind::kTooLarge:
      return "too-large";
    case ErrorKind::kInternal:
      return "internal";
    case ErrorKind::kUnsupported:
      return "unsupported";
  }
  return "unknown";
}

const char* NodeRoleName(NodeRole role) {
  switch (role) {
    case NodeRole::kStandalone:
      return "standalone";
    case NodeRole::kCoordinator:
      return "coordinator";
    case NodeRole::kReplica:
      return "replica";
  }
  return "unknown";
}

// ------------------------------------------------------------- frame I/O --

namespace {

// The 12-byte frame header, laid out exactly as on the wire.
struct FrameHeader {
  uint32_t magic;
  uint16_t version;
  uint16_t type;
  uint32_t body_size;
};
static_assert(sizeof(FrameHeader) == 12, "the frame header has no padding");

// An array's object bytes, which on a little-endian host are its wire
// bytes.
template <typename T>
std::span<const uint8_t> WireBytes(const T* data, size_t count) {
  return {reinterpret_cast<const uint8_t*>(data), count * sizeof(T)};
}

// Sends one frame whose body is `prefix` followed by `payload` as one
// gather write behind a stack-built header: neither piece is copied.
Status WriteFrameParts(Socket& socket, MessageType type,
                       std::span<const uint8_t> prefix,
                       std::span<const uint8_t> payload) {
  FrameHeader header{kFrameMagic, kProtocolVersion,
                     static_cast<uint16_t>(type),
                     static_cast<uint32_t>(prefix.size() + payload.size())};
  iovec parts[] = {{&header, sizeof(header)},
                   {const_cast<uint8_t*>(prefix.data()), prefix.size()},
                   {const_cast<uint8_t*>(payload.data()), payload.size()}};
  return socket.WriteAllv(parts);
}

}  // namespace

Status WriteFrame(Socket& socket, MessageType type,
                  std::span<const uint8_t> body) {
  return WriteFrameParts(socket, type, body, {});
}

Status ReadFrameInto(Socket& socket, Frame* frame, uint32_t max_body_bytes) {
  FrameHeader header{};
  DPSP_RETURN_IF_ERROR(socket.ReadAll(&header, sizeof(header)));
  if (header.magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic (not a dpsp peer?)");
  }
  if (header.version != kProtocolVersion) {
    return Status::InvalidArgument(
        StrFormat("protocol version mismatch: peer speaks %u, this build "
                  "speaks %u",
                  header.version, kProtocolVersion));
  }
  if (header.body_size > max_body_bytes) {
    return Status::OutOfRange(
        StrFormat("frame body of %u bytes exceeds the %u-byte limit",
                  header.body_size, max_body_bytes));
  }
  frame->type = static_cast<MessageType>(header.type);
  if (header.body_size > frame->body.capacity()) {
    // A fresh exact-size buffer, not resize's doubling: what a reused
    // frame retains is its largest body, never twice that.
    frame->body = std::vector<uint8_t>(header.body_size);
  } else {
    frame->body.resize(header.body_size);
  }
  if (header.body_size > 0) {
    DPSP_RETURN_IF_ERROR(socket.ReadAll(frame->body.data(), header.body_size));
  }
  return Status::Ok();
}

Result<Frame> ReadFrame(Socket& socket, uint32_t max_body_bytes) {
  Frame frame;
  DPSP_RETURN_IF_ERROR(ReadFrameInto(socket, &frame, max_body_bytes));
  return frame;
}

// -------------------------------------------------------------- messages --

std::vector<uint8_t> EncodeReleaseRequest(const ReleaseRequest& request) {
  WireWriter w;
  w.Str(request.workload);
  w.Str(request.mechanism);
  w.Str(request.handle_name);
  return w.Take();
}

Result<ReleaseRequest> DecodeReleaseRequest(std::span<const uint8_t> body) {
  WireReader r(body);
  ReleaseRequest request;
  DPSP_RETURN_IF_ERROR(r.Str(&request.workload));
  DPSP_RETURN_IF_ERROR(r.Str(&request.mechanism));
  DPSP_RETURN_IF_ERROR(r.Str(&request.handle_name));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return request;
}

std::vector<uint8_t> EncodeReleaseInfo(const ReleaseInfo& info) {
  WireWriter w;
  w.U32(info.handle_id);
  w.F64(info.epsilon);
  w.F64(info.delta);
  w.F64(info.wall_ms);
  return w.Take();
}

Result<ReleaseInfo> DecodeReleaseInfo(std::span<const uint8_t> body) {
  WireReader r(body);
  ReleaseInfo info;
  DPSP_RETURN_IF_ERROR(r.U32(&info.handle_id));
  DPSP_RETURN_IF_ERROR(r.F64(&info.epsilon));
  DPSP_RETURN_IF_ERROR(r.F64(&info.delta));
  DPSP_RETURN_IF_ERROR(r.F64(&info.wall_ms));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return info;
}

std::vector<uint8_t> EncodeQueryRequest(uint32_t handle_id,
                                        std::span<const VertexPair> pairs) {
  WireWriter w;
  w.Reserve(8 + pairs.size_bytes());
  w.U32(handle_id);
  w.U32(static_cast<uint32_t>(pairs.size()));
  w.Raw(pairs.data(), pairs.size_bytes());
  return w.Take();
}

Status WriteQueryRequest(Socket& socket, uint32_t handle_id,
                         std::span<const VertexPair> pairs) {
  const uint32_t prefix[] = {handle_id, static_cast<uint32_t>(pairs.size())};
  return WriteFrameParts(socket, MessageType::kQueryRequest,
                         WireBytes(prefix, 2),
                         WireBytes(pairs.data(), pairs.size()));
}

Result<QueryRequestView> ParseQueryRequest(std::span<const uint8_t> body) {
  WireReader r(body);
  QueryRequestView view;
  DPSP_RETURN_IF_ERROR(r.U32(&view.handle_id));
  DPSP_RETURN_IF_ERROR(r.U32(&view.num_pairs));
  if (static_cast<size_t>(view.num_pairs) * 8 != r.remaining()) {
    return Status::InvalidArgument(
        "query pair count disagrees with body size");
  }
  view.pair_bytes = body.last(r.remaining());
  return view;
}

void CopyPairs(const QueryRequestView& view, std::span<VertexPair> out) {
  DPSP_CHECK(out.size() == view.num_pairs);
  if (out.empty()) return;
  // Through int32 lanes: std::pair is not trivially copyable, its two
  // int members are.
  std::memcpy(reinterpret_cast<int32_t*>(out.data()), view.pair_bytes.data(),
              view.pair_bytes.size());
}

Result<QueryRequest> DecodeQueryRequest(std::span<const uint8_t> body) {
  DPSP_ASSIGN_OR_RETURN(QueryRequestView view, ParseQueryRequest(body));
  QueryRequest request;
  request.handle_id = view.handle_id;
  request.pairs.resize(view.num_pairs);
  CopyPairs(view, request.pairs);
  return request;
}

std::vector<uint8_t> EncodeQueryResponse(std::span<const double> distances) {
  WireWriter w;
  w.Reserve(4 + distances.size_bytes());
  w.U32(static_cast<uint32_t>(distances.size()));
  w.Raw(distances.data(), distances.size_bytes());
  return w.Take();
}

Status WriteQueryResponse(Socket& socket, std::span<const double> distances) {
  const uint32_t count = static_cast<uint32_t>(distances.size());
  return WriteFrameParts(socket, MessageType::kQueryResponse,
                         WireBytes(&count, 1),
                         WireBytes(distances.data(), distances.size()));
}

Result<std::vector<double>> DecodeQueryResponse(
    std::span<const uint8_t> body) {
  WireReader r(body);
  uint32_t count = 0;
  DPSP_RETURN_IF_ERROR(r.U32(&count));
  if (static_cast<size_t>(count) * 8 != r.remaining()) {
    return Status::InvalidArgument(
        "distance count disagrees with body size");
  }
  std::vector<double> distances(count);
  DPSP_RETURN_IF_ERROR(r.Raw(distances.data(), distances.size() * 8));
  return distances;
}

std::vector<uint8_t> EncodeUpdateRequest(
    uint32_t handle_id, std::span<const EdgeWeightDelta> deltas) {
  WireWriter w;
  w.Reserve(8 + deltas.size() * 12);
  w.U32(handle_id);
  w.U32(static_cast<uint32_t>(deltas.size()));
  for (const EdgeWeightDelta& d : deltas) {
    w.I32(d.edge);
    w.F64(d.new_weight);
  }
  return w.Take();
}

Result<UpdateRequest> DecodeUpdateRequest(std::span<const uint8_t> body) {
  WireReader r(body);
  UpdateRequest request;
  uint32_t count = 0;
  DPSP_RETURN_IF_ERROR(r.U32(&request.handle_id));
  DPSP_RETURN_IF_ERROR(r.U32(&count));
  if (static_cast<size_t>(count) * 12 != r.remaining()) {
    return Status::InvalidArgument(
        "update delta count disagrees with body size");
  }
  request.deltas.resize(count);
  for (EdgeWeightDelta& d : request.deltas) {
    DPSP_RETURN_IF_ERROR(r.I32(&d.edge));
    DPSP_RETURN_IF_ERROR(r.F64(&d.new_weight));
  }
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return request;
}

std::vector<uint8_t> EncodeUpdateInfo(const UpdateInfo& info) {
  WireWriter w;
  w.F64(info.charged_epsilon);
  w.F64(info.charged_delta);
  w.F64(info.remaining_epsilon);
  w.F64(info.remaining_delta);
  w.U32(info.dirty_blocks);
  w.F64(info.wall_ms);
  return w.Take();
}

Result<UpdateInfo> DecodeUpdateInfo(std::span<const uint8_t> body) {
  WireReader r(body);
  UpdateInfo info;
  DPSP_RETURN_IF_ERROR(r.F64(&info.charged_epsilon));
  DPSP_RETURN_IF_ERROR(r.F64(&info.charged_delta));
  DPSP_RETURN_IF_ERROR(r.F64(&info.remaining_epsilon));
  DPSP_RETURN_IF_ERROR(r.F64(&info.remaining_delta));
  DPSP_RETURN_IF_ERROR(r.U32(&info.dirty_blocks));
  DPSP_RETURN_IF_ERROR(r.F64(&info.wall_ms));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return info;
}

std::vector<uint8_t> EncodeServerStats(const ServerStats& stats) {
  WireWriter w;
  w.U64(stats.connections_accepted);
  w.U64(stats.queries_served);
  w.U64(stats.pairs_served);
  w.U64(stats.releases_granted);
  w.U64(stats.budget_rejected);
  w.U64(stats.overload_rejected);
  w.U32(stats.open_handles);
  w.U16(stats.accounting_policy);
  w.F64(stats.spent_epsilon);
  w.F64(stats.spent_delta);
  w.F64(stats.remaining_epsilon);
  w.F64(stats.remaining_delta);
  w.U32(stats.warm_restart ? 1 : 0);
  w.U32(stats.recovered_handles);
  w.U64(stats.recovered_charges);
  w.U16(stats.role);
  w.U64(stats.last_epoch_lsn);
  w.U32(stats.num_replicas);
  w.U64(stats.replica_lag);
  w.U64(stats.replica_queries_served);
  w.U64(stats.replica_pairs_served);
  return w.Take();
}

Result<ServerStats> DecodeServerStats(std::span<const uint8_t> body) {
  WireReader r(body);
  ServerStats stats;
  DPSP_RETURN_IF_ERROR(r.U64(&stats.connections_accepted));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.queries_served));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.pairs_served));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.releases_granted));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.budget_rejected));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.overload_rejected));
  DPSP_RETURN_IF_ERROR(r.U32(&stats.open_handles));
  DPSP_RETURN_IF_ERROR(r.U16(&stats.accounting_policy));
  DPSP_RETURN_IF_ERROR(r.F64(&stats.spent_epsilon));
  DPSP_RETURN_IF_ERROR(r.F64(&stats.spent_delta));
  DPSP_RETURN_IF_ERROR(r.F64(&stats.remaining_epsilon));
  DPSP_RETURN_IF_ERROR(r.F64(&stats.remaining_delta));
  uint32_t warm = 0;
  DPSP_RETURN_IF_ERROR(r.U32(&warm));
  DPSP_RETURN_IF_ERROR(r.U32(&stats.recovered_handles));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.recovered_charges));
  stats.warm_restart = warm != 0;
  DPSP_RETURN_IF_ERROR(r.U16(&stats.role));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.last_epoch_lsn));
  DPSP_RETURN_IF_ERROR(r.U32(&stats.num_replicas));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.replica_lag));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.replica_queries_served));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.replica_pairs_served));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return stats;
}

std::vector<uint8_t> EncodeError(ErrorKind kind, const Status& status) {
  WireWriter w;
  w.U16(static_cast<uint16_t>(kind));
  w.U16(static_cast<uint16_t>(status.code()));
  w.Str(status.message());
  return w.Take();
}

Result<WireError> DecodeError(std::span<const uint8_t> body) {
  WireReader r(body);
  uint16_t kind = 0, code = 0;
  WireError error;
  DPSP_RETURN_IF_ERROR(r.U16(&kind));
  DPSP_RETURN_IF_ERROR(r.U16(&code));
  DPSP_RETURN_IF_ERROR(r.Str(&error.message));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  if (kind > static_cast<uint16_t>(ErrorKind::kUnsupported)) {
    kind = static_cast<uint16_t>(ErrorKind::kInternal);
  }
  error.kind = static_cast<ErrorKind>(kind);
  if (code == static_cast<uint16_t>(StatusCode::kOk) ||
      code > static_cast<uint16_t>(StatusCode::kUnavailable)) {
    code = static_cast<uint16_t>(StatusCode::kInternal);
  }
  error.code = static_cast<StatusCode>(code);
  return error;
}

Status WireError::ToStatus() const {
  return Status(code, message);
}

// ---------------------------------------------------- replication frames --

std::vector<uint8_t> EncodeReplicaSubscribe(const ReplicaSubscribe& sub) {
  WireWriter w;
  w.U64(sub.last_epoch_lsn);
  w.Str(sub.replica_name);
  return w.Take();
}

Result<ReplicaSubscribe> DecodeReplicaSubscribe(
    std::span<const uint8_t> body) {
  WireReader r(body);
  ReplicaSubscribe sub;
  DPSP_RETURN_IF_ERROR(r.U64(&sub.last_epoch_lsn));
  DPSP_RETURN_IF_ERROR(r.Str(&sub.replica_name));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return sub;
}

std::vector<uint8_t> EncodeSnapshotChunk(const SnapshotChunk& chunk) {
  WireWriter w;
  size_t payload = 0;
  for (const ReleasedSection& s : chunk.sections) payload += s.bytes.size();
  w.Reserve(64 + payload);
  w.U32(chunk.handle_id);
  w.U64(chunk.epoch_lsn);
  w.Str(chunk.handle_name);
  w.Str(chunk.mechanism);
  w.Str(chunk.workload);
  w.U32(static_cast<uint32_t>(chunk.sections.size()));
  for (const ReleasedSection& s : chunk.sections) {
    w.Str(s.label);
    w.Bytes(s.bytes);
    w.U32(Crc32c(s.bytes.data(), s.bytes.size()));
  }
  return w.Take();
}

Result<SnapshotChunk> DecodeSnapshotChunk(std::span<const uint8_t> body) {
  WireReader r(body);
  SnapshotChunk chunk;
  uint32_t count = 0;
  DPSP_RETURN_IF_ERROR(r.U32(&chunk.handle_id));
  DPSP_RETURN_IF_ERROR(r.U64(&chunk.epoch_lsn));
  DPSP_RETURN_IF_ERROR(r.Str(&chunk.handle_name));
  DPSP_RETURN_IF_ERROR(r.Str(&chunk.mechanism));
  DPSP_RETURN_IF_ERROR(r.Str(&chunk.workload));
  DPSP_RETURN_IF_ERROR(r.U32(&count));
  // Each section costs at least label-len + bytes-len + crc on the wire,
  // so a lying count is refused before any per-section allocation.
  if (static_cast<size_t>(count) * 16 > r.remaining()) {
    return Status::InvalidArgument(
        "snapshot-chunk section count disagrees with body size");
  }
  chunk.sections.resize(count);
  chunk.section_crcs.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    DPSP_RETURN_IF_ERROR(r.Str(&chunk.sections[i].label));
    DPSP_RETURN_IF_ERROR(r.Bytes(&chunk.sections[i].bytes));
    DPSP_RETURN_IF_ERROR(r.U32(&chunk.section_crcs[i]));
  }
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return chunk;
}

std::vector<uint8_t> EncodeDeltaFrame(const DeltaFrame& frame) {
  WireWriter w;
  w.Reserve(32 + store::SectionDeltaBytes(frame.patches));
  w.U32(frame.handle_id);
  w.U64(frame.epoch_lsn);
  w.U32(static_cast<uint32_t>(frame.patches.size()));
  for (const store::SectionPatch& patch : frame.patches) {
    w.Str(patch.label);
    w.U64(patch.section_bytes);
    w.U32(patch.post_crc32c);
    w.U32(static_cast<uint32_t>(patch.ranges.size()));
    for (const store::SectionRange& range : patch.ranges) {
      w.U64(range.offset);
      w.Bytes(range.bytes);
    }
  }
  return w.Take();
}

Result<DeltaFrame> DecodeDeltaFrame(std::span<const uint8_t> body) {
  WireReader r(body);
  DeltaFrame frame;
  uint32_t num_patches = 0;
  DPSP_RETURN_IF_ERROR(r.U32(&frame.handle_id));
  DPSP_RETURN_IF_ERROR(r.U64(&frame.epoch_lsn));
  DPSP_RETURN_IF_ERROR(r.U32(&num_patches));
  if (static_cast<size_t>(num_patches) * 20 > r.remaining()) {
    return Status::InvalidArgument(
        "delta-frame patch count disagrees with body size");
  }
  frame.patches.resize(num_patches);
  for (store::SectionPatch& patch : frame.patches) {
    uint32_t num_ranges = 0;
    DPSP_RETURN_IF_ERROR(r.Str(&patch.label));
    DPSP_RETURN_IF_ERROR(r.U64(&patch.section_bytes));
    DPSP_RETURN_IF_ERROR(r.U32(&patch.post_crc32c));
    DPSP_RETURN_IF_ERROR(r.U32(&num_ranges));
    if (static_cast<size_t>(num_ranges) * 16 > r.remaining()) {
      return Status::InvalidArgument(
          "delta-frame range count disagrees with body size");
    }
    patch.ranges.resize(num_ranges);
    for (store::SectionRange& range : patch.ranges) {
      DPSP_RETURN_IF_ERROR(r.U64(&range.offset));
      DPSP_RETURN_IF_ERROR(r.Bytes(&range.bytes));
    }
  }
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return frame;
}

std::vector<uint8_t> EncodeReplicaStatsFrame(const ReplicaStatsFrame& stats) {
  WireWriter w;
  w.U16(stats.role);
  w.U64(stats.last_epoch_lsn);
  w.U64(stats.queries_served);
  w.U64(stats.pairs_served);
  return w.Take();
}

Result<ReplicaStatsFrame> DecodeReplicaStatsFrame(
    std::span<const uint8_t> body) {
  WireReader r(body);
  ReplicaStatsFrame stats;
  DPSP_RETURN_IF_ERROR(r.U16(&stats.role));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.last_epoch_lsn));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.queries_served));
  DPSP_RETURN_IF_ERROR(r.U64(&stats.pairs_served));
  DPSP_RETURN_IF_ERROR(r.ExpectEnd());
  return stats;
}

}  // namespace net
}  // namespace dpsp
