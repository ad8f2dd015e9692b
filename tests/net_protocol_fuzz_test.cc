// Malformed / truncated / wrong-version frame handling: a fuzz-ish table
// of short and oversized bodies against every wire decoder — the
// replication frames included — plus raw-socket abuse of a live server
// (headers stamped with any version but the one this build speaks,
// subscribes to nodes that are not coordinators), a live coordinator's
// shared query port, and a live replica sync loop. All of them must
// answer a typed Error (or hang up cleanly) and keep serving, never hang
// or crash. The wire decoders parse untrusted bytes; this file is their
// adversarial suite.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/coordinator.h"
#include "cluster/replica.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "store/snapshot_delta.h"
#include "test_util.h"

namespace dpsp {
namespace {

// --------------------------------------------------- decoder fuzz table --

/// One decoder under test: a name, a valid body, and an adapter that
/// returns the decode Status.
struct DecoderCase {
  std::string name;
  std::vector<uint8_t> valid;
  std::function<Status(std::span<const uint8_t>)> decode;
};

std::vector<DecoderCase> AllDecoderCases() {
  std::vector<DecoderCase> cases;
  cases.push_back(
      {"release-request",
       net::EncodeReleaseRequest({"workload", "mechanism", "handle"}),
       [](std::span<const uint8_t> b) {
         return net::DecodeReleaseRequest(b).status();
       }});
  net::ReleaseInfo info;
  info.handle_id = 3;
  info.epsilon = 0.5;
  cases.push_back({"release-info", net::EncodeReleaseInfo(info),
                   [](std::span<const uint8_t> b) {
                     return net::DecodeReleaseInfo(b).status();
                   }});
  std::vector<VertexPair> pairs = {{0, 1}, {2, 3}, {4, 5}};
  cases.push_back({"query-request", net::EncodeQueryRequest(7, pairs),
                   [](std::span<const uint8_t> b) {
                     return net::DecodeQueryRequest(b).status();
                   }});
  std::vector<double> distances = {1.0, 2.5, -0.0};
  cases.push_back({"query-response", net::EncodeQueryResponse(distances),
                   [](std::span<const uint8_t> b) {
                     return net::DecodeQueryResponse(b).status();
                   }});
  std::vector<EdgeWeightDelta> deltas = {{0, 0.25}, {5, 1.75}};
  cases.push_back({"update-request", net::EncodeUpdateRequest(9, deltas),
                   [](std::span<const uint8_t> b) {
                     return net::DecodeUpdateRequest(b).status();
                   }});
  net::UpdateInfo update;
  update.charged_epsilon = 0.125;
  update.dirty_blocks = 17;
  cases.push_back({"update-info", net::EncodeUpdateInfo(update),
                   [](std::span<const uint8_t> b) {
                     return net::DecodeUpdateInfo(b).status();
                   }});
  net::ServerStats stats;
  stats.queries_served = 11;
  cases.push_back({"server-stats", net::EncodeServerStats(stats),
                   [](std::span<const uint8_t> b) {
                     return net::DecodeServerStats(b).status();
                   }});
  cases.push_back(
      {"error", net::EncodeError(net::ErrorKind::kOverloaded,
                                 Status::Unavailable("busy")),
       [](std::span<const uint8_t> b) {
         return net::DecodeError(b).status();
       }});
  // -- the replication frames --
  net::ReplicaSubscribe subscribe;
  subscribe.last_epoch_lsn = 41;
  subscribe.replica_name = "replica-a";
  cases.push_back({"replica-subscribe",
                   net::EncodeReplicaSubscribe(subscribe),
                   [](std::span<const uint8_t> b) {
                     return net::DecodeReplicaSubscribe(b).status();
                   }});
  net::SnapshotChunk chunk;
  chunk.handle_id = 2;
  chunk.epoch_lsn = 7;
  chunk.handle_name = "live";
  chunk.mechanism = "tree-hld";
  chunk.workload = "path";
  ReleasedSection section;
  section.label = "blocks";
  section.bytes = {1, 2, 3, 4, 5, 6, 7, 8};
  chunk.sections = {section};
  cases.push_back({"snapshot-chunk", net::EncodeSnapshotChunk(chunk),
                   [](std::span<const uint8_t> b) {
                     return net::DecodeSnapshotChunk(b).status();
                   }});
  net::DeltaFrame delta;
  delta.handle_id = 2;
  delta.epoch_lsn = 8;
  store::SectionPatch patch;
  patch.label = "blocks";
  patch.section_bytes = 8;
  patch.ranges.push_back(store::SectionRange{4, {9, 9}});
  delta.patches = {patch};
  cases.push_back({"delta-frame", net::EncodeDeltaFrame(delta),
                   [](std::span<const uint8_t> b) {
                     return net::DecodeDeltaFrame(b).status();
                   }});
  net::ReplicaStatsFrame ack;
  ack.role = 2;
  ack.last_epoch_lsn = 8;
  ack.queries_served = 100;
  ack.pairs_served = 4000;
  cases.push_back({"replica-stats", net::EncodeReplicaStatsFrame(ack),
                   [](std::span<const uint8_t> b) {
                     return net::DecodeReplicaStatsFrame(b).status();
                   }});
  return cases;
}

TEST(NetProtocolFuzzTest, EveryTruncationOfEveryBodyIsATypedError) {
  for (const DecoderCase& c : AllDecoderCases()) {
    ASSERT_TRUE(c.decode(c.valid).ok()) << c.name;
    for (size_t len = 0; len < c.valid.size(); ++len) {
      Status status = c.decode({c.valid.data(), len});
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << c.name << " prefix " << len << ": " << status.ToString();
    }
  }
}

TEST(NetProtocolFuzzTest, TrailingBytesAreRejectedEverywhere) {
  for (const DecoderCase& c : AllDecoderCases()) {
    std::vector<uint8_t> oversized = c.valid;
    oversized.push_back(0x5a);
    EXPECT_EQ(c.decode(oversized).code(), StatusCode::kInvalidArgument)
        << c.name;
  }
}

TEST(NetProtocolFuzzTest, CountFieldsLyingAboutTheBodyAreRejected) {
  // A count prefix larger or smaller than the actual payload must fail
  // before any allocation sized from it.
  std::vector<VertexPair> pairs = {{0, 1}, {2, 3}};
  std::vector<uint8_t> query = net::EncodeQueryRequest(1, pairs);
  query[4] = 0xff;  // count: 2 -> huge
  query[5] = 0xff;
  EXPECT_EQ(net::DecodeQueryRequest(query).status().code(),
            StatusCode::kInvalidArgument);
  query[4] = 1;  // count: huge -> fewer than present
  query[5] = 0;
  EXPECT_EQ(net::DecodeQueryRequest(query).status().code(),
            StatusCode::kInvalidArgument);

  std::vector<EdgeWeightDelta> deltas = {{0, 1.0}, {1, 2.0}};
  std::vector<uint8_t> update = net::EncodeUpdateRequest(1, deltas);
  update[4] = 0xee;
  EXPECT_EQ(net::DecodeUpdateRequest(update).status().code(),
            StatusCode::kInvalidArgument);

  // A string length prefix pointing past the body.
  std::vector<uint8_t> release =
      net::EncodeReleaseRequest({"w", "m", "h"});
  release[0] = 0xff;  // workload length: 1 -> 255
  EXPECT_EQ(net::DecodeReleaseRequest(release).status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------- live-server robustness --

class FuzzServerFixture {
 public:
  FuzzServerFixture() : graph_(MakePathGraph(32).value()) {
    Rng rng(kTestSeed);
    weights_ = MakeUniformWeights(graph_, 0.1, 0.9, &rng);
    ReleaseContext ctx =
        ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed)
            .value();
    server_ = std::make_unique<net::QueryServer>(net::QueryServerOptions{},
                                                 std::move(ctx));
    EXPECT_OK(server_->AddWorkload("path", graph_, weights_));
    EXPECT_OK(server_->Start());
  }

  uint16_t port() const { return server_->port(); }

  /// The liveness probe every scenario ends with: a fresh client can
  /// still run a full stats round trip — the server neither hung nor
  /// died.
  void ExpectServerAlive() {
    ASSERT_OK_AND_ASSIGN(net::Client client,
                         net::Client::Connect("127.0.0.1", port()));
    ASSERT_OK_AND_ASSIGN(net::ServerStats stats, client.Stats());
    EXPECT_GE(stats.connections_accepted, 1u);
  }

 private:
  Graph graph_;
  EdgeWeights weights_;
  std::unique_ptr<net::QueryServer> server_;
};

/// Little-endian frame header bytes, with every field caller-controlled.
std::vector<uint8_t> RawHeader(uint32_t magic, uint16_t version,
                               uint16_t type, uint32_t body_size) {
  std::vector<uint8_t> out;
  for (int s = 0; s < 32; s += 8) out.push_back(magic >> s);
  for (int s = 0; s < 16; s += 8) out.push_back(version >> s);
  for (int s = 0; s < 16; s += 8) out.push_back(type >> s);
  for (int s = 0; s < 32; s += 8) out.push_back(body_size >> s);
  return out;
}

/// Sends raw bytes and expects a typed Error frame back.
void ExpectTypedError(net::Socket& socket, std::span<const uint8_t> bytes,
                      net::ErrorKind kind) {
  ASSERT_OK(socket.WriteAll(bytes.data(), bytes.size()));
  ASSERT_OK_AND_ASSIGN(net::Frame reply, net::ReadFrame(socket));
  ASSERT_EQ(reply.type, net::MessageType::kError);
  ASSERT_OK_AND_ASSIGN(net::WireError error, net::DecodeError(reply.body));
  EXPECT_EQ(error.kind, kind);
}

TEST(NetServerFuzzTest, WrongVersionHeadersGetTypedErrorsAndServerSurvives) {
  // Every version but the one this build speaks is refused before
  // dispatch, older ones included.
  FuzzServerFixture fixture;
  for (uint16_t version : {0, 1, 4, 6, 99}) {
    ASSERT_OK_AND_ASSIGN(net::Socket raw,
                         net::Connect("127.0.0.1", fixture.port()));
    std::vector<uint8_t> header = RawHeader(
        net::kFrameMagic, version,
        static_cast<uint16_t>(net::MessageType::kStatsRequest), 0);
    ExpectTypedError(raw, header, net::ErrorKind::kMalformed);
  }
  fixture.ExpectServerAlive();
}

TEST(NetServerFuzzTest, OversizedBodyDeclarationIsRefusedBeforeAllocation) {
  FuzzServerFixture fixture;
  ASSERT_OK_AND_ASSIGN(net::Socket raw,
                       net::Connect("127.0.0.1", fixture.port()));
  std::vector<uint8_t> header = RawHeader(
      net::kFrameMagic, net::kProtocolVersion,
      static_cast<uint16_t>(net::MessageType::kQueryRequest),
      net::kMaxBodyBytes + 1);
  ExpectTypedError(raw, header, net::ErrorKind::kMalformed);
  fixture.ExpectServerAlive();
}

TEST(NetServerFuzzTest, TruncatedBodyThenHangupDoesNotWedgeTheServer) {
  FuzzServerFixture fixture;
  {
    ASSERT_OK_AND_ASSIGN(net::Socket raw,
                         net::Connect("127.0.0.1", fixture.port()));
    std::vector<uint8_t> header = RawHeader(
        net::kFrameMagic, net::kProtocolVersion,
        static_cast<uint16_t>(net::MessageType::kQueryRequest), 100);
    uint8_t partial[10] = {0};
    ASSERT_OK(raw.WriteAll(header.data(), header.size()));
    ASSERT_OK(raw.WriteAll(partial, sizeof(partial)));
  }  // hang up mid-body
  fixture.ExpectServerAlive();
}

TEST(NetServerFuzzTest, TruncatedUpdateBodyIsTypedMalformed) {
  FuzzServerFixture fixture;
  ASSERT_OK_AND_ASSIGN(net::Socket raw,
                       net::Connect("127.0.0.1", fixture.port()));
  std::vector<EdgeWeightDelta> deltas = {{0, 0.5}, {1, 0.25}};
  std::vector<uint8_t> body = net::EncodeUpdateRequest(0, deltas);
  body.resize(body.size() - 5);  // tear the last delta
  ASSERT_OK(net::WriteFrame(raw, net::MessageType::kUpdateRequest, body));
  ASSERT_OK_AND_ASSIGN(net::Frame reply, net::ReadFrame(raw));
  ASSERT_EQ(reply.type, net::MessageType::kError);
  ASSERT_OK_AND_ASSIGN(net::WireError error, net::DecodeError(reply.body));
  EXPECT_EQ(error.kind, net::ErrorKind::kMalformed);
  fixture.ExpectServerAlive();
}

TEST(NetServerFuzzTest, UnknownMessageTypeGetsTypedErrorThenClose) {
  FuzzServerFixture fixture;
  ASSERT_OK_AND_ASSIGN(net::Socket raw,
                       net::Connect("127.0.0.1", fixture.port()));
  std::vector<uint8_t> header =
      RawHeader(net::kFrameMagic, net::kProtocolVersion, /*type=*/77, 0);
  ExpectTypedError(raw, header, net::ErrorKind::kMalformed);
  // Unknown types cannot be skipped safely: the server hangs up.
  EXPECT_FALSE(net::ReadFrame(raw).ok());
  fixture.ExpectServerAlive();
}

// ------------------------------------------- replication-tier robustness --

/// Sends a well-formed subscribe to a node that is not a coordinator:
/// the answer is a typed kUnsupported, and the same connection then
/// still answers a Stats request.
void ExpectSubscribeUnsupported(uint16_t port) {
  ASSERT_OK_AND_ASSIGN(net::Socket raw, net::Connect("127.0.0.1", port));
  net::ReplicaSubscribe subscribe;
  subscribe.replica_name = "lost";
  std::vector<uint8_t> body = net::EncodeReplicaSubscribe(subscribe);
  ASSERT_OK(net::WriteFrame(raw, net::MessageType::kReplicaSubscribe, body));
  ASSERT_OK_AND_ASSIGN(net::Frame reply, net::ReadFrame(raw));
  ASSERT_EQ(reply.type, net::MessageType::kError);
  ASSERT_OK_AND_ASSIGN(net::WireError error, net::DecodeError(reply.body));
  EXPECT_EQ(error.kind, net::ErrorKind::kUnsupported);
  ASSERT_OK(net::WriteFrame(raw, net::MessageType::kStatsRequest, {}));
  ASSERT_OK_AND_ASSIGN(net::Frame stats, net::ReadFrame(raw));
  EXPECT_EQ(stats.type, net::MessageType::kStatsResponse);
}

TEST(NetServerFuzzTest, SubscribeToANonCoordinatorIsTypedUnsupported) {
  // A standalone server has no replication stream to join.
  FuzzServerFixture fixture;
  ExpectSubscribeUnsupported(fixture.port());
  fixture.ExpectServerAlive();

  // Nor does a replica: it follows a coordinator, it does not lead one.
  Graph graph = MakePathGraph(32).value();
  Rng rng(kTestSeed);
  EdgeWeights weights = MakeUniformWeights(graph, 0.1, 0.9, &rng);
  net::QueryServer replica_server{net::QueryServerOptions{}};
  ASSERT_OK(replica_server.AddWorkload("path", graph, weights));
  ASSERT_OK(replica_server.Start());
  ExpectSubscribeUnsupported(replica_server.port());
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1",
                                            replica_server.port()));
  ASSERT_OK_AND_ASSIGN(net::ServerStats stats, client.Stats());
  EXPECT_EQ(stats.role, static_cast<uint16_t>(net::NodeRole::kReplica));
  replica_server.Stop();
}

/// A budget-holding server plus its coordinator, for abusing the port
/// that serves both queries and subscriptions directly.
class FuzzCoordinatorFixture {
 public:
  FuzzCoordinatorFixture() : graph_(MakePathGraph(32).value()) {
    Rng rng(kTestSeed);
    weights_ = MakeUniformWeights(graph_, 0.1, 0.9, &rng);
    ReleaseContext ctx =
        ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kTestSeed)
            .value();
    server_ = std::make_unique<net::QueryServer>(net::QueryServerOptions{},
                                                 std::move(ctx));
    EXPECT_OK(server_->AddWorkload("path", graph_, weights_));
    EXPECT_OK(server_->Start());
    coordinator_ = std::make_unique<cluster::Coordinator>(
        cluster::CoordinatorOptions{}, server_.get());
    EXPECT_OK(coordinator_->Start());
  }

  ~FuzzCoordinatorFixture() {
    coordinator_->Stop();
    server_->Stop();
  }

  uint16_t port() const { return server_->port(); }

  void ExpectCoordinatorAlive() {
    // A well-formed subscribe still gets a session (the catch-up marker
    // proves the stream is live).
    ASSERT_OK_AND_ASSIGN(net::Socket good, net::Connect("127.0.0.1", port()));
    ExpectCatchUpMarker(good);
  }

  /// Subscribes on `socket` and expects the catch-up marker.
  static void ExpectCatchUpMarker(net::Socket& socket) {
    net::ReplicaSubscribe subscribe;
    subscribe.replica_name = "probe";
    std::vector<uint8_t> body = net::EncodeReplicaSubscribe(subscribe);
    ASSERT_OK(net::WriteFrame(socket, net::MessageType::kReplicaSubscribe,
                              body));
    ASSERT_OK_AND_ASSIGN(net::Frame reply, net::ReadFrame(socket));
    EXPECT_EQ(reply.type, net::MessageType::kReplicaStats);
  }

 private:
  Graph graph_;
  EdgeWeights weights_;
  std::unique_ptr<net::QueryServer> server_;
  std::unique_ptr<cluster::Coordinator> coordinator_;
};

TEST(NetServerFuzzTest, CoordinatorPortAnswersRequestsAndSubscriptions) {
  // One port: a Stats request is answered, and the same connection can
  // then subscribe and get its catch-up marker.
  FuzzCoordinatorFixture fixture;
  ASSERT_OK_AND_ASSIGN(net::Socket raw,
                       net::Connect("127.0.0.1", fixture.port()));
  ASSERT_OK(net::WriteFrame(raw, net::MessageType::kStatsRequest, {}));
  ASSERT_OK_AND_ASSIGN(net::Frame reply, net::ReadFrame(raw));
  ASSERT_EQ(reply.type, net::MessageType::kStatsResponse);
  ASSERT_OK_AND_ASSIGN(net::ServerStats stats,
                       net::DecodeServerStats(reply.body));
  EXPECT_EQ(stats.role, static_cast<uint16_t>(net::NodeRole::kCoordinator));
  FuzzCoordinatorFixture::ExpectCatchUpMarker(raw);
  fixture.ExpectCoordinatorAlive();
}

TEST(NetServerFuzzTest, TornDeltaFrameNeverHangsALiveReplica) {
  // A fake coordinator that sends a delta-frame header claiming 100 body
  // bytes, delivers 10, and stalls. The replica's mid-frame receive
  // timeout must fail the read and resubscribe — the sync loop never
  // wedges, and the replica's query plane keeps answering throughout.
  ASSERT_OK_AND_ASSIGN(net::Listener fake,
                       net::Listener::Bind("127.0.0.1", 0));

  Graph graph = MakePathGraph(32).value();
  Rng rng(kTestSeed);
  EdgeWeights weights = MakeUniformWeights(graph, 0.1, 0.9, &rng);
  net::QueryServer replica_server{net::QueryServerOptions{}};
  ASSERT_OK(replica_server.AddWorkload("path", graph, weights));
  ASSERT_OK(replica_server.Start());
  cluster::ReplicaOptions options;
  options.coordinator_port = fake.port();
  options.read_timeout_ms = 200;  // fail the torn frame fast
  options.reconnect_backoff_ms = 10;
  cluster::Replica replica(options, &replica_server);
  ASSERT_OK(replica.Start());

  // Session 1: take the subscribe, then feed the torn frame and stall.
  ASSERT_OK_AND_ASSIGN(net::Socket session1, fake.Accept(5000));
  ASSERT_OK_AND_ASSIGN(net::Frame sub1, net::ReadFrame(session1));
  ASSERT_EQ(sub1.type, net::MessageType::kReplicaSubscribe);
  std::vector<uint8_t> torn_header = RawHeader(
      net::kFrameMagic, net::kProtocolVersion,
      static_cast<uint16_t>(net::MessageType::kDeltaFrame), 100);
  uint8_t partial[10] = {0};
  ASSERT_OK(session1.WriteAll(torn_header.data(), torn_header.size()));
  ASSERT_OK(session1.WriteAll(partial, sizeof(partial)));
  // Stall (no close): only the replica's own timeout can free it.

  // The replica must give up on the torn stream and dial again.
  ASSERT_OK_AND_ASSIGN(net::Socket session2, fake.Accept(5000));
  ASSERT_OK_AND_ASSIGN(net::Frame sub2, net::ReadFrame(session2));
  EXPECT_EQ(sub2.type, net::MessageType::kReplicaSubscribe);

  // The query plane never noticed.
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1",
                                            replica_server.port()));
  ASSERT_OK_AND_ASSIGN(net::ServerStats stats, client.Stats());
  EXPECT_EQ(stats.role, static_cast<uint16_t>(net::NodeRole::kReplica));
  replica.Stop();
  replica_server.Stop();
}

}  // namespace
}  // namespace dpsp
