// Tests for the network front end: wire-protocol round trips, loopback
// serving bit-identical to direct BatchExecutor calls, budget-driven
// admission control (typed over-budget rejection), queue-depth/connection
// backpressure, an acceptor that outlives a failed accept(2), survival
// under 8 concurrent client connections, and one connection reusing its
// buffers across every kind of request outcome.

#include "net/server.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/oracle_registry.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/protocol.h"
#include "test_util.h"

namespace dpsp {
namespace {

constexpr int kNumVertices = 64;  // even path: satisfies every input family
constexpr uint64_t kServerSeed = kTestSeed ^ 0xd15c0;

std::vector<VertexPair> SampleTestPairs(int n, int count, Rng* rng) {
  std::vector<VertexPair> pairs;
  pairs.reserve(static_cast<size_t>(count));
  while (static_cast<int>(pairs.size()) < count) {
    auto u = static_cast<VertexId>(rng->UniformInt(0, n - 1));
    auto v = static_cast<VertexId>(rng->UniformInt(0, n - 1));
    pairs.emplace_back(u, v);
  }
  return pairs;
}

struct Workload {
  Graph graph;
  EdgeWeights weights;
};

Workload MakeWorkload() {
  Rng rng(kTestSeed);
  Graph g = MakePathGraph(kNumVertices).value();
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  return {std::move(g), std::move(w)};
}

/// A loopback server over the canonical path workload, plus the pieces a
/// test needs to reproduce its releases locally (same params, same seed =>
/// same noise stream => bit-identical released structures).
class ServerFixture {
 public:
  explicit ServerFixture(net::QueryServerOptions options = {},
                         PrivacyParams total_budget = {1e9, 0.0, 1.0})
      : workload_(MakeWorkload()) {
    ReleaseContext ctx =
        ReleaseContext::Create(params_, kServerSeed).value();
    ctx.SetTotalBudget(total_budget);
    server_ = std::make_unique<net::QueryServer>(options, std::move(ctx));
    EXPECT_OK(server_->AddWorkload("path", workload_.graph,
                                   workload_.weights));
    EXPECT_OK(server_->Start());
  }

  net::Client Connect() {
    return net::Client::Connect("127.0.0.1", server_->port()).value();
  }

  /// The oracle the server's Nth release built, reproduced locally:
  /// replays the same mechanisms in the same order through a context with
  /// the server's seed.
  std::unique_ptr<DistanceOracle> ReplayRelease(
      const std::vector<std::string>& mechanisms) {
    ReleaseContext ctx =
        ReleaseContext::Create(params_, kServerSeed).value();
    std::unique_ptr<DistanceOracle> last;
    for (const std::string& name : mechanisms) {
      last = OracleRegistry::Global()
                 .Create(name, workload_.graph, workload_.weights, ctx)
                 .value();
    }
    return last;
  }

  net::QueryServer& server() { return *server_; }
  const Workload& workload() const { return workload_; }
  const PrivacyParams& params() const { return params_; }

 private:
  PrivacyParams params_{1.0, 0.0, 1.0};
  Workload workload_;
  std::unique_ptr<net::QueryServer> server_;
};

// ------------------------------------------------------------- protocol --

TEST(NetProtocolTest, ReleaseRequestRoundTrips) {
  net::ReleaseRequest request{"path", "tree-hld", "main"};
  std::vector<uint8_t> body = net::EncodeReleaseRequest(request);
  ASSERT_OK_AND_ASSIGN(net::ReleaseRequest decoded,
                       net::DecodeReleaseRequest(body));
  EXPECT_EQ(decoded.workload, "path");
  EXPECT_EQ(decoded.mechanism, "tree-hld");
  EXPECT_EQ(decoded.handle_name, "main");
}

TEST(NetProtocolTest, QueryRequestRoundTripsAndRejectsTruncation) {
  std::vector<VertexPair> pairs = {{0, 5}, {3, 2}, {7, 7}};
  std::vector<uint8_t> body = net::EncodeQueryRequest(42, pairs);
  ASSERT_OK_AND_ASSIGN(net::QueryRequest decoded,
                       net::DecodeQueryRequest(body));
  EXPECT_EQ(decoded.handle_id, 42u);
  EXPECT_EQ(decoded.pairs, pairs);

  body.pop_back();  // truncated: count disagrees with body size
  EXPECT_FALSE(net::DecodeQueryRequest(body).ok());
  body.push_back(0);
  body.push_back(0);  // trailing byte
  EXPECT_FALSE(net::DecodeQueryRequest(body).ok());
}

TEST(NetProtocolTest, QueryResponsePreservesDoubleBits) {
  std::vector<double> distances = {0.0, -1.5, 1e300, 0.1 + 0.2};
  std::vector<uint8_t> body = net::EncodeQueryResponse(distances);
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded,
                       net::DecodeQueryResponse(body));
  ASSERT_EQ(decoded.size(), distances.size());
  for (size_t i = 0; i < distances.size(); ++i) {
    EXPECT_EQ(decoded[i], distances[i]);  // bit-exact, not approximate
  }
}

TEST(NetProtocolTest, ErrorFrameCarriesKindAndStatus) {
  std::vector<uint8_t> body = net::EncodeError(
      net::ErrorKind::kBudgetExhausted,
      Status::FailedPrecondition("privacy budget exhausted"));
  ASSERT_OK_AND_ASSIGN(net::WireError error, net::DecodeError(body));
  EXPECT_EQ(error.kind, net::ErrorKind::kBudgetExhausted);
  EXPECT_EQ(error.code, StatusCode::kFailedPrecondition);
  Status status = error.ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(), "privacy budget exhausted");
}

// --------------------------------------------------------------- server --

TEST(NetServerTest, ServesBatchesBitIdenticalToDirectExecutor) {
  ServerFixture fixture;
  net::Client client = fixture.Connect();

  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       client.Release("path", "tree-hld", "main"));
  EXPECT_EQ(info.epsilon, fixture.params().epsilon);

  Rng rng(kTestSeed ^ 1);
  std::vector<VertexPair> pairs =
      SampleTestPairs(kNumVertices, 3000, &rng);
  ASSERT_OK_AND_ASSIGN(std::vector<double> remote,
                       client.Query(info.handle_id, pairs));

  // The same release, reproduced locally, answered by a direct
  // BatchExecutor call: the network path must be bit-identical.
  std::unique_ptr<DistanceOracle> reference =
      fixture.ReplayRelease({"tree-hld"});
  BatchExecutor executor;
  ASSERT_OK_AND_ASSIGN(std::vector<double> direct,
                       executor.Execute(*reference, pairs));
  ASSERT_EQ(remote.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(remote[i], direct[i]) << "pair " << i;
  }
}

TEST(NetServerTest, SecondReleaseContinuesTheSameNoiseStream) {
  ServerFixture fixture;
  net::Client client = fixture.Connect();
  ASSERT_OK(client.Release("path", "tree-recursive", "first").status());
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo second,
                       client.Release("path", "tree-hld", "second"));

  Rng rng(kTestSeed ^ 2);
  std::vector<VertexPair> pairs = SampleTestPairs(kNumVertices, 500, &rng);
  ASSERT_OK_AND_ASSIGN(std::vector<double> remote,
                       client.Query(second.handle_id, pairs));
  // Local replay must run BOTH releases in order to advance the stream.
  std::unique_ptr<DistanceOracle> reference =
      fixture.ReplayRelease({"tree-recursive", "tree-hld"});
  BatchExecutor executor;
  ASSERT_OK_AND_ASSIGN(std::vector<double> direct,
                       executor.Execute(*reference, pairs));
  EXPECT_EQ(remote, direct);
}

TEST(NetServerTest, RejectsOverBudgetReleaseWithTypedError) {
  // eps=1 per release under a total of 1.5: the first fits, the second
  // must be refused before any construction work.
  ServerFixture fixture({}, PrivacyParams{1.5, 0.0, 1.0});
  net::Client client = fixture.Connect();
  ASSERT_OK(client.Release("path", "tree-hld", "first").status());

  Result<net::ReleaseInfo> second =
      client.Release("path", "tree-recursive", "second");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(client.last_error().has_value());
  EXPECT_EQ(client.last_error()->kind, net::ErrorKind::kBudgetExhausted);

  net::ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.releases_granted, 1u);
  EXPECT_EQ(stats.budget_rejected, 1u);
  EXPECT_EQ(stats.open_handles, 1u);
  // The refused release left the ledger untouched: a third release that
  // fits (the free exact oracle) still goes through.
  ASSERT_OK(client.Release("path", "exact", "third").status());
}

TEST(NetServerTest, UnknownNamesAreTypedNotFound) {
  ServerFixture fixture;
  net::Client client = fixture.Connect();

  Result<net::ReleaseInfo> bad_workload =
      client.Release("nope", "tree-hld", "a");
  ASSERT_FALSE(bad_workload.ok());
  EXPECT_EQ(bad_workload.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.last_error()->kind, net::ErrorKind::kNotFound);

  Result<net::ReleaseInfo> bad_mechanism =
      client.Release("path", "nope", "a");
  ASSERT_FALSE(bad_mechanism.ok());
  EXPECT_EQ(bad_mechanism.status().code(), StatusCode::kNotFound);

  Result<std::vector<double>> bad_handle =
      client.Query(12345, std::vector<VertexPair>{{0, 1}});
  ASSERT_FALSE(bad_handle.ok());
  EXPECT_EQ(bad_handle.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.last_error()->kind, net::ErrorKind::kNotFound);
}

TEST(NetServerTest, DuplicateHandleNameIsRefusedWithoutSpending) {
  ServerFixture fixture;
  net::Client client = fixture.Connect();
  ASSERT_OK(client.Release("path", "tree-hld", "main").status());

  Result<net::ReleaseInfo> duplicate =
      client.Release("path", "tree-recursive", "main");
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument);
  // Only the first release spent budget.
  EXPECT_EQ(fixture.server().stats().releases_granted, 1u);
  EXPECT_EQ(fixture.server().context().accountant().num_releases(), 1);
}

TEST(NetServerTest, EmptyQueryBatchIsWellDefined) {
  ServerFixture fixture;
  net::Client client = fixture.Connect();
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       client.Release("path", "tree-hld", "main"));
  ASSERT_OK_AND_ASSIGN(std::vector<double> empty,
                       client.Query(info.handle_id, {}));
  EXPECT_TRUE(empty.empty());
  ASSERT_OK_AND_ASSIGN(std::vector<double> single,
                       client.Query(info.handle_id,
                                    std::vector<VertexPair>{{0, 5}}));
  EXPECT_EQ(single.size(), 1u);
}

TEST(NetServerTest, DrainModeShedsQueriesWithTypedOverload) {
  net::QueryServerOptions options;
  options.max_inflight_queries = -1;  // drain: shed every query
  ServerFixture fixture(options);
  net::Client client = fixture.Connect();
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       client.Release("path", "tree-hld", "main"));

  Result<std::vector<double>> shed =
      client.Query(info.handle_id, std::vector<VertexPair>{{0, 1}});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.last_error()->kind, net::ErrorKind::kOverloaded);
  EXPECT_EQ(fixture.server().stats().overload_rejected, 1u);
}

TEST(NetServerTest, ConnectionLimitRejectsWithTypedOverload) {
  net::QueryServerOptions options;
  options.max_connections = 1;
  ServerFixture fixture(options);
  net::Client first = fixture.Connect();
  // A round trip guarantees the first connection is registered before the
  // second one reaches the acceptor.
  ASSERT_OK(first.Stats().status());

  // The server sends the typed rejection immediately after accepting and
  // then hangs up, so read the frame without writing anything first.
  ASSERT_OK_AND_ASSIGN(net::Socket second,
                       net::Connect("127.0.0.1", fixture.server().port()));
  ASSERT_OK_AND_ASSIGN(net::Frame reply, net::ReadFrame(second));
  ASSERT_EQ(reply.type, net::MessageType::kError);
  ASSERT_OK_AND_ASSIGN(net::WireError error, net::DecodeError(reply.body));
  EXPECT_EQ(error.kind, net::ErrorKind::kOverloaded);
  EXPECT_EQ(error.code, StatusCode::kUnavailable);
  // The first connection keeps working.
  ASSERT_OK(first.Stats().status());
}

TEST(NetServerTest, AcceptorOutlivesAFailedAccept) {
  // Regression: one failed accept(2) used to end the accept loop, leaving
  // a running server that queued new connections forever. Fill the fd
  // table (under a lowered soft limit, so the fill stays small), let a
  // connection arrive while accept(2) can only fail with EMFILE, then free
  // the table: a fresh client must be served.
  ServerFixture fixture;
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = std::min<rlim_t>(saved.rlim_cur, 256);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);

  // No ASSERT until the table is freed again: an early return would leave
  // the process unable to open anything.
  std::vector<int> fillers;
  int filler = open("/dev/null", O_RDONLY);
  while (filler >= 0) {
    fillers.push_back(filler);
    filler = dup(fillers.front());
  }
  const int fill_errno = errno;
  // The one slot freed here goes to the client socket, so the table is
  // full again when the server's accept(2) runs.
  if (!fillers.empty()) {
    close(fillers.back());
    fillers.pop_back();
  }
  Result<net::Socket> early =
      net::Connect("127.0.0.1", fixture.server().port());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (int fd : fillers) close(fd);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_EQ(fill_errno, EMFILE);
  EXPECT_GT(fillers.size(), 0u);
  ASSERT_OK(early.status());

  net::ClientOptions options;
  options.request_timeout_ms = 5000;
  ASSERT_OK_AND_ASSIGN(
      net::Client client,
      net::Client::Connect("127.0.0.1", fixture.server().port(), options));
  ASSERT_OK(client.Stats().status());
  EXPECT_TRUE(fixture.server().running());
}

TEST(NetServerTest, MalformedFrameGetsTypedErrorAndCloses) {
  ServerFixture fixture;
  ASSERT_OK_AND_ASSIGN(net::Socket raw,
                       net::Connect("127.0.0.1", fixture.server().port()));
  uint8_t garbage[16] = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_OK(raw.WriteAll(garbage, sizeof(garbage)));
  ASSERT_OK_AND_ASSIGN(net::Frame reply, net::ReadFrame(raw));
  ASSERT_EQ(reply.type, net::MessageType::kError);
  ASSERT_OK_AND_ASSIGN(net::WireError error, net::DecodeError(reply.body));
  EXPECT_EQ(error.kind, net::ErrorKind::kMalformed);
  // The stream cannot be resynchronized: the server hangs up.
  Status closed = net::ReadFrame(raw).status();
  EXPECT_FALSE(closed.ok());
}

TEST(NetProtocolTest, ServerStatsV1BodyDecodesWithoutAccounting) {
  // Backward-compatible decode: a v1 peer's StatsResponse body ends after
  // the counters; the accounting extension stays at its defaults.
  net::ServerStats stats;
  stats.queries_served = 7;
  stats.open_handles = 2;
  stats.accounting_policy =
      static_cast<uint16_t>(AccountingPolicy::kZcdp);
  stats.spent_epsilon = 1.25;
  std::vector<uint8_t> body = net::EncodeServerStats(stats);
  constexpr size_t kV1BodyBytes = 6 * 8 + 4;
  body.resize(kV1BodyBytes);  // what a v1 peer would have sent
  ASSERT_OK_AND_ASSIGN(net::ServerStats decoded,
                       net::DecodeServerStats(body));
  EXPECT_EQ(decoded.queries_served, 7u);
  EXPECT_EQ(decoded.open_handles, 2u);
  EXPECT_FALSE(decoded.has_accounting);
  EXPECT_EQ(decoded.accounting_policy, 0u);
  EXPECT_DOUBLE_EQ(decoded.spent_epsilon, 0.0);

  // A truncated extension is still a malformed body, not a v1 peer.
  std::vector<uint8_t> torn = net::EncodeServerStats(stats);
  torn.pop_back();
  EXPECT_FALSE(net::DecodeServerStats(torn).ok());
}

TEST(NetProtocolTest, ServerStatsV2RoundTripsAccounting) {
  net::ServerStats stats;
  stats.releases_granted = 3;
  stats.has_accounting = true;
  stats.accounting_policy =
      static_cast<uint16_t>(AccountingPolicy::kAdvanced);
  stats.spent_epsilon = 0.75;
  stats.spent_delta = 1e-7;
  stats.remaining_epsilon = 1.25;
  stats.remaining_delta = 1e-5;
  std::vector<uint8_t> body = net::EncodeServerStats(stats);
  ASSERT_OK_AND_ASSIGN(net::ServerStats decoded,
                       net::DecodeServerStats(body));
  EXPECT_TRUE(decoded.has_accounting);
  EXPECT_EQ(decoded.accounting_policy,
            static_cast<uint16_t>(AccountingPolicy::kAdvanced));
  EXPECT_DOUBLE_EQ(decoded.spent_epsilon, 0.75);
  EXPECT_DOUBLE_EQ(decoded.spent_delta, 1e-7);
  EXPECT_DOUBLE_EQ(decoded.remaining_epsilon, 1.25);
  EXPECT_DOUBLE_EQ(decoded.remaining_delta, 1e-5);
}

TEST(NetServerTest, StatsRoundTripRemainingBudgetUnderActivePolicy) {
  // Acceptance: the Stats frame reports the remaining budget under the
  // server ledger's active policy, through net::Client.
  Workload workload = MakeWorkload();
  PrivacyParams per_release{0.5, 1e-6, 1.0};
  PrivacyParams budget{3.0, 1e-4, 1.0};
  const double kDeltaSlack = 1e-5;
  ReleaseContext ctx =
      ReleaseContext::Create(per_release, kServerSeed,
                             AccountingPolicy::kZcdp)
          .value();
  ctx.SetTotalBudget(budget, kDeltaSlack);
  net::QueryServer server({}, std::move(ctx));
  ASSERT_OK(server.AddWorkload("path", workload.graph, workload.weights));
  ASSERT_OK(server.Start());
  net::Client client = net::Client::Connect("127.0.0.1",
                                            server.port()).value();

  // Two Gaussian-calibrated releases, charged at their natural zCDP rate.
  ASSERT_OK(client.Release("path", "bounded-weight-gaussian", "g1").status());
  ASSERT_OK(client.Release("path", "bounded-weight-gaussian", "g2").status());

  ASSERT_OK_AND_ASSIGN(net::ServerStats stats, client.Stats());
  ASSERT_TRUE(stats.has_accounting);
  EXPECT_EQ(stats.accounting_policy,
            static_cast<uint16_t>(AccountingPolicy::kZcdp));
  // Reproduce the expected position: two GaussianFromParams charges under
  // rho-sum composition, converted at the server's delta slack.
  PrivacyLoss loss = PrivacyLoss::GaussianFromParams(per_release).value();
  double expected_eps = ZcdpEpsilon(2.0 * loss.rho, kDeltaSlack);
  EXPECT_DOUBLE_EQ(stats.spent_epsilon, expected_eps);
  EXPECT_DOUBLE_EQ(stats.spent_delta, kDeltaSlack);
  EXPECT_DOUBLE_EQ(stats.remaining_epsilon, budget.epsilon - expected_eps);
  EXPECT_DOUBLE_EQ(stats.remaining_delta, budget.delta - kDeltaSlack);
  server.Stop();
}

TEST(NetServerTest, V1PeerGetsV1HeaderAndV1StatsBody) {
  // Rolling-upgrade compatibility: a v1 client's frames carry version 1,
  // and its ReadFrame rejects anything but version 1 — so the server must
  // echo the request's version and encode the v1 stats body shape.
  ServerFixture fixture;
  ASSERT_OK_AND_ASSIGN(
      net::Socket socket,
      net::Connect("127.0.0.1", fixture.server().port()));
  ASSERT_OK(net::WriteFrame(socket, net::MessageType::kStatsRequest, {},
                            /*version=*/1));
  ASSERT_OK_AND_ASSIGN(net::Frame response, net::ReadFrame(socket));
  EXPECT_EQ(response.version, 1u);
  EXPECT_EQ(response.type, net::MessageType::kStatsResponse);
  EXPECT_EQ(response.body.size(), 6u * 8u + 4u);  // counters only
  ASSERT_OK_AND_ASSIGN(net::ServerStats stats,
                       net::DecodeServerStats(response.body));
  EXPECT_FALSE(stats.has_accounting);

  // The same request at v2 gets the extension on the same server.
  ASSERT_OK(net::WriteFrame(socket, net::MessageType::kStatsRequest, {}));
  ASSERT_OK_AND_ASSIGN(net::Frame v2_response, net::ReadFrame(socket));
  EXPECT_EQ(v2_response.version, net::kProtocolVersion);
  ASSERT_OK_AND_ASSIGN(net::ServerStats v2_stats,
                       net::DecodeServerStats(v2_response.body));
  EXPECT_TRUE(v2_stats.has_accounting);
}

TEST(NetServerTest, StatsReportInfiniteHeadroomWithoutBudget) {
  ServerFixture fixture;  // fixture budget is huge but installed...
  Workload workload = MakeWorkload();
  ReleaseContext ctx =
      ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kServerSeed)
          .value();  // ...this one has none at all
  net::QueryServer server({}, std::move(ctx));
  ASSERT_OK(server.AddWorkload("path", workload.graph, workload.weights));
  ASSERT_OK(server.Start());
  net::Client client = net::Client::Connect("127.0.0.1",
                                            server.port()).value();
  ASSERT_OK_AND_ASSIGN(net::ServerStats stats, client.Stats());
  ASSERT_TRUE(stats.has_accounting);
  EXPECT_EQ(stats.accounting_policy,
            static_cast<uint16_t>(AccountingPolicy::kBasic));
  EXPECT_TRUE(std::isinf(stats.remaining_epsilon));
  EXPECT_TRUE(std::isinf(stats.remaining_delta));
  server.Stop();
}

TEST(NetServerTest, Survives8ConcurrentClientConnections) {
  net::QueryServerOptions options;
  // The default limit derives from the core count; on a 1-core CI runner
  // that is below 8 and this test would (correctly) be shed. Survival
  // under concurrency is what is under test here, not admission.
  options.max_inflight_queries = 16;
  ServerFixture fixture(options);
  net::Client setup = fixture.Connect();
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       setup.Release("path", "tree-hld", "main"));

  std::unique_ptr<DistanceOracle> reference =
      fixture.ReplayRelease({"tree-hld"});
  BatchExecutor executor;

  constexpr int kClients = 8;
  constexpr int kBatchesPerClient = 5;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Result<net::Client> client =
          net::Client::Connect("127.0.0.1", fixture.server().port());
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      Rng rng(kTestSeed + static_cast<uint64_t>(c));
      for (int b = 0; b < kBatchesPerClient; ++b) {
        std::vector<VertexPair> pairs =
            SampleTestPairs(kNumVertices, 400, &rng);
        Result<std::vector<double>> remote =
            client->Query(info.handle_id, pairs);
        if (!remote.ok()) {
          failures[c] = remote.status().ToString();
          return;
        }
        Result<std::vector<double>> direct =
            executor.Execute(*reference, pairs);
        if (!direct.ok() || *remote != *direct) {
          failures[c] = "mismatch against direct executor";
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": "
                                     << failures[c];
  }
  net::ServerStats stats = fixture.server().stats();
  EXPECT_EQ(stats.queries_served,
            static_cast<uint64_t>(kClients * kBatchesPerClient));
  EXPECT_EQ(stats.pairs_served,
            static_cast<uint64_t>(kClients * kBatchesPerClient * 400));
}

// -------------------------------------------------- v3 UpdateWeights --

TEST(NetServerTest, UpdateRoundTripMatchesLocalReplayBitForBit) {
  ServerFixture fixture;
  net::Client client = fixture.Connect();
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       client.Release("path", "tree-hld", "live"));

  std::vector<EdgeWeightDelta> deltas = {{3, 1.5}, {40, 0.05}, {17, 0.8}};
  ASSERT_OK_AND_ASSIGN(net::UpdateInfo applied,
                       client.UpdateWeights(info.handle_id, deltas));
  EXPECT_GT(applied.charged_epsilon, 0.0);
  EXPECT_LE(applied.charged_epsilon, fixture.params().epsilon);
  EXPECT_GT(applied.dirty_blocks, 0u);

  Rng rng(kTestSeed ^ 3);
  std::vector<VertexPair> pairs = SampleTestPairs(kNumVertices, 1500, &rng);
  ASSERT_OK_AND_ASSIGN(std::vector<double> remote,
                       client.Query(info.handle_id, pairs));

  // Local replay: same seed, same build, same epoch through the same
  // ledger => the served post-update structure must be bit-identical.
  ReleaseContext ctx =
      ReleaseContext::Create(fixture.params(), kServerSeed).value();
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DistanceOracle> reference,
      OracleRegistry::Global().Create("tree-hld", fixture.workload().graph,
                                      fixture.workload().weights, ctx));
  ASSERT_OK(reference->AsUpdatable()->ApplyWeightUpdates(deltas, ctx));
  EXPECT_DOUBLE_EQ(applied.charged_epsilon,
                   reference->AsUpdatable()->last_update().charged_epsilon);
  ASSERT_OK_AND_ASSIGN(std::vector<double> direct,
                       DistanceBatchOf(*reference, pairs, 1));
  ASSERT_EQ(remote.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(remote[i], direct[i]) << "pair " << i;
  }
}

TEST(NetServerTest, UpdateAgainstBuildOnceReleaseIsTypedUnsupported) {
  ServerFixture fixture;
  net::Client client = fixture.Connect();
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       client.Release("path", "tree-recursive", "static"));
  std::vector<EdgeWeightDelta> deltas = {{0, 0.5}};
  Result<net::UpdateInfo> refused =
      client.UpdateWeights(info.handle_id, deltas);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(client.last_error().has_value());
  EXPECT_EQ(client.last_error()->kind, net::ErrorKind::kUnsupported);
  // The handle still serves queries.
  ASSERT_OK(
      client.Query(info.handle_id, std::vector<VertexPair>{{0, 1}})
          .status());
}

TEST(NetServerTest, OverBudgetUpdateIsTypedBudgetExhaustedAndMutatesNothing) {
  // Room for the build (1.0) but not a full-sensitivity epoch: the path
  // workload is one heavy chain, so any update epoch charges the full
  // per-release epsilon and must be refused.
  ServerFixture fixture({}, PrivacyParams{1.2, 0.0, 1.0});
  net::Client client = fixture.Connect();
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       client.Release("path", "tree-hld", "capped"));

  Rng rng(kTestSeed ^ 4);
  std::vector<VertexPair> pairs = SampleTestPairs(kNumVertices, 400, &rng);
  ASSERT_OK_AND_ASSIGN(std::vector<double> before,
                       client.Query(info.handle_id, pairs));

  std::vector<EdgeWeightDelta> deltas = {{5, 2.0}};
  Result<net::UpdateInfo> blocked =
      client.UpdateWeights(info.handle_id, deltas);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.last_error()->kind, net::ErrorKind::kBudgetExhausted);
  EXPECT_EQ(fixture.server().stats().budget_rejected, 1u);

  // The refused epoch left the release untouched: answers bit-identical.
  ASSERT_OK_AND_ASSIGN(std::vector<double> after,
                       client.Query(info.handle_id, pairs));
  EXPECT_EQ(before, after);
}

TEST(NetServerTest, UpdateOnUnknownHandleIsTypedNotFound) {
  ServerFixture fixture;
  net::Client client = fixture.Connect();
  std::vector<EdgeWeightDelta> deltas = {{0, 1.0}};
  Result<net::UpdateInfo> missing = client.UpdateWeights(321, deltas);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.last_error()->kind, net::ErrorKind::kNotFound);
}

// ------------------------------------------- per-connection buffer reuse --

/// Sends `pairs` on `socket` through the gather writer and checks the
/// answers bit for bit against BatchExecutor::Execute on `reference`.
void ExpectServedLikeExecute(net::Socket& socket, uint32_t handle,
                             const DistanceOracle& reference,
                             std::span<const VertexPair> pairs) {
  ASSERT_OK(net::WriteQueryRequest(socket, handle, pairs));
  ASSERT_OK_AND_ASSIGN(net::Frame reply, net::ReadFrame(socket));
  ASSERT_EQ(reply.type, net::MessageType::kQueryResponse);
  ASSERT_OK_AND_ASSIGN(std::vector<double> remote,
                       net::DecodeQueryResponse(reply.body));
  ASSERT_OK_AND_ASSIGN(std::vector<double> direct,
                       BatchExecutor().Execute(reference, pairs));
  ASSERT_EQ(remote.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(remote[i]),
              std::bit_cast<uint64_t>(direct[i]))
        << "pair " << i << " of " << pairs.size();
  }
}

/// Sends one request frame and expects a typed error of `kind` back.
void ExpectTypedError(net::Socket& socket, net::MessageType type,
                      std::span<const uint8_t> body, net::ErrorKind kind) {
  ASSERT_OK(net::WriteFrame(socket, type, body));
  ASSERT_OK_AND_ASSIGN(net::Frame reply, net::ReadFrame(socket));
  ASSERT_EQ(reply.type, net::MessageType::kError);
  ASSERT_OK_AND_ASSIGN(net::WireError error, net::DecodeError(reply.body));
  EXPECT_EQ(error.kind, kind) << error.message;
}

TEST(NetServerTest, OneConnectionReusesItsBuffersThroughEveryOutcome) {
  constexpr uint32_t kLimit = 3000;
  net::QueryServerOptions options;
  options.max_pairs_per_query = kLimit;
  ServerFixture fixture(options);
  net::Client admin = fixture.Connect();
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       admin.Release("path", "tree-hld", "reused"));
  // The local twin: same seed, same release, and later the same epoch.
  ReleaseContext ctx =
      ReleaseContext::Create(fixture.params(), kServerSeed).value();
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<DistanceOracle> reference,
      OracleRegistry::Global().Create("tree-hld", fixture.workload().graph,
                                      fixture.workload().weights, ctx));

  // Every step below travels over this one connection.
  ASSERT_OK_AND_ASSIGN(net::Socket socket,
                       net::Connect("127.0.0.1", fixture.server().port()));
  Rng rng(kTestSeed ^ 6);
  EXPECT_EQ(fixture.server().retained_batch_pairs(), 0u);

  // A batch at the limit sizes the buffers; a small one reuses them.
  std::vector<VertexPair> large = SampleTestPairs(kNumVertices, kLimit, &rng);
  ExpectServedLikeExecute(socket, info.handle_id, *reference, large);
  EXPECT_EQ(fixture.server().retained_batch_pairs(), kLimit);
  std::vector<VertexPair> small = SampleTestPairs(kNumVertices, 5, &rng);
  ExpectServedLikeExecute(socket, info.handle_id, *reference, small);
  EXPECT_EQ(fixture.server().retained_batch_pairs(), kLimit);

  // A body whose pair count disagrees with its size.
  std::vector<uint8_t> torn = net::EncodeQueryRequest(info.handle_id, small);
  torn.pop_back();
  ExpectTypedError(socket, net::MessageType::kQueryRequest, torn,
                   net::ErrorKind::kMalformed);

  // A well-formed batch naming a vertex the release does not have.
  std::vector<VertexPair> out_of_range = small;
  out_of_range[2] = {0, kNumVertices + 7};
  ExpectTypedError(socket, net::MessageType::kQueryRequest,
                   net::EncodeQueryRequest(info.handle_id, out_of_range),
                   net::ErrorKind::kMalformed);

  // One pair over the limit: refused before the buffers could grow.
  std::vector<VertexPair> over = SampleTestPairs(kNumVertices, kLimit + 1,
                                                 &rng);
  ExpectTypedError(socket, net::MessageType::kQueryRequest,
                   net::EncodeQueryRequest(info.handle_id, over),
                   net::ErrorKind::kTooLarge);
  EXPECT_EQ(fixture.server().retained_batch_pairs(), kLimit);

  // An update epoch on the same connection, mirrored on the twin.
  std::vector<EdgeWeightDelta> deltas = {{3, 1.5}, {40, 0.05}};
  ASSERT_OK(net::WriteFrame(socket, net::MessageType::kUpdateRequest,
                            net::EncodeUpdateRequest(info.handle_id, deltas)));
  ASSERT_OK_AND_ASSIGN(net::Frame updated, net::ReadFrame(socket));
  ASSERT_EQ(updated.type, net::MessageType::kUpdateResponse);
  ASSERT_OK(reference->AsUpdatable()->ApplyWeightUpdates(deltas, ctx));

  // A large batch again answers from the post-epoch release.
  large = SampleTestPairs(kNumVertices, kLimit, &rng);
  ExpectServedLikeExecute(socket, info.handle_id, *reference, large);
  EXPECT_EQ(fixture.server().retained_batch_pairs(), kLimit);

  // Closing the connection gives its buffers back.
  socket.Close();
  for (int i = 0; i < 200 && fixture.server().retained_batch_pairs() > 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fixture.server().retained_batch_pairs(), 0u);
}

TEST(NetServerTest, ConcurrentQueriesAndUpdatesStaySane) {
  // 4 query threads hammer while 32 update epochs interleave under the
  // handle's writer lock: every batch must be internally consistent (all
  // answers from one epoch's structure) and every round trip must
  // succeed — no torn reads, no deadlock, no protocol corruption.
  ServerFixture fixture;
  net::Client admin = fixture.Connect();
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       admin.Release("path", "tree-hld", "mixed"));
  const int kQueryThreads = 4, kBatches = 25;
  std::vector<std::string> failures(kQueryThreads);
  std::vector<std::thread> threads;
  for (int c = 0; c < kQueryThreads; ++c) {
    threads.emplace_back([&, c] {
      Result<net::Client> client =
          net::Client::Connect("127.0.0.1", fixture.server().port());
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      Rng rng(kTestSeed + static_cast<uint64_t>(c));
      for (int b = 0; b < kBatches; ++b) {
        std::vector<VertexPair> pairs =
            SampleTestPairs(kNumVertices, 200, &rng);
        Result<std::vector<double>> remote =
            client->Query(info.handle_id, pairs);
        if (!remote.ok()) {
          failures[c] = remote.status().ToString();
          return;
        }
      }
    });
  }
  Rng update_rng(kTestSeed ^ 5);
  for (int epoch = 0; epoch < 32; ++epoch) {
    std::vector<EdgeWeightDelta> deltas = {
        {static_cast<EdgeId>(update_rng.UniformInt(0, kNumVertices - 2)),
         update_rng.Uniform(0.1, 0.9)}};
    ASSERT_OK(admin.UpdateWeights(info.handle_id, deltas).status());
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < kQueryThreads; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": "
                                     << failures[c];
  }
}

}  // namespace
}  // namespace dpsp
