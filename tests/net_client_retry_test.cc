// Client reliability knobs: per-request deadlines against a stalled
// server (timeout breaks the connection — a late response would
// desynchronize the framing), the kOverloaded-only retry policy
// (backpressure is explicitly safe to repeat; budget exhaustion and
// unknown-fate transport errors never are), and retry-with-failover
// across a replica endpoint list (reads may move to another node;
// typed budget refusals never do — every replica would refuse the same
// way, and masking the answer would hide an admission decision).

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "test_util.h"

namespace dpsp {
namespace {

TEST(ClientRetryTest, StalledServerTimesOutAndBreaksTheConnection) {
  ASSERT_OK_AND_ASSIGN(net::Listener listener,
                       net::Listener::Bind("127.0.0.1", 0));
  std::atomic<bool> release_server{false};
  std::thread stalled([&listener, &release_server] {
    Result<net::Socket> accepted = listener.Accept(/*timeout_ms=*/5000);
    if (!accepted.ok()) return;
    // Hold the connection open, read nothing, answer nothing.
    while (!release_server.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  net::ClientOptions options;
  options.request_timeout_ms = 100;
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1", listener.port(),
                                            options));
  Result<net::ServerStats> stats = client.Stats();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(client.broken());

  // Every later call fails fast: the stream may hold a stale response.
  Result<net::ServerStats> after = client.Stats();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.retries_performed(), 0u);  // timeouts are never retried

  release_server.store(true);
  stalled.join();
}

TEST(ClientRetryTest, OverloadedIsRetriedUntilTheServerRecovers) {
  // A hand-rolled server: the first request is refused kOverloaded, the
  // retry gets a real answer — the exact transient the policy exists for.
  ASSERT_OK_AND_ASSIGN(net::Listener listener,
                       net::Listener::Bind("127.0.0.1", 0));
  std::thread flaky([&listener] {
    Result<net::Socket> accepted = listener.Accept(/*timeout_ms=*/5000);
    if (!accepted.ok()) return;
    net::Socket socket = std::move(accepted).value();
    Result<net::Frame> first = net::ReadFrame(socket);
    if (!first.ok()) return;
    std::vector<uint8_t> error = net::EncodeError(
        net::ErrorKind::kOverloaded,
        Status::Unavailable("queue full, retry later"));
    (void)net::WriteFrame(socket, net::MessageType::kError, error);
    Result<net::Frame> retry = net::ReadFrame(socket);
    if (!retry.ok()) return;
    net::ServerStats stats;
    stats.queries_served = 7;
    (void)net::WriteFrame(socket, net::MessageType::kStatsResponse,
                          net::EncodeServerStats(stats));
  });

  net::ClientOptions options;
  options.max_retries = 3;
  options.initial_backoff_ms = 1;
  options.max_backoff_ms = 4;
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1", listener.port(),
                                            options));
  ASSERT_OK_AND_ASSIGN(net::ServerStats stats, client.Stats());
  EXPECT_EQ(stats.queries_served, 7u);
  EXPECT_EQ(client.retries_performed(), 1u);
  EXPECT_FALSE(client.last_error().has_value());  // success resets it
  flaky.join();
}

TEST(ClientRetryTest, RetriesAreCappedAndSurfaceTheOverload) {
  // Drain mode sheds every query: the client must exhaust its retries
  // and surface the server's kUnavailable, counting each attempt.
  net::QueryServerOptions options;
  options.max_inflight_queries = -1;  // lame duck: shed all queries
  ReleaseContext ctx =
      ReleaseContext::Create({1.0, 0.0, 1.0}, kTestSeed).value();
  net::QueryServer server(options, std::move(ctx));
  Rng rng(kTestSeed);
  Graph graph = MakePathGraph(16).value();
  EdgeWeights weights = MakeUniformWeights(graph, 0.1, 0.9, &rng);
  ASSERT_OK(server.AddWorkload("path", graph, weights));
  ASSERT_OK(server.Start());

  net::ClientOptions client_options;
  client_options.max_retries = 2;
  client_options.initial_backoff_ms = 1;
  client_options.max_backoff_ms = 2;
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1", server.port(),
                                            client_options));
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       client.Release("path", "tree-hld", "h0"));
  std::vector<VertexPair> pairs = {{0, 5}};
  Result<std::vector<double>> shed = client.Query(info.handle_id, pairs);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.retries_performed(), 2u);
  ASSERT_TRUE(client.last_error().has_value());
  EXPECT_EQ(client.last_error()->kind, net::ErrorKind::kOverloaded);
}

TEST(ClientRetryTest, BudgetExhaustionIsNeverRetried) {
  net::QueryServerOptions options;
  ReleaseContext ctx =
      ReleaseContext::Create({1.0, 0.0, 1.0}, kTestSeed).value();
  ctx.SetTotalBudget({1.5, 0.0, 1.0});  // room for exactly one release
  net::QueryServer server(options, std::move(ctx));
  Rng rng(kTestSeed);
  Graph graph = MakePathGraph(16).value();
  EdgeWeights weights = MakeUniformWeights(graph, 0.1, 0.9, &rng);
  ASSERT_OK(server.AddWorkload("path", graph, weights));
  ASSERT_OK(server.Start());

  net::ClientOptions client_options;
  client_options.max_retries = 5;  // must not matter
  client_options.initial_backoff_ms = 1;
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1", server.port(),
                                            client_options));
  ASSERT_OK(client.Release("path", "tree-hld", "h0").status());
  Result<net::ReleaseInfo> refused =
      client.Release("path", "tree-hld", "h1");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  // Terminal: no retry can ever succeed, so none may have been burned.
  EXPECT_EQ(client.retries_performed(), 0u);
  ASSERT_TRUE(client.last_error().has_value());
  EXPECT_EQ(client.last_error()->kind, net::ErrorKind::kBudgetExhausted);
}

// ----------------------------------------------------------- failover --

/// A server pair over the same workload for failover tests: a primary we
/// can sabotage and a healthy secondary.
struct FailoverPair {
  std::unique_ptr<net::QueryServer> primary;
  std::unique_ptr<net::QueryServer> secondary;

  explicit FailoverPair(net::QueryServerOptions primary_options = {}) {
    Rng rng(kTestSeed);
    Graph graph = MakePathGraph(16).value();
    EdgeWeights weights = MakeUniformWeights(graph, 0.1, 0.9, &rng);
    ReleaseContext ctx1 =
        ReleaseContext::Create({1.0, 0.0, 1.0}, kTestSeed).value();
    primary = std::make_unique<net::QueryServer>(primary_options,
                                                 std::move(ctx1));
    EXPECT_OK(primary->AddWorkload("path", graph, weights));
    EXPECT_OK(primary->Start());
    ReleaseContext ctx2 =
        ReleaseContext::Create({1.0, 0.0, 1.0}, kTestSeed).value();
    secondary = std::make_unique<net::QueryServer>(net::QueryServerOptions{},
                                                   std::move(ctx2));
    EXPECT_OK(secondary->AddWorkload("path", graph, weights));
    EXPECT_OK(secondary->Start());
  }
};

TEST(ClientRetryTest, ReadsFailOverToTheNextEndpointWhenThePrimaryDies) {
  FailoverPair pair;
  net::ClientOptions options;
  options.max_retries = 1;
  options.initial_backoff_ms = 1;
  options.failover_endpoints.push_back(
      net::Endpoint{"127.0.0.1", pair.secondary->port()});
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1",
                                            pair.primary->port(), options));
  ASSERT_OK(client.Stats().status());

  // Primary gone mid-conversation: the next read lands on the secondary
  // through the failover list instead of failing.
  pair.primary->Stop();
  ASSERT_OK_AND_ASSIGN(net::ServerStats stats, client.Stats());
  EXPECT_EQ(stats.queries_served, 0u);
  EXPECT_GE(client.failovers_performed(), 1u);
  EXPECT_FALSE(client.broken());

  // And it stays on the healthy endpoint for subsequent reads.
  ASSERT_OK(client.Stats().status());
}

TEST(ClientRetryTest, BrokenConnectionRecoversThroughFailoverForReads) {
  // After a request timeout the connection is broken; a read-only client
  // with a failover list must recover instead of failing fast forever.
  ASSERT_OK_AND_ASSIGN(net::Listener listener,
                       net::Listener::Bind("127.0.0.1", 0));
  std::atomic<bool> release_server{false};
  std::thread stalled([&listener, &release_server] {
    Result<net::Socket> accepted = listener.Accept(/*timeout_ms=*/5000);
    if (!accepted.ok()) return;
    while (!release_server.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  FailoverPair pair;
  net::ClientOptions options;
  options.request_timeout_ms = 100;
  options.failover_endpoints.push_back(
      net::Endpoint{"127.0.0.1", pair.secondary->port()});
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1", listener.port(),
                                            options));
  // The stalled primary times the request out, then the attempt moves to
  // the secondary and succeeds — one round trip, observable failover.
  ASSERT_OK(client.Stats().status());
  EXPECT_GE(client.failovers_performed(), 1u);
  release_server.store(true);
  stalled.join();
}

TEST(ClientRetryTest, BudgetRefusalsNeverFailOver) {
  // The primary has room for exactly one release; the secondary is
  // wide open. The refused second release must surface kBudgetExhausted
  // from the PRIMARY — silently re-running a mutation on another node
  // would both double-spend and hide the admission decision.
  Rng rng(kTestSeed);
  Graph graph = MakePathGraph(16).value();
  EdgeWeights weights = MakeUniformWeights(graph, 0.1, 0.9, &rng);
  ReleaseContext ctx1 =
      ReleaseContext::Create({1.0, 0.0, 1.0}, kTestSeed).value();
  ctx1.SetTotalBudget({1.5, 0.0, 1.0});
  net::QueryServer primary(net::QueryServerOptions{}, std::move(ctx1));
  ASSERT_OK(primary.AddWorkload("path", graph, weights));
  ASSERT_OK(primary.Start());
  ReleaseContext ctx2 =
      ReleaseContext::Create({1.0, 0.0, 1.0}, kTestSeed).value();
  net::QueryServer secondary(net::QueryServerOptions{}, std::move(ctx2));
  ASSERT_OK(secondary.AddWorkload("path", graph, weights));
  ASSERT_OK(secondary.Start());

  net::ClientOptions options;
  options.max_retries = 5;
  options.initial_backoff_ms = 1;
  options.failover_endpoints.push_back(
      net::Endpoint{"127.0.0.1", secondary.port()});
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1", primary.port(),
                                            options));
  ASSERT_OK(client.Release("path", "tree-hld", "h0").status());
  Result<net::ReleaseInfo> refused =
      client.Release("path", "tree-hld", "h1");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(client.last_error().has_value());
  EXPECT_EQ(client.last_error()->kind, net::ErrorKind::kBudgetExhausted);
  EXPECT_EQ(client.failovers_performed(), 0u);
  EXPECT_EQ(client.retries_performed(), 0u);
  // The secondary never heard about any of this.
  ASSERT_OK_AND_ASSIGN(net::Client probe,
                       net::Client::Connect("127.0.0.1",
                                            secondary.port()));
  ASSERT_OK_AND_ASSIGN(net::ServerStats stats, probe.Stats());
  EXPECT_EQ(stats.open_handles, 0u);
}

TEST(ClientRetryTest, TransportFailuresDoNotFailOverMutations) {
  // A release whose connection dies mid-flight has unknown fate: it may
  // or may not have charged the primary's ledger. Re-sending it to a
  // different node could spend twice — the client must surface the
  // transport error instead of failing over.
  FailoverPair pair;
  net::ClientOptions options;
  options.failover_endpoints.push_back(
      net::Endpoint{"127.0.0.1", pair.secondary->port()});
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1",
                                            pair.primary->port(), options));
  ASSERT_OK(client.Stats().status());
  pair.primary->Stop();
  Result<net::ReleaseInfo> released =
      client.Release("path", "tree-hld", "h0");
  ASSERT_FALSE(released.ok());
  EXPECT_EQ(client.failovers_performed(), 0u);
  // The healthy secondary must not have gained a handle.
  ASSERT_OK_AND_ASSIGN(net::Client probe,
                       net::Client::Connect("127.0.0.1",
                                            pair.secondary->port()));
  ASSERT_OK_AND_ASSIGN(net::ServerStats stats, probe.Stats());
  EXPECT_EQ(stats.open_handles, 0u);
}

TEST(ClientRetryTest, IdleConnectionsAreClosedByTheServer) {
  net::QueryServerOptions options;
  options.idle_timeout_ms = 100;
  ReleaseContext ctx =
      ReleaseContext::Create({1.0, 0.0, 1.0}, kTestSeed).value();
  net::QueryServer server(options, std::move(ctx));
  Rng rng(kTestSeed);
  Graph graph = MakePathGraph(16).value();
  EdgeWeights weights = MakeUniformWeights(graph, 0.1, 0.9, &rng);
  ASSERT_OK(server.AddWorkload("path", graph, weights));
  ASSERT_OK(server.Start());

  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1", server.port()));
  ASSERT_OK(client.Stats().status());  // active: well within the window
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // The server hung up during the idle window; the next request hits a
  // dead stream instead of waiting forever on an abandoned slot.
  Result<net::ServerStats> after_idle = client.Stats();
  EXPECT_FALSE(after_idle.ok());
}

}  // namespace
}  // namespace dpsp
