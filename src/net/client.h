// Client library for the query-server wire protocol: one blocking
// request/response connection. Errors the server sends as typed Error
// frames surface as the same Status the in-process call would have
// returned (budget exhaustion is FailedPrecondition, backpressure is
// Unavailable), with the machine-readable ErrorKind retained in
// last_error() so callers can branch on WHY without parsing messages —
// kOverloaded means back off and retry, kBudgetExhausted means no retry
// will ever succeed.
//
// A Client is one connection and is NOT thread-safe; concurrent load uses
// one Client per thread (as perfbench/'s load generators do).
//
// Query sends its request straight from the caller's pair span (one
// gather write, no request buffer) and reads every response into one
// frame the client reuses, so the returned answer vector is the only
// allocation a steady stream of queries makes. The reused frame keeps
// the largest response body seen, at most kMaxBodyBytes.

#ifndef DPSP_NET_CLIENT_H_
#define DPSP_NET_CLIENT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/distance_oracle.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace dpsp {
namespace net {

/// One server address a client can talk to.
struct Endpoint {
  std::string address;
  uint16_t port = 0;
};

/// Per-connection reliability knobs.
struct ClientOptions {
  /// Per-request deadline on waiting for the response, in milliseconds;
  /// <= 0 waits forever (the pre-deadline behavior). A timed-out request
  /// fails with kUnavailable and BREAKS the connection — a late response
  /// would desynchronize the framing, so the socket is shut down and
  /// every later call fails fast with FailedPrecondition.
  int request_timeout_ms = 0;

  /// Retries for requests the server refused with ErrorKind::kOverloaded
  /// (transient backpressure, explicitly safe to repeat). 0 disables.
  /// Nothing else is ever retried: kBudgetExhausted can never succeed,
  /// and a timeout/transport error leaves the request's fate unknown —
  /// blindly re-sending a Release or UpdateWeights could double-spend
  /// budget.
  int max_retries = 0;

  /// Capped exponential backoff between kOverloaded retries:
  /// initial * 2^attempt, clamped to max.
  int initial_backoff_ms = 10;
  int max_backoff_ms = 1000;

  /// Additional endpoints (read replicas) to fail over to when the
  /// current node is unusable. Failover reconnects round-robin and
  /// re-issues the request, so it only happens when re-issuing is safe:
  ///  - a typed kOverloaded rejection (after max_retries on the current
  ///    node) fails over for ANY request — the server refused before
  ///    doing work;
  ///  - a transport error or request timeout fails over only for
  ///    idempotent requests (Query, Stats) — a Release or UpdateWeights
  ///    whose fate is unknown is never re-sent (double-spend risk).
  /// Other typed errors (kBudgetExhausted above all) never fail over:
  /// every node shares one coordinator ledger, so the answer is the same
  /// everywhere.
  std::vector<Endpoint> failover_endpoints;
};

class Client {
 public:
  /// Connects to a running QueryServer.
  static Result<Client> Connect(const std::string& address, uint16_t port,
                                ClientOptions options = {});

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Asks the server to release `mechanism` over `workload` under the
  /// client-chosen `handle_name`. On success the returned handle id
  /// addresses the release in Query calls. Over-budget requests fail with
  /// FailedPrecondition and last_error()->kind == kBudgetExhausted.
  Result<ReleaseInfo> Release(const std::string& workload,
                              const std::string& mechanism,
                              const std::string& handle_name);

  /// Answers a batch of (u, v) pairs through a released handle. Results
  /// arrive in input order, bit-identical to a direct BatchExecutor run
  /// against the same release.
  Result<std::vector<double>> Query(uint32_t handle_id,
                                    std::span<const VertexPair> pairs);

  /// Applies one incremental weight-update epoch to an updatable released
  /// handle. The response carries the partial-release
  /// loss actually charged and the ledger's remaining headroom. A build-
  /// once mechanism fails with FailedPrecondition and last_error()->kind
  /// == kUnsupported; an exhausted budget with kBudgetExhausted.
  Result<UpdateInfo> UpdateWeights(uint32_t handle_id,
                                   std::span<const EdgeWeightDelta> deltas);

  /// Server-side counters snapshot.
  Result<ServerStats> Stats();

  /// The last typed Error frame this connection received, if any. Reset
  /// by the next successful round trip.
  const std::optional<WireError>& last_error() const { return last_error_; }

  /// kOverloaded retries performed over the connection's lifetime.
  uint64_t retries_performed() const { return retries_performed_; }

  /// Reconnects to another endpoint performed over the client's lifetime.
  uint64_t failovers_performed() const { return failovers_performed_; }

  /// True once a request deadline expired: the stream may hold a stale
  /// response, so the connection is unusable. An idempotent request with
  /// failover endpoints configured recovers by reconnecting; anything
  /// else fails fast with FailedPrecondition.
  bool broken() const { return broken_; }

 private:
  Client(Socket socket, ClientOptions options)
      : socket_(std::move(socket)), options_(std::move(options)) {}

  /// Sends one request by calling `write_request(socket_)` (again for
  /// each retry or failover) and reads the response into response_,
  /// honoring the per-request deadline and the kOverloaded retry policy;
  /// an Error frame is decoded, stashed in last_error_, and returned as
  /// its Status.
  template <typename WriteRequest>
  Status RoundTrip(MessageType request_type, MessageType expected_response,
                   const WriteRequest& write_request);

  /// The deadline-bounded receive of one response into response_.
  Status ReadResponse();

  /// Reconnects round-robin to the next reachable endpoint (skipping the
  /// current one), replacing the socket and clearing broken_. Fails with
  /// kUnavailable when no other endpoint answers.
  Status FailOver();

  Socket socket_;
  ClientOptions options_;
  /// The endpoint list: the address Connect() dialed first, then every
  /// options_.failover_endpoints entry. current_endpoint_ indexes it.
  std::vector<Endpoint> endpoints_;
  size_t current_endpoint_ = 0;
  std::optional<WireError> last_error_;
  /// The last response read; its body buffer is reused by the next one.
  Frame response_;
  uint64_t retries_performed_ = 0;
  uint64_t failovers_performed_ = 0;
  bool broken_ = false;
};

}  // namespace net
}  // namespace dpsp

#endif  // DPSP_NET_CLIENT_H_
