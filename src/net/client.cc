#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/table.h"

namespace dpsp {
namespace net {

Result<Client> Client::Connect(const std::string& address, uint16_t port,
                               ClientOptions options) {
  DPSP_ASSIGN_OR_RETURN(Socket socket, net::Connect(address, port));
  Client client(std::move(socket), std::move(options));
  client.endpoints_.push_back(Endpoint{address, port});
  client.endpoints_.insert(client.endpoints_.end(),
                           client.options_.failover_endpoints.begin(),
                           client.options_.failover_endpoints.end());
  return client;
}

Status Client::FailOver() {
  for (size_t i = 1; i < endpoints_.size(); ++i) {
    size_t next = (current_endpoint_ + i) % endpoints_.size();
    Result<Socket> socket =
        net::Connect(endpoints_[next].address, endpoints_[next].port);
    if (!socket.ok()) continue;
    socket_ = std::move(socket).value();
    current_endpoint_ = next;
    broken_ = false;
    ++failovers_performed_;
    return Status::Ok();
  }
  return Status::Unavailable("no failover endpoint reachable");
}

Status Client::ReadResponse() {
  if (options_.request_timeout_ms > 0) {
    Status readable = socket_.WaitReadable(options_.request_timeout_ms);
    if (!readable.ok()) {
      // A response may still arrive later and desynchronize the framing;
      // the connection is done. Shut it down so the server's handler
      // unblocks too.
      broken_ = true;
      socket_.ShutdownBoth();
      return readable;
    }
  }
  return ReadFrameInto(socket_, &response_);
}

template <typename WriteRequest>
Status Client::RoundTrip(MessageType request_type,
                         MessageType expected_response,
                         const WriteRequest& write_request) {
  // Re-issuing after a transport failure is only safe when the request
  // cannot change server state: a replayed Query or Stats at worst does
  // redundant reads, a replayed Release or UpdateWeights could spend
  // budget twice.
  const bool idempotent = request_type == MessageType::kQueryRequest ||
                          request_type == MessageType::kStatsRequest;
  // Each request gets one sweep over the other endpoints at most, so a
  // fully-down cluster fails instead of spinning.
  size_t failovers_left =
      endpoints_.size() > 1 ? endpoints_.size() - 1 : 0;
  if (broken_) {
    if (!idempotent || failovers_left == 0 || !FailOver().ok()) {
      return Status::FailedPrecondition(
          "connection broken by an earlier request timeout; reconnect");
    }
    --failovers_left;
  }
  for (int attempt = 0;; ++attempt) {
    Status attempted = write_request(socket_);
    if (attempted.ok()) attempted = ReadResponse();
    if (!attempted.ok()) {
      // Transport failure or deadline: the request's fate on this node is
      // unknown. Idempotent requests move to the next endpoint; anything
      // else surfaces the error untouched.
      if (idempotent && failovers_left > 0 && FailOver().ok()) {
        --failovers_left;
        attempt = -1;  // fresh retry budget on the new node
        continue;
      }
      return attempted;
    }
    if (response_.type == MessageType::kError) {
      DPSP_ASSIGN_OR_RETURN(WireError error, DecodeError(response_.body));
      Status status = error.ToStatus();
      bool retryable = error.kind == ErrorKind::kOverloaded;
      last_error_ = std::move(error);
      // Only kOverloaded is safe to repeat: the server refused before
      // doing any work. In particular kBudgetExhausted is terminal — a
      // retry can never succeed and must surface immediately (every node
      // answers for the same coordinator ledger, so no failover either).
      if (!retryable) return status;
      if (attempt >= options_.max_retries) {
        // This node stayed overloaded through the retry budget; since
        // the refusal happened before any work, moving ANY request to a
        // sibling is safe.
        if (failovers_left > 0 && FailOver().ok()) {
          --failovers_left;
          attempt = -1;
          continue;
        }
        return status;
      }
      int backoff = options_.initial_backoff_ms;
      for (int i = 0; i < attempt && backoff < options_.max_backoff_ms; ++i) {
        backoff *= 2;
      }
      backoff = std::clamp(backoff, 0, options_.max_backoff_ms);
      ++retries_performed_;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      continue;
    }
    if (response_.type != expected_response) {
      return Status::Internal(
          StrFormat("unexpected response type %u (wanted %u)",
                    static_cast<unsigned>(response_.type),
                    static_cast<unsigned>(expected_response)));
    }
    last_error_.reset();
    return Status::Ok();
  }
}

Result<ReleaseInfo> Client::Release(const std::string& workload,
                                    const std::string& mechanism,
                                    const std::string& handle_name) {
  ReleaseRequest request{workload, mechanism, handle_name};
  std::vector<uint8_t> body = EncodeReleaseRequest(request);
  DPSP_RETURN_IF_ERROR(RoundTrip(
      MessageType::kReleaseRequest, MessageType::kReleaseResponse,
      [&](Socket& socket) {
        return WriteFrame(socket, MessageType::kReleaseRequest, body);
      }));
  return DecodeReleaseInfo(response_.body);
}

Result<std::vector<double>> Client::Query(uint32_t handle_id,
                                          std::span<const VertexPair> pairs) {
  DPSP_RETURN_IF_ERROR(RoundTrip(
      MessageType::kQueryRequest, MessageType::kQueryResponse,
      [&](Socket& socket) {
        return WriteQueryRequest(socket, handle_id, pairs);
      }));
  DPSP_ASSIGN_OR_RETURN(std::vector<double> distances,
                        DecodeQueryResponse(response_.body));
  if (distances.size() != pairs.size()) {
    return Status::Internal(
        StrFormat("server answered %zu distances for %zu pairs",
                  distances.size(), pairs.size()));
  }
  return distances;
}

Result<UpdateInfo> Client::UpdateWeights(
    uint32_t handle_id, std::span<const EdgeWeightDelta> deltas) {
  std::vector<uint8_t> body = EncodeUpdateRequest(handle_id, deltas);
  DPSP_RETURN_IF_ERROR(RoundTrip(
      MessageType::kUpdateRequest, MessageType::kUpdateResponse,
      [&](Socket& socket) {
        return WriteFrame(socket, MessageType::kUpdateRequest, body);
      }));
  return DecodeUpdateInfo(response_.body);
}

Result<ServerStats> Client::Stats() {
  DPSP_RETURN_IF_ERROR(RoundTrip(
      MessageType::kStatsRequest, MessageType::kStatsResponse,
      [](Socket& socket) {
        return WriteFrame(socket, MessageType::kStatsRequest, {});
      }));
  return DecodeServerStats(response_.body);
}

}  // namespace net
}  // namespace dpsp
