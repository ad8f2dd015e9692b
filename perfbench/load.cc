#include "load.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <string>
#include <thread>

#include "net/client.h"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kPhaseWarmupS = 0.2;

using AckQueue = std::deque<std::pair<uint64_t, Clock::time_point>>;

dpsp::net::Client Connect(uint16_t port) {
  dpsp::net::ClientOptions options;
  // kOverloaded is transient backpressure: retry it, and count the retries.
  options.max_retries = 3;
  options.initial_backoff_ms = 1;
  return Must(dpsp::net::Client::Connect("127.0.0.1", port, options),
              "connect query client");
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

uint64_t OverloadRejected(Stack& stack) {
  uint64_t n = stack.server().stats().overload_rejected;
  if (stack.replica_server() != nullptr) {
    n += stack.replica_server()->stats().overload_rejected;
  }
  return n;
}

/// One closed-loop client: a connection per endpoint, alternating handles
/// and endpoints per batch, until the window closes.
void RunClient(uint32_t c, const Inputs& inputs, Stack& stack,
               const Reference& ref, const LoadOptions& options,
               Clock::time_point window_start, Clock::time_point window_end,
               LoadResult* r) {
  std::vector<uint16_t> ports = {stack.server().port()};
  if (stack.replica_server() != nullptr) {
    ports.push_back(stack.replica_server()->port());
  }
  std::vector<dpsp::net::Client> conns;
  for (uint16_t port : ports) conns.push_back(Connect(port));
  const size_t handles = stack.handles().size();
  const size_t pool = inputs.batches[0].size();
  LatencyStore& latency = r->latency.front();
  for (uint64_t i = 0;; ++i) {
    const Clock::time_point start = Clock::now();
    if (start >= window_end) break;
    const size_t h = i % handles;
    const size_t b = (i / handles + c * 7) % pool;
    const int endpoint = static_cast<int>(i % conns.size());
    dpsp::net::Client& conn = conns[static_cast<size_t>(endpoint)];
    dpsp::Result<std::vector<double>> answer =
        conn.Query(stack.handles()[h], inputs.batches[h][b]);
    const Clock::time_point end = Clock::now();
    const bool windowed = start >= window_start;
    if (!answer.ok()) {
      if (windowed) {
        ++r->attempted;
        ++r->failed;
        latency.Add(endpoint, kInf);
      }
      if (conn.broken()) conn = Connect(ports[static_cast<size_t>(endpoint)]);
      continue;
    }
    if (options.verify) {
      ++r->verified_batches;
      if (!SameBits(answer.value(), ref.expected[h][b])) ++r->mismatches;
    }
    if (!windowed) continue;
    ++r->attempted;
    ++r->succeeded;
    r->pairs += inputs.batches[h][b].size();
    r->seconds = std::max(r->seconds, MsBetween(window_start, end) / 1e3);
    latency.Add(endpoint, MsBetween(start, end));
    if (options.spans) {
      r->spans.push_back({start, end});
    }
  }
  for (const dpsp::net::Client& conn : conns) {
    r->client_retries += conn.retries_performed();
  }
}

/// The open-loop congestion feed: epoch k is due at window_start +
/// k * interval and is timed from when it was due, so a stall shows up
/// in every later epoch's latency. Acked LSNs go to the lag watcher.
void RunUpdater(const Inputs& inputs, Stack& stack, size_t first_epoch,
                int epochs, Clock::time_point window_start, LoadResult* r,
                std::mutex* mu, std::condition_variable* cv, AckQueue* acks,
                bool* done) {
  dpsp::net::Client client = Must(
      dpsp::net::Client::Connect("127.0.0.1", stack.server().port()),
      "connect updater");
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(r->epoch_interval_ms));
  for (int k = 0; k < epochs; ++k) {
    const Clock::time_point due = window_start + k * interval;
    std::this_thread::sleep_until(due);
    r->send_late_ms.push_back(MsSince(due));
    const size_t index = first_epoch + static_cast<size_t>(k);
    dpsp::Result<dpsp::net::UpdateInfo> applied =
        client.UpdateWeights(stack.handles()[0], inputs.epochs[index]);
    const Clock::time_point acked = Clock::now();
    ++r->epochs_attempted;
    if (!applied.ok()) {
      const bool refused =
          client.last_error().has_value() &&
          client.last_error()->kind == dpsp::net::ErrorKind::kBudgetExhausted;
      ++(refused ? r->epochs_refused : r->epochs_failed);
      r->update_ms.push_back(kInf);
      continue;
    }
    ++r->epochs_ok;
    r->charged_eps += applied->charged_epsilon;
    r->update_ms.push_back(MsBetween(due, acked));
    r->applied_epochs.push_back(index);
    // The updater is the only writer, so the server's LSN is this epoch's.
    const uint64_t lsn = stack.server().last_epoch_lsn();
    std::lock_guard<std::mutex> lock(*mu);
    acks->emplace_back(lsn, acked);
    cv->notify_one();
  }
  std::lock_guard<std::mutex> lock(*mu);
  *done = true;
  cv->notify_one();
}

void RunLagWatcher(Stack& stack, LoadResult* r, std::mutex* mu,
                   std::condition_variable* cv, AckQueue* acks,
                   const bool* done) {
  for (;;) {
    std::pair<uint64_t, Clock::time_point> ack;
    {
      std::unique_lock<std::mutex> lock(*mu);
      cv->wait(lock, [&] { return !acks->empty() || *done; });
      if (acks->empty()) return;
      ack = acks->front();
      acks->pop_front();
    }
    dpsp::Status synced = stack.replica()->WaitForLsn(ack.first, 30000);
    r->lag_ms.push_back(synced.ok() ? MsSince(ack.second) : kInf);
  }
}

LoadResult RunPhase(const WorkloadSpec& spec, const Inputs& inputs,
                    Stack& stack, const Reference& ref,
                    const LoadOptions& options, double warmup_s,
                    double seconds, size_t first_epoch, int epochs) {
  LoadResult result;
  const uint64_t overload_before = OverloadRejected(stack);
  const Clock::time_point window_start =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(warmup_s));
  const Clock::time_point window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));

  const int endpoints = stack.replica_server() != nullptr ? 2 : 1;
  std::vector<LoadResult> clients(static_cast<size_t>(spec.clients));
  for (size_t c = 0; c < clients.size(); ++c) {
    clients[c].latency.emplace_back(endpoints, c + 1);
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back(RunClient, static_cast<uint32_t>(c), std::cref(inputs),
                         std::ref(stack), std::cref(ref), std::cref(options),
                         window_start, window_end, &clients[c]);
  }
  std::mutex mu;
  std::condition_variable cv;
  AckQueue acks;
  bool updater_done = false;
  if (spec.live && epochs > 0) {
    // Spread the epochs over 90% of the window so all of them land in it.
    result.epoch_interval_ms = seconds * 900.0 / epochs;
    threads.emplace_back(RunUpdater, std::cref(inputs), std::ref(stack),
                         first_epoch, epochs, window_start, &result, &mu, &cv,
                         &acks, &updater_done);
    threads.emplace_back(RunLagWatcher, std::ref(stack), &result, &mu, &cv,
                         &acks, &updater_done);
  }
  for (std::thread& t : threads) t.join();

  for (LoadResult& c : clients) {
    result.attempted += c.attempted;
    result.succeeded += c.succeeded;
    result.failed += c.failed;
    result.pairs += c.pairs;
    result.seconds = std::max(result.seconds, c.seconds);
    result.mismatches += c.mismatches;
    result.verified_batches += c.verified_batches;
    result.client_retries += c.client_retries;
    result.latency.push_back(std::move(c.latency.front()));
    result.spans.insert(result.spans.end(), c.spans.begin(), c.spans.end());
  }
  result.overload_rejected = OverloadRejected(stack) - overload_before;
  return result;
}

}  // namespace

double WeightedQuantile(std::vector<WeightedSample> samples, double q) {
  if (samples.empty()) return std::nan("");
  std::sort(samples.begin(), samples.end(),
            [](const WeightedSample& a, const WeightedSample& b) {
              return a.ms < b.ms;
            });
  double total = 0.0;
  for (const WeightedSample& s : samples) total += s.weight;
  double cumulative = 0.0;
  for (const WeightedSample& s : samples) {
    cumulative += s.weight;
    if (cumulative >= q * total) return s.ms;
  }
  return samples.back().ms;
}

LatencyStore::LatencyStore(int endpoints, uint64_t seed)
    : rng_(seed * 0x9E3779B97F4A7C15ULL + 1),
      reservoirs_(static_cast<size_t>(endpoints)) {}

void LatencyStore::Add(int endpoint, double ms) {
  Reservoir& r = reservoirs_[static_cast<size_t>(endpoint)];
  const uint64_t seen = r.seen++;
  if (seen < kCapacity) {
    r.kept[seen] = ms;
    return;
  }
  // Reservoir sampling (Algorithm R) with an xorshift draw.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const uint64_t slot = rng_ % (seen + 1);
  if (slot < kCapacity) r.kept[slot] = ms;
}

void LatencyStore::Collect(int endpoint,
                           std::vector<WeightedSample>* out) const {
  for (size_t e = 0; e < reservoirs_.size(); ++e) {
    if (endpoint >= 0 && e != static_cast<size_t>(endpoint)) continue;
    const Reservoir& r = reservoirs_[e];
    const size_t kept = std::min<uint64_t>(r.seen, kCapacity);
    const double weight =
        kept == 0 ? 0.0 : static_cast<double>(r.seen) / static_cast<double>(kept);
    for (size_t i = 0; i < kept; ++i) out->push_back({r.kept[i], weight});
  }
}

uint64_t LatencyStore::seen() const {
  uint64_t n = 0;
  for (const Reservoir& r : reservoirs_) n += r.seen;
  return n;
}

std::vector<LoadResult> RunLoad(const WorkloadSpec& spec, const Inputs& inputs,
                                Stack& stack, const Reference& ref,
                                const LoadOptions& options) {
  std::vector<LoadResult> phases;
  const int epochs_per_phase = options.epochs / options.phases;
  for (int p = 0; p < options.phases; ++p) {
    phases.push_back(RunPhase(
        spec, inputs, stack, ref, options,
        p == 0 ? options.warmup_s : kPhaseWarmupS,
        options.seconds / options.phases,
        options.epoch_offset + static_cast<size_t>(p * epochs_per_phase),
        epochs_per_phase));
  }
  return phases;
}

LoadResult Totals(const std::vector<LoadResult>& phases) {
  LoadResult t;
  auto append = [](std::vector<double>* to, const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  for (const LoadResult& p : phases) {
    t.seconds += p.seconds;
    t.attempted += p.attempted;
    t.succeeded += p.succeeded;
    t.failed += p.failed;
    t.pairs += p.pairs;
    t.mismatches += p.mismatches;
    t.verified_batches += p.verified_batches;
    t.client_retries += p.client_retries;
    t.overload_rejected += p.overload_rejected;
    t.epochs_attempted += p.epochs_attempted;
    t.epochs_ok += p.epochs_ok;
    t.epochs_refused += p.epochs_refused;
    t.epochs_failed += p.epochs_failed;
    append(&t.update_ms, p.update_ms);
    append(&t.send_late_ms, p.send_late_ms);
    append(&t.lag_ms, p.lag_ms);
    t.epoch_interval_ms = p.epoch_interval_ms;
    t.charged_eps += p.charged_eps;
    t.applied_epochs.insert(t.applied_epochs.end(), p.applied_epochs.begin(),
                            p.applied_epochs.end());
  }
  return t;
}

uint64_t CheckLiveGate(const Inputs& inputs, Stack& stack, Reference& ref,
                       const std::vector<size_t>& applied_epochs) {
  Must(stack.replica()->WaitForLsn(stack.server().last_epoch_lsn(), 60000),
       "replica catch-up before the gate");
  for (size_t index : applied_epochs) {
    Must(ref.executor.ApplyUpdates(*ref.oracles[0], inputs.graph,
                                   inputs.epochs[index], ref.ctx),
         "reference update replay");
  }
  dpsp::net::Client coordinator = Connect(stack.server().port());
  dpsp::net::Client replica = Connect(stack.replica_server()->port());
  const uint32_t handle = stack.handles()[0];
  uint64_t pairs = 0;
  for (const auto& batch : inputs.batches[0]) {
    std::vector<double> primary =
        Must(coordinator.Query(handle, batch), "gate query (coordinator)");
    std::vector<double> follower =
        Must(replica.Query(handle, batch), "gate query (replica)");
    std::vector<double> local =
        Must(ref.executor.Execute(*ref.oracles[0], batch), "gate replay");
    if (!SameBits(primary, follower)) {
      Fail("correctness gate: replica answers differ from the coordinator's");
    }
    if (!SameBits(primary, local)) {
      Fail("correctness gate: coordinator answers differ from the local "
           "same-seed replay of the applied epochs");
    }
    pairs += batch.size();
  }
  return pairs;
}

}  // namespace perfbench
