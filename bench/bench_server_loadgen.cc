// Closed-loop load generator for the network query server: N client
// threads, each with its own connection, each firing batch after batch
// with no think time — the classic closed-loop throughput harness. For
// every mechanism the harness releases one handle on a loopback server,
// hammers it, and reports end-to-end ops/sec (pairs answered per second
// through socket + framing + sharded execution) next to the in-process
// BatchExecutor ops/sec on the identical release, so the wire overhead is
// one column, not a guess.
//
// A second phase (S2) runs the mixed continual-release workload: the same
// closed-loop query clients hammer an UPDATABLE release while one updater
// connection applies weight-update epochs through the protocol-v3
// UpdateWeights frame — serving throughput under live incremental
// re-releases, plus the epoch rate the single-ledger update path sustains.
//
// Usage: bench_server_loadgen [out.json]
//   out.json  machine-readable per-mechanism numbers (ops/sec over the
//             wire and direct) — BENCH_server.json, the CI perf artifact.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/statistics.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/batch_executor.h"

namespace dpsp {
namespace {

constexpr int kNumVertices = 32768;
constexpr int kClients = 8;
constexpr int kBatchesPerClient = 24;
constexpr int kPairsPerBatch = 2048;
constexpr int kWarmupBatchesPerClient = 2;

struct LoadgenRow {
  std::string mechanism;
  double build_ms = 0.0;
  double net_ops_per_sec = 0.0;
  double net_round_trip_ms = 0.0;  // mean per batch across the run
  double net_p50_ms = 0.0;         // per-batch round-trip percentiles
  double net_p99_ms = 0.0;
  double direct_ops_per_sec = 0.0;
};

/// One client thread's closed loop: connect, warm up, then fire `batches`
/// query batches back to back. Non-warmup per-batch round-trip times (ms)
/// are appended to `latencies_ms` when non-null — the tail-latency view
/// closed-loop aggregate throughput hides. Returns false on any failure.
bool RunClient(uint16_t port, uint32_t handle_id,
               const std::vector<VertexPair>& pairs, int batches,
               std::string* error,
               std::vector<double>* latencies_ms = nullptr) {
  Result<net::Client> client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    *error = client.status().ToString();
    return false;
  }
  if (latencies_ms != nullptr) {
    latencies_ms->reserve(static_cast<size_t>(batches));
  }
  for (int b = 0; b < kWarmupBatchesPerClient + batches; ++b) {
    WallTimer timer;
    Result<std::vector<double>> distances =
        client->Query(handle_id, pairs);
    if (!distances.ok()) {
      *error = distances.status().ToString();
      return false;
    }
    if (latencies_ms != nullptr && b >= kWarmupBatchesPerClient) {
      latencies_ms->push_back(timer.Ms());
    }
  }
  return true;
}

/// Merges per-client latency samples and fills the row's percentiles.
void FillLatencyPercentiles(const std::vector<std::vector<double>>& samples,
                            double* p50_ms, double* p99_ms) {
  std::vector<double> all;
  for (const std::vector<double>& s : samples) {
    all.insert(all.end(), s.begin(), s.end());
  }
  if (all.empty()) return;
  *p50_ms = Quantile(all, 0.50);
  *p99_ms = Quantile(all, 0.99);
}

/// The S2 mixed query/update phase's numbers.
struct MixedRow {
  std::string mechanism;
  double query_ops_per_sec = 0.0;
  double query_p50_ms = 0.0;  // per-batch round trip under live updates
  double query_p99_ms = 0.0;
  uint64_t update_epochs = 0;
  double update_epochs_per_sec = 0.0;
  int deltas_per_epoch = 0;
  double charged_eps_per_epoch = 0.0;
};

void WriteJson(const char* path, const std::vector<LoadgenRow>& rows,
               const MixedRow& mixed) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not write JSON to %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_server_loadgen\",\n");
  std::fprintf(f,
               "  \"graph\": \"path\", \"V\": %d, \"clients\": %d, "
               "\"batches_per_client\": %d, \"pairs_per_batch\": %d,\n",
               kNumVertices, kClients, kBatchesPerClient, kPairsPerBatch);
  std::fprintf(f, "  \"mechanisms\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const LoadgenRow& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"build_ms\": %.2f, "
                 "\"ops_per_sec\": %.0f, \"round_trip_ms\": %.3f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"direct_ops_per_sec\": %.0f}%s\n",
                 r.mechanism.c_str(), r.build_ms, r.net_ops_per_sec,
                 r.net_round_trip_ms, r.net_p50_ms, r.net_p99_ms,
                 r.direct_ops_per_sec, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"mixed\": {\"name\": \"%s\", \"ops_per_sec\": %.0f, "
               "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
               "\"update_epochs\": %llu, \"update_epochs_per_sec\": %.2f, "
               "\"deltas_per_epoch\": %d, \"charged_eps_per_epoch\": %g}\n",
               mixed.mechanism.c_str(), mixed.query_ops_per_sec,
               mixed.query_p50_ms, mixed.query_p99_ms,
               static_cast<unsigned long long>(mixed.update_epochs),
               mixed.update_epochs_per_sec, mixed.deltas_per_epoch,
               mixed.charged_eps_per_epoch);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nJSON written to %s\n", path);
}

void Run(const char* json_path) {
  Rng rng(kBenchSeed);
  Graph g = OrDie(MakePathGraph(kNumVertices));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);

  // A generous total budget: the loadgen measures serving throughput, not
  // admission (tests cover that); every release here must be granted.
  ReleaseContext ctx = OrDie(ReleaseContext::Create(
      PrivacyParams{1.0, 0.0, 1.0}, kBenchNoiseSeed));
  ctx.SetTotalBudget(PrivacyParams{100.0, 0.0, 1.0});

  net::QueryServerOptions options;
  // Throughput harness, not an admission test: size the queue-depth limit
  // to the client count so nothing is shed mid-run on small machines.
  options.max_inflight_queries = kClients;
  net::QueryServer server(options, std::move(ctx));
  OrDie(server.AddWorkload("path", g, w));
  OrDie(server.Start());
  std::printf("loadgen server on 127.0.0.1:%u — %d clients x %d batches "
              "x %d pairs per mechanism\n",
              server.port(), kClients, kBatchesPerClient, kPairsPerBatch);

  std::vector<VertexPair> pairs =
      SamplePairs(kNumVertices, kPairsPerBatch, &rng);

  // The identical releases, reproduced locally for the direct baseline:
  // same params, same seed, same release order => same noise stream.
  ReleaseContext direct_ctx = OrDie(ReleaseContext::Create(
      PrivacyParams{1.0, 0.0, 1.0}, kBenchNoiseSeed));
  BatchExecutor executor;

  Table table("S1: closed-loop server throughput (loopback TCP, " +
                  std::to_string(kClients) + " clients)",
              {"mechanism", "build_ms", "net Mops/s", "rtt ms/batch",
               "p50 ms", "p99 ms", "direct Mops/s", "net/direct"});
  std::vector<LoadgenRow> rows;
  net::Client admin = OrDie(net::Client::Connect("127.0.0.1",
                                                 server.port()));
  for (const char* name :
       {"tree-recursive", "tree-hld", "path-hierarchy", "bounded-weight"}) {
    net::ReleaseInfo info =
        OrDie(admin.Release("path", name, std::string("loadgen-") + name));
    LoadgenRow& row = rows.emplace_back();
    row.mechanism = name;
    row.build_ms = info.wall_ms;

    std::vector<std::string> errors(kClients);
    std::vector<std::vector<double>> latencies(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    WallTimer timer;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        RunClient(server.port(), info.handle_id, pairs, kBatchesPerClient,
                  &errors[static_cast<size_t>(c)],
                  &latencies[static_cast<size_t>(c)]);
      });
    }
    for (std::thread& t : clients) t.join();
    double wall_s = timer.Ms() * 1e-3;
    for (const std::string& error : errors) {
      if (!error.empty()) {
        std::fprintf(stderr, "loadgen client failed: %s\n", error.c_str());
        std::exit(1);
      }
    }
    // Warmup batches ran inside the timed window (closed loop has no
    // global barrier), so count them in the totals.
    double total_batches =
        static_cast<double>(kClients) *
        (kBatchesPerClient + kWarmupBatchesPerClient);
    double total_pairs = total_batches * kPairsPerBatch;
    row.net_ops_per_sec = total_pairs / wall_s;
    row.net_round_trip_ms = wall_s * 1e3 * kClients / total_batches;
    FillLatencyPercentiles(latencies, &row.net_p50_ms, &row.net_p99_ms);

    // Direct baseline on the bit-identical local release.
    auto oracle = OrDie(OracleRegistry::Global().Create(name, g, w,
                                                        direct_ctx));
    BatchTiming direct = TimeBatchRunner(pairs.size(), 1, 3, [&] {
      return OrDie(executor.Execute(*oracle, pairs)).front();
    });
    row.direct_ops_per_sec = direct.ops_per_sec;

    table.Row()
        .Add(name)
        .Add(row.build_ms, 2)
        .Add(row.net_ops_per_sec / 1e6, 3)
        .Add(row.net_round_trip_ms, 3)
        .Add(row.net_p50_ms, 3)
        .Add(row.net_p99_ms, 3)
        .Add(row.direct_ops_per_sec / 1e6, 3)
        .Add(row.net_ops_per_sec / row.direct_ops_per_sec, 3);
  }
  table.Print();

  // S2: the mixed continual-release workload. The query fleet hammers an
  // updatable tree-hld release while one updater connection applies
  // weight-update epochs; the server interleaves them under the handle's
  // reader/writer guard and the single ledger. The updater stops cleanly
  // on kBudgetExhausted — on this single-chain path workload every epoch
  // charges the full per-release epsilon, so admission is part of the
  // scenario, not a failure.
  const int kDeltasPerEpoch = 64;
  MixedRow mixed;
  mixed.mechanism = "tree-hld";
  mixed.deltas_per_epoch = kDeltasPerEpoch;
  {
    net::ReleaseInfo info =
        OrDie(admin.Release("path", "tree-hld", "mixed-tree-hld"));
    std::atomic<bool> queries_done{false};
    std::atomic<uint64_t> epochs{0};
    std::string update_error;
    std::thread updater([&] {
      Result<net::Client> client =
          net::Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        update_error = client.status().ToString();
        return;
      }
      Rng delta_rng(kBenchNoiseSeed ^ 0x0dd5);
      std::vector<EdgeWeightDelta> deltas(kDeltasPerEpoch);
      while (!queries_done.load()) {
        for (EdgeWeightDelta& d : deltas) {
          d.edge = static_cast<EdgeId>(
              delta_rng.UniformInt(0, g.num_edges() - 1));
          d.new_weight = delta_rng.Uniform(0.1, 0.9);
        }
        Result<net::UpdateInfo> applied =
            client->UpdateWeights(info.handle_id, deltas);
        if (!applied.ok()) {
          if (client->last_error() &&
              client->last_error()->kind ==
                  net::ErrorKind::kBudgetExhausted) {
            break;  // ledger ceiling reached: the clean stop signal
          }
          update_error = applied.status().ToString();
          break;
        }
        mixed.charged_eps_per_epoch = applied->charged_epsilon;
        epochs.fetch_add(1);
      }
    });
    std::vector<std::string> errors(kClients);
    std::vector<std::vector<double>> latencies(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    WallTimer timer;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        RunClient(server.port(), info.handle_id, pairs, kBatchesPerClient,
                  &errors[static_cast<size_t>(c)],
                  &latencies[static_cast<size_t>(c)]);
      });
    }
    for (std::thread& t : clients) t.join();
    double wall_s = timer.Ms() * 1e-3;
    queries_done.store(true);
    FillLatencyPercentiles(latencies, &mixed.query_p50_ms,
                           &mixed.query_p99_ms);
    updater.join();
    for (const std::string& error : errors) {
      if (!error.empty()) {
        std::fprintf(stderr, "mixed loadgen client failed: %s\n",
                     error.c_str());
        std::exit(1);
      }
    }
    if (!update_error.empty()) {
      std::fprintf(stderr, "mixed loadgen updater failed: %s\n",
                   update_error.c_str());
      std::exit(1);
    }
    double total_pairs =
        static_cast<double>(kClients) *
        (kBatchesPerClient + kWarmupBatchesPerClient) * kPairsPerBatch;
    mixed.query_ops_per_sec = total_pairs / wall_s;
    mixed.update_epochs = epochs.load();
    mixed.update_epochs_per_sec =
        static_cast<double>(mixed.update_epochs) / wall_s;
    std::printf(
        "\nS2: mixed workload (tree-hld): %.3f query Mops/s "
        "(p50=%.3f ms, p99=%.3f ms per batch) under "
        "%llu update epochs (%.1f epochs/s, %d deltas each, eps=%g per "
        "epoch)\n",
        mixed.query_ops_per_sec / 1e6, mixed.query_p50_ms,
        mixed.query_p99_ms,
        static_cast<unsigned long long>(mixed.update_epochs),
        mixed.update_epochs_per_sec, kDeltasPerEpoch,
        mixed.charged_eps_per_epoch);
  }

  net::ServerStats stats = OrDie(admin.Stats());
  std::printf("\nserver counters: %llu queries, %llu pairs, %llu releases, "
              "%llu overload-rejected\n",
              static_cast<unsigned long long>(stats.queries_served),
              static_cast<unsigned long long>(stats.pairs_served),
              static_cast<unsigned long long>(stats.releases_granted),
              static_cast<unsigned long long>(stats.overload_rejected));
  if (stats.has_accounting) {
    std::printf("budget position (%s policy): spent eps=%.3f, remaining "
                "eps=%.3f\n",
                AccountingPolicyName(static_cast<AccountingPolicy>(
                    stats.accounting_policy)),
                stats.spent_epsilon, stats.remaining_epsilon);
  }

  if (json_path != nullptr) {
    WriteJson(json_path, rows, mixed);
  }
  server.Stop();

  std::puts(
      "\nShape check: the wire adds per-batch framing + syscall cost, so "
      "net/direct\nclimbs toward 1 as mechanisms get slower per query; "
      "fast table lookups are\nsyscall-bound and land well below 1.");
}

}  // namespace
}  // namespace dpsp

int main(int argc, char** argv) {
  dpsp::Run(argc > 1 ? argv[1] : "BENCH_server.json");
  return 0;
}
