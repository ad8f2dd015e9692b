// Shared helpers for the experiment harnesses in bench/. Timing and CSV
// rendering live in common/table.h (WallTimer, Table::ToCsv); this header
// only adds the bench-specific glue: OrDie unwrapping, deterministic pair
// sampling, and the uniform registry sweep every mechanism harness uses.

#ifndef DPSP_BENCH_BENCH_UTIL_H_
#define DPSP_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/statistics.h"
#include "common/status.h"
#include "common/table.h"
#include "core/oracle_registry.h"
#include "dp/release_context.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"

namespace dpsp {

/// Fixed seed for all harnesses: every run of every bench binary prints the
/// same numbers.
inline constexpr uint64_t kBenchSeed = 0x9a9e52016ULL;

/// Default seed for the NOISE stream of registry sweeps. Deliberately
/// distinct from kBenchSeed: reusing the data-generating seed would replay
/// the PRNG stream that produced the private weights, correlating noise
/// with data.
inline constexpr uint64_t kBenchNoiseSeed = 0xb10c5eed2016ULL;

/// Unwraps a Result in a harness; aborts with the status on failure.
template <typename T>
T OrDie(Result<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "bench failure: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

inline void OrDie(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench failure: %s\n", status.ToString().c_str());
    std::abort();
  }
}

/// Releases `build(ctx)` through a fresh ReleaseContext for `params` whose
/// Rng continues `*stream`, then hands the advanced stream back. A harness
/// that varies the params between releases thus draws its inputs and every
/// release's noise from one seeded stream, and its tables reproduce.
template <typename Build>
auto ReleaseOnStream(const PrivacyParams& params, Rng* stream,
                     Build&& build) {
  ReleaseContext ctx = OrDie(ReleaseContext::Create(params, /*seed=*/0));
  *ctx.rng() = *stream;
  auto released = OrDie(build(ctx));
  *stream = *ctx.rng();
  return released;
}

/// `count` evaluation pairs sampled uniformly (u != v), deterministic.
inline std::vector<std::pair<VertexId, VertexId>> SamplePairs(int n, int count,
                                                              Rng* rng) {
  std::vector<std::pair<VertexId, VertexId>> pairs;
  pairs.reserve(static_cast<size_t>(count));
  while (static_cast<int>(pairs.size()) < count) {
    VertexId u = static_cast<VertexId>(rng->UniformInt(0, n - 1));
    VertexId v = static_cast<VertexId>(rng->UniformInt(0, n - 1));
    if (u != v) pairs.emplace_back(u, v);
  }
  return pairs;
}

/// Steady-state batch timing. The first (warmup) runs are excluded so
/// first-touch page faults, lazy allocation, and cold caches do not skew
/// batch-vs-loop comparisons; the reported number is the best of `reps`
/// timed runs, in per-query nanoseconds.
struct BatchTiming {
  double best_ms = 0.0;       // best timed run, milliseconds
  double ns_per_query = 0.0;  // best_ms scaled to one query
  double ops_per_sec = 0.0;   // queries per second at best_ms
  /// First result of the last run (defeats dead-code elimination).
  double front = 0.0;
};

/// Times oracle.DistanceBatch(pairs) with `warmup` untimed runs followed
/// by `reps` timed runs; aborts on query failure.
inline BatchTiming TimeDistanceBatch(const DistanceOracle& oracle,
                                     const std::vector<VertexPair>& pairs,
                                     int warmup = 1, int reps = 3) {
  BatchTiming timing;
  if (pairs.empty()) return timing;
  for (int i = 0; i < warmup; ++i) {
    timing.front = OrDie(oracle.DistanceBatch(pairs)).front();
  }
  timing.best_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    std::vector<double> out = OrDie(oracle.DistanceBatch(pairs));
    timing.best_ms = std::min(timing.best_ms, timer.Ms());
    timing.front = out.front();
  }
  timing.ns_per_query =
      timing.best_ms * 1e6 / static_cast<double>(pairs.size());
  timing.ops_per_sec =
      static_cast<double>(pairs.size()) / (timing.best_ms * 1e-3);
  return timing;
}

/// Same steady-state protocol for an arbitrary batch runner (e.g. the
/// sharded BatchExecutor or a serial reference loop).
inline BatchTiming TimeBatchRunner(
    size_t num_queries, int warmup, int reps,
    const std::function<double()>& run_batch_returning_front) {
  BatchTiming timing;
  if (num_queries == 0) return timing;
  for (int i = 0; i < warmup; ++i) {
    timing.front = run_batch_returning_front();
  }
  timing.best_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    timing.front = run_batch_returning_front();
    timing.best_ms = std::min(timing.best_ms, timer.Ms());
  }
  timing.ns_per_query =
      timing.best_ms * 1e6 / static_cast<double>(num_queries);
  timing.ops_per_sec =
      static_cast<double>(num_queries) / (timing.best_ms * 1e-3);
  return timing;
}

/// Configuration of a uniform registry sweep.
struct SweepOptions {
  PrivacyParams params;
  /// The workload's input family; picks the applicable mechanisms.
  OracleInput input = OracleInput::kAnyConnected;
  bool has_perfect_matching = false;
  /// Noise seed; keep it independent of the stream that generated the
  /// weights (e.g. data_rng.NextSeed()).
  uint64_t seed = kBenchNoiseSeed;
};

/// The uniform report shape every registry sweep emits. Pass the result to
/// AppendSweepRows and render with Print() or ToCsv(). `batch_ms` and
/// `ns/query` are steady-state numbers (warmup excluded, best of three).
inline Table MakeSweepTable(const std::string& title) {
  return Table(title, {"mechanism", "build_ms", "batch_ms", "ns/query",
                       "mean|err|", "p95|err|", "max|err|"});
}

/// One sweep row's raw numbers, for harnesses that also emit JSON.
struct SweepRowStats {
  std::string mechanism;
  bool ok = false;
  double build_ms = 0.0;
  BatchTiming batch;
};

/// Appends one row per applicable registered mechanism: builds the oracle
/// through OracleRegistry::Create with a fresh ReleaseContext, times the
/// build and the steady-state DistanceBatch over `pairs` (warmup run
/// excluded, best of three), and reports batched-query error against
/// `exact`. Mechanisms whose build fails on this workload get an error row
/// instead of aborting the sweep. Adding a mechanism to every harness that
/// calls this is one Register() line. Returns the raw per-row numbers.
inline std::vector<SweepRowStats> AppendSweepRows(
    Table& table, const Graph& graph, const EdgeWeights& w,
    const DistanceMatrix& exact, const std::vector<VertexPair>& pairs,
    const SweepOptions& options) {
  std::vector<SweepRowStats> stats;
  const OracleRegistry& registry = OracleRegistry::Global();
  for (const std::string& name :
       registry.NamesForInput(options.input, options.has_perfect_matching)) {
    // The sweep params cannot fund a zCDP-metered (Gaussian-calibrated)
    // mechanism unless they are approximate with eps < 1; skip instead of
    // emitting a guaranteed error row.
    const OracleSpec* spec = registry.Find(name);
    if (spec != nullptr && spec->loss == LossKind::kZcdp &&
        (options.params.pure() || options.params.epsilon >= 1.0)) {
      continue;
    }
    // Per-mechanism seed: same-seed contexts would replay identical noise
    // across rows, making distinct mechanisms spuriously agree.
    uint64_t seed = options.seed ^ std::hash<std::string>{}(name);
    ReleaseContext ctx =
        OrDie(ReleaseContext::Create(options.params, seed));
    WallTimer build_timer;
    Result<std::unique_ptr<DistanceOracle>> oracle =
        registry.Create(name, graph, w, ctx);
    SweepRowStats& row = stats.emplace_back();
    row.mechanism = name;
    if (!oracle.ok()) {
      table.Row()
          .Add(name)
          .Add("-")
          .Add("-")
          .Add("-")
          .Add(oracle.status().ToString())
          .Add("-")
          .Add("-");
      continue;
    }
    row.ok = true;
    row.build_ms = build_timer.Ms();
    row.batch = TimeDistanceBatch(**oracle, pairs);
    // Error columns come from one more (untimed) batch — identical to the
    // timed ones because queries are deterministic post-processing.
    std::vector<double> estimates = OrDie((*oracle)->DistanceBatch(pairs));
    std::vector<double> errors;
    errors.reserve(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      double truth = exact.at(pairs[i].first, pairs[i].second);
      if (truth == kInfiniteDistance) continue;  // unreachable: skip
      errors.push_back(std::fabs(estimates[i] - truth));
    }
    table.Row()
        .Add(name)
        .Add(row.build_ms, 4)
        .Add(row.batch.best_ms, 4)
        .Add(row.batch.ns_per_query, 2);
    if (errors.empty()) {
      table.Add("-").Add("-").Add("-");
    } else {
      table.Add(Mean(errors), 4)
          .Add(Quantile(errors, 0.95), 4)
          .Add(MaxAbs(errors), 4);
    }
  }
  return stats;
}

}  // namespace dpsp

#endif  // DPSP_BENCH_BENCH_UTIL_H_
