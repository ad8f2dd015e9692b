// Registry sweep: every registered mechanism family on one workload, one
// uniform report. The workload is an even canonical path graph, which
// satisfies every input family at once (path => tree => connected, and an
// even path has a perfect matching), so all nine registered oracles appear
// in a single table — adding a tenth is one Register() line in
// core/oracle_registry.cc.
//
// Three sections:
//  R1  registry sweep (V=256): build/batch/error per mechanism.
//  R2  one shared context serving several releases (the deployment view).
//  R3  serving throughput at scale (V=131072): steady-state DistanceBatch
//      vs the sharded BatchExecutor for the sub-quadratic mechanisms, and
//      bounded-weight build-time scaling with the multi-source Dijkstra
//      thread count.
//  R4  incremental update epochs vs full rebuild (tree-hld, random tree
//      V=65536): wall clock and charged epsilon at 1% / 5% / 25% dirty
//      fractions — the continual-release economics in one table.
//  R5  hardware-limit hot path: forced-scalar vs AVX2 DistanceInto
//      throughput (same release, same pairs — the dispatch is the only
//      variable) at V=16384 and V=131072.
//
// Usage: bench_registry [out.csv] [out.json]
//   out.csv   the R1 rows as CSV
//   out.json  machine-readable R1 + R3 + R5 numbers (ops/sec per
//             mechanism, the build-scaling runs, and the scalar/AVX2
//             series).

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/cpu.h"
#include "core/baselines.h"
#include "core/bounded_weight.h"
#include "core/hld_oracle.h"
#include "core/tree_distance.h"
#include "graph/all_pairs.h"
#include "graph/generators.h"
#include "serve/batch_executor.h"

namespace dpsp {
namespace {

struct ThroughputRow {
  std::string mechanism;
  double build_ms = 0.0;
  BatchTiming batch;    // parallel DistanceBatch
  BatchTiming sharded;  // BatchExecutor, contiguous shards
};

struct ScalingRun {
  int threads = 0;
  double build_ms = 0.0;
};

/// One R5 row: the same release served under forced-scalar dispatch and
/// the ambient (AVX2 when available) dispatch.
struct SimdRun {
  std::string mechanism;
  int v = 0;
  BatchTiming scalar;  // ScopedForceScalar DistanceBatch
  BatchTiming simd;    // ambient-dispatch DistanceBatch
};

/// One accounting policy's certified total for the R2b ledger.
struct PolicyTotal {
  AccountingPolicy policy = AccountingPolicy::kBasic;
  bool ok = false;
  double epsilon = 0.0;
  double delta = 0.0;
};

/// The R2b comparison: N identical releases composed under every policy.
struct AccountingSweep {
  int releases = 0;
  const char* release_kind = "";
  double per_release_epsilon = 0.0;
  double per_release_delta = 0.0;
  double delta_slack = 0.0;
  std::vector<PolicyTotal> totals;
  const char* best_policy = "";
  double best_epsilon = 0.0;
};

/// Composes `releases` copies of `loss` under each accounting policy and
/// reports every certified total plus the best (smallest-epsilon) one —
/// the number a deployment would quote for the whole ledger.
AccountingSweep SweepAccountingPolicies(int releases, const char* kind,
                                        const PrivacyLoss& loss,
                                        double delta_slack) {
  AccountingSweep sweep;
  sweep.releases = releases;
  sweep.release_kind = kind;
  sweep.per_release_epsilon = loss.epsilon;
  sweep.per_release_delta = loss.delta;
  sweep.delta_slack = delta_slack;
  for (AccountingPolicy policy :
       {AccountingPolicy::kBasic, AccountingPolicy::kAdvanced,
        AccountingPolicy::kZcdp}) {
    PolicyTotal& total = sweep.totals.emplace_back();
    total.policy = policy;
    std::unique_ptr<Accountant> accountant = Accountant::Create(policy);
    bool recorded = true;
    for (int i = 0; i < releases && recorded; ++i) {
      recorded = accountant->Record("release", loss).ok();
    }
    if (!recorded) continue;  // policy cannot compose this loss kind
    PrivacyParams certified = accountant->Total(delta_slack);
    total.ok = true;
    total.epsilon = certified.epsilon;
    total.delta = certified.delta;
    if (sweep.best_policy[0] == '\0' || total.epsilon < sweep.best_epsilon) {
      sweep.best_policy = AccountingPolicyName(policy);
      sweep.best_epsilon = total.epsilon;
    }
  }
  return sweep;
}

/// One R4 row: an update epoch at a given dirty fraction vs a full
/// rebuild of the same release.
struct UpdateEpochRun {
  /// How the dirty set is drawn: "uniform" (random edges of a random
  /// tree) or "leaf" (access-link edges of a caterpillar backbone, the
  /// localized-drift regime where the epoch's sensitivity collapses).
  const char* drift = "uniform";
  /// The workload the epoch ran on ("random-tree" / "caterpillar") —
  /// per-row because the two drift modes use different graphs.
  const char* graph = "random-tree";
  double dirty_fraction = 0.0;
  int dirty_edges = 0;
  int dirty_blocks = 0;
  double update_ms = 0.0;   // best epoch wall time
  double rebuild_ms = 0.0;  // best full MeteredBuild wall time
  double charged_eps = 0.0;
  double full_eps = 0.0;
  double deltas_per_sec = 0.0;
};

void WriteJson(const char* path, int sweep_v, size_t sweep_queries,
               const std::vector<SweepRowStats>& sweep, int big_v,
               size_t big_queries, const std::vector<ThroughputRow>& rows,
               int scaling_v, int scaling_k,
               const std::vector<ScalingRun>& scaling,
               const std::vector<AccountingSweep>& accounting,
               int update_v, const std::vector<UpdateEpochRun>& updates,
               size_t simd_queries, const std::vector<SimdRun>& simd) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not write JSON to %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_registry\",\n");
  std::fprintf(f,
               "  \"sweep\": {\"graph\": \"path\", \"V\": %d, \"queries\": "
               "%zu, \"mechanisms\": [\n",
               sweep_v, sweep_queries);
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepRowStats& r = sweep[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ok\": %s, \"build_ms\": %.4f, "
                 "\"batch_ms\": %.4f, \"ns_per_query\": %.2f, "
                 "\"ops_per_sec\": %.0f}%s\n",
                 r.mechanism.c_str(), r.ok ? "true" : "false", r.build_ms,
                 r.batch.best_ms, r.batch.ns_per_query, r.batch.ops_per_sec,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f,
               "  \"throughput\": {\"graph\": \"path\", \"V\": %d, "
               "\"queries\": %zu, \"mechanisms\": [\n",
               big_v, big_queries);
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThroughputRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"build_ms\": %.2f, "
        "\"batch_ns_per_query\": %.2f, \"batch_ops_per_sec\": %.0f, "
        "\"sharded_ns_per_query\": %.2f, \"sharded_ops_per_sec\": %.0f}%s\n",
        r.mechanism.c_str(), r.build_ms, r.batch.ns_per_query,
        r.batch.ops_per_sec, r.sharded.ns_per_query, r.sharded.ops_per_sec,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f,
               "  \"bounded_weight_build_scaling\": {\"graph\": \"grid\", "
               "\"V\": %d, \"k\": %d, \"runs\": [\n",
               scaling_v, scaling_k);
  for (size_t i = 0; i < scaling.size(); ++i) {
    std::fprintf(f, "    {\"threads\": %d, \"build_ms\": %.2f}%s\n",
                 scaling[i].threads, scaling[i].build_ms,
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  // R2b: each ledger's certified total under every accounting policy plus
  // the best-of-policies number a deployment would quote.
  std::fprintf(f, "  \"accounting\": [\n");
  for (size_t i = 0; i < accounting.size(); ++i) {
    const AccountingSweep& a = accounting[i];
    std::fprintf(f,
                 "    {\"release_kind\": \"%s\", \"releases\": %d, "
                 "\"per_release_eps\": %g, \"per_release_delta\": %g, "
                 "\"delta_slack\": %g, \"policies\": [\n",
                 a.release_kind, a.releases, a.per_release_epsilon,
                 a.per_release_delta, a.delta_slack);
    for (size_t j = 0; j < a.totals.size(); ++j) {
      const PolicyTotal& t = a.totals[j];
      if (t.ok) {
        std::fprintf(f,
                     "      {\"policy\": \"%s\", \"epsilon\": %.6f, "
                     "\"delta\": %g}%s\n",
                     AccountingPolicyName(t.policy), t.epsilon, t.delta,
                     j + 1 < a.totals.size() ? "," : "");
      } else {
        std::fprintf(f, "      {\"policy\": \"%s\", \"inapplicable\": true}%s\n",
                     AccountingPolicyName(t.policy),
                     j + 1 < a.totals.size() ? "," : "");
      }
    }
    std::fprintf(f,
                 "    ], \"best_policy\": \"%s\", \"best_epsilon\": %.6f}%s\n",
                 a.best_policy, a.best_epsilon,
                 i + 1 < accounting.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // R4: incremental update epochs vs full rebuild.
  std::fprintf(f,
               "  \"updates\": {\"name\": \"tree-hld\", \"V\": %d, "
               "\"epochs\": [\n",
               update_v);
  for (size_t i = 0; i < updates.size(); ++i) {
    const UpdateEpochRun& u = updates[i];
    std::fprintf(f,
                 "    {\"drift\": \"%s\", \"graph\": \"%s\", "
                 "\"dirty_fraction\": %g, "
                 "\"dirty_edges\": %d, "
                 "\"dirty_blocks\": %d, \"update_ms\": %.3f, "
                 "\"rebuild_ms\": %.3f, \"speedup\": %.2f, "
                 "\"charged_eps\": %.6f, \"full_eps\": %.6f, "
                 "\"deltas_per_sec\": %.0f}%s\n",
                 u.drift, u.graph, u.dirty_fraction, u.dirty_edges,
                 u.dirty_blocks,
                 u.update_ms, u.rebuild_ms,
                 u.update_ms > 0.0 ? u.rebuild_ms / u.update_ms : 0.0,
                 u.charged_eps, u.full_eps, u.deltas_per_sec,
                 i + 1 < updates.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  // R5: the dispatch A/B (one release, forced-scalar vs ambient).
  std::fprintf(f,
               "  \"simd\": {\"dispatch\": \"%s\", \"queries\": %zu, "
               "\"runs\": [\n",
               SimdDispatchDescription(), simd_queries);
  for (size_t i = 0; i < simd.size(); ++i) {
    const SimdRun& r = simd[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"V\": %d, "
                 "\"scalar_ops_per_sec\": %.0f, \"avx2_ops_per_sec\": %.0f, "
                 "\"speedup\": %.3f}%s\n",
                 r.mechanism.c_str(), r.v, r.scalar.ops_per_sec,
                 r.simd.ops_per_sec,
                 r.scalar.ops_per_sec > 0.0
                     ? r.simd.ops_per_sec / r.scalar.ops_per_sec
                     : 0.0,
                 i + 1 < simd.size() ? "," : "");
  }
  std::fprintf(f, "  ]}\n}\n");
  std::fclose(f);
  std::printf("\nJSON written to %s\n", path);
}

void Run(const char* csv_path, const char* json_path) {
  Rng rng(kBenchSeed);
  const int n = 256;  // even => perfect matching exists
  Graph g = OrDie(MakePathGraph(n));
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  DistanceMatrix exact = OrDie(AllPairsDijkstra(g, w));
  std::vector<VertexPair> pairs = SamplePairs(n, 20000, &rng);

  SweepOptions options;
  options.params = PrivacyParams{/*epsilon=*/1.0, 0.0, 1.0};
  options.input = OracleInput::kPath;
  options.has_perfect_matching = true;
  // A fresh stream: reusing kBenchSeed would replay the PRNG stream that
  // generated the private weights, correlating noise with data.
  options.seed = rng.NextSeed();

  Table table = MakeSweepTable(
      "R1: registry sweep, path graph V=256, eps=1, 20k batched queries");
  std::vector<SweepRowStats> sweep_stats =
      AppendSweepRows(table, g, w, exact, pairs, options);
  table.Print();
  if (csv_path != nullptr) {
    if (table.WriteCsv(csv_path)) {
      std::printf("\nCSV written to %s\n", csv_path);
    } else {
      std::fprintf(stderr, "\ncould not write CSV to %s\n", csv_path);
    }
  }

  // R2: one shared context serving several releases — the deployment view.
  // The accountant meters each release and the total budget stops
  // overspending before any noise is drawn.
  ReleaseContext ctx =
      OrDie(ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kBenchSeed));
  ctx.SetTotalBudget(PrivacyParams{2.5, 0.0, 1.0});
  OrDie(TreeAllPairsOracle::Build(g, w, ctx));
  OrDie(MakeSyntheticGraphOracle(g, w, ctx));
  auto third = TreeAllPairsOracle::Build(g, w, ctx);  // would exceed 2.5
  std::printf("\n%s\n", ctx.ToString().c_str());
  std::printf("third release within eps=2.5 budget: %s\n",
              third.ok() ? "allowed (unexpected!)"
                         : third.status().ToString().c_str());

  // R2b: the same ledger composed under every accounting policy. A
  // Laplace refresh schedule (96 pure releases) and a Gaussian one (32
  // releases metered at their natural zCDP rate) — the best-of-policies
  // epsilon is the number a deployment would quote.
  const double kSlack = 1e-6;
  std::vector<AccountingSweep> accounting;
  accounting.push_back(SweepAccountingPolicies(
      96, "laplace-pure", PrivacyLoss::Pure(0.05), kSlack));
  accounting.push_back(SweepAccountingPolicies(
      32, "gaussian",
      OrDie(PrivacyLoss::GaussianFromParams(PrivacyParams{0.5, 1e-6, 1.0})),
      kSlack));
  Table accounting_table(
      "R2b: certified total epsilon by accounting policy (delta'=1e-6)",
      {"ledger", "basic", "advanced", "zcdp", "best"});
  for (const AccountingSweep& a : accounting) {
    Table& row = accounting_table.Row().Add(
        StrFormat("%dx %s eps=%g", a.releases, a.release_kind,
                  a.per_release_epsilon));
    for (const PolicyTotal& t : a.totals) {
      if (t.ok) {
        row.Add(t.epsilon, 4);
      } else {
        row.Add("-");
      }
    }
    row.Add(a.best_policy);
  }
  accounting_table.Print();

  // R3a: serving throughput at scale, restricted to the sub-quadratic
  // mechanisms (the dense-matrix baselines would need V^2 memory here).
  const int big_n = 131072;
  const int big_queries = 200000;
  Graph big = OrDie(MakePathGraph(big_n));
  EdgeWeights big_w = MakeUniformWeights(big, 0.1, 0.9, &rng);
  std::vector<VertexPair> big_pairs = SamplePairs(big_n, big_queries, &rng);
  BatchExecutor executor;  // contiguous shards, one per worker

  Table throughput(
      "R3: serving throughput, path V=131072, 200k queries "
      "(steady state, warmup excluded)",
      {"mechanism", "build_ms", "batch ns/q", "batch Mops/s",
       "sharded ns/q", "sharded Mops/s"});
  std::vector<ThroughputRow> rows;
  for (const char* name :
       {"tree-recursive", "tree-hld", "path-hierarchy", "bounded-weight",
        "private-mst"}) {
    ReleaseContext big_ctx = OrDie(ReleaseContext::Create(
        PrivacyParams{1.0, 0.0, 1.0}, rng.NextSeed()));
    WallTimer build_timer;
    auto oracle =
        OrDie(OracleRegistry::Global().Create(name, big, big_w, big_ctx));
    ThroughputRow& row = rows.emplace_back();
    row.mechanism = name;
    row.build_ms = build_timer.Ms();
    row.batch = TimeDistanceBatch(*oracle, big_pairs);
    row.sharded = TimeBatchRunner(big_pairs.size(), 1, 3, [&] {
      return OrDie(executor.Execute(*oracle, big_pairs)).front();
    });
    throughput.Row()
        .Add(name)
        .Add(row.build_ms, 2)
        .Add(row.batch.ns_per_query, 2)
        .Add(row.batch.ops_per_sec / 1e6, 2)
        .Add(row.sharded.ns_per_query, 2)
        .Add(row.sharded.ops_per_sec / 1e6, 2);
  }
  throughput.Print();

  // R3b: bounded-weight build-time scaling with the multi-source Dijkstra
  // thread count (the Z-center distance computation dominates the build).
  const int grid_side = 120;
  const int scaling_k = 30;
  Graph grid = OrDie(MakeGridGraph(grid_side, grid_side));
  EdgeWeights grid_w = MakeUniformWeights(grid, 0.1, 1.0, &rng);
  BoundedWeightOptions bw;
  bw.params = PrivacyParams{1.0, 0.0, 1.0};
  bw.k = scaling_k;
  std::vector<ScalingRun> scaling;
  Table scaling_table(
      "R3b: bounded-weight build vs threads (grid 120x120, k=30)",
      {"threads", "build_ms", "speedup"});
  int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<int> thread_counts;
  for (int threads : {1, 2, hw}) {
    if (std::find(thread_counts.begin(), thread_counts.end(), threads) ==
        thread_counts.end()) {
      thread_counts.push_back(threads);  // dedupe on small machines
    }
  }
  for (int threads : thread_counts) {
    bw.build_threads = threads;
    Rng noise_rng(kBenchNoiseSeed);
    WallTimer timer;
    OrDie(BoundedWeightOracle::Build(grid, grid_w, bw, &noise_rng));
    ScalingRun run;
    run.threads = threads;
    run.build_ms = timer.Ms();
    scaling.push_back(run);
    scaling_table.Row()
        .Add(threads)
        .Add(run.build_ms, 2)
        .Add(scaling.front().build_ms / run.build_ms, 2);
  }
  scaling_table.Print();

  // R4: incremental update epochs vs full rebuild. A random tree (not a
  // path) so the heavy-light decomposition has many chains of varying
  // depth — the regime where a small dirty set hits a shallower stack
  // than the full release's sensitivity and the epoch charge drops below
  // the full epsilon, not just the wall clock.
  const int update_v = 65536;
  const double full_eps = 1.0;
  Table update_table(
      "R4: incremental update epoch vs full rebuild (tree-hld, V=65536, "
      "eps=1)",
      {"drift", "dirty %", "edges", "dirty blocks", "update_ms",
       "rebuild_ms", "speedup", "charged eps", "full eps"});
  std::vector<UpdateEpochRun> updates;
  // Epoch harness: builds one release, times the best full rebuild, then
  // runs 3 epochs per dirty fraction with edges drawn from [lo, hi).
  auto run_epochs = [&](const char* drift, const char* graph_label,
                        const Graph& tree, const EdgeWeights& weights,
                        EdgeId edge_lo, EdgeId edge_hi,
                        std::span<const double> fractions) {
    ReleaseContext ctx = OrDie(ReleaseContext::Create(
        PrivacyParams{full_eps, 0.0, 1.0}, rng.NextSeed()));
    auto oracle = OrDie(OracleRegistry::Global().Create(
        HldTreeOracle::kName, tree, weights, ctx));
    UpdatableDistanceOracle* updatable = oracle->AsUpdatable();
    double rebuild_ms = 0.0;
    for (int run = 0; run < 3; ++run) {
      ReleaseContext rebuild_ctx = OrDie(ReleaseContext::Create(
          PrivacyParams{full_eps, 0.0, 1.0}, rng.NextSeed()));
      WallTimer timer;
      OrDie(OracleRegistry::Global().Create(HldTreeOracle::kName, tree,
                                            weights, rebuild_ctx));
      double ms = timer.Ms();
      if (run == 0 || ms < rebuild_ms) rebuild_ms = ms;
    }
    for (double fraction : fractions) {
      int k = std::max(1, static_cast<int>(fraction * tree.num_edges()));
      UpdateEpochRun run;
      run.drift = drift;
      run.graph = graph_label;
      run.dirty_fraction = fraction;
      run.dirty_edges = k;
      run.full_eps = full_eps;
      run.rebuild_ms = rebuild_ms;
      for (int epoch = 0; epoch < 3; ++epoch) {
        std::vector<EdgeWeightDelta> deltas;
        deltas.reserve(static_cast<size_t>(k));
        for (int i = 0; i < k; ++i) {
          deltas.push_back(
              {static_cast<EdgeId>(rng.UniformInt(edge_lo, edge_hi - 1)),
               rng.Uniform(0.1, 0.9)});
        }
        WallTimer timer;
        OrDie(updatable->ApplyWeightUpdates(deltas, ctx));
        double ms = timer.Ms();
        if (epoch == 0 || ms < run.update_ms) run.update_ms = ms;
        run.dirty_blocks = updatable->last_update().dirty_blocks;
        run.charged_eps = updatable->last_update().charged_epsilon;
      }
      run.deltas_per_sec = k / (run.update_ms * 1e-3);
      updates.push_back(run);
      update_table.Row()
          .Add(drift)
          .Add(StrFormat("%.0f%%", fraction * 100))
          .Add(run.dirty_edges)
          .Add(run.dirty_blocks)
          .Add(run.update_ms, 3)
          .Add(run.rebuild_ms, 3)
          .Add(run.rebuild_ms / run.update_ms, 2)
          .Add(run.charged_eps, 4)
          .Add(run.full_eps, 4);
    }
  };
  // Uniform drift over a random tree: the wall-clock economics. A random
  // dirty set almost surely touches the deepest chain, so the charge
  // stays at the full epsilon — the honest worst case.
  Graph random_tree = OrDie(MakeRandomTree(update_v, &rng));
  EdgeWeights random_w = MakeUniformWeights(random_tree, 0.1, 0.9, &rng);
  const double all_fractions[] = {0.01, 0.05, 0.25};
  run_epochs("uniform", "random-tree", random_tree, random_w, 0,
             random_tree.num_edges(), all_fractions);
  // Leaf-local drift over a caterpillar backbone: only access-link (leg)
  // edges drift. Legs are light edges of the decomposition — the epoch's
  // sensitivity collapses to 1 and the charge to eps / sensitivity, the
  // privacy economics of localized continual release.
  const int spine = update_v / 8;
  Graph caterpillar = OrDie(MakeCaterpillarTree(spine, /*legs=*/7));
  EdgeWeights caterpillar_w = MakeUniformWeights(caterpillar, 0.1, 0.9, &rng);
  // Excludes the last spine vertex's legs: with no further spine vertex,
  // its heaviest child IS a leg, which extends the deepest chain — the
  // one leg whose drift would reinstate the full sensitivity.
  const double leaf_fractions[] = {0.01, 0.05};
  run_epochs("leaf", "caterpillar", caterpillar, caterpillar_w,
             /*edge_lo=*/static_cast<EdgeId>(spine - 1),
             /*edge_hi=*/caterpillar.num_edges() - 7, leaf_fractions);
  update_table.Print();

  // R5: hardware-limit hot path. One release per (mechanism, V); the
  // scalar and AVX2 legs run the identical DistanceBatch on it (results
  // are bit-identical — tests/simd_conformance_test.cc — so the dispatch
  // is the only variable). The dispatch is printed with the table.
  const size_t simd_queries = 200000;
  std::vector<SimdRun> simd_runs;
  Table simd_table(
      StrFormat("R5: scalar vs AVX2 serving (path graph, 200k queries; "
                "dispatch=%s)",
                SimdDispatchDescription()),
      {"mechanism", "V", "scalar Mops/s", "avx2 Mops/s", "avx2/scalar"});
  for (int simd_v : {16384, 131072}) {
    Graph simd_g = OrDie(MakePathGraph(simd_v));
    EdgeWeights simd_w = MakeUniformWeights(simd_g, 0.1, 0.9, &rng);
    std::vector<VertexPair> simd_pairs =
        SamplePairs(simd_v, static_cast<int>(simd_queries), &rng);
    for (const char* name :
         {"tree-recursive", "tree-hld", "bounded-weight"}) {
      ReleaseContext simd_ctx = OrDie(ReleaseContext::Create(
          PrivacyParams{1.0, 0.0, 1.0}, rng.NextSeed()));
      auto oracle = OrDie(
          OracleRegistry::Global().Create(name, simd_g, simd_w, simd_ctx));
      SimdRun& run = simd_runs.emplace_back();
      run.mechanism = name;
      run.v = simd_v;
      {
        ScopedForceScalar force(true);
        run.scalar = TimeDistanceBatch(*oracle, simd_pairs);
      }
      run.simd = TimeDistanceBatch(*oracle, simd_pairs);
      if (run.scalar.front != run.simd.front) {
        std::abort();  // dispatch must never change results
      }
      simd_table.Row()
          .Add(name)
          .Add(simd_v)
          .Add(run.scalar.ops_per_sec / 1e6, 2)
          .Add(run.simd.ops_per_sec / 1e6, 2)
          .Add(run.simd.ops_per_sec / run.scalar.ops_per_sec, 2);
    }
  }
  simd_table.Print();

  if (json_path != nullptr) {
    WriteJson(json_path, n, pairs.size(), sweep_stats, big_n,
              big_pairs.size(), rows, grid_side * grid_side, scaling_k,
              scaling, accounting, update_v, updates, simd_queries,
              simd_runs);
  }

  std::puts(
      "\nShape check: every mechanism builds once through the shared "
      "pipeline and the\nbatched path answers at memory speed; the sharded "
      "executor matches DistanceBatch\nbit-for-bit while spreading shards "
      "across workers. Bounded-weight build time\ndrops as the Z-center "
      "Dijkstra fan-out widens (R3b).");
}

}  // namespace
}  // namespace dpsp

int main(int argc, char** argv) {
  dpsp::Run(argc > 1 ? argv[1] : nullptr, argc > 2 ? argv[2] : nullptr);
  return 0;
}
