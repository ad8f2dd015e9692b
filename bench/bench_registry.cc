// Registry sweep: every registered mechanism family on one workload, one
// uniform report. The workload is an even canonical path graph, which
// satisfies every input family at once (path => tree => connected, and an
// even path has a perfect matching), so all nine registered oracles appear
// in a single table — adding a tenth is one Register() line in
// core/oracle_registry.cc.
//
// Three sections:
//  R1  registry sweep (V=256): build/batch/error per mechanism.
//  R2  one shared context serving several releases (the deployment view),
//      and the same ledger composed under every accounting policy (R2b).
//  R4  incremental update epochs vs full rebuild (tree-hld, random tree
//      V=65536): wall clock and charged epsilon at 1% / 5% / 25% dirty
//      fractions — the continual-release economics in one table.
// Serving speed is perfbench's to measure (perfbench/README.md).
//
// Usage: bench_registry [out.csv] [out.json]
//   out.csv   the R1 rows as CSV
//   out.json  machine-readable R1, R2b and R4 numbers.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/baselines.h"
#include "core/hld_oracle.h"
#include "core/tree_distance.h"
#include "graph/all_pairs.h"
#include "graph/generators.h"

namespace dpsp {
namespace {

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
               const std::vector<SweepRowStats>& sweep,
               const std::vector<AccountingSweep>& accounting,
               int update_v, const std::vector<UpdateEpochRun>& updates) {
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

  if (json_path != nullptr) {
    WriteJson(json_path, n, pairs.size(), sweep_stats, accounting, update_v,
              updates);
  }

  std::puts(
      "\nShape check: every mechanism builds once through the shared "
      "pipeline, the budget\nstops the third release before it draws "
      "noise, and an update epoch costs a\nfraction of a rebuild (R4).");
}

}  // namespace
}  // namespace dpsp

int main(int argc, char** argv) {
  dpsp::Run(argc > 1 ? argv[1] : nullptr, argc > 2 ? argv[2] : nullptr);
  return 0;
}
