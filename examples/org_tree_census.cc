// Hierarchical census aggregation: tree distances (Section 4.1).
//
// A statistical agency publishes cumulative quantities along a fixed
// administrative hierarchy (country -> region -> district -> tract), where
// each edge weight is a privately aggregated count delta contributed by
// individuals. The hierarchy is public; the weights are private; any
// individual changes the weights by at most 1 in l1 — precisely the
// private edge-weight model on a tree.
//
// The demo releases all-pairs "hierarchy distances" (sums of private
// deltas along the unique connecting path) with the Theorem 4.2 mechanism
// and compares the single-release error against answering each of the
// ~V^2/2 queries independently with its own Laplace noise.

#include <cstdio>

#include "common/table.h"
#include "core/baselines.h"
#include "core/tree_distance.h"
#include "graph/generators.h"

using namespace dpsp;  // NOLINT — example brevity

int main() {
  PrivacyParams params{/*epsilon=*/0.5, 0.0, 1.0};
  // One seeded context meters both releases; its Rng also draws the
  // synthetic census deltas.
  ReleaseContext ctx = ReleaseContext::Create(params, /*seed=*/90210).value();
  // 4-level hierarchy: branching 6 -> 1 + 6 + 36 + 216 = 259 nodes.
  Graph hierarchy = MakeBalancedTree(259, 6).value();
  EdgeWeights deltas = MakeUniformWeights(hierarchy, 0.0, 100.0, ctx.rng());

  auto oracle = TreeAllPairsOracle::Build(hierarchy, deltas, ctx).value();
  DistanceMatrix exact = AllPairsDijkstra(hierarchy, deltas).value();
  OracleErrorReport tree_report =
      EvaluateOracleAllPairs(hierarchy, exact, *oracle).value();

  auto per_pair = MakePerPairLaplaceOracle(hierarchy, deltas, ctx).value();
  OracleErrorReport baseline_report =
      EvaluateOracleAllPairs(hierarchy, exact, *per_pair).value();

  Table table("census hierarchy release, V=259, eps=0.5 total",
              {"mechanism", "mean|err|", "p95|err|", "max|err|"});
  table.Row()
      .Add(oracle->Name())
      .Add(tree_report.mean_abs_error, 4)
      .Add(tree_report.p95_abs_error, 4)
      .Add(tree_report.max_abs_error, 4);
  table.Row()
      .Add(per_pair->Name())
      .Add(baseline_report.mean_abs_error, 4)
      .Add(baseline_report.p95_abs_error, 4)
      .Add(baseline_report.max_abs_error, 4);
  table.Print();
  std::printf(
      "\nThe recursive release answers all %d pair queries from one eps=0.5 "
      "budget with\npolylog error; naive composition needs noise scaled by "
      "the number of pairs.\nProved bound for this configuration: %.1f.\n",
      tree_report.num_pairs,
      TreeAllPairsErrorBound(259, params, 0.05 / tree_report.num_pairs));
  return 0;
}
