// Experiment E2 (Theorem 4.2): all-pairs distances on trees via the LCA
// combination of the single-source release. Reports max/mean/p95 error over
// all pairs against the O(log^2.5 V log(1/gamma))/eps bound, and sweeps the
// tree mechanisms through the registry (E2b).

#include <string>

#include "bench_util.h"
#include "core/tree_distance.h"
#include "graph/generators.h"

namespace dpsp {
namespace {

Result<Graph> MakeTree(const std::string& family, int n, Rng* rng) {
  if (family == "path") return MakePathGraph(n);
  if (family == "balanced") return MakeBalancedTree(n, 2);
  if (family == "random") return MakeRandomTree(n, rng);
  return MakeCaterpillarTree(n / 4, 3);
}

void Run() {
  const double eps = 1.0;
  const double gamma = 0.05;
  PrivacyParams params{eps, 0.0, 1.0};

  Table table("E2: Theorem 4.2 all-pairs tree distances (eps=1)",
              {"family", "V", "pairs", "mean|err|", "p95|err|", "max|err|",
               "bound"});
  Rng rng(kBenchSeed);
  for (const char* family : {"path", "balanced", "random", "caterpillar"}) {
    for (int n : {64, 256, 1024}) {
      Graph g = OrDie(MakeTree(family, n, &rng));
      int v = g.num_vertices();
      EdgeWeights w = MakeUniformWeights(g, 0.0, 10.0, &rng);
      DistanceMatrix exact = OrDie(AllPairsDijkstra(g, w));
      ReleaseContext ctx =
          OrDie(ReleaseContext::Create(params, rng.NextSeed()));
      auto oracle = OrDie(OracleRegistry::Global().Create(
          TreeAllPairsOracle::kName, g, w, ctx));
      OracleErrorReport report =
          OrDie(EvaluateOracleAllPairs(g, exact, *oracle));
      double pairs = static_cast<double>(v) * (v - 1) / 2.0;
      double bound = TreeAllPairsErrorBound(v, params, gamma / pairs);
      table.Row()
          .Add(family)
          .Add(v)
          .Add(report.num_pairs)
          .Add(report.mean_abs_error, 4)
          .Add(report.p95_abs_error, 4)
          .Add(report.max_abs_error, 4)
          .Add(bound, 4);
    }
  }
  table.Print();

  // E2b ablation: the registry's tree mechanisms side by side on random
  // trees. Both are polylog in the worst case (where the Figure-1
  // recursion is a log^0.5 factor tighter), but the HLD release's
  // sensitivity adapts to the longest heavy chain, so on shallow trees
  // (random trees have ~sqrt(V) depth) it uses a smaller noise scale and
  // wins empirically.
  for (int n : {64, 256, 1024}) {
    Graph g = OrDie(MakeRandomTree(n, &rng));
    EdgeWeights w = MakeUniformWeights(g, 0.0, 10.0, &rng);
    DistanceMatrix exact = OrDie(AllPairsDijkstra(g, w));
    std::vector<VertexPair> pairs;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v2 = u + 1; v2 < n; ++v2) pairs.emplace_back(u, v2);
    }
    SweepOptions options;
    options.params = params;
    options.input = OracleInput::kTree;
    options.seed = rng.NextSeed();
    Table ablation = MakeSweepTable(
        StrFormat("E2b: tree mechanism sweep (random tree, V=%d, eps=1)", n));
    AppendSweepRows(ablation, g, w, exact, pairs, options);
    ablation.Print();
  }

  std::puts(
      "\nShape check: max|err| is polylog in V and below the Theorem 4.2 "
      "bound;\nthe per-query noise never scales with V as the baselines "
      "do (see bench_baselines).\nE2b: both tree mechanisms are polylog; "
      "the HLD oracle's chain-adaptive noise\nscale wins on shallow random "
      "trees, while the Figure-1 recursion holds the\nbetter worst-case "
      "bound (deep path-like trees).");
}

}  // namespace
}  // namespace dpsp

int main() {
  dpsp::Run();
  return 0;
}
