// Experiment E11 (§1.2 "Scaling"): every error bound scales linearly with
// the neighboring-relation radius rho. With rho = 1/V instead of 1, the
// tree mechanism's error drops from O(log^2.5 V)/eps to O(log^2.5 V)/(V
// eps) and Algorithm 3's path error from O(k log E)/eps to O(k log E)/(V
// eps). The table sweeps rho and shows the measured errors track it
// linearly.

#include "bench_util.h"
#include "common/statistics.h"
#include "common/table.h"
#include "core/private_shortest_path.h"
#include "core/tree_distance.h"
#include "graph/generators.h"

namespace dpsp {
namespace {

void Run() {
  Rng rng(kBenchSeed);
  const int n = 256;
  Graph tree = OrDie(MakeRandomTree(n, &rng));
  EdgeWeights tree_w = MakeUniformWeights(tree, 0.0, 5.0, &rng);
  DistanceMatrix tree_exact = OrDie(AllPairsDijkstra(tree, tree_w));

  Graph er = OrDie(MakeConnectedErdosRenyi(n, 0.03, &rng));
  EdgeWeights er_w = MakeUniformWeights(er, 0.0, 5.0, &rng);
  ShortestPathTree er_exact = OrDie(Dijkstra(er, er_w, 0));

  Table table("E11: error scales linearly in the neighbor l1 radius rho",
              {"mechanism", "rho", "mean|err|", "err/rho (should be flat)"});
  for (double rho : {1.0, 0.1, 0.01, 1.0 / n}) {
    PrivacyParams params{1.0, 0.0, rho};

    OnlineStats tree_err;
    for (int t = 0; t < 3; ++t) {
      auto oracle = ReleaseOnStream(params, &rng, [&](ReleaseContext& ctx) {
        return TreeAllPairsOracle::Build(tree, tree_w, ctx);
      });
      OracleErrorReport report =
          OrDie(EvaluateOracleAllPairs(tree, tree_exact, *oracle));
      tree_err.Add(report.mean_abs_error);
    }
    table.Row()
        .Add("tree-recursive")
        .Add(rho, 4)
        .Add(tree_err.mean(), 4)
        .Add(tree_err.mean() / rho, 4);

    OnlineStats path_err;
    PrivateShortestPathOptions options;
    options.params = params;
    for (int t = 0; t < 3; ++t) {
      PrivateShortestPaths release =
          OrDie(PrivateShortestPaths::Release(er, er_w, options, &rng));
      for (VertexId v = 1; v < n; v += 11) {
        auto path = OrDie(release.Path(0, v));
        path_err.Add(TotalWeight(er_w, path) -
                     er_exact.distance[static_cast<size_t>(v)]);
      }
    }
    table.Row()
        .Add("algorithm-3 paths")
        .Add(rho, 4)
        .Add(path_err.mean(), 4)
        .Add(path_err.mean() / rho, 4);
  }
  table.Print();
  std::puts(
      "\nShape check: the err/rho column is approximately constant per "
      "mechanism —\nexactly the claim of the Scaling paragraph in §1.2.");
}

}  // namespace
}  // namespace dpsp

int main() {
  dpsp::Run();
  return 0;
}
