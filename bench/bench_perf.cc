// P1: substrate and mechanism throughput (google-benchmark). These are the
// raw-performance numbers a downstream adopter cares about: everything in
// the paper is a polynomial-time algorithm and should remain fast at
// realistic network sizes.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/bounded_weight.h"
#include "core/path_graph.h"
#include "core/private_shortest_path.h"
#include "core/tree_distance.h"
#include "graph/covering.h"
#include "graph/generators.h"
#include "graph/matching.h"
#include "graph/spanning_tree.h"
#include "graph/tree.h"

namespace dpsp {
namespace {

void BM_DijkstraGrid(benchmark::State& state) {
  Rng rng(kBenchSeed);
  int side = static_cast<int>(state.range(0));
  Graph g = OrDie(MakeGridGraph(side, side));
  EdgeWeights w = MakeUniformWeights(g, 0.5, 2.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dijkstra(g, w, 0));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_DijkstraGrid)->Arg(32)->Arg(64)->Arg(128);

void BM_KruskalErdosRenyi(benchmark::State& state) {
  Rng rng(kBenchSeed);
  int n = static_cast<int>(state.range(0));
  Graph g = OrDie(MakeConnectedErdosRenyi(n, 10.0 / n, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KruskalMst(g, w));
  }
}
BENCHMARK(BM_KruskalErdosRenyi)->Arg(1000)->Arg(10000);

void BM_LcaBuildAndQuery(benchmark::State& state) {
  Rng rng(kBenchSeed);
  int n = static_cast<int>(state.range(0));
  Graph g = OrDie(MakeRandomTree(n, &rng));
  RootedTree tree = OrDie(RootedTree::FromGraph(g, 0));
  LcaIndex lca(tree);
  VertexId u = 0;
  for (auto _ : state) {
    u = (u + 37) % n;
    benchmark::DoNotOptimize(lca.Lca(u, (u * 7 + 11) % n));
  }
}
BENCHMARK(BM_LcaBuildAndQuery)->Arg(1024)->Arg(65536);

void BM_MM75Covering(benchmark::State& state) {
  Rng rng(kBenchSeed);
  int n = static_cast<int>(state.range(0));
  Graph g = OrDie(MakeConnectedErdosRenyi(n, 6.0 / n, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MM75ResidueCovering(g, 4));
  }
}
BENCHMARK(BM_MM75Covering)->Arg(1000)->Arg(10000);

void BM_TreeSingleSourceRelease(benchmark::State& state) {
  Rng rng(kBenchSeed);
  int n = static_cast<int>(state.range(0));
  Graph g = OrDie(MakeRandomTree(n, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 5.0, &rng);
  PrivacyParams params{1.0, 0.0, 1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ReleaseTreeSingleSourceDistances(g, w, 0, params, &rng));
  }
}
BENCHMARK(BM_TreeSingleSourceRelease)->Arg(1024)->Arg(16384);

void BM_PathOracleBuild(benchmark::State& state) {
  Rng rng(kBenchSeed);
  int n = static_cast<int>(state.range(0));
  Graph g = OrDie(MakePathGraph(n));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 5.0, &rng);
  ReleaseContext ctx =
      OrDie(ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kBenchSeed));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PathGraphOracle::Build(g, w, ctx));
  }
}
BENCHMARK(BM_PathOracleBuild)->Arg(4096)->Arg(65536);

void BM_PathOracleQuery(benchmark::State& state) {
  Rng rng(kBenchSeed);
  int n = 65536;
  Graph g = OrDie(MakePathGraph(n));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 5.0, &rng);
  ReleaseContext ctx =
      OrDie(ReleaseContext::Create(PrivacyParams{1.0, 0.0, 1.0}, kBenchSeed));
  auto oracle = OrDie(PathGraphOracle::Build(g, w, ctx));
  VertexId u = 0;
  for (auto _ : state) {
    u = (u + 9973) % n;
    benchmark::DoNotOptimize(oracle->Distance(u, (u * 31 + 17) % n));
  }
}
BENCHMARK(BM_PathOracleQuery);

void BM_Algorithm3Release(benchmark::State& state) {
  Rng rng(kBenchSeed);
  int side = static_cast<int>(state.range(0));
  RoadNetwork network =
      OrDie(MakeSyntheticRoadNetwork(side, side, 0.25, &rng));
  EdgeWeights traffic = MakeCongestionWeights(network, 5, 3.0, &rng);
  PrivateShortestPathOptions options;
  options.params = PrivacyParams{1.0, 0.0, 1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PrivateShortestPaths::Release(network.graph, traffic, options, &rng));
  }
}
BENCHMARK(BM_Algorithm3Release)->Arg(16)->Arg(64);

void BM_BoundedWeightBuild(benchmark::State& state) {
  Rng rng(kBenchSeed);
  int n = static_cast<int>(state.range(0));
  Graph g = OrDie(MakeConnectedErdosRenyi(n, 6.0 / n, &rng));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, &rng);
  BoundedWeightOptions options;
  options.max_weight = 1.0;
  ReleaseContext ctx =
      OrDie(ReleaseContext::Create(PrivacyParams{1.0, 1e-6, 1.0}, kBenchSeed));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoundedWeightOracle::Build(g, w, ctx, options));
  }
}
BENCHMARK(BM_BoundedWeightBuild)->Arg(200)->Arg(800);

void BM_HungarianMatching(benchmark::State& state) {
  Rng rng(kBenchSeed);
  int side = static_cast<int>(state.range(0));
  Graph g = OrDie(MakeCompleteBipartiteGraph(side, side));
  EdgeWeights w = MakeUniformWeights(g, 0.0, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinWeightPerfectMatching(g, w));
  }
}
BENCHMARK(BM_HungarianMatching)->Arg(32)->Arg(128);

}  // namespace
}  // namespace dpsp

BENCHMARK_MAIN();
