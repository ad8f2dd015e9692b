// Experiment E4 (Theorems 4.3 / 4.5 / 4.6): all-pairs distances on
// bounded-weight graphs via k-coverings. Sweeps graph size, weight bound M
// and the privacy regime (pure vs approximate), reporting the automatic k,
// the covering size Z, measured errors and the proved per-query bound.

#include <cmath>

#include "bench_util.h"
#include "common/table.h"
#include "core/bounded_weight.h"
#include "graph/generators.h"

namespace dpsp {
namespace {

void Run() {
  Table table(
      "E4: Theorems 4.5/4.6 bounded-weight all-pairs distances (eps=1)",
      {"graph", "V", "M", "regime", "k", "Z", "noise b", "mean|err|",
       "max|err|", "bound(.05)"});
  Rng rng(kBenchSeed);

  for (int n : {100, 225, 400}) {
    Graph er = OrDie(MakeConnectedErdosRenyi(n, 6.0 / n, &rng));
    for (double m : {0.5, 1.0, 4.0}) {
      EdgeWeights w = MakeUniformWeights(er, 0.0, m, &rng);
      DistanceMatrix exact = OrDie(AllPairsDijkstra(er, w));
      for (double delta : {0.0, 1e-6}) {
        BoundedWeightOptions options;
        options.max_weight = m;
        auto oracle = ReleaseOnStream(
            PrivacyParams{1.0, delta, 1.0}, &rng, [&](ReleaseContext& ctx) {
              return BoundedWeightOracle::Build(er, w, ctx, options);
            });
        OracleErrorReport report =
            OrDie(EvaluateOracleAllPairs(er, exact, *oracle));
        table.Row()
            .Add(StrFormat("ER(%d)", n))
            .Add(n)
            .Add(m, 3)
            .Add(delta == 0.0 ? "pure" : "approx")
            .Add(oracle->covering().k)
            .Add(oracle->covering().size())
            .Add(oracle->noise_scale(), 4)
            .Add(report.mean_abs_error, 4)
            .Add(report.max_abs_error, 4)
            .Add(oracle->ErrorBound(0.05), 4);
      }
    }
  }
  table.Print();

  // E4b: the Theorem 4.3 tradeoff made visible. On small-world ER graphs
  // the hop diameter is tiny and the automatic k collapses the covering to
  // one center (see E4 above), so sweep k explicitly on a large-diameter
  // geometric graph: small k => many centers => composition noise
  // dominates; as k grows the noise falls ~|Z|. The 2kM bias term only
  // overtakes once k reaches ~sqrt(V/(M eps)), which at V=400 coincides
  // with the graph's hop diameter, so within the feasible range the error
  // is monotone and the Theorem 4.3 auto-k sits at its floor.
  GeometricGraph geo = OrDie(MakeRandomGeometricGraph(400, 0.07, &rng));
  EdgeWeights geo_w = MakeUniformWeights(geo.graph, 0.0, 1.0, &rng);
  DistanceMatrix geo_exact = OrDie(AllPairsDijkstra(geo.graph, geo_w));
  Table tradeoff(
      "E4b: covering radius sweep, geometric graph V=400, M=1, eps=1",
      {"k", "Z", "noise kind", "noise b", "mean|err|", "max|err|",
       "bound(.05)"});
  for (int k : {1, 2, 3, 5, 8, 12, 20}) {
    for (auto noise : {BoundedWeightOptions::NoiseKind::kLaplace,
                       BoundedWeightOptions::NoiseKind::kGaussian}) {
      BoundedWeightOptions options;
      options.max_weight = 1.0;
      options.k = k;
      options.strategy = BoundedWeightOptions::CoveringStrategy::kGreedy;
      options.noise = noise;
      auto oracle = ReleaseOnStream(
          PrivacyParams{0.9, 1e-6, 1.0}, &rng, [&](ReleaseContext& ctx) {
            return BoundedWeightOracle::Build(geo.graph, geo_w, ctx, options);
          });
      OracleErrorReport report =
          OrDie(EvaluateOracleAllPairs(geo.graph, geo_exact, *oracle));
      tradeoff.Row()
          .Add(k)
          .Add(oracle->covering().size())
          .Add(noise == BoundedWeightOptions::NoiseKind::kLaplace
                   ? "laplace"
                   : "gaussian")
          .Add(oracle->noise_scale(), 4)
          .Add(report.mean_abs_error, 4)
          .Add(report.max_abs_error, 4)
          .Add(oracle->ErrorBound(0.05), 4);
    }
  }
  tradeoff.Print();
  std::puts(
      "\nShape check: approx-DP error ~ sqrt(V M / eps) beats pure-DP error"
      " ~ (V M)^{2/3};\nboth stay below their bounds and grow sublinearly "
      "in V (the paper's headline).\nE4b: error falls as k grows (noise ~ "
      "|Z| shrinks) until k hits the Theorem 4.3\nbalance point ~ "
      "sqrt(V/(M eps)); Gaussian noise tightens max error when |Z| is\n"
      "large (many composed queries), Laplace wins for small |Z|.");
}

}  // namespace
}  // namespace dpsp

int main() {
  dpsp::Run();
  return 0;
}
