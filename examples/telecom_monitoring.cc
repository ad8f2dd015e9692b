// Telecom latency monitoring: bounded-weight distances (Section 4.2).
//
// An ISP's backbone topology is public; per-link latencies are business-
// sensitive (they reveal customer load). Link latencies are bounded by an
// SLA cap M, which is exactly the bounded-weight setting: release all-pairs
// latencies with error O~(sqrt(V M / eps)) instead of ~V/eps.
//
// The demo builds a geometric backbone, releases the covering-based oracle
// under (eps, delta)-DP, and prints measured error vs the generic
// per-pair baseline.

#include <cstdio>

#include "common/table.h"
#include "core/baselines.h"
#include "core/bounded_weight.h"
#include "graph/generators.h"

using namespace dpsp;  // NOLINT — example brevity

int main() {
  const PrivacyParams params{/*epsilon=*/2.0, /*delta=*/1e-6, 1.0};
  // One seeded context meters both releases; its Rng also draws the
  // synthetic backbone and latencies.
  ReleaseContext ctx = ReleaseContext::Create(params, /*seed=*/4242).value();
  const double sla_cap_ms = 8.0;

  GeometricGraph backbone =
      MakeRandomGeometricGraph(150, 0.16, ctx.rng()).value();
  EdgeWeights latency =
      MakeUniformWeights(backbone.graph, 0.5, sla_cap_ms, ctx.rng());
  std::printf("backbone: %s, latency cap %.1f ms\n",
              backbone.graph.ToString().c_str(), sla_cap_ms);

  BoundedWeightOptions options;
  options.max_weight = sla_cap_ms;
  auto oracle =
      BoundedWeightOracle::Build(backbone.graph, latency, ctx, options)
          .value();
  std::printf("covering: radius k=%d, |Z|=%d of %d routers\n",
              oracle->covering().k, oracle->covering().size(),
              backbone.graph.num_vertices());

  DistanceMatrix exact = AllPairsDijkstra(backbone.graph, latency).value();
  OracleErrorReport covering_report =
      EvaluateOracleAllPairs(backbone.graph, exact, *oracle).value();

  auto baseline =
      MakePerPairLaplaceOracle(backbone.graph, latency, ctx).value();
  OracleErrorReport baseline_report =
      EvaluateOracleAllPairs(backbone.graph, exact, *baseline).value();

  Table table("all-pairs latency release, eps=2, delta=1e-6",
              {"mechanism", "mean|err| ms", "p95|err| ms", "max|err| ms"});
  table.Row()
      .Add(oracle->Name())
      .Add(covering_report.mean_abs_error, 4)
      .Add(covering_report.p95_abs_error, 4)
      .Add(covering_report.max_abs_error, 4);
  table.Row()
      .Add(baseline->Name())
      .Add(baseline_report.mean_abs_error, 4)
      .Add(baseline_report.p95_abs_error, 4)
      .Add(baseline_report.max_abs_error, 4);
  table.Print();
  std::printf("\nproved per-query bound for the covering oracle: %.2f ms\n",
              oracle->ErrorBound(0.05));
  return 0;
}
