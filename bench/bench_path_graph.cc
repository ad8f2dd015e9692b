// Experiment E3 (Theorem A.1 / DNPR10): all-pairs distances on the path
// graph. Compares the Appendix-A hub hierarchy against the Section-4.1
// tree recursion (they should land in the same polylog regime) and against
// the per-pair composition baselines.

#include <cmath>
#include <string>

#include "bench_util.h"
#include "common/statistics.h"
#include "common/table.h"
#include "core/baselines.h"
#include "core/path_graph.h"
#include "core/tree_distance.h"
#include "graph/generators.h"

namespace dpsp {
namespace {

void Run() {
  const double eps = 1.0;
  PrivacyParams pure{eps, 0.0, 1.0};
  PrivacyParams approx{eps, 1e-6, 1.0};

  Table table("E3: Theorem A.1 path-graph all-pairs distances (eps=1)",
              {"V", "mechanism", "mean|err|", "p95|err|", "max|err|",
               "bound"});
  Rng rng(kBenchSeed);
  for (int n : {256, 1024, 4096, 16384}) {
    Graph g = OrDie(MakePathGraph(n));
    EdgeWeights w = MakeUniformWeights(g, 0.0, 5.0, &rng);

    // Exact prefix sums for fast pairwise truth on the path.
    std::vector<double> prefix(static_cast<size_t>(n), 0.0);
    for (int i = 1; i < n; ++i) {
      prefix[static_cast<size_t>(i)] =
          prefix[static_cast<size_t>(i - 1)] + w[static_cast<size_t>(i - 1)];
    }
    auto pairs = SamplePairs(n, 4000, &rng);

    auto evaluate = [&](const DistanceOracle& oracle, double bound) {
      std::vector<double> errors;
      errors.reserve(pairs.size());
      for (const auto& [u, v] : pairs) {
        double truth = std::fabs(prefix[static_cast<size_t>(v)] -
                                 prefix[static_cast<size_t>(u)]);
        double est = OrDie(oracle.Distance(u, v));
        errors.push_back(std::fabs(est - truth));
      }
      table.Row()
          .Add(n)
          .Add(oracle.Name())
          .Add(Mean(errors), 4)
          .Add(Quantile(errors, 0.95), 4)
          .Add(MaxAbs(errors), 4)
          .Add(bound > 0 ? StrFormat("%.4g", bound) : std::string("-"));
    };

    auto hierarchy = ReleaseOnStream(pure, &rng, [&](ReleaseContext& ctx) {
      return PathGraphOracle::Build(g, w, ctx);
    });
    evaluate(*hierarchy,
             PathGraphErrorBound(n, pure, 0.05 / pairs.size()));
    auto tree = ReleaseOnStream(pure, &rng, [&](ReleaseContext& ctx) {
      return TreeAllPairsOracle::Build(g, w, ctx);
    });
    evaluate(*tree, TreeAllPairsErrorBound(n, pure, 0.05 / pairs.size()));
    if (n <= 1024) {  // dense baselines are quadratic in memory/time
      auto per_pair = ReleaseOnStream(approx, &rng, [&](ReleaseContext& ctx) {
        return MakePerPairLaplaceOracle(g, w, ctx);
      });
      evaluate(*per_pair, 0.0);
    }
  }
  table.Print();

  std::puts(
      "\nShape check: path-hierarchy and tree-recursive agree to within "
      "constants\n(polylog V), while per-pair-laplace(approx) error scales "
      "linearly with V.");
}

}  // namespace
}  // namespace dpsp

int main() {
  dpsp::Run();
  return 0;
}
