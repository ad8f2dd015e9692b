// Network serving demo: starts a loopback QueryServer over a road-like
// path workload, then drives it through net::Client exactly the way a
// remote deployment would — release an oracle by name, stream query
// batches against the handle, and watch the admission controller refuse
// an over-budget release with a typed error.
//
// Also serves as the CI server smoke test: it exercises the full
// socket -> frame -> release -> sharded-batch -> response path and exits
// non-zero if any step fails.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/random.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"

namespace {

template <typename T>
T OrDie(dpsp::Result<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "demo failure: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

void OrDie(const dpsp::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "demo failure: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace dpsp;

  // --- server side: load a workload, install a hard total budget, serve.
  Rng rng(2016);
  Graph graph = OrDie(MakePathGraph(4096));
  EdgeWeights weights = MakeUniformWeights(graph, 0.2, 1.8, &rng);

  PrivacyParams per_release{/*epsilon=*/1.0, /*delta=*/0.0,
                            /*neighbor_l1_bound=*/1.0};
  ReleaseContext ctx = OrDie(ReleaseContext::Create(per_release, 0xfeed));
  ctx.SetTotalBudget(PrivacyParams{2.5, 0.0, 1.0});

  net::QueryServer server({}, std::move(ctx));
  OrDie(server.AddWorkload("roads", std::move(graph), std::move(weights)));
  OrDie(server.Start());
  std::printf("server listening on 127.0.0.1:%u\n", server.port());

  // --- client side: everything below only touches the wire API.
  net::Client client = OrDie(net::Client::Connect("127.0.0.1",
                                                  server.port()));

  net::ReleaseInfo hld =
      OrDie(client.Release("roads", "tree-hld", "hld-main"));
  std::printf("released tree-hld as handle %u (eps=%.1f, built in %.2fms)\n",
              hld.handle_id, hld.epsilon, hld.wall_ms);

  std::vector<VertexPair> pairs;
  for (int i = 0; i < 10; ++i) {
    pairs.emplace_back(rng.UniformInt(0, 4095), rng.UniformInt(0, 4095));
  }
  std::vector<double> distances = OrDie(client.Query(hld.handle_id, pairs));
  for (size_t i = 0; i < pairs.size(); ++i) {
    std::printf("  dist(%4d, %4d) ~ %8.3f\n", pairs[i].first,
                pairs[i].second, distances[i]);
  }

  // A second release fits the 2.5 budget...
  net::ReleaseInfo tree =
      OrDie(client.Release("roads", "tree-recursive", "tree-main"));
  std::printf("released tree-recursive as handle %u\n", tree.handle_id);

  // ...but a third (1+1+1 > 2.5) is refused by admission control before
  // any construction work, with a typed error the client can branch on.
  Result<net::ReleaseInfo> third =
      client.Release("roads", "path-hierarchy", "one-too-many");
  if (third.ok()) {
    std::fprintf(stderr, "over-budget release was granted?!\n");
    return 1;
  }
  // last_error() is empty when the failure was transport-level rather
  // than a typed Error frame — check before branching on the kind.
  if (!client.last_error().has_value() ||
      client.last_error()->kind != net::ErrorKind::kBudgetExhausted) {
    std::fprintf(stderr, "expected a budget-exhausted rejection, got: %s\n",
                 third.status().ToString().c_str());
    return 1;
  }
  std::printf("third release refused: [%s] %s\n",
              net::ErrorKindName(client.last_error()->kind),
              third.status().ToString().c_str());

  net::ServerStats stats = OrDie(client.Stats());
  std::printf(
      "server stats: %llu queries (%llu pairs), %llu releases granted, "
      "%llu budget-rejected\n",
      static_cast<unsigned long long>(stats.queries_served),
      static_cast<unsigned long long>(stats.pairs_served),
      static_cast<unsigned long long>(stats.releases_granted),
      static_cast<unsigned long long>(stats.budget_rejected));
  std::printf(
      "cluster: role=%s epoch_lsn=%llu replicas=%u replica_lag=%llu\n",
      net::NodeRoleName(static_cast<net::NodeRole>(stats.role)),
      static_cast<unsigned long long>(stats.last_epoch_lsn),
      stats.num_replicas, static_cast<unsigned long long>(stats.replica_lag));

  server.Stop();
  std::puts("done: queries are free post-processing; releases are the "
            "metered, admission-controlled operation.");
  return 0;
}
