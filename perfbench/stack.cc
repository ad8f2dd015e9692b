#include "stack.h"

#include <algorithm>
#include <utility>

#include "common.h"
#include "common/random.h"
#include "common/table.h"
#include "core/oracle_registry.h"
#include "graph/generators.h"
#include "net/client.h"

namespace perfbench {

using dpsp::Rng;

WorkloadSpec SpecFor(const std::string& name, bool tiny) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "bulk-query") {
    // Each released image is several times a 2 MiB per-core L2, and each
    // batch is 16x the executor's min_shard_pairs, so it fans out.
    spec.graph_kind = "path";
    spec.size = tiny ? 1 << 12 : 1 << 19;
    spec.mechanisms = {"tree-hld", "path-hierarchy"};
    spec.clients = 4;
    spec.pairs_per_batch = tiny ? 4096 : 32768;
    spec.batch_pool = tiny ? 4 : 8;
  } else if (name == "point-lookup") {
    // The released covering-center table of a 48x48 city fits in L2.
    spec.graph_kind = "road";
    spec.size = tiny ? 12 : 48;
    spec.mechanisms = {"bounded-weight"};
    spec.clients = 4;
    spec.pairs_per_batch = 16;
    spec.batch_pool = tiny ? 256 : 4096;
  } else if (name == "live-traffic") {
    spec.graph_kind = "random-tree";
    spec.size = tiny ? 1 << 10 : 1 << 15;
    spec.mechanisms = {"tree-hld"};
    spec.clients = 3;
    spec.pairs_per_batch = 512;
    spec.batch_pool = 16;
    spec.live = true;
    spec.epochs = tiny ? 20 : 100;
    spec.deltas_per_epoch = 64;
  } else {
    Fail("unknown workload '" + name +
         "' (expected bulk-query, point-lookup or live-traffic)");
  }
  return spec;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Rng rng(seed);
  Inputs in{Must(dpsp::MakePathGraph(1), "placeholder graph"), {}, {}, {}};
  if (spec.graph_kind == "path") {
    in.graph = Must(dpsp::MakePathGraph(spec.size), "path graph");
    in.weights = dpsp::MakeUniformWeights(in.graph, 0.0, 1.0, &rng);
  } else if (spec.graph_kind == "road") {
    dpsp::RoadNetwork city = Must(
        dpsp::MakeSyntheticRoadNetwork(spec.size, spec.size, 0.2, &rng),
        "road network");
    dpsp::EdgeWeights congestion =
        dpsp::MakeCongestionWeights(city, 8, 3.0, &rng);
    // The bounded-weight mechanism needs every weight in [0, 1].
    double max_weight = *std::max_element(congestion.begin(), congestion.end());
    for (double& w : congestion) w /= max_weight;
    in.graph = std::move(city.graph);
    in.weights = std::move(congestion);
  } else {
    in.graph = Must(dpsp::MakeRandomTree(spec.size, &rng), "random tree");
    in.weights = dpsp::MakeUniformWeights(in.graph, 0.1, 0.9, &rng);
  }
  const int n = in.graph.num_vertices();
  in.batches.resize(spec.mechanisms.size());
  for (auto& pool : in.batches) {
    pool.resize(static_cast<size_t>(spec.batch_pool));
    for (auto& batch : pool) {
      batch.reserve(static_cast<size_t>(spec.pairs_per_batch));
      while (static_cast<int>(batch.size()) < spec.pairs_per_batch) {
        auto u = static_cast<dpsp::VertexId>(rng.UniformInt(0, n - 1));
        auto v = static_cast<dpsp::VertexId>(rng.UniformInt(0, n - 1));
        if (u != v) batch.emplace_back(u, v);
      }
    }
  }
  in.epochs.resize(static_cast<size_t>(spec.epochs));
  for (auto& epoch : in.epochs) {
    epoch.resize(static_cast<size_t>(spec.deltas_per_epoch));
    for (EdgeWeightDelta& d : epoch) {
      d.edge = static_cast<dpsp::EdgeId>(
          rng.UniformInt(0, in.graph.num_edges() - 1));
      d.new_weight = rng.Uniform(0.1, 0.9);
    }
  }
  return in;
}

dpsp::ReleaseContext MakeContext(uint64_t seed) {
  return Must(dpsp::ReleaseContext::Create(dpsp::PrivacyParams{1.0, 0.0, 1.0},
                                           seed * 0x9E3779B97F4A7C15ULL + 7),
              "release context");
}

dpsp::BatchExecutorOptions ExecutorOptions() { return {}; }

std::unique_ptr<Stack> Stack::Start(const WorkloadSpec& spec,
                                    const Inputs& inputs, uint64_t seed,
                                    const std::string& persistence_dir) {
  std::unique_ptr<Stack> stack(new Stack());
  dpsp::net::QueryServerOptions options;
  options.executor = ExecutorOptions();
  if (spec.live) options.persistence_dir = persistence_dir;
  dpsp::ReleaseContext ctx = MakeContext(seed);
  // Every epoch charges at most one full release; no epoch may be refused.
  ctx.SetTotalBudget(dpsp::PrivacyParams{
      static_cast<double>(spec.mechanisms.size() + 2 * spec.epochs + 1), 0.0,
      1.0});
  stack->server_ =
      std::make_unique<dpsp::net::QueryServer>(options, std::move(ctx));
  Must(stack->server_->AddWorkload(spec.name, inputs.graph, inputs.weights),
       "add workload");
  Must(stack->server_->Start(), "start server");
  if (spec.live) {
    stack->coordinator_ = std::make_unique<dpsp::cluster::Coordinator>(
        dpsp::cluster::CoordinatorOptions{}, stack->server_.get());
    Must(stack->coordinator_->Start(), "start coordinator");
    dpsp::net::QueryServerOptions replica_options;
    replica_options.executor = ExecutorOptions();
    stack->replica_server_ =
        std::make_unique<dpsp::net::QueryServer>(replica_options);
    Must(stack->replica_server_->AddWorkload(spec.name, inputs.graph,
                                             inputs.weights),
         "add replica workload");
    Must(stack->replica_server_->Start(), "start replica server");
    dpsp::cluster::ReplicaOptions replica;
    replica.coordinator_port = stack->coordinator_->replication_port();
    replica.name = "perfbench-replica";
    stack->replica_ = std::make_unique<dpsp::cluster::Replica>(
        replica, stack->replica_server_.get());
    Must(stack->replica_->Start(), "start replica");
  }
  dpsp::net::Client admin = Must(
      dpsp::net::Client::Connect("127.0.0.1", stack->server_->port()),
      "connect admin client");
  for (size_t i = 0; i < spec.mechanisms.size(); ++i) {
    dpsp::net::ReleaseInfo info =
        Must(admin.Release(spec.name, spec.mechanisms[i],
                           dpsp::StrFormat("h%zu", i)),
             "release over the wire");
    stack->handles_.push_back(info.handle_id);
  }
  if (stack->replica_ != nullptr) {
    Must(stack->replica_->WaitForLsn(stack->server_->last_epoch_lsn(), 120000),
         "replica sync");
  }
  return stack;
}

Stack::~Stack() {
  if (replica_ != nullptr) replica_->Stop();
  if (replica_server_ != nullptr) replica_server_->Stop();
  if (coordinator_ != nullptr) coordinator_->Stop();
  if (server_ != nullptr) server_->Stop();
}

std::unique_ptr<Reference> BuildReference(const WorkloadSpec& spec,
                                          const Inputs& inputs, uint64_t seed,
                                          bool answer_batches) {
  auto ref = std::unique_ptr<Reference>(
      new Reference{MakeContext(seed), {}, dpsp::BatchExecutor(ExecutorOptions()),
                    {}});
  for (const std::string& mechanism : spec.mechanisms) {
    ref->oracles.push_back(Must(
        dpsp::OracleRegistry::Global().Create(mechanism, inputs.graph,
                                              inputs.weights, ref->ctx),
        "reference release"));
  }
  if (answer_batches) {
    ref->expected.resize(spec.mechanisms.size());
    for (size_t h = 0; h < spec.mechanisms.size(); ++h) {
      for (const auto& batch : inputs.batches[h]) {
        ref->expected[h].push_back(
            Must(ref->executor.Execute(*ref->oracles[h], batch),
                 "reference answers"));
      }
    }
  }
  return ref;
}

}  // namespace perfbench
