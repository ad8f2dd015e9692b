// Tests for the replicated read tier: coordinator/replica bit-identity
// across every registered mechanism, delta-only update epochs (byte
// accounting), late-joiner catch-up, coordinators started over handles
// that already exist (released earlier or recovered from disk), idle
// dialers on the shared query port, a SIGKILLed-mid-install replica
// resubscribing cleanly, and budget charged exactly once on the
// coordinator no matter how many replicas serve.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/replica.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "core/oracle_registry.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "test_util.h"

namespace dpsp {
namespace {

constexpr int kNumVertices = 64;  // even path: satisfies every input family
constexpr uint64_t kClusterSeed = kTestSeed ^ 0xc1u;
// eps < 1 with delta > 0: buildable by Laplace- AND Gaussian-calibrated
// mechanisms, so the whole registry participates.
const PrivacyParams kParams{0.5, 1e-6, 1.0};

struct Workload {
  Graph graph;
  EdgeWeights weights;
};

Workload MakeWorkload() {
  Rng rng(kTestSeed);
  Graph g = MakePathGraph(kNumVertices).value();
  EdgeWeights w = MakeUniformWeights(g, 0.1, 0.9, &rng);
  return {std::move(g), std::move(w)};
}

std::vector<VertexPair> SamplePairs(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexPair> pairs;
  pairs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    pairs.emplace_back(
        static_cast<VertexId>(rng.UniformInt(0, kNumVertices - 1)),
        static_cast<VertexId>(rng.UniformInt(0, kNumVertices - 1)));
  }
  return pairs;
}

/// One read replica: a ledger-less QueryServer plus the sync loop feeding
/// its handle table from the coordinator.
struct ReplicaNode {
  std::unique_ptr<net::QueryServer> server;
  std::unique_ptr<cluster::Replica> replica;
};

/// A coordinator (a budget-holding server whose query port also takes
/// replica subscriptions) and helpers to attach replicas against the
/// same workload. The server persists to `persistence_dir` when it is
/// set; with `start_coordinator` false the server runs standalone until
/// StartCoordinator().
class ClusterFixture {
 public:
  explicit ClusterFixture(double compaction_factor = 1e9,
                          const std::string& persistence_dir = "",
                          bool start_coordinator = true)
      : workload_(MakeWorkload()) {
    ReleaseContext ctx =
        ReleaseContext::Create(kParams, kClusterSeed).value();
    ctx.SetTotalBudget(PrivacyParams{1e9, 0.5, 1.0});
    net::QueryServerOptions server_options;
    server_options.persistence_dir = persistence_dir;
    server_ = std::make_unique<net::QueryServer>(server_options,
                                                 std::move(ctx));
    EXPECT_OK(server_->AddWorkload("path", workload_.graph,
                                   workload_.weights));
    EXPECT_OK(server_->Start());
    cluster::CoordinatorOptions options;
    // A huge factor by default: tests that assert on the delta log's
    // replay behavior must not race an implicit compaction.
    options.compaction_factor = compaction_factor;
    coordinator_ =
        std::make_unique<cluster::Coordinator>(options, server_.get());
    if (start_coordinator) StartCoordinator();
  }

  void StartCoordinator() { EXPECT_OK(coordinator_->Start()); }

  ~ClusterFixture() {
    for (ReplicaNode& node : replicas_) node.replica->Stop();
    coordinator_->Stop();
    server_->Stop();
  }

  ReplicaNode& AddReplica(const std::string& name) {
    ReplicaNode node;
    node.server =
        std::make_unique<net::QueryServer>(net::QueryServerOptions{});
    EXPECT_OK(node.server->AddWorkload("path", workload_.graph,
                                       workload_.weights));
    EXPECT_OK(node.server->Start());
    cluster::ReplicaOptions options;
    options.coordinator_port = server_->port();
    options.name = name;
    node.replica =
        std::make_unique<cluster::Replica>(options, node.server.get());
    EXPECT_OK(node.replica->Start());
    replicas_.push_back(std::move(node));
    return replicas_.back();
  }

  /// Blocks until every replica has applied the coordinator's LSN.
  void AwaitConvergence(int timeout_ms = 20000) {
    const uint64_t target = server_->last_epoch_lsn();
    for (ReplicaNode& node : replicas_) {
      ASSERT_OK(node.replica->WaitForLsn(target, timeout_ms));
    }
  }

  net::Client ConnectTo(const net::QueryServer& server) {
    return net::Client::Connect("127.0.0.1", server.port()).value();
  }

  net::QueryServer& server() { return *server_; }
  cluster::Coordinator& coordinator() { return *coordinator_; }
  std::vector<ReplicaNode>& replicas() { return replicas_; }
  const Workload& workload() const { return workload_; }

 private:
  Workload workload_;
  std::unique_ptr<net::QueryServer> server_;
  std::unique_ptr<cluster::Coordinator> coordinator_;
  std::vector<ReplicaNode> replicas_;
};

/// Queries the same batch on the coordinator and every replica and
/// asserts bit-identical answers.
void ExpectBitIdentical(ClusterFixture& fixture, uint32_t handle_id,
                        uint64_t pair_seed, const std::string& what) {
  std::vector<VertexPair> pairs = SamplePairs(300, pair_seed);
  net::Client coordinator_client = fixture.ConnectTo(fixture.server());
  ASSERT_OK_AND_ASSIGN(std::vector<double> reference,
                       coordinator_client.Query(handle_id, pairs));
  for (size_t r = 0; r < fixture.replicas().size(); ++r) {
    net::Client replica_client =
        fixture.ConnectTo(*fixture.replicas()[r].server);
    ASSERT_OK_AND_ASSIGN(std::vector<double> served,
                         replica_client.Query(handle_id, pairs));
    ASSERT_EQ(served.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      // Bit-exact, not approximate: the replica re-hosts the released
      // bytes, it does not re-run the mechanism.
      ASSERT_EQ(served[i], reference[i])
          << what << ": replica " << r << " diverges at pair " << i;
    }
  }
}

// ------------------------------------------------------ bit identity --

TEST(ClusterReplicationTest, EveryMechanismServesBitIdenticalOnReplicas) {
  ClusterFixture fixture;
  fixture.AddReplica("r1");
  fixture.AddReplica("r2");

  net::Client client = fixture.ConnectTo(fixture.server());
  std::vector<std::string> mechanisms =
      OracleRegistry::Global().NamesForInput(OracleInput::kPath,
                                             /*has_perfect_matching=*/true);
  ASSERT_FALSE(mechanisms.empty());
  std::vector<std::pair<std::string, uint32_t>> released;
  for (const std::string& mechanism : mechanisms) {
    ASSERT_OK_AND_ASSIGN(
        net::ReleaseInfo info,
        client.Release("path", mechanism, "handle-" + mechanism));
    released.emplace_back(mechanism, info.handle_id);
  }
  fixture.AwaitConvergence();

  uint64_t seed = kTestSeed ^ 0xb17;
  for (const auto& [mechanism, handle_id] : released) {
    ExpectBitIdentical(fixture, handle_id, seed++, mechanism);
  }
  // Both replicas hold the full handle table.
  for (ReplicaNode& node : fixture.replicas()) {
    EXPECT_EQ(node.server->stats().open_handles, released.size());
  }
}

// ------------------------------------------------- delta-only epochs --

TEST(ClusterReplicationTest, UpdateEpochsShipDeltasNotFullImages) {
  ClusterFixture fixture;
  fixture.AddReplica("r1");
  fixture.AddReplica("r2");

  net::Client client = fixture.ConnectTo(fixture.server());
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       client.Release("path", "tree-hld", "live"));
  fixture.AwaitConvergence();
  cluster::ShipStats after_release = fixture.coordinator().ship_stats();
  EXPECT_EQ(after_release.full_frames, 1u);
  EXPECT_EQ(after_release.delta_frames, 0u);
  ASSERT_GT(after_release.full_bytes, 0u);

  constexpr int kEpochs = 3;
  Rng rng(kTestSeed ^ 0xeb0c);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::vector<EdgeWeightDelta> deltas = {
        {static_cast<EdgeId>(rng.UniformInt(0, kNumVertices - 2)),
         rng.Uniform(0.1, 0.9)}};
    ASSERT_OK(client.UpdateWeights(info.handle_id, deltas).status());
  }
  fixture.AwaitConvergence();

  cluster::ShipStats after_epochs = fixture.coordinator().ship_stats();
  // Byte accounting: the epochs traveled as deltas only — no further
  // full image crossed the wire, and the deltas together moved fewer
  // bytes than the one full image did.
  EXPECT_EQ(after_epochs.full_frames, after_release.full_frames);
  EXPECT_EQ(after_epochs.delta_frames,
            after_release.delta_frames + kEpochs);
  EXPECT_LT(after_epochs.delta_bytes, after_epochs.full_bytes);
  for (ReplicaNode& node : fixture.replicas()) {
    EXPECT_GE(node.replica->deltas_applied(),
              static_cast<uint64_t>(kEpochs));
  }
  ExpectBitIdentical(fixture, info.handle_id, kTestSeed ^ 0xde17a,
                     "post-epoch tree-hld");
}

// ---------------------------------------------------- late joiners --

TEST(ClusterReplicationTest, LateJoinerCatchesUpThroughDeltaReplay) {
  ClusterFixture fixture;
  net::Client client = fixture.ConnectTo(fixture.server());
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       client.Release("path", "tree-hld", "live"));
  constexpr int kEpochs = 4;
  Rng rng(kTestSeed ^ 0x1a7e);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::vector<EdgeWeightDelta> deltas = {
        {static_cast<EdgeId>(rng.UniformInt(0, kNumVertices - 2)),
         rng.Uniform(0.1, 0.9)}};
    ASSERT_OK(client.UpdateWeights(info.handle_id, deltas).status());
  }

  // The replica joins AFTER the release and all four epochs: catch-up
  // must replay the base chunk plus the logged deltas, not one frame per
  // live broadcast (there were none for this subscriber).
  ReplicaNode& joiner = fixture.AddReplica("late");
  fixture.AwaitConvergence();
  EXPECT_EQ(joiner.replica->full_installs(), 1u);
  EXPECT_GE(joiner.replica->deltas_applied(),
            static_cast<uint64_t>(kEpochs));
  EXPECT_GE(joiner.replica->coordinator_lsn(),
            static_cast<uint64_t>(1 + kEpochs));
  ExpectBitIdentical(fixture, info.handle_id, kTestSeed ^ 0x10af,
                     "late joiner");
}

// ----------------------------------- coordinators over existing handles --

TEST(ClusterReplicationTest, CoordinatorStartedAfterReleasesShipsThem) {
  // Both handles exist before the coordinator hooks in, so no epoch after
  // its Start carries them: Start itself must ship them, the build-once
  // one included.
  ClusterFixture fixture(1e9, /*persistence_dir=*/"",
                         /*start_coordinator=*/false);
  net::Client client = fixture.ConnectTo(fixture.server());
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo updatable,
                       client.Release("path", "tree-hld", "updatable"));
  ASSERT_OK_AND_ASSIGN(
      net::ReleaseInfo build_once,
      client.Release("path", "per-pair-laplace", "build-once"));
  fixture.StartCoordinator();
  ReplicaNode& node = fixture.AddReplica("r1");
  fixture.AwaitConvergence(5000);
  EXPECT_EQ(node.server->stats().open_handles, 2u);
  ExpectBitIdentical(fixture, updatable.handle_id, kTestSeed ^ 0xea21,
                     "tree-hld released before Start");
  ExpectBitIdentical(fixture, build_once.handle_id, kTestSeed ^ 0xea22,
                     "per-pair-laplace released before Start");
}

TEST(ClusterReplicationTest, WarmRestartedCoordinatorShipsRecoveredHandles) {
  std::string dir = ::testing::TempDir() + "dpsp_cluster_XXXXXX";
  ASSERT_NE(mkdtemp(dir.data()), nullptr);
  {
    // First life: a persistent standalone node releases, then stops.
    ClusterFixture first(1e9, dir, /*start_coordinator=*/false);
    net::Client client = first.ConnectTo(first.server());
    ASSERT_OK(client.Release("path", "tree-hld", "durable").status());
  }
  // Second life: the handle is recovered at Start, before the coordinator
  // exists.
  ClusterFixture fixture(1e9, dir);
  ASSERT_EQ(fixture.server().stats().recovered_handles, 1u);
  fixture.AddReplica("r1");
  fixture.AwaitConvergence(5000);
  ExpectBitIdentical(fixture, 0, kTestSeed ^ 0x4e57, "recovered tree-hld");
}

// ------------------------------------------------------ idle dialers --

TEST(ClusterReplicationTest, IdleDialersCannotDelayASubscription) {
  ClusterFixture fixture;
  net::Client client = fixture.ConnectTo(fixture.server());
  ASSERT_OK(client.Release("path", "tree-hld", "live").status());
  // Three connections to the port replicas subscribe on, each sending
  // nothing. Each holds only its own connection thread.
  std::vector<net::Socket> idle;
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(
        net::Socket socket,
        net::Connect("127.0.0.1", fixture.coordinator().replication_port()));
    idle.push_back(std::move(socket));
  }
  fixture.AddReplica("r1");
  fixture.AwaitConvergence(/*timeout_ms=*/1000);
}

// ------------------------------------------------ failure injection --

TEST(ClusterReplicationTest, InstallFailureForcesACleanResync) {
  ClusterFixture fixture;
  net::Client client = fixture.ConnectTo(fixture.server());
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       client.Release("path", "tree-hld", "live"));
  ReplicaNode& node = fixture.AddReplica("r1");
  fixture.AwaitConvergence();

  // Arm the delta-install site: the next epoch's install fails, the
  // replica must reset to LSN 0, resubscribe, and converge through a
  // fresh full resync — serving never stops.
  SetFailpoint(failpoints::kClusterInstallDelta, FailpointAction::kError);
  std::vector<EdgeWeightDelta> deltas = {{7, 0.42}};
  ASSERT_OK(client.UpdateWeights(info.handle_id, deltas).status());
  // Wait for the failure to be observed, then disarm so the retry lands.
  for (int i = 0; i < 500 && node.replica->resyncs() == 0; ++i) {
    usleep(10000);
  }
  ClearFailpoint(failpoints::kClusterInstallDelta);
  EXPECT_GE(node.replica->resyncs(), 1u);
  fixture.AwaitConvergence();
  ExpectBitIdentical(fixture, info.handle_id, kTestSeed ^ 0xf41,
                     "post-resync");
}

TEST(ClusterReplicationTest, SigkilledMidInstallReplicaResubscribesCleanly) {
  ClusterFixture fixture;
  net::Client client = fixture.ConnectTo(fixture.server());
  ASSERT_OK(client.Release("path", "tree-hld", "live").status());

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: a replica whose snapshot install SIGKILLs on the spot —
    // power loss mid-install. No gtest machinery may run in here.
    SetFailpoint(failpoints::kClusterInstallSnapshot,
                 FailpointAction::kCrash);
    Workload workload = MakeWorkload();
    auto* server = new net::QueryServer(net::QueryServerOptions{});
    if (!server->AddWorkload("path", workload.graph,
                             workload.weights).ok()) {
      _exit(40);
    }
    if (!server->Start().ok()) _exit(41);
    cluster::ReplicaOptions options;
    options.coordinator_port = fixture.server().port();
    options.name = "doomed";
    auto* replica = new cluster::Replica(options, server);
    if (!replica->Start().ok()) _exit(43);
    // The catch-up chunk arrives within moments and kills us.
    for (int i = 0; i < 500; ++i) usleep(10000);
    _exit(42);  // the armed site was never evaluated
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus)) << "exit code "
                                    << WEXITSTATUS(wstatus);
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

  // The coordinator shrugs off the dead session: a fresh replica
  // subscribes and converges to bit-identical state.
  ReplicaNode& fresh = fixture.AddReplica("fresh");
  fixture.AwaitConvergence();
  EXPECT_GE(fresh.replica->full_installs(), 1u);
  ExpectBitIdentical(fixture, 0, kTestSeed ^ 0x51f, "post-crash joiner");
}

// ------------------------------------------------- budget isolation --

TEST(ClusterReplicationTest, BudgetIsChargedExactlyOnceOnTheCoordinator) {
  // The reference: the same release + epochs on a standalone node.
  PrivacyParams spent_reference;
  {
    Workload workload = MakeWorkload();
    ReleaseContext ctx =
        ReleaseContext::Create(kParams, kClusterSeed).value();
    ctx.SetTotalBudget(PrivacyParams{1e9, 0.5, 1.0});
    net::QueryServer standalone(net::QueryServerOptions{}, std::move(ctx));
    ASSERT_OK(standalone.AddWorkload("path", workload.graph,
                                     workload.weights));
    ASSERT_OK(standalone.Start());
    net::Client client =
        net::Client::Connect("127.0.0.1", standalone.port()).value();
    ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                         client.Release("path", "tree-hld", "live"));
    std::vector<EdgeWeightDelta> deltas = {{3, 0.77}};
    ASSERT_OK(client.UpdateWeights(info.handle_id, deltas).status());
    standalone.Stop();
    spent_reference = standalone.context().SpentTotal();
  }

  // The same work on a coordinator with two replicas attached.
  ClusterFixture fixture;
  fixture.AddReplica("r1");
  fixture.AddReplica("r2");
  net::Client client = fixture.ConnectTo(fixture.server());
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       client.Release("path", "tree-hld", "live"));
  std::vector<EdgeWeightDelta> deltas = {{3, 0.77}};
  ASSERT_OK(client.UpdateWeights(info.handle_id, deltas).status());
  fixture.AwaitConvergence();

  // Queries on the replicas are free: hammer them, then compare ledgers.
  for (ReplicaNode& node : fixture.replicas()) {
    net::Client replica_client = fixture.ConnectTo(*node.server);
    ASSERT_OK(
        replica_client.Query(info.handle_id, SamplePairs(200, kTestSeed))
            .status());
  }
  PrivacyParams spent_cluster = fixture.server().context().SpentTotal();
  EXPECT_DOUBLE_EQ(spent_cluster.epsilon, spent_reference.epsilon);
  EXPECT_DOUBLE_EQ(spent_cluster.delta, spent_reference.delta);

  // Replicas hold no ledger at all: their stats report a replica role
  // with zero accounting, and a release attempt is typed kUnsupported.
  for (ReplicaNode& node : fixture.replicas()) {
    ASSERT_TRUE(node.server->replica_mode());
    net::ServerStats stats = node.server->stats();
    EXPECT_EQ(stats.role, static_cast<uint16_t>(net::NodeRole::kReplica));
    EXPECT_EQ(stats.spent_epsilon, 0.0);
    net::Client replica_client = fixture.ConnectTo(*node.server);
    Result<net::ReleaseInfo> refused =
        replica_client.Release("path", "exact", "sneaky");
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
    ASSERT_TRUE(replica_client.last_error().has_value());
    EXPECT_EQ(replica_client.last_error()->kind,
              net::ErrorKind::kUnsupported);
    // The refusal is a routing answer, not an admission event.
    EXPECT_EQ(node.server->stats().budget_rejected, 0u);
  }
  // The coordinator aggregates its read tier in Stats. The query
  // counters ride the replicas' periodic idle acks; poll for them.
  net::ServerStats coordinator_stats = fixture.server().stats();
  for (int i = 0; i < 500 && coordinator_stats.replica_queries_served < 2;
       ++i) {
    usleep(10000);
    coordinator_stats = fixture.server().stats();
  }
  EXPECT_EQ(coordinator_stats.role,
            static_cast<uint16_t>(net::NodeRole::kCoordinator));
  EXPECT_EQ(coordinator_stats.num_replicas, 2u);
  EXPECT_GE(coordinator_stats.replica_queries_served, 2u);
}

}  // namespace
}  // namespace dpsp
