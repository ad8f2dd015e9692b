// Tests for the replicated read tier: coordinator/replica bit-identity
// across every registered mechanism, delta-only update epochs (byte
// accounting), catch-up from current images (late joiners,
// resubscribers), coordinators started over handles that already exist
// (released earlier or recovered from disk), coordinators that restart
// with fresh or reused LSNs, failed release snapshots, idle dialers on
// the shared query port, ship and install failures, a
// SIGKILLed-mid-install replica resubscribing cleanly, and budget charged
// exactly once on the coordinator no matter how many replicas serve.

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

std::string MakeTempDir() {
  std::string dir = ::testing::TempDir() + "dpsp_cluster_XXXXXX";
  EXPECT_NE(mkdtemp(dir.data()), nullptr);
  return dir;
}

/// Runs `count` one-delta update epochs against `handle_id`.
void RunUpdateEpochs(net::Client& client, uint32_t handle_id, int count,
                     uint64_t seed) {
  Rng rng(seed);
  for (int epoch = 0; epoch < count; ++epoch) {
    std::vector<EdgeWeightDelta> deltas = {
        {static_cast<EdgeId>(rng.UniformInt(0, kNumVertices - 2)),
         rng.Uniform(0.1, 0.9)}};
    ASSERT_OK(client.UpdateWeights(handle_id, deltas).status());
  }
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
  explicit ClusterFixture(const std::string& persistence_dir = "",
                          bool start_coordinator = true)
      : workload_(MakeWorkload()), persistence_dir_(persistence_dir) {
    StartServer(kClusterSeed, /*port=*/0, start_coordinator);
  }

  void StartCoordinator() { EXPECT_OK(coordinator_->Start()); }

  /// Stops the coordinator and its server, then starts their next life
  /// on the same port and persistence directory with a new noise seed.
  /// Replicas keep running and find it by reconnecting.
  void RestartCoordinator(uint64_t seed, bool start_coordinator) {
    const uint16_t port = server_->port();
    coordinator_->Stop();
    server_->Stop();
    coordinator_.reset();
    server_.reset();
    StartServer(seed, port, start_coordinator);
  }

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
  void StartServer(uint64_t seed, uint16_t port, bool start_coordinator) {
    ReleaseContext ctx = ReleaseContext::Create(kParams, seed).value();
    ctx.SetTotalBudget(PrivacyParams{1e9, 0.5, 1.0});
    net::QueryServerOptions server_options;
    server_options.persistence_dir = persistence_dir_;
    server_options.port = port;
    server_ = std::make_unique<net::QueryServer>(server_options,
                                                 std::move(ctx));
    EXPECT_OK(server_->AddWorkload("path", workload_.graph,
                                   workload_.weights));
    EXPECT_OK(server_->Start());
    coordinator_ = std::make_unique<cluster::Coordinator>(
        cluster::CoordinatorOptions{}, server_.get());
    if (start_coordinator) StartCoordinator();
  }

  Workload workload_;
  std::string persistence_dir_;
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
  RunUpdateEpochs(client, info.handle_id, kEpochs, kTestSeed ^ 0xeb0c);
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

TEST(ClusterReplicationTest, LateJoinerCatchesUpFromTheCurrentImage) {
  ClusterFixture fixture;
  net::Client client = fixture.ConnectTo(fixture.server());
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       client.Release("path", "tree-hld", "live"));
  constexpr int kEpochs = 4;
  RunUpdateEpochs(client, info.handle_id, kEpochs, kTestSeed ^ 0x1a7e);

  // The replica joins AFTER the release and all four epochs: catch-up
  // ships the handle's current image once, with no delta replay.
  ReplicaNode& joiner = fixture.AddReplica("late");
  fixture.AwaitConvergence();
  EXPECT_EQ(joiner.replica->full_installs(), 1u);
  EXPECT_EQ(joiner.replica->deltas_applied(), 0u);
  EXPECT_GE(joiner.replica->coordinator_lsn(),
            static_cast<uint64_t>(1 + kEpochs));
  ExpectBitIdentical(fixture, info.handle_id, kTestSeed ^ 0x10af,
                     "late joiner");
}

TEST(ClusterReplicationTest, ResubscribeShipsEveryLiveHandleOnce) {
  ClusterFixture fixture;
  ReplicaNode& node = fixture.AddReplica("r1");
  net::Client client = fixture.ConnectTo(fixture.server());
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo a,
                       client.Release("path", "tree-hld", "a"));
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo b,
                       client.Release("path", "tree-hld", "b"));
  fixture.AwaitConvergence();
  const uint64_t installs = node.replica->full_installs();
  const uint64_t deltas = node.replica->deltas_applied();

  // Two epochs on one handle while the replica is away: its resubscribe
  // gets each live handle's current image once, not the missed deltas.
  node.replica->Stop();
  RunUpdateEpochs(client, a.handle_id, 2, kTestSeed ^ 0x5e5);
  ASSERT_OK(node.replica->Start());
  fixture.AwaitConvergence();
  EXPECT_EQ(node.replica->full_installs(), installs + 2);
  EXPECT_EQ(node.replica->deltas_applied(), deltas);
  ExpectBitIdentical(fixture, a.handle_id, kTestSeed ^ 0x5e6, "updated a");
  ExpectBitIdentical(fixture, b.handle_id, kTestSeed ^ 0x5e7, "untouched b");
}

// ----------------------------------- coordinators over existing handles --

TEST(ClusterReplicationTest, CoordinatorStartedAfterReleasesShipsThem) {
  // Both handles exist before the coordinator hooks in, so no epoch after
  // its Start carries them: the subscription's catch-up must ship them,
  // the build-once one included.
  ClusterFixture fixture(/*persistence_dir=*/"", /*start_coordinator=*/false);
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
  const std::string dir = MakeTempDir();
  {
    // First life: a persistent standalone node releases, then stops.
    ClusterFixture first(dir, /*start_coordinator=*/false);
    net::Client client = first.ConnectTo(first.server());
    ASSERT_OK(client.Release("path", "tree-hld", "durable").status());
  }
  // Second life: the handle is recovered at Start, before the coordinator
  // exists.
  ClusterFixture fixture(dir);
  ASSERT_EQ(fixture.server().stats().recovered_handles, 1u);
  fixture.AddReplica("r1");
  fixture.AwaitConvergence(5000);
  ExpectBitIdentical(fixture, 0, kTestSeed ^ 0x4e57, "recovered tree-hld");
}

/// Gives the replica time to see its session to a stopped coordinator
/// end, after which it claims no epoch until its next catch-up.
void AwaitSessionLoss(ReplicaNode& node) {
  for (int i = 0; i < 500 && node.replica->last_applied_lsn() != 0; ++i) {
    usleep(10000);
  }
}

TEST(ClusterReplicationTest, ReplicaFollowsARestartedCoordinator) {
  // Life 1, without persistence: three releases and three update epochs.
  ClusterFixture fixture;
  ReplicaNode& node = fixture.AddReplica("r1");
  {
    net::Client client = fixture.ConnectTo(fixture.server());
    ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                         client.Release("path", "tree-hld", "live"));
    ASSERT_OK(
        client.Release("path", "per-pair-laplace", "build-once").status());
    ASSERT_OK(client.Release("path", "tree-hld", "life-1 only").status());
    RunUpdateEpochs(client, info.handle_id, 3, kTestSeed ^ 0x11fe);
  }
  fixture.AwaitConvergence();

  // Life 2 starts its LSNs from 0 with new noise, and releases the first
  // two handle ids before its coordinator hooks in. The replica, at life
  // 1's LSN 6, must still install life 2's images and drop the third.
  fixture.RestartCoordinator(kClusterSeed ^ 0x2, /*start_coordinator=*/false);
  AwaitSessionLoss(node);
  net::Client client = fixture.ConnectTo(fixture.server());
  ASSERT_OK(client.Release("path", "tree-hld", "live").status());
  ASSERT_OK(
      client.Release("path", "per-pair-laplace", "build-once").status());
  fixture.StartCoordinator();
  fixture.AwaitConvergence();
  EXPECT_EQ(node.replica->last_applied_lsn(),
            fixture.server().last_epoch_lsn());
  ExpectBitIdentical(fixture, 0, kTestSeed ^ 0x2e1, "life-2 tree-hld");
  ExpectBitIdentical(fixture, 1, kTestSeed ^ 0x2e2,
                     "life-2 per-pair-laplace");
  EXPECT_EQ(node.server->stats().open_handles, 2u);
  net::Client replica_client = fixture.ConnectTo(*node.server);
  Result<std::vector<double>> gone =
      replica_client.Query(2, SamplePairs(4, kTestSeed));
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
}

TEST(ClusterReplicationTest,
     ReplicaFollowsAPersistentCoordinatorThatLostAnEpoch) {
  ClusterFixture fixture(MakeTempDir());
  ReplicaNode& node = fixture.AddReplica("r1");
  {
    net::Client client = fixture.ConnectTo(fixture.server());
    ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                         client.Release("path", "tree-hld", "live"));
    RunUpdateEpochs(client, info.handle_id, 1, kTestSeed ^ 0x105e);
    // Life 1's last epoch applies and replicates, but its snapshot
    // rewrite fails: the file keeps the previous epoch's image.
    SetFailpoint(failpoints::kSnapshotBeforeRename, FailpointAction::kError);
    RunUpdateEpochs(client, info.handle_id, 1, kTestSeed ^ 0x105f);
    ClearFailpoint(failpoints::kSnapshotBeforeRename);
  }
  fixture.AwaitConvergence();
  ASSERT_EQ(node.replica->last_applied_lsn(), 3u);

  // Life 2 recovers the LSN-2 image, and its first epoch reuses LSN 3
  // before its coordinator hooks in.
  fixture.RestartCoordinator(kClusterSeed ^ 0x3, /*start_coordinator=*/false);
  AwaitSessionLoss(node);
  net::Client client = fixture.ConnectTo(fixture.server());
  RunUpdateEpochs(client, 0, 1, kTestSeed ^ 0x1060);
  ASSERT_EQ(fixture.server().last_epoch_lsn(), 3u);
  fixture.StartCoordinator();
  fixture.AwaitConvergence();
  EXPECT_EQ(node.replica->last_applied_lsn(),
            fixture.server().last_epoch_lsn());
  ExpectBitIdentical(fixture, 0, kTestSeed ^ 0x3e1, "life-2 epoch at LSN 3");
}

TEST(ClusterReplicationTest, FailedReleaseSnapshotConsumesNoEpoch) {
  ClusterFixture fixture(MakeTempDir());
  fixture.AddReplica("r1");
  net::Client client = fixture.ConnectTo(fixture.server());
  ASSERT_OK(client.Release("path", "tree-hld", "first").status());
  fixture.AwaitConvergence();
  ASSERT_EQ(fixture.server().last_epoch_lsn(), 1u);

  // The release's snapshot cannot land, so the release is refused: it
  // must take no epoch, which no frame would ever carry to replicas.
  SetFailpoint(failpoints::kSnapshotBeforeRename, FailpointAction::kError);
  Result<net::ReleaseInfo> refused =
      client.Release("path", "tree-hld", "second");
  ClearFailpoint(failpoints::kSnapshotBeforeRename);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(fixture.server().last_epoch_lsn(), 1u);
  fixture.AwaitConvergence(/*timeout_ms=*/2000);
  net::ServerStats stats = fixture.server().stats();
  for (int i = 0; i < 500 && stats.replica_lag != 0; ++i) {
    usleep(10000);
    stats = fixture.server().stats();
  }
  EXPECT_EQ(stats.replica_lag, 0u);

  // The retry takes the next handle id and epoch, and replicates.
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo retried,
                       client.Release("path", "tree-hld", "second"));
  EXPECT_EQ(retried.handle_id, 1u);
  EXPECT_EQ(fixture.server().last_epoch_lsn(), 2u);
  fixture.AwaitConvergence();
  ExpectBitIdentical(fixture, retried.handle_id, kTestSeed ^ 0xfa1,
                     "retried release");
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

TEST(ClusterReplicationTest, ShipFailureDropsSessionsAndReplicasResync) {
  ClusterFixture fixture;
  fixture.AddReplica("r1");
  fixture.AddReplica("r2");
  net::Client client = fixture.ConnectTo(fixture.server());
  ASSERT_OK_AND_ASSIGN(net::ReleaseInfo info,
                       client.Release("path", "tree-hld", "live"));
  fixture.AwaitConvergence();

  // The epoch's delta fails to ship: the coordinator drops every session,
  // and each replica resubscribes and starts again from the current
  // image, so the epoch still reaches it.
  SetFailpoint(failpoints::kClusterShipDelta, FailpointAction::kError);
  RunUpdateEpochs(client, info.handle_id, 1, kTestSeed ^ 0x5417);
  ClearFailpoint(failpoints::kClusterShipDelta);
  fixture.AwaitConvergence();
  for (ReplicaNode& node : fixture.replicas()) {
    EXPECT_EQ(node.replica->full_installs(), 2u);
    EXPECT_EQ(node.replica->deltas_applied(), 0u);
  }
  ExpectBitIdentical(fixture, info.handle_id, kTestSeed ^ 0x5418,
                     "post-ship-failure");
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
