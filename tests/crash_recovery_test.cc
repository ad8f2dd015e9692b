// The crash-recovery harness: fork a child, SIGKILL it at every
// registered failpoint mid-durability-operation (no destructors, no
// flushes — exactly power loss), then recover in the parent and assert
// the crash-safety invariants:
//
//   * the ledger is monotone — every charge durably committed before the
//     crash is recovered, and an unresolved intent recovers as SPENT
//     (double-charged, never resurrected);
//   * partial snapshots are never published — the target path either
//     does not exist or validates completely;
//   * state published before the crash survives bit-identically;
//   * the error-injection flavor of every site surfaces as a Status.
//
// A full-stack leg runs a persistent QueryServer in the child, kills it
// mid-release, warm-restarts in the parent, and requires the recovered
// handle to answer bit-identically to the distances the child recorded
// before dying.

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/random.h"
#include "dp/release_context.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "store/oracle_store.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "test_util.h"

namespace dpsp {
namespace {

std::string MakeTempDir() {
  std::string path = ::testing::TempDir() + "dpsp_crash_XXXXXX";
  EXPECT_NE(mkdtemp(path.data()), nullptr);
  return path;
}

/// The child's durability workload: one WAL charge then one snapshot
/// write, traversing every registered failpoint site in a fixed order.
/// With a crash armed, the process dies at the armed site; the sequence
/// after it never runs.
void RunCrashWorkload(const std::string& dir, uint64_t next_lsn) {
  auto wal = store::BudgetWal::Open(dir + "/budget.wal", next_lsn);
  if (!wal.ok()) _exit(10);
  Result<uint64_t> intent =
      (*wal)->AppendIntent("crash-op", PrivacyLoss::Pure(0.5));
  if (!intent.ok()) _exit(11);
  if (!(*wal)->AppendCommit(*intent).ok()) _exit(12);
  std::vector<ReleasedSection> sections = {{"payload", {9, 9, 9, 9}}};
  if (!store::WriteSnapshot(dir + "/crash.snap", sections).ok()) _exit(13);
}

/// Forks, arms `failpoint` as a crash in the child, runs the workload,
/// and asserts the child died by SIGKILL (exit code 42 = site never
/// reached, a dead failpoint).
void CrashChildAt(const char* failpoint, const std::string& dir,
                  uint64_t next_lsn) {
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    SetFailpoint(failpoint, FailpointAction::kCrash);
    RunCrashWorkload(dir, next_lsn);
    _exit(42);  // the armed site was never evaluated
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << failpoint << ": child exited with "
      << (WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1)
      << " instead of crashing";
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL) << failpoint;
}

TEST(CrashRecoveryTest, EveryFailpointRecoversWithInvariantsIntact) {
  for (const char* failpoint : failpoints::kAll) {
    SCOPED_TRACE(failpoint);
    const std::string dir = MakeTempDir();
    const std::string wal_path = dir + "/budget.wal";

    // Durable pre-crash state: one committed charge, one published
    // snapshot. Both must survive whatever the crash does.
    uint64_t next_lsn = 1;
    {
      ASSERT_OK_AND_ASSIGN(auto wal, store::BudgetWal::Open(wal_path, 1));
      ASSERT_OK_AND_ASSIGN(uint64_t lsn,
                           wal->AppendIntent("base", PrivacyLoss::Pure(1.0)));
      ASSERT_OK(wal->AppendCommit(lsn));
      next_lsn = lsn + 1;
    }
    std::vector<ReleasedSection> published = {{"payload", {1, 2, 3}}};
    ASSERT_OK(store::WriteSnapshot(dir + "/published.snap", published));

    CrashChildAt(failpoint, dir, next_lsn);

    // Invariant: a crash artifact never hard-fails WAL replay.
    ASSERT_OK_AND_ASSIGN(store::WalRecovery recovery,
                         store::ReplayBudgetWal(wal_path));

    // Invariant: the ledger is monotone — the committed pre-crash charge
    // is always there, and replaying into a fresh accountant never
    // yields LESS spend than was committed before the crash.
    ASSERT_GE(recovery.charges.size(), 1u);
    EXPECT_EQ(recovery.charges[0].label, "base");
    EXPECT_TRUE(recovery.charges[0].committed);
    ASSERT_OK_AND_ASSIGN(ReleaseContext ledger,
                         ReleaseContext::Create({1.0, 0.0, 1.0}, kTestSeed));
    ASSERT_OK(store::ApplyWalRecovery(recovery, ledger));
    EXPECT_GE(ledger.SpentTotal().epsilon, 1.0);

    // Site-specific ledger shape: intents at or after the kill site are
    // spent-or-absent, never resurrected.
    const std::string site(failpoint);
    if (site == failpoints::kWalBeforeIntent) {
      EXPECT_EQ(recovery.charges.size(), 1u);  // crash before any write
    } else if (site == failpoints::kWalAfterIntent ||
               site == failpoints::kWalBeforeCommit) {
      ASSERT_EQ(recovery.charges.size(), 2u);
      EXPECT_EQ(recovery.charges[1].label, "crash-op");
      EXPECT_FALSE(recovery.charges[1].committed);
      EXPECT_GE(ledger.SpentTotal().epsilon, 1.5);  // intent is spent
    } else {
      // kWalAfterCommit and both snapshot sites: the charge completed.
      ASSERT_EQ(recovery.charges.size(), 2u);
      EXPECT_TRUE(recovery.charges[1].committed);
      EXPECT_GE(ledger.SpentTotal().epsilon, 1.5);
    }

    // Invariant: the crashed snapshot write never published a partial
    // file — the path is absent (both snapshot sites precede the
    // rename), and only WAL-site crashes leave it absent too (the
    // workload dies before reaching the snapshot step).
    Result<store::SnapshotReader> crashed =
        store::SnapshotReader::Open(dir + "/crash.snap");
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kNotFound);

    // Invariant: pre-crash published state is untouched.
    ASSERT_OK_AND_ASSIGN(store::SnapshotReader ok_reader,
                         store::SnapshotReader::Open(dir + "/published.snap"));
    const ReleasedSectionView* view = ok_reader.Find("payload");
    ASSERT_NE(view, nullptr);
    ASSERT_EQ(view->bytes.size(), 3u);
    EXPECT_EQ(view->bytes[0], 1);
    EXPECT_EQ(view->bytes[2], 3);
  }
}

TEST(CrashRecoveryTest, ErrorInjectionSurfacesAsStatusAtEverySite) {
  // The kError flavor: the same sites must turn into clean Status
  // failures with the process intact and no partial publication.
  for (const char* failpoint : failpoints::kAll) {
    SCOPED_TRACE(failpoint);
    const std::string dir = MakeTempDir();
    SetFailpoint(failpoint, FailpointAction::kError);
    const std::string site(failpoint);

    ASSERT_OK_AND_ASSIGN(auto wal,
                         store::BudgetWal::Open(dir + "/budget.wal", 1));
    Result<uint64_t> intent =
        wal->AppendIntent("op", PrivacyLoss::Pure(0.5));
    if (site == failpoints::kWalBeforeIntent ||
        site == failpoints::kWalAfterIntent) {
      EXPECT_FALSE(intent.ok());
      EXPECT_EQ(intent.status().code(), StatusCode::kInternal);
    } else {
      ASSERT_OK(intent.status());
      Status commit = wal->AppendCommit(*intent);
      if (site == failpoints::kWalBeforeCommit ||
          site == failpoints::kWalAfterCommit) {
        EXPECT_FALSE(commit.ok());
      } else {
        ASSERT_OK(commit);
        std::vector<ReleasedSection> sections = {{"payload", {1}}};
        Status snap = store::WriteSnapshot(dir + "/a.snap", sections);
        EXPECT_FALSE(snap.ok());
        // The failed write must not publish OR leave its temp file.
        EXPECT_NE(access((dir + "/a.snap").c_str(), F_OK), 0);
        EXPECT_NE(access((dir + "/a.snap.tmp").c_str(), F_OK), 0);
      }
    }
    ClearAllFailpoints();
  }
}

// ------------------------------------------------------ full-stack leg --

constexpr int kNumVertices = 16;

std::vector<VertexPair> AllPairs(int n) {
  std::vector<VertexPair> pairs;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) pairs.emplace_back(u, v);
  }
  return pairs;
}

std::unique_ptr<net::QueryServer> MakePersistentServer(
    const std::string& dir, const Graph& graph, const EdgeWeights& weights) {
  net::QueryServerOptions options;
  options.persistence_dir = dir;
  ReleaseContext ctx =
      ReleaseContext::Create({1.0, 0.0, 1.0}, kTestSeed).value();
  auto server = std::make_unique<net::QueryServer>(options, std::move(ctx));
  EXPECT_OK(server->AddWorkload("path", graph, weights));
  return server;
}

TEST(CrashRecoveryTest, WarmRestartAfterMidReleaseKillAnswersBitIdentical) {
  const std::string dir = MakeTempDir();
  const std::string expected_path = dir + "/expected.bin";
  Rng rng(kTestSeed);
  ASSERT_OK_AND_ASSIGN(Graph graph, MakePathGraph(kNumVertices));
  EdgeWeights weights = MakeUniformWeights(graph, 0.1, 0.9, &rng);
  const std::vector<VertexPair> pairs = AllPairs(kNumVertices);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // --- child: serve, record the truth durably, die mid-release ---
    std::unique_ptr<net::QueryServer> server =
        MakePersistentServer(dir, graph, weights);
    if (!server->Start().ok()) _exit(20);
    auto client = net::Client::Connect("127.0.0.1", server->port());
    if (!client.ok()) _exit(21);
    auto release = client->Release("path", "tree-hld", "h0");
    if (!release.ok()) _exit(22);
    auto distances = client->Query(release->handle_id, pairs);
    if (!distances.ok()) _exit(23);
    {
      int fd = open(expected_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0644);
      if (fd < 0) _exit(24);
      const size_t bytes = distances->size() * sizeof(double);
      if (write(fd, distances->data(), bytes) !=
          static_cast<ssize_t>(bytes)) _exit(25);
      if (fsync(fd) != 0) _exit(26);
      close(fd);
    }
    // The second release dies between its WAL intent and commit: the
    // canonical torn charge.
    SetFailpoint(failpoints::kWalBeforeCommit, FailpointAction::kCrash);
    (void)client->Release("path", "per-pair-laplace", "h1");
    _exit(42);  // the failpoint never fired
  }

  // --- parent: require the SIGKILL, then warm-restart over the dir ---
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited with "
      << (WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1);
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  std::unique_ptr<net::QueryServer> server =
      MakePersistentServer(dir, graph, weights);
  ASSERT_OK(server->Start());

  // Stats must report the recovery: one reloaded handle, two replayed
  // charges (h0 committed + h1's unresolved intent, spent).
  ASSERT_OK_AND_ASSIGN(net::Client client,
                       net::Client::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(net::ServerStats stats, client.Stats());
  EXPECT_TRUE(stats.warm_restart);
  EXPECT_EQ(stats.recovered_handles, 1u);
  EXPECT_EQ(stats.recovered_charges, 2u);
  EXPECT_EQ(stats.open_handles, 1u);
  // No resurrection: both releases' epsilon stays spent on the ledger.
  EXPECT_EQ(server->context().SpentTotal().epsilon, 2.0);

  // The recovered handle answers bit-identically to the child's record.
  std::vector<double> expected(pairs.size());
  {
    int fd = open(expected_path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    const size_t bytes = expected.size() * sizeof(double);
    ASSERT_EQ(read(fd, expected.data(), bytes),
              static_cast<ssize_t>(bytes));
    close(fd);
  }
  ASSERT_OK_AND_ASSIGN(std::vector<double> recovered,
                       client.Query(0, pairs));
  ASSERT_EQ(recovered.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(recovered[i], expected[i]) << "pair index " << i;
  }

  // The dead release's handle never materialized, but its NAME's budget
  // is spent; re-releasing under a fresh name still works against the
  // recovered ledger, and the recovered handle's name stays taken.
  Result<net::ReleaseInfo> duplicate =
      client.Release("path", "tree-hld", "h0");
  EXPECT_FALSE(duplicate.ok());
  ASSERT_OK(client.Release("path", "per-pair-laplace", "h1-retry").status());
}

}  // namespace
}  // namespace dpsp
