// Crash-recovery demo: a persistent QueryServer survives a kill -9.
//
// Phase 1 forks a child curator that releases an oracle over a road-like
// workload, records its answers, then dies by SIGKILL mid-way through a
// second release — after the budget intent hits the WAL, before the
// commit (the worst-ordered crash: spent budget, no visible output).
// Phase 2 warm-restarts a fresh server over the same persistence
// directory and verifies the recovery invariants: the handle serves
// immediately with bit-identical answers, the ledger charges BOTH
// releases (an unresolved intent is spent, never resurrected), and the
// stats frame reports the restart as recovered rather than fresh.
//
// Also serves as the CI crash-recovery smoke test: it exercises
// WAL replay -> snapshot reload -> serve end to end and exits non-zero
// if any invariant fails.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
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

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "invariant FAILED: %s\n", what);
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace dpsp;

  std::string dir = "/tmp/dpsp_warm_restart_XXXXXX";
  Require(mkdtemp(dir.data()) != nullptr, "mkdtemp");
  const std::string expected_path = dir + "/expected.bin";

  const int n = 512;
  Rng rng(2016);
  Graph graph = OrDie(MakePathGraph(n));
  EdgeWeights weights = MakeUniformWeights(graph, 0.2, 1.8, &rng);
  std::vector<VertexPair> pairs;
  for (VertexId u = 0; u < n; u += 7) {
    for (VertexId v = 0; v < n; v += 13) pairs.emplace_back(u, v);
  }

  auto make_server = [&] {
    net::QueryServerOptions options;
    options.persistence_dir = dir;
    ReleaseContext ctx =
        ReleaseContext::Create({1.0, 0.0, 1.0}, /*seed=*/2016).value();
    auto server = std::make_unique<net::QueryServer>(options,
                                                     std::move(ctx));
    OrDie(server->AddWorkload("roads", graph, weights));
    OrDie(server->Start());
    return server;
  };

  // ---- phase 1: the curator that will not survive ----------------------
  std::printf("phase 1: child curator releases, records, dies (kill -9)\n");
  pid_t pid = fork();
  Require(pid >= 0, "fork");
  if (pid == 0) {
    std::unique_ptr<net::QueryServer> server = make_server();
    net::Client client =
        OrDie(net::Client::Connect("127.0.0.1", server->port()));
    net::ReleaseInfo release =
        OrDie(client.Release("roads", "tree-hld", "roads-main"));
    std::vector<double> answers = OrDie(client.Query(release.handle_id,
                                                     pairs));
    int fd = open(expected_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                  0644);
    Require(fd >= 0, "open expected.bin");
    const size_t bytes = answers.size() * sizeof(double);
    Require(write(fd, answers.data(), bytes) ==
                static_cast<ssize_t>(bytes), "write expected.bin");
    Require(fsync(fd) == 0, "fsync expected.bin");
    close(fd);
    // Die between the WAL intent and commit of the second release —
    // exactly like power loss mid-build.
    SetFailpoint(failpoints::kWalBeforeCommit, FailpointAction::kCrash);
    (void)client.Release("roads", "per-pair-laplace", "roads-aux");
    std::fprintf(stderr, "failpoint never fired\n");
    _exit(1);
  }
  int wstatus = 0;
  Require(waitpid(pid, &wstatus, 0) == pid, "waitpid");
  Require(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL,
          "child died by SIGKILL");
  std::printf("  child killed mid-release (intent logged, no commit)\n");

  // ---- phase 2: warm restart over the same directory -------------------
  std::printf("phase 2: warm restart over %s\n", dir.c_str());
  std::unique_ptr<net::QueryServer> server = make_server();
  net::Client client =
      OrDie(net::Client::Connect("127.0.0.1", server->port()));
  net::ServerStats stats = OrDie(client.Stats());
  Require(stats.warm_restart, "stats report a warm restart");
  Require(stats.recovered_handles == 1, "one handle recovered");
  Require(stats.recovered_charges == 2,
          "two charges replayed (one an unresolved intent)");
  std::printf("  recovered %u handle(s), %llu ledger charge(s)\n",
              stats.recovered_handles,
              static_cast<unsigned long long>(stats.recovered_charges));

  const double spent = server->context().SpentTotal().epsilon;
  Require(std::abs(spent - 2.0) < 1e-12,
          "both releases stay spent (no budget resurrection)");
  std::printf("  ledger spend after replay: epsilon = %.1f "
              "(intent-without-commit is spent)\n", spent);

  std::vector<double> expected(pairs.size());
  {
    int fd = open(expected_path.c_str(), O_RDONLY);
    Require(fd >= 0, "open expected.bin");
    const size_t bytes = expected.size() * sizeof(double);
    Require(read(fd, expected.data(), bytes) ==
                static_cast<ssize_t>(bytes), "read expected.bin");
    close(fd);
  }
  std::vector<double> recovered = OrDie(client.Query(0, pairs));
  for (size_t i = 0; i < pairs.size(); ++i) {
    Require(recovered[i] == expected[i],
            "recovered answers bit-identical to pre-crash record");
  }
  std::printf("  %zu recovered answers bit-identical to the pre-crash "
              "record\n", pairs.size());
  std::printf("OK: crash-safe curator recovered cleanly\n");
  return 0;
}
