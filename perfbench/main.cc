// The serving benchmark's binary. One invocation runs one workload
// against an in-process deployment and prints, one JSON object per line:
// an environment record, a detail record (failure accounting, the
// correctness gate, workload-specific figures), and last the result line
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
// Usage: perfbench_serve --workload <bulk-query|point-lookup|live-traffic>
//          --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//          [--scale full|tiny]

#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/cpu.h"
#include "common/numa.h"
#include "layers.h"
#include "load.h"
#include "stack.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string work_dir;
};

Args Parse(int argc, char** argv) {
  Args args;
  bool has_workload = false, has_dir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      has_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scale") {
      args.tiny = value == "tiny";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
      has_dir = true;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (!has_workload || !has_dir || args.seconds <= 0) {
    Fail("usage: perfbench_serve --workload <name> --seed <n> --seconds <s> "
         "--trace <0|1> --work-dir <dir> [--scale full|tiny]");
  }
  return args;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void Print(const Json& record) { std::cout << record.Dump() << std::endl; }

void PrintEnvironment(const Args& args, const WorkloadSpec& spec) {
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  Print(Json()
            .Str("record", "environment")
            .Str("workload", spec.name)
            .Int("seed", static_cast<int64_t>(args.seed))
            .Num("seconds", args.seconds)
            .Bool("trace", args.trace)
            .Str("scale", args.tiny ? "tiny" : "full")
            .Int("nproc", nproc)
            .Int("client_threads", spec.clients)
            .Int("executor_threads", nproc)
            .Str("simd_dispatch", dpsp::SimdDispatchDescription())
            .Int("numa_nodes", dpsp::NumaTopologyInfo().num_nodes)
            .Str("compiler", __VERSION__)
            .Str("build_type", PERFBENCH_BUILD_TYPE)
            .Str("persistence_fs", FilesystemOf(args.work_dir))
            .Bool("admission_pacer", false)
            .Int("malloc_mmap_threshold", 256 * 1024)
            .Str("replica_placement",
                 spec.live ? "in-process, shares cores with the coordinator"
                           : "none"));
}

void PrintResult(uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  Json values;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) Fail("metric " + m.name + " is not finite");
    values.Obj(m.name, Json().Num("value", m.value).Str("unit", m.unit));
  }
  Print(Json()
            .Bool("correct", true)
            .Int("attempted", static_cast<int64_t>(attempted))
            .Int("failed", static_cast<int64_t>(failed))
            .Obj("metrics", values));
}

/// Latency percentile over successes and failures (+inf); a percentile
/// that lands on a failure is undefined and fails the run.
double FiniteLatency(const std::vector<double>& samples, double q,
                     const char* what) {
  double v = Percentile(samples, q);
  if (!std::isfinite(v)) {
    Fail(std::string(what) + ": too few successful requests for the percentile");
  }
  return v;
}

/// The timed window's end-to-end query figures. Throughput and p50 are
/// medians over the phases, so a transient stall of the host or an
/// unlucky thread placement moves one phase, not the result. p99 is taken
/// per group of phases holding at least 1000 queries (ten beyond each
/// p99), then the median over the groups.
struct WindowSummary {
  double pairs_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Quantile of the queries phases [lo, hi) sent to `endpoint` (-1 = all);
/// one that lands on a failed request is undefined and fails the run.
double QueryQuantile(const std::vector<LoadResult>& phases, double q,
                     size_t lo, size_t hi, int endpoint) {
  std::vector<WeightedSample> samples;
  for (size_t p = lo; p < hi; ++p) {
    for (const LatencyStore& store : phases[p].latency) {
      store.Collect(endpoint, &samples);
    }
  }
  const double v = WeightedQuantile(std::move(samples), q);
  if (!std::isfinite(v)) {
    Fail("query latency: too few successful requests for the percentile");
  }
  return v;
}

uint64_t LatencySamples(const std::vector<LoadResult>& phases) {
  uint64_t n = 0;
  for (const LoadResult& p : phases) {
    for (const LatencyStore& store : p.latency) n += store.seen();
  }
  return n;
}

WindowSummary Summarize(const std::vector<LoadResult>& phases) {
  const size_t n = phases.size();
  std::vector<double> rates, p50s, p99s;
  for (size_t p = 0; p < n; ++p) {
    rates.push_back(static_cast<double>(phases[p].pairs) / phases[p].seconds);
    p50s.push_back(QueryQuantile(phases, 0.5, p, p + 1, -1));
  }
  const size_t groups = std::clamp<size_t>(LatencySamples(phases) / 1000, 1, n);
  for (size_t g = 0; g < groups; ++g) {
    p99s.push_back(
        QueryQuantile(phases, 0.99, g * n / groups, (g + 1) * n / groups, -1));
  }
  return {Median(rates), Median(p50s), Median(p99s)};
}

/// p50 / p99 / p99.9 of the queries one endpoint served; on the live
/// coordinator the p99.9 is where the update epochs' writer lock shows.
Json EndpointPercentiles(const std::vector<LoadResult>& phases, int endpoint) {
  return Json()
      .Num("p50", QueryQuantile(phases, 0.5, 0, phases.size(), endpoint))
      .Num("p99", QueryQuantile(phases, 0.99, 0, phases.size(), endpoint))
      .Num("p999", QueryQuantile(phases, 0.999, 0, phases.size(), endpoint));
}

Json QueryAccounting(const std::vector<LoadResult>& phases) {
  const LoadResult t = Totals(phases);
  return Json()
      .Int("attempted", static_cast<int64_t>(t.attempted))
      .Int("succeeded", static_cast<int64_t>(t.succeeded))
      .Int("failed", static_cast<int64_t>(t.failed))
      .Int("latency_samples", static_cast<int64_t>(LatencySamples(phases)))
      .Int("client_retries", static_cast<int64_t>(t.client_retries))
      .Int("overload_rejected", static_cast<int64_t>(t.overload_rejected));
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

/// Verifies the per-batch gate of read-only load phases.
uint64_t RequireVerified(const WorkloadSpec& spec, const LoadResult& totals) {
  if (totals.mismatches > 0) {
    Fail("correctness gate: " + std::to_string(totals.mismatches) +
         " wire answers differ from the same-seed local release");
  }
  if (totals.verified_batches == 0) Fail("correctness gate did not run");
  return totals.verified_batches * static_cast<uint64_t>(spec.pairs_per_batch);
}

/// Runs the correctness gate after the load; returns pairs compared.
uint64_t RunGate(const WorkloadSpec& spec, const Inputs& inputs, Stack& stack,
                 Reference& ref, const LoadResult& totals) {
  return spec.live ? CheckLiveGate(inputs, stack, ref, totals.applied_epochs)
                   : RequireVerified(spec, totals);
}

void RunEndToEnd(const Args& args, const WorkloadSpec& spec) {
  // Set-up is repeated (at least 5 times and 2 s, at most 40 times) and
  // its median reported; only the last stack serves the load.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  std::unique_ptr<Stack> stack;
  std::optional<Inputs> held;
  for (int rep = 0; rep < (args.tiny ? 2 : 40); ++rep) {
    if (!args.tiny && rep >= 5 && setup_total_s >= 2.0) break;
    stack.reset();
    held.reset();
    Clock::time_point start = Clock::now();
    held.emplace(MakeInputs(spec, args.seed));
    stack = Stack::Start(spec, *held, args.seed,
                         args.work_dir + "/setup-" + std::to_string(rep));
    setup_s.push_back(MsSince(start) / 1e3);
    setup_total_s += setup_s.back();
  }
  const Inputs& inputs = *held;
  std::unique_ptr<Reference> ref =
      BuildReference(spec, inputs, args.seed, !spec.live);

  LoadOptions options;
  options.warmup_s = args.tiny ? 0.2 : 1.0;
  options.seconds = args.seconds;
  options.verify = !spec.live;
  options.epochs = spec.epochs;
  const std::vector<LoadResult> phases =
      RunLoad(spec, inputs, *stack, *ref, options);
  const LoadResult r = Totals(phases);
  const uint64_t gate_pairs = RunGate(spec, inputs, *stack, *ref, r);

  const uint64_t attempted = r.attempted + r.epochs_attempted;
  const uint64_t failed = r.failed + r.epochs_failed + r.epochs_refused;
  Json detail;
  detail.Str("record", "detail")
      .Obj("correctness_gate",
           Json()
               .Str("kind", spec.live ? "replica == coordinator == local "
                                        "replay, after the window"
                                      : "every wire answer == same-seed "
                                        "local BatchExecutor")
               .Int("pairs_checked", static_cast<int64_t>(gate_pairs))
               .Bool("ran", true)
               .Bool("passed", true))
      .Obj("queries", QueryAccounting(phases))
      .Num("failed_op_share",
           static_cast<double>(failed) / static_cast<double>(attempted))
      .Int("phases", options.phases)
      .Raw("setup_samples_s", JsonList(setup_s));
  if (spec.live) {
    dpsp::cluster::Replica& replica = *stack->replica();
    detail
        .Obj("epochs",
             Json()
                 .Int("attempted", static_cast<int64_t>(r.epochs_attempted))
                 .Int("succeeded", static_cast<int64_t>(r.epochs_ok))
                 .Int("refused", static_cast<int64_t>(r.epochs_refused))
                 .Int("failed", static_cast<int64_t>(r.epochs_failed))
                 .Int("deltas_per_epoch", spec.deltas_per_epoch)
                 .Num("interval_ms", r.epoch_interval_ms)
                 .Num("charged_eps_total", r.charged_eps))
        .Num("update_p50_ms", FiniteLatency(r.update_ms, 0.5, "update"))
        .Num("update_p90_ms", FiniteLatency(r.update_ms, 0.9, "update"))
        .Int("update_samples", static_cast<int64_t>(r.update_ms.size()))
        .Num("replica_lag_p50_ms", FiniteLatency(r.lag_ms, 0.5, "lag"))
        .Int("replica_lag_samples", static_cast<int64_t>(r.lag_ms.size()))
        .Num("generator_late_p50_ms", Median(r.send_late_ms))
        .Num("generator_late_max_ms",
             *std::max_element(r.send_late_ms.begin(), r.send_late_ms.end()))
        .Obj("query_ms_by_endpoint",
             Json()
                 .Obj("coordinator", EndpointPercentiles(phases, 0))
                 .Obj("replica", EndpointPercentiles(phases, 1)))
        .Obj("replica",
             Json()
                 .Int("deltas_applied",
                      static_cast<int64_t>(replica.deltas_applied()))
                 .Int("full_installs",
                      static_cast<int64_t>(replica.full_installs()))
                 .Int("resyncs", static_cast<int64_t>(replica.resyncs())));
  }
  Print(detail);

  const WindowSummary window = Summarize(phases);
  std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"query_pairs_per_s", window.pairs_per_s, "1/s"},
      {"query_p50_ms", window.p50_ms, "ms"},
      {"query_p99_ms", window.p99_ms, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  stack.reset();
  PrintResult(attempted, failed, metrics);
}

void RunTraced(const Args& args, const WorkloadSpec& spec) {
  const Inputs inputs = MakeInputs(spec, args.seed);
  std::unique_ptr<Stack> stack =
      Stack::Start(spec, inputs, args.seed, args.work_dir + "/setup-0");
  std::unique_ptr<Reference> ref =
      BuildReference(spec, inputs, args.seed, !spec.live);

  // The same load twice: untraced, then with a span per request. The two
  // query p50s give the tracing overhead.
  LoadOptions options;
  options.warmup_s = args.tiny ? 0.2 : 1.0;
  options.seconds = args.seconds * 0.4;
  options.phases = 2;
  options.verify = !spec.live;
  options.epochs = static_cast<int>(spec.epochs * 0.4);
  const std::vector<LoadResult> untraced =
      RunLoad(spec, inputs, *stack, *ref, options);
  options.spans = true;
  options.epoch_offset = static_cast<size_t>(options.epochs);
  const std::vector<LoadResult> traced =
      RunLoad(spec, inputs, *stack, *ref, options);

  Json detail;
  detail.Str("record", "detail");
  std::vector<Metric> metrics;
  MeasureCoreAndServe(spec, inputs, *ref, &metrics, &detail);
  MeasureNet(spec, inputs, *stack, *ref, &metrics, &detail);
  MeasureStore(spec, inputs, args.seed, args.work_dir, &metrics);
  MeasureWritePath(args.seed, args.tiny, &metrics, &detail);
  const double untraced_p50 = Summarize(untraced).p50_ms;
  std::vector<double> span_ms;
  for (const LoadResult& p : traced) {
    for (const Span& s : p.spans) span_ms.push_back(MsBetween(s.start, s.end));
  }
  const double traced_p50 = FiniteLatency(span_ms, 0.5, "traced query");
  metrics.push_back({"trace.overhead_ratio", traced_p50 / untraced_p50, "x"});

  std::vector<LoadResult> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  const LoadResult totals = Totals(all);
  const uint64_t gate_pairs = RunGate(spec, inputs, *stack, *ref, totals);
  detail
      .Obj("correctness_gate",
           Json()
               .Int("pairs_checked", static_cast<int64_t>(gate_pairs))
               .Bool("ran", true)
               .Bool("passed", true))
      .Obj("queries_untraced", QueryAccounting(untraced))
      .Obj("queries_traced", QueryAccounting(traced))
      .Num("untraced_query_p50_ms", untraced_p50)
      .Num("traced_query_p50_ms", traced_p50)
      .Int("spans", static_cast<int64_t>(span_ms.size()));
  Print(detail);
  stack.reset();
  PrintResult(totals.attempted + totals.epochs_attempted,
              totals.failed + totals.epochs_failed + totals.epochs_refused,
              metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Image-sized buffers are mmapped and unmapped instead of being retained
  // in malloc arenas, so peak RSS follows the live copies of a release
  // rather than allocator timing.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  const Args args = Parse(argc, argv);
  const WorkloadSpec spec = SpecFor(args.workload, args.tiny);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) Fail("cannot create work dir " + args.work_dir);
  PrintEnvironment(args, spec);
  if (args.trace) {
    RunTraced(args, spec);
  } else {
    RunEndToEnd(args, spec);
  }
  return 0;
}
