#include "layers.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/cpu.h"
#include "core/oracle_registry.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "serve/handle_image.h"
#include "store/oracle_store.h"
#include "store/snapshot.h"
#include "store/snapshot_delta.h"
#include "store/wal.h"

namespace perfbench {
namespace {

constexpr int kBuildReps = 3;

/// Runs `pass` (one sweep over `pairs` pairs) until at least kMinMs of
/// work and kMinReps sweeps; returns the median ns per pair.
template <typename Pass>
double NsPerPair(size_t pairs, Pass&& pass) {
  constexpr double kMinMs = 300.0;
  constexpr int kMinReps = 5;
  std::vector<double> ms;
  double total = 0.0;
  while (static_cast<int>(ms.size()) < kMinReps || total < kMinMs) {
    Clock::time_point start = Clock::now();
    pass();
    ms.push_back(MsSince(start));
    total += ms.back();
  }
  return Median(std::move(ms)) * 1e6 / static_cast<double>(pairs);
}

size_t PoolPairs(const Inputs& inputs, size_t h) {
  size_t n = 0;
  for (const auto& batch : inputs.batches[h]) n += batch.size();
  return n;
}

/// Serial DistanceInto over handle h's pool, on the calling thread.
double SerialNsPerPair(const Inputs& inputs, const Reference& ref, size_t h) {
  std::vector<double> out(inputs.batches[h][0].size());
  return NsPerPair(PoolPairs(inputs, h), [&] {
    for (const auto& batch : inputs.batches[h]) {
      out.resize(batch.size());
      Must(ref.oracles[h]->DistanceInto(batch, out.data()), "DistanceInto");
    }
  });
}

std::vector<dpsp::ReleasedSection> Sections(const dpsp::DistanceOracle& o) {
  std::vector<dpsp::ReleasedSection> sections;
  Must(o.SaveReleasedState(&sections), "SaveReleasedState");
  return sections;
}

std::vector<dpsp::ReleasedSectionView> Views(
    const std::vector<dpsp::ReleasedSection>& sections) {
  std::vector<dpsp::ReleasedSectionView> views;
  for (const dpsp::ReleasedSection& s : sections) {
    views.push_back({s.label, s.bytes});
  }
  return views;
}

}  // namespace

void MeasureCoreAndServe(const WorkloadSpec& spec, const Inputs& inputs,
                         const Reference& ref, std::vector<Metric>* metrics,
                         Json* detail) {
  // Mean over the workload's handles; each has an equal batch pool.
  double serial = 0.0, scalar = 0.0, executed = 0.0;
  Json per_mechanism;
  const double handles = static_cast<double>(spec.mechanisms.size());
  for (size_t h = 0; h < spec.mechanisms.size(); ++h) {
    double ns = SerialNsPerPair(inputs, ref, h);
    double ns_scalar = 0.0;
    {
      dpsp::ScopedForceScalar force(true);
      ns_scalar = SerialNsPerPair(inputs, ref, h);
    }
    double ns_exec = NsPerPair(PoolPairs(inputs, h), [&] {
      for (const auto& batch : inputs.batches[h]) {
        Must(ref.executor.Execute(*ref.oracles[h], batch), "Execute");
      }
    });
    serial += ns / handles;
    scalar += ns_scalar / handles;
    executed += ns_exec / handles;
    per_mechanism.Obj(spec.mechanisms[h], Json()
                                              .Num("ns_per_pair", ns)
                                              .Num("ns_per_pair_scalar", ns_scalar)
                                              .Num("execute_ns_per_pair", ns_exec));
  }
  metrics->push_back({"core.ns_per_pair", serial, "ns"});
  metrics->push_back({"core.ns_per_pair_scalar", scalar, "ns"});
  metrics->push_back({"serve.execute_ns_per_pair", executed, "ns"});
  metrics->push_back(
      {"serve.shards",
       static_cast<double>(ref.executor.PlannedShardCount(
           static_cast<size_t>(spec.pairs_per_batch))),
       "count"});
  // Base: serial DistanceInto on one thread over the same batches.
  metrics->push_back({"serve.fanout_speedup", serial / executed, "x"});
  detail->Obj("core_by_mechanism", per_mechanism);
}

void MeasureNet(const WorkloadSpec& spec, const Inputs& inputs, Stack& stack,
                const Reference& ref, std::vector<Metric>* metrics,
                Json* detail) {
  namespace net = dpsp::net;
  // The request sequence: every pool batch, alternating handles, capped so
  // small batches get many samples and large ones a few passes.
  struct Request {
    size_t h;
    size_t b;
  };
  std::vector<Request> seq;
  const size_t pool = inputs.batches[0].size();
  const size_t handles = spec.mechanisms.size();
  const size_t count = std::max<size_t>(48, std::min<size_t>(2048, pool * handles));
  for (size_t i = 0; i < count; ++i) {
    seq.push_back({i % handles, (i / handles) % pool});
  }

  // Encoded frames per request, so the echo server can answer each one.
  std::vector<std::vector<uint8_t>> responses;
  for (const Request& r : seq) {
    responses.push_back(net::EncodeQueryResponse(ref.expected.empty()
        ? Must(ref.executor.Execute(*ref.oracles[r.h], inputs.batches[r.h][r.b]),
               "Execute")
        : ref.expected[r.h][r.b]));
  }

  // Loopback echo: reads each request frame and writes the same-sized
  // response frame back, with no decoding or execution in between.
  net::Listener listener = Must(net::Listener::Bind("127.0.0.1", 0), "bind echo");
  std::thread echo([&] {
    dpsp::Result<net::Socket> peer = listener.Accept(30000);
    if (!peer.ok()) return;
    for (const std::vector<uint8_t>& body : responses) {
      if (!net::ReadFrame(peer.value()).ok()) return;
      if (!net::WriteFrame(peer.value(), net::MessageType::kQueryResponse, body)
               .ok()) {
        return;
      }
    }
  });
  net::Socket loop = Must(net::Connect("127.0.0.1", listener.port()), "dial echo");
  net::Client client = Must(net::Client::Connect("127.0.0.1", stack.server().port()),
                            "connect traced client");

  std::vector<double> enc_req, dec_req, exec, enc_resp, dec_resp, loopback, rtt;
  double bytes = 0.0;
  for (size_t i = 0; i < seq.size(); ++i) {
    const uint32_t handle = stack.handles()[seq[i].h];
    const auto& batch = inputs.batches[seq[i].h][seq[i].b];
    Clock::time_point t0 = Clock::now();
    std::vector<uint8_t> request = net::EncodeQueryRequest(handle, batch);
    Clock::time_point t1 = Clock::now();
    net::QueryRequest decoded = Must(net::DecodeQueryRequest(request), "decode");
    Clock::time_point t2 = Clock::now();
    std::vector<double> answers =
        Must(ref.executor.Execute(*ref.oracles[seq[i].h], decoded.pairs), "Execute");
    Clock::time_point t3 = Clock::now();
    std::vector<uint8_t> response = net::EncodeQueryResponse(answers);
    Clock::time_point t4 = Clock::now();
    Must(net::DecodeQueryResponse(response), "decode response");
    Clock::time_point t5 = Clock::now();
    enc_req.push_back(MsBetween(t0, t1) * 1e3);
    dec_req.push_back(MsBetween(t1, t2) * 1e3);
    exec.push_back(MsBetween(t2, t3) * 1e3);
    enc_resp.push_back(MsBetween(t3, t4) * 1e3);
    dec_resp.push_back(MsBetween(t4, t5) * 1e3);
    bytes += static_cast<double>(24 + request.size() + response.size());

    Clock::time_point l0 = Clock::now();
    Must(net::WriteFrame(loop, net::MessageType::kQueryRequest, request), "echo write");
    Must(net::ReadFrame(loop), "echo read");
    loopback.push_back(MsSince(l0) * 1e3);

    Clock::time_point r0 = Clock::now();
    Must(client.Query(handle, batch), "traced round trip");
    rtt.push_back(MsSince(r0) * 1e3);
  }
  echo.join();

  const double m_enc_req = Median(enc_req), m_dec_req = Median(dec_req),
               m_exec = Median(exec), m_enc_resp = Median(enc_resp),
               m_dec_resp = Median(dec_resp), m_loop = Median(loopback),
               m_rtt = Median(rtt);
  const double stages =
      m_enc_req + m_dec_req + m_exec + m_enc_resp + m_dec_resp + m_loop;
  metrics->push_back({"net.encode_request_us", m_enc_req, "us"});
  metrics->push_back({"net.decode_request_us", m_dec_req, "us"});
  metrics->push_back({"net.encode_response_us", m_enc_resp, "us"});
  metrics->push_back({"net.decode_response_us", m_dec_resp, "us"});
  metrics->push_back(
      {"net.bytes_per_request", bytes / static_cast<double>(seq.size()), "bytes"});
  metrics->push_back({"net.loopback_us", m_loop, "us"});
  metrics->push_back({"net.round_trip_us", m_rtt, "us"});
  metrics->push_back({"net.server_residual_us", m_rtt - stages, "us"});
  metrics->push_back({"net.stage_share", stages / m_rtt, "ratio"});
  // The stages are disjoint parts of one round trip, so their medians may
  // not exceed it by more than timer and scheduling noise.
  detail->Obj("stage_consistency",
              Json()
                  .Int("requests", static_cast<int64_t>(seq.size()))
                  .Num("execute_us", m_exec)
                  .Num("stage_sum_us", stages)
                  .Num("round_trip_us", m_rtt)
                  .Bool("consistent", stages <= 1.15 * m_rtt));
}

void MeasureStore(const WorkloadSpec& spec, const Inputs& inputs,
                  uint64_t seed, const std::string& work_dir,
                  std::vector<Metric>* metrics) {
  const dpsp::OracleRegistry& registry = dpsp::OracleRegistry::Global();
  double build = 0, restore = 0, image = 0, write = 0, load = 0, materialize = 0;
  for (size_t h = 0; h < spec.mechanisms.size(); ++h) {
    const std::string& mechanism = spec.mechanisms[h];
    std::unique_ptr<dpsp::DistanceOracle> oracle;
    build += MedianMs(kBuildReps, [&] {
      dpsp::ReleaseContext ctx = MakeContext(seed);
      oracle = Must(registry.Create(mechanism, inputs.graph, inputs.weights, ctx),
                    "Create");
    });
    std::vector<dpsp::ReleasedSection> sections = Sections(*oracle);
    std::vector<dpsp::ReleasedSectionView> views = Views(sections);
    for (const dpsp::ReleasedSection& s : sections) image += s.bytes.size();
    restore += MedianMs(kBuildReps, [&] {
      Must(registry.Restore(mechanism, inputs.graph, inputs.weights, views),
           "Restore");
    });
    const std::string path = work_dir + "/layer-" + std::to_string(h) + ".snap";
    const dpsp::store::OracleSnapshotMeta meta{mechanism, spec.name, "layer"};
    write += MedianMs(kBuildReps, [&] {
      Must(dpsp::store::SaveOracleSnapshot(path, *oracle, meta, 1),
           "SaveOracleSnapshot");
    });
    load += MedianMs(kBuildReps, [&] {
      dpsp::store::SnapshotReader reader =
          Must(dpsp::store::SnapshotReader::Open(path), "open snapshot");
      Must(dpsp::store::LoadOracleSnapshot(reader, inputs.graph, inputs.weights),
           "LoadOracleSnapshot");
    });
    dpsp::serve::HandleImage handle_image;
    handle_image.InstallFull("layer", mechanism, spec.name, sections, 1);
    dpsp::BatchExecutor executor(ExecutorOptions());
    materialize += MedianMs(kBuildReps, [&] {
      Must(handle_image.Materialize(inputs.graph, inputs.weights, &executor),
           "Materialize");
    });
  }
  metrics->push_back({"core.build_ms", build, "ms"});
  metrics->push_back({"core.restore_ms", restore, "ms"});
  metrics->push_back({"core.image_bytes", image, "bytes"});
  metrics->push_back({"store.snapshot_write_ms", write, "ms"});
  metrics->push_back({"store.snapshot_load_ms", load, "ms"});
  metrics->push_back({"cluster.materialize_ms", materialize, "ms"});

  // One metered charge's WAL cost: intent + commit, each fdatasync'd.
  auto wal = Must(dpsp::store::BudgetWal::Open(work_dir + "/layer.wal", 1),
                  "open WAL");
  std::vector<double> wal_us;
  const dpsp::PrivacyLoss loss = MakeContext(seed).ReleaseLoss();
  for (int i = 0; i < 48; ++i) {
    Clock::time_point start = Clock::now();
    uint64_t lsn = Must(wal->AppendIntent("layer", loss), "WAL intent");
    Must(wal->AppendCommit(lsn), "WAL commit");
    wal_us.push_back(MsSince(start) * 1e3);
  }
  metrics->push_back({"store.wal_append_us", Median(wal_us), "us"});
}

void MeasureWritePath(uint64_t seed, bool tiny, std::vector<Metric>* metrics,
                      Json* detail) {
  const WorkloadSpec spec = SpecFor("live-traffic", tiny);
  const Inputs inputs = MakeInputs(spec, seed);
  dpsp::ReleaseContext ctx = MakeContext(seed);
  std::unique_ptr<dpsp::DistanceOracle> oracle = Must(
      dpsp::OracleRegistry::Global().Create(spec.mechanisms[0], inputs.graph,
                                            inputs.weights, ctx),
      "write-path release");
  dpsp::BatchExecutor executor(ExecutorOptions());
  std::vector<dpsp::ReleasedSection> before = Sections(*oracle);
  dpsp::serve::HandleImage image;
  image.InstallFull("replay", spec.mechanisms[0], spec.name, before, 1);
  uint64_t full_installs = 1, deltas = 0;

  const size_t epochs = std::min<size_t>(inputs.epochs.size(), 32);
  std::vector<double> apply_ms, dirty, eps, compute_us, delta_bytes, apply_us;
  for (size_t k = 0; k < epochs; ++k) {
    Clock::time_point t0 = Clock::now();
    dpsp::BatchExecutor::UpdateReport report = Must(
        executor.ApplyUpdates(*oracle, inputs.graph, inputs.epochs[k], ctx),
        "ApplyUpdates");
    apply_ms.push_back(MsSince(t0));
    dirty.push_back(report.dirty_blocks);
    eps.push_back(report.charged_epsilon);

    std::vector<dpsp::ReleasedSection> after = Sections(*oracle);
    Clock::time_point t1 = Clock::now();
    std::vector<dpsp::store::SectionPatch> patches =
        Must(dpsp::store::ComputeSectionDelta(before, after), "delta");
    compute_us.push_back(MsSince(t1) * 1e3);
    delta_bytes.push_back(
        static_cast<double>(dpsp::store::SectionDeltaBytes(patches)));

    Clock::time_point t2 = Clock::now();
    dpsp::Status applied = image.ApplyDelta(patches, k + 2);
    apply_us.push_back(MsSince(t2) * 1e3);
    if (applied.ok()) {
      ++deltas;
    } else {
      image.InstallFull("replay", spec.mechanisms[0], spec.name, after, k + 2);
      ++full_installs;
    }
    before = std::move(after);
  }
  metrics->push_back({"serve.apply_updates_ms", Median(apply_ms), "ms"});
  metrics->push_back({"serve.dirty_blocks_per_epoch", Median(dirty), "count"});
  metrics->push_back({"dp.charged_eps_per_epoch", Median(eps), "eps"});
  metrics->push_back({"store.delta_compute_us", Median(compute_us), "us"});
  metrics->push_back({"store.delta_bytes_per_epoch", Median(delta_bytes), "bytes"});
  metrics->push_back({"cluster.delta_apply_us", Median(apply_us), "us"});
  metrics->push_back(
      {"cluster.delta_share",
       static_cast<double>(deltas) / static_cast<double>(deltas + full_installs),
       "ratio"});
  detail->Obj("write_path_replay", Json()
                                       .Str("inputs", "live-traffic")
                                       .Int("epochs", static_cast<int64_t>(epochs))
                                       .Int("deltas_applied", static_cast<int64_t>(deltas))
                                       .Int("full_installs",
                                            static_cast<int64_t>(full_installs)));
}

}  // namespace perfbench
