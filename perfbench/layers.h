// The traced run's per-layer measurements. Every span is recorded here,
// around calls into the library's public entry points (core, serve, net,
// dp, store, cluster) on the workload's own inputs and releases; nothing
// inside the library is instrumented.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "stack.h"

namespace perfbench {

/// core.* kernel cost and serve.* executor fan-out on the reference
/// releases over the workload's batch pool.
void MeasureCoreAndServe(const WorkloadSpec& spec, const Inputs& inputs,
                         const Reference& ref, std::vector<Metric>* metrics,
                         Json* detail);

/// net.* codec, loopback and single-client round-trip stages on the
/// workload's batches, and the residual the server adds on top. Records
/// whether the stage medians account for the round trip.
void MeasureNet(const WorkloadSpec& spec, const Inputs& inputs, Stack& stack,
                const Reference& ref, std::vector<Metric>* metrics,
                Json* detail);

/// Build, image, restore, snapshot, materialize and WAL costs of the
/// workload's releases (core.build_ms ... store.wal_append_us).
void MeasureStore(const WorkloadSpec& spec, const Inputs& inputs,
                  uint64_t seed, const std::string& work_dir,
                  std::vector<Metric>* metrics);

/// The update-epoch write path (serve.apply_updates_ms, dp, store delta,
/// cluster delta apply) on a same-seed local replay of the live-traffic
/// epoch stream. Only tree-hld releases accept update epochs, so every
/// workload's traced run measures this on the live-traffic inputs.
void MeasureWritePath(uint64_t seed, bool tiny, std::vector<Metric>* metrics,
                      Json* detail);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
