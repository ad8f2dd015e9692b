// NUMA node count of the host, for environment records.
//
// Nothing in the library places memory or pins threads by node; the
// count only documents the machine a measurement ran on.

#ifndef DPSP_COMMON_NUMA_H_
#define DPSP_COMMON_NUMA_H_

namespace dpsp {

/// The machine's NUMA layout, probed once and cached.
struct NumaTopology {
  /// Memory nodes under /sys/devices/system/node; 1 when that directory
  /// is absent or lists none.
  int num_nodes = 1;
};

/// The cached topology. The first call probes.
const NumaTopology& NumaTopologyInfo();

}  // namespace dpsp

#endif  // DPSP_COMMON_NUMA_H_
