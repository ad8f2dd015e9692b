#include "common/numa.h"

#include <dirent.h>

#include <cstdio>

namespace dpsp {

namespace {

// Counts the node<N> entries of the sysfs node directory.
NumaTopology Probe() {
  NumaTopology topo;
  DIR* dir = opendir("/sys/devices/system/node");
  if (dir == nullptr) return topo;
  int nodes = 0;
  for (dirent* entry = readdir(dir); entry != nullptr;
       entry = readdir(dir)) {
    int node = -1;
    if (std::sscanf(entry->d_name, "node%d", &node) == 1 && node >= 0) {
      ++nodes;
    }
  }
  closedir(dir);
  if (nodes > 0) topo.num_nodes = nodes;
  return topo;
}

}  // namespace

const NumaTopology& NumaTopologyInfo() {
  static const NumaTopology topo = Probe();
  return topo;
}

}  // namespace dpsp
