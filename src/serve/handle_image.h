// A replica's in-memory copy of one released handle: the snapshot
// sections the coordinator shipped (its "__meta__" section included),
// the epoch they correspond to, and the install/apply entry points that
// turn them into a serving oracle.
//
// The image is the replica's ground truth for the handle. A
// SnapshotChunk's container, validated by store::SnapshotReader::Parse,
// replaces it wholesale (InstallFull): the sections are copied out of
// the frame body, where the container's payloads are not aligned. A
// DeltaFrame patches it in place (ApplyDelta, CRC-verified per section),
// after which Materialize rebuilds the oracle through the registry
// loader. Loaders never see a ReleaseContext: a replica draws no noise
// and consumes no budget, it only re-hosts released (post-DP) bytes,
// which is the whole trust argument for scaling the read tier
// horizontally.

#ifndef DPSP_SERVE_HANDLE_IMAGE_H_
#define DPSP_SERVE_HANDLE_IMAGE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/distance_oracle.h"
#include "graph/graph.h"
#include "serve/batch_executor.h"
#include "store/snapshot_delta.h"

namespace dpsp {
namespace serve {

class HandleImage {
 public:
  HandleImage() = default;

  /// Replaces the whole image (a full snapshot install or a resync).
  void InstallFull(std::string name, std::string mechanism,
                   std::string workload,
                   std::vector<ReleasedSection> sections,
                   uint64_t epoch_lsn);

  /// Applies one epoch's byte-range patches in place
  /// (store::ApplySectionDelta; post-CRC verified). On failure the image
  /// is corrupt and the caller must resync from a full snapshot.
  Status ApplyDelta(std::span<const store::SectionPatch> patches,
                    uint64_t epoch_lsn);

  /// Rebuilds the serving oracle from the current sections through the
  /// registry loader for `mechanism()`.
  // The executor is unused; it stays because perfbench/ still passes one.
  Result<std::shared_ptr<DistanceOracle>> Materialize(
      const Graph& graph, const EdgeWeights& weights,
      const BatchExecutor* = nullptr) const;

  const std::string& name() const { return name_; }
  const std::string& mechanism() const { return mechanism_; }
  const std::string& workload() const { return workload_; }
  uint64_t epoch_lsn() const { return epoch_lsn_; }
  std::span<const ReleasedSection> sections() const { return sections_; }

  /// Total payload bytes held (the full-image cost a delta avoids).
  uint64_t image_bytes() const;

 private:
  std::string name_;
  std::string mechanism_;
  std::string workload_;
  uint64_t epoch_lsn_ = 0;
  std::vector<ReleasedSection> sections_;
};

}  // namespace serve
}  // namespace dpsp

#endif  // DPSP_SERVE_HANDLE_IMAGE_H_
