#include "serve/handle_image.h"

#include <utility>

#include "core/oracle_registry.h"

namespace dpsp {
namespace serve {

void HandleImage::InstallFull(std::string name, std::string mechanism,
                              std::string workload,
                              std::vector<ReleasedSection> sections,
                              uint64_t epoch_lsn) {
  name_ = std::move(name);
  mechanism_ = std::move(mechanism);
  workload_ = std::move(workload);
  sections_ = std::move(sections);
  epoch_lsn_ = epoch_lsn;
}

Status HandleImage::ApplyDelta(std::span<const store::SectionPatch> patches,
                               uint64_t epoch_lsn) {
  if (mechanism_.empty()) {
    return Status::FailedPrecondition(
        "delta against an empty image (no snapshot installed yet)");
  }
  DPSP_RETURN_IF_ERROR(store::ApplySectionDelta(sections_, patches));
  epoch_lsn_ = epoch_lsn;
  return Status::Ok();
}

Result<std::shared_ptr<DistanceOracle>> HandleImage::Materialize(
    const Graph& graph, const EdgeWeights& weights,
    const BatchExecutor*) const {
  std::vector<ReleasedSectionView> views;
  views.reserve(sections_.size());
  for (const ReleasedSection& section : sections_) {
    views.push_back(ReleasedSectionView{
        std::string_view(section.label),
        std::span<const uint8_t>(section.bytes)});
  }
  DPSP_ASSIGN_OR_RETURN(std::unique_ptr<DistanceOracle> oracle,
                        OracleRegistry::Global().Restore(mechanism_, graph,
                                                         weights, views));
  return std::shared_ptr<DistanceOracle>(std::move(oracle));
}

uint64_t HandleImage::image_bytes() const {
  uint64_t total = 0;
  for (const ReleasedSection& section : sections_) {
    total += section.bytes.size();
  }
  return total;
}

}  // namespace serve
}  // namespace dpsp
