#include "store/oracle_store.h"

#include <cstring>

#include "common/table.h"

namespace dpsp {
namespace store {

namespace {

// The "__meta__" payload: three u32-length-prefixed strings
// (mechanism, workload, handle), little-endian.
void AppendString(std::vector<uint8_t>* out, const std::string& s) {
  uint32_t len = static_cast<uint32_t>(s.size());
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&len);
  out->insert(out->end(), p, p + sizeof(len));
  out->insert(out->end(), s.begin(), s.end());
}

Status ReadString(std::span<const uint8_t> bytes, size_t* pos,
                  std::string* out) {
  if (*pos + sizeof(uint32_t) > bytes.size()) {
    return Status::InvalidArgument("snapshot meta section is truncated");
  }
  uint32_t len;
  std::memcpy(&len, bytes.data() + *pos, sizeof(len));
  *pos += sizeof(len);
  if (len > bytes.size() - *pos) {
    return Status::InvalidArgument(
        "snapshot meta section string length exceeds the section");
  }
  out->assign(reinterpret_cast<const char*>(bytes.data() + *pos), len);
  *pos += len;
  return Status::Ok();
}

}  // namespace

Result<std::vector<ReleasedSection>> OracleSnapshotSections(
    const DistanceOracle& oracle, const OracleSnapshotMeta& meta) {
  if (meta.mechanism.empty()) {
    return Status::InvalidArgument("snapshot meta needs a mechanism name");
  }
  std::vector<ReleasedSection> sections;
  ReleasedSection meta_section;
  meta_section.label = kOracleMetaLabel;
  AppendString(&meta_section.bytes, meta.mechanism);
  AppendString(&meta_section.bytes, meta.workload);
  AppendString(&meta_section.bytes, meta.handle);
  sections.push_back(std::move(meta_section));
  DPSP_RETURN_IF_ERROR(oracle.SaveReleasedState(&sections));
  for (size_t i = 1; i < sections.size(); ++i) {
    if (sections[i].label == kOracleMetaLabel) {
      return Status::InvalidArgument(
          StrFormat("oracle '%s' emitted the reserved section label '%s'",
                    meta.mechanism.c_str(), kOracleMetaLabel));
    }
  }
  return sections;
}

Status SaveOracleSnapshot(const std::string& path,
                          const DistanceOracle& oracle,
                          const OracleSnapshotMeta& meta,
                          uint64_t epoch_lsn) {
  DPSP_ASSIGN_OR_RETURN(std::vector<ReleasedSection> sections,
                        OracleSnapshotSections(oracle, meta));
  return WriteSnapshot(path, sections, epoch_lsn);
}

Result<OracleSnapshotMeta> ReadOracleSnapshotMeta(
    const SnapshotReader& reader) {
  const ReleasedSectionView* section = reader.Find(kOracleMetaLabel);
  if (section == nullptr) {
    return Status::InvalidArgument(
        "snapshot has no __meta__ section (not an oracle snapshot)");
  }
  OracleSnapshotMeta meta;
  size_t pos = 0;
  DPSP_RETURN_IF_ERROR(ReadString(section->bytes, &pos, &meta.mechanism));
  DPSP_RETURN_IF_ERROR(ReadString(section->bytes, &pos, &meta.workload));
  DPSP_RETURN_IF_ERROR(ReadString(section->bytes, &pos, &meta.handle));
  if (pos != section->bytes.size()) {
    return Status::InvalidArgument(
        "snapshot meta section has trailing bytes");
  }
  if (meta.mechanism.empty()) {
    return Status::InvalidArgument("snapshot meta mechanism is empty");
  }
  return meta;
}

Result<std::unique_ptr<DistanceOracle>> LoadOracleSnapshot(
    const SnapshotReader& reader, const Graph& graph, const EdgeWeights& w) {
  DPSP_ASSIGN_OR_RETURN(OracleSnapshotMeta meta,
                        ReadOracleSnapshotMeta(reader));
  return OracleRegistry::Global().Restore(meta.mechanism, graph, w,
                                          reader.sections());
}

}  // namespace store
}  // namespace dpsp
