// Versioned, checksummed snapshot container for released oracle state.
//
// A snapshot is one file holding labeled byte sections (the output of
// DistanceOracle::SaveReleasedState plus a store-level meta section):
//
//   [ 64-byte header | section payloads, each 64-byte aligned | table ]
//
//   header  (64 bytes, little-endian):
//     u64 magic "DPSPSNP1"   u32 format_version (=2)   u32 num_sections
//     u64 table_offset       u64 table_bytes
//     u32 table_crc32c       u64 epoch_lsn
//     u32 header_crc32c (over the first 44 bytes)
//     16 zero pad bytes
//   Readers accept format_version 2 only.
//   table entry (variable, little-endian), num_sections times:
//     u32 label_len   label bytes
//     u64 payload_offset   u64 payload_bytes   u32 payload_crc32c
//
// Payload offsets are 64-byte aligned so a mapped section of doubles is
// cache-line aligned — the same guarantee AlignedVector gives the in-memory
// released buffers, which lets loaders hand mapped spans straight to the
// unpack helpers. Every region is covered by a CRC32C: the header protects
// the table location, the table CRC protects the entries, and each payload
// carries its own checksum, all verified eagerly at Open so a reader never
// serves bytes it has not validated.
//
// Durability: WriteSnapshot writes `path + ".tmp"`, fsyncs it, renames it
// over `path`, and fsyncs the directory — a crash at any point leaves
// either the old complete file or the new complete file, never a torn one.
// Stray .tmp files are dead partial writes; recovery ignores and removes
// them.

#ifndef DPSP_STORE_SNAPSHOT_H_
#define DPSP_STORE_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/distance_oracle.h"

namespace dpsp {
namespace store {

inline constexpr uint64_t kSnapshotMagic = 0x31504E5350535044ULL;  // DPSPSNP1
inline constexpr uint32_t kSnapshotFormatVersion = 2;

/// Atomically writes `sections` as a snapshot at `path` (temp file +
/// fsync + rename + directory fsync). Section labels must be non-empty
/// and unique. `epoch_lsn` stamps the replication epoch the image
/// corresponds to (0 for a standalone curator's releases).
Status WriteSnapshot(const std::string& path,
                     std::span<const ReleasedSection> sections,
                     uint64_t epoch_lsn = 0);

/// Maps a snapshot file read-only and validates every checksum eagerly.
/// sections() are zero-copy views into the mapping, valid while the
/// reader lives. Movable, not copyable.
class SnapshotReader {
 public:
  /// NotFound when the file does not exist; InvalidArgument for any
  /// malformed or corrupt content (bad magic/version, truncation, lying
  /// lengths, checksum mismatch) — corruption is always a typed error,
  /// never a crash or a silently partial read.
  static Result<SnapshotReader> Open(const std::string& path);

  SnapshotReader(SnapshotReader&& other) noexcept { *this = std::move(other); }
  SnapshotReader& operator=(SnapshotReader&& other) noexcept;
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;
  ~SnapshotReader();

  std::span<const ReleasedSectionView> sections() const { return sections_; }

  /// The replication epoch stamped on the file (0 for standalone
  /// curators).
  uint64_t epoch_lsn() const { return epoch_lsn_; }

  /// The section labeled `label`, or nullptr.
  const ReleasedSectionView* Find(std::string_view label) const;

 private:
  SnapshotReader() = default;

  void* map_ = nullptr;
  size_t map_bytes_ = 0;
  uint64_t epoch_lsn_ = 0;
  std::vector<ReleasedSectionView> sections_;
};

}  // namespace store
}  // namespace dpsp

#endif  // DPSP_STORE_SNAPSHOT_H_
