#include "store/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <set>
#include <utility>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/table.h"

namespace dpsp {
namespace store {
namespace {

constexpr size_t kHeaderBytes = 64;
constexpr size_t kAlign = 64;

size_t AlignUp(size_t offset) { return (offset + kAlign - 1) & ~(kAlign - 1); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(uint8_t(v >> (8 * i)));
}
void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(uint8_t(v >> (8 * i)));
}

// Bounds-checked little-endian cursor over the mapped file.
class Cursor {
 public:
  Cursor(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU32(uint32_t* v) {
    if (size_ - pos_ < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (size_ - pos_ < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool ReadBytes(size_t n, const uint8_t** out) {
    if (size_ - pos_ < n) return false;
    *out = data_ + pos_;
    pos_ += n;
    return true;
  }
  size_t pos() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status ErrnoStatus(const char* op, const std::string& path) {
  return Status::Internal(
      StrFormat("%s(%s): %s", op, path.c_str(), std::strerror(errno)));
}

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::InvalidArgument(
      StrFormat("snapshot %s: %s", path.c_str(), what.c_str()));
}

Status WriteAllFd(int fd, const uint8_t* data, size_t len,
                  const std::string& path) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status FsyncDirOf(const std::string& path) {
  size_t slash = path.rfind('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open", dir);
  int rc = fsync(fd);
  close(fd);
  if (rc != 0) return ErrnoStatus("fsync", dir);
  return Status::Ok();
}

}  // namespace

Status WriteSnapshot(const std::string& path,
                     std::span<const ReleasedSection> sections,
                     uint64_t epoch_lsn) {
  std::set<std::string_view> labels;
  for (const ReleasedSection& section : sections) {
    if (section.label.empty()) {
      return Status::InvalidArgument("snapshot section label must not be empty");
    }
    if (!labels.insert(section.label).second) {
      return Status::InvalidArgument("duplicate snapshot section label '" +
                                     section.label + "'");
    }
  }

  // Layout: header, aligned payloads, table at the end.
  std::vector<uint64_t> offsets;
  offsets.reserve(sections.size());
  size_t cursor = kHeaderBytes;
  for (const ReleasedSection& section : sections) {
    cursor = AlignUp(cursor);
    offsets.push_back(cursor);
    cursor += section.bytes.size();
  }
  const size_t table_offset = cursor;

  std::vector<uint8_t> table;
  for (size_t i = 0; i < sections.size(); ++i) {
    const ReleasedSection& section = sections[i];
    PutU32(&table, static_cast<uint32_t>(section.label.size()));
    table.insert(table.end(), section.label.begin(), section.label.end());
    PutU64(&table, offsets[i]);
    PutU64(&table, section.bytes.size());
    PutU32(&table, Crc32c(section.bytes.data(), section.bytes.size()));
  }

  std::vector<uint8_t> file(table_offset + table.size(), 0);
  std::vector<uint8_t> header;
  header.reserve(kHeaderBytes);
  PutU64(&header, kSnapshotMagic);
  PutU32(&header, kSnapshotFormatVersion);
  PutU32(&header, static_cast<uint32_t>(sections.size()));
  PutU64(&header, table_offset);
  PutU64(&header, table.size());
  PutU32(&header, Crc32c(table.data(), table.size()));
  PutU64(&header, epoch_lsn);
  PutU32(&header, Crc32c(header.data(), header.size()));  // first 44 bytes
  header.resize(kHeaderBytes, 0);
  std::memcpy(file.data(), header.data(), kHeaderBytes);
  for (size_t i = 0; i < sections.size(); ++i) {
    if (!sections[i].bytes.empty()) {
      std::memcpy(file.data() + offsets[i], sections[i].bytes.data(),
                  sections[i].bytes.size());
    }
  }
  std::memcpy(file.data() + table_offset, table.data(), table.size());

  const std::string tmp = path + ".tmp";
  int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp);
  Status wrote = WriteAllFd(fd, file.data(), file.size(), tmp);
  if (wrote.ok()) {
    wrote = EvalFailpoint(failpoints::kSnapshotAfterTempWrite);
  }
  if (wrote.ok() && fsync(fd) != 0) wrote = ErrnoStatus("fsync", tmp);
  close(fd);
  if (wrote.ok()) wrote = EvalFailpoint(failpoints::kSnapshotBeforeRename);
  if (!wrote.ok()) {
    unlink(tmp.c_str());
    return wrote;
  }
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    Status renamed = ErrnoStatus("rename", tmp);
    unlink(tmp.c_str());
    return renamed;
  }
  return FsyncDirOf(path);
}

SnapshotReader& SnapshotReader::operator=(SnapshotReader&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) munmap(map_, map_bytes_);
    map_ = std::exchange(other.map_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    epoch_lsn_ = std::exchange(other.epoch_lsn_, 0);
    sections_ = std::move(other.sections_);
    other.sections_.clear();
  }
  return *this;
}

SnapshotReader::~SnapshotReader() {
  if (map_ != nullptr) munmap(map_, map_bytes_);
}

const ReleasedSectionView* SnapshotReader::Find(std::string_view label) const {
  for (const ReleasedSectionView& section : sections_) {
    if (section.label == label) return &section;
  }
  return nullptr;
}

Result<SnapshotReader> SnapshotReader::Open(const std::string& path) {
  int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no snapshot at " + path);
    }
    return ErrnoStatus("open", path);
  }
  struct stat st{};
  if (fstat(fd, &st) != 0) {
    Status status = ErrnoStatus("fstat", path);
    close(fd);
    return status;
  }
  const size_t file_bytes = static_cast<size_t>(st.st_size);
  if (file_bytes < kHeaderBytes) {
    close(fd);
    return Corrupt(path, StrFormat("file is %zu bytes, smaller than the "
                                   "64-byte header",
                                   file_bytes));
  }
  void* map = mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  close(fd);
  if (map == MAP_FAILED) return ErrnoStatus("mmap", path);

  SnapshotReader reader;
  reader.map_ = map;
  reader.map_bytes_ = file_bytes;
  const uint8_t* data = static_cast<const uint8_t*>(map);

  Cursor header(data, kHeaderBytes);
  uint64_t magic = 0, table_offset = 0, table_bytes = 0, epoch_lsn = 0;
  uint32_t version = 0, num_sections = 0, table_crc = 0, header_crc = 0;
  header.ReadU64(&magic);
  header.ReadU32(&version);
  header.ReadU32(&num_sections);
  header.ReadU64(&table_offset);
  header.ReadU64(&table_bytes);
  header.ReadU32(&table_crc);
  header.ReadU64(&epoch_lsn);
  const size_t crc_covered = header.pos();
  header.ReadU32(&header_crc);
  if (magic != kSnapshotMagic) return Corrupt(path, "bad magic");
  if (version != kSnapshotFormatVersion) {
    return Corrupt(path, StrFormat("unsupported format version %u", version));
  }
  if (header_crc != Crc32c(data, crc_covered)) {
    return Corrupt(path, "header checksum mismatch");
  }
  reader.epoch_lsn_ = epoch_lsn;
  if (table_offset < kHeaderBytes || table_offset > file_bytes ||
      table_bytes > file_bytes - table_offset) {
    return Corrupt(path, "section table lies outside the file");
  }
  if (table_crc != Crc32c(data + table_offset, table_bytes)) {
    return Corrupt(path, "section table checksum mismatch");
  }

  Cursor table(data + table_offset, table_bytes);
  reader.sections_.reserve(num_sections);
  for (uint32_t i = 0; i < num_sections; ++i) {
    uint32_t label_len = 0, payload_crc = 0;
    uint64_t payload_offset = 0, payload_bytes = 0;
    const uint8_t* label = nullptr;
    if (!table.ReadU32(&label_len) || !table.ReadBytes(label_len, &label) ||
        !table.ReadU64(&payload_offset) || !table.ReadU64(&payload_bytes) ||
        !table.ReadU32(&payload_crc)) {
      return Corrupt(path, StrFormat("truncated table entry %u", i));
    }
    if (payload_offset > file_bytes ||
        payload_bytes > file_bytes - payload_offset ||
        payload_offset % kAlign != 0) {
      return Corrupt(path,
                     StrFormat("section %u payload lies outside the file or "
                               "is misaligned",
                               i));
    }
    if (payload_crc != Crc32c(data + payload_offset, payload_bytes)) {
      return Corrupt(
          path, StrFormat("section '%.*s' payload checksum mismatch",
                          static_cast<int>(label_len), label));
    }
    reader.sections_.push_back(ReleasedSectionView{
        std::string_view(reinterpret_cast<const char*>(label), label_len),
        std::span<const uint8_t>(data + payload_offset, payload_bytes)});
  }
  if (table.pos() != table_bytes) {
    return Corrupt(path, "section table holds trailing bytes");
  }
  return reader;
}

}  // namespace store
}  // namespace dpsp
