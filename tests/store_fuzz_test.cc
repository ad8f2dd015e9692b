// Adversarial corruption tables for the store layer: truncations,
// single-bit flips, lying length fields, bytes past the snapshot table,
// and protocol misuse (duplicate commits, unknown intents, LSN
// regressions) must every one surface as a typed error or a validated
// identical read — never a crash, never a silently partial result, and a
// snapshot in any format but the one this build writes is refused. The
// snapshot tables run through both ways a container arrives: a file
// (SnapshotReader::Open) and a replication chunk's memory
// (SnapshotReader::Parse). The snapshot's uncovered bytes (header pad,
// alignment gaps) may absorb a flip, so the bit-flip property is
// "rejected OR bit-identical", which is exactly the checksum contract.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "dp/privacy_loss.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "test_util.h"

namespace dpsp {
namespace {

std::string MakeTempDir() {
  std::string path = ::testing::TempDir() + "dpsp_fuzz_XXXXXX";
  EXPECT_NE(mkdtemp(path.data()), nullptr);
  return path;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  bytes.resize(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // An empty vector's data() may be null, which fwrite must not get.
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

std::vector<ReleasedSection> CanonicalSections() {
  std::vector<ReleasedSection> sections;
  sections.push_back({"alpha", {1, 2, 3, 4, 5, 6, 7, 8}});
  sections.push_back({"beta", std::vector<uint8_t>(100, 0xAB)});
  sections.push_back({"gamma", {0xFF}});
  return sections;
}

bool SectionsMatch(const store::SnapshotReader& reader,
                   const std::vector<ReleasedSection>& expected) {
  if (reader.sections().size() != expected.size()) return false;
  for (const ReleasedSection& section : expected) {
    const ReleasedSectionView* view = reader.Find(section.label);
    if (view == nullptr) return false;
    if (view->bytes.size() != section.bytes.size()) return false;
    for (size_t i = 0; i < section.bytes.size(); ++i) {
      if (view->bytes[i] != section.bytes[i]) return false;
    }
  }
  return true;
}

/// Reads `bytes` as a file at `path` through Open, then from memory
/// through Parse, handing each result to `check` with the reader's name.
template <typename Check>
void ReadBothWays(const std::string& path, const std::vector<uint8_t>& bytes,
                  Check check) {
  WriteFileBytes(path, bytes);
  check(store::SnapshotReader::Open(path), "Open");
  check(store::SnapshotReader::Parse(bytes), "Parse");
}

// ------------------------------------------------- snapshot corruption --

TEST(SnapshotFuzzTest, EveryTruncationIsATypedError) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/clean.snap";
  ASSERT_OK(store::WriteSnapshot(path, CanonicalSections()));
  const std::vector<uint8_t> clean = ReadFileBytes(path);
  const std::string mangled = dir + "/mangled.snap";
  for (size_t len = 0; len < clean.size(); ++len) {
    std::vector<uint8_t> prefix(clean.begin(),
                                clean.begin() + static_cast<long>(len));
    ReadBothWays(mangled, prefix,
                 [len](const Result<store::SnapshotReader>& opened,
                       const char* via) {
                   ASSERT_FALSE(opened.ok()) << via << " accepted a " << len
                                             << "-byte truncation";
                   EXPECT_EQ(opened.status().code(),
                             StatusCode::kInvalidArgument)
                       << via << " truncation to " << len;
                 });
  }
}

TEST(SnapshotFuzzTest, EveryBitFlipIsRejectedOrHarmless) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/clean.snap";
  const std::vector<ReleasedSection> sections = CanonicalSections();
  ASSERT_OK(store::WriteSnapshot(path, sections));
  const std::vector<uint8_t> clean = ReadFileBytes(path);
  const std::string mangled = dir + "/mangled.snap";
  for (size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = clean;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      ReadBothWays(
          mangled, flipped,
          [&](const Result<store::SnapshotReader>& opened, const char* via) {
            if (!opened.ok()) {
              EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
                  << via << " byte " << byte << " bit " << bit;
              return;
            }
            // The flip landed in padding no checksum covers: the
            // validated content must still be bit-identical to what was
            // written.
            EXPECT_TRUE(SectionsMatch(*opened, sections))
                << via << " accepted DIFFERENT content after flipping byte "
                << byte << " bit " << bit;
          });
    }
  }
}

TEST(SnapshotFuzzTest, BytesAfterTheTableAreRejected) {
  // The table ends the container: appended bytes would be neither read
  // nor checksummed, so a chunk or file carrying them is corrupt.
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/clean.snap";
  ASSERT_OK(store::WriteSnapshot(path, CanonicalSections()));
  const std::vector<uint8_t> clean = ReadFileBytes(path);
  for (size_t extra : {1, 64}) {
    std::vector<uint8_t> padded = clean;
    padded.resize(clean.size() + extra, 0);
    ReadBothWays(dir + "/padded.snap", padded,
                 [extra](const Result<store::SnapshotReader>& opened,
                         const char* via) {
                   ASSERT_FALSE(opened.ok())
                       << via << " accepted " << extra << " trailing bytes";
                   EXPECT_EQ(opened.status().code(),
                             StatusCode::kInvalidArgument)
                       << via;
                 });
  }
}

TEST(SnapshotFuzzTest, LyingHeaderLengthsAreRejected) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/clean.snap";
  ASSERT_OK(store::WriteSnapshot(path, CanonicalSections()));
  const std::vector<uint8_t> clean = ReadFileBytes(path);
  const std::string mangled = dir + "/mangled.snap";

  // Patch a header field to a lie and RE-SIGN the header checksum, so
  // only the bounds checks stand between the lie and an out-of-range
  // read. Header layout (v2): magic(8) version(4) num_sections(4)
  // table_offset(8) table_bytes(8) table_crc(4) epoch_lsn(8)
  // header_crc(4 at offset 44, over the first 44 bytes).
  auto resign_and_expect_reject =
      [&](size_t field_offset, uint64_t value, int field_bytes,
          const char* what) {
        std::vector<uint8_t> lied = clean;
        for (int i = 0; i < field_bytes; ++i) {
          lied[field_offset + static_cast<size_t>(i)] =
              static_cast<uint8_t>(value >> (8 * i));
        }
        const uint32_t crc = Crc32c(lied.data(), 44);
        for (int i = 0; i < 4; ++i) {
          lied[44 + static_cast<size_t>(i)] =
              static_cast<uint8_t>(crc >> (8 * i));
        }
        WriteFileBytes(mangled, lied);
        Result<store::SnapshotReader> opened =
            store::SnapshotReader::Open(mangled);
        EXPECT_FALSE(opened.ok()) << what;
      };

  resign_and_expect_reject(16, clean.size() * 2, 8,
                           "table_offset past the file");
  resign_and_expect_reject(24, uint64_t{1} << 40, 8, "huge table_bytes");
  resign_and_expect_reject(12, 1000000, 4, "lying num_sections");
  resign_and_expect_reject(24, 0, 8, "table_bytes too small for entries");
}

TEST(SnapshotFuzzTest, FormatV1SnapshotIsATypedError) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/clean.snap";
  ASSERT_OK(store::WriteSnapshot(path, CanonicalSections()));
  // Rewrite the clean file as a well-formed format-1 snapshot: version 1,
  // no epoch LSN, the header CRC at offset 36 over the first 36 bytes,
  // and zero pad to 64.
  std::vector<uint8_t> v1 = ReadFileBytes(path);
  v1[8] = 1;
  v1[9] = v1[10] = v1[11] = 0;
  std::fill(v1.begin() + 36, v1.begin() + 64, 0);
  const uint32_t crc = Crc32c(v1.data(), 36);
  for (int i = 0; i < 4; ++i) {
    v1[36 + static_cast<size_t>(i)] = static_cast<uint8_t>(crc >> (8 * i));
  }
  const std::string v1_path = dir + "/v1.snap";
  WriteFileBytes(v1_path, v1);
  Result<store::SnapshotReader> opened = store::SnapshotReader::Open(v1_path);
  ASSERT_FALSE(opened.ok()) << "opened a format-1 snapshot at epoch "
                            << opened->epoch_lsn();
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------ WAL corruption --

std::string WriteCanonicalWal(const std::string& dir) {
  const std::string path = dir + "/budget.wal";
  auto wal = store::BudgetWal::Open(path, 1).value();
  uint64_t first = wal->AppendIntent("a", PrivacyLoss::Pure(0.5)).value();
  EXPECT_OK(wal->AppendCommit(first));
  uint64_t second = wal->AppendIntent("b", PrivacyLoss::Pure(0.25)).value();
  EXPECT_OK(wal->AppendCommit(second));
  return path;
}

TEST(WalFuzzTest, BitFlipsNeverCrashAndNeverGrowTheLedger) {
  const std::string dir = MakeTempDir();
  const std::string path = WriteCanonicalWal(dir);
  const std::vector<uint8_t> clean = ReadFileBytes(path);
  ASSERT_OK_AND_ASSIGN(store::WalRecovery baseline,
                       store::ReplayBudgetWal(path));
  ASSERT_EQ(baseline.records, 4u);
  const std::string mangled = dir + "/mangled.wal";
  for (size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = clean;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      WriteFileBytes(mangled, flipped);
      Result<store::WalRecovery> replayed = store::ReplayBudgetWal(mangled);
      if (!replayed.ok()) continue;  // typed rejection: fine
      // A flip the replay survives must have been absorbed by the
      // torn-tail rule, which can only SHRINK the accepted log — a
      // bigger or weirder ledger would be fabricated budget history.
      EXPECT_LE(replayed->records, baseline.records)
          << "byte " << byte << " bit " << bit;
      EXPECT_LE(replayed->charges.size(), baseline.charges.size())
          << "byte " << byte << " bit " << bit;
      EXPECT_LE(replayed->next_lsn, baseline.next_lsn)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(WalFuzzTest, DamageBeforeTheTailIsAHardError) {
  const std::string dir = MakeTempDir();
  const std::string path = WriteCanonicalWal(dir);
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  // Flip a payload byte of the FIRST record: later records still parse,
  // so this is corruption, not a crash artifact.
  bytes[20] ^= 0x01;
  WriteFileBytes(path, bytes);
  Result<store::WalRecovery> replayed = store::ReplayBudgetWal(path);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalFuzzTest, DuplicateCommitIsATypedError) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/budget.wal";
  {
    ASSERT_OK_AND_ASSIGN(auto wal, store::BudgetWal::Open(path, 1));
    ASSERT_OK_AND_ASSIGN(uint64_t lsn,
                         wal->AppendIntent("a", PrivacyLoss::Pure(0.5)));
    ASSERT_OK(wal->AppendCommit(lsn));
    ASSERT_OK(wal->AppendCommit(lsn));  // append-side does not dedupe
  }
  Result<store::WalRecovery> replayed = store::ReplayBudgetWal(path);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalFuzzTest, CommitForUnknownIntentIsATypedError) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/budget.wal";
  {
    ASSERT_OK_AND_ASSIGN(auto wal, store::BudgetWal::Open(path, 1));
    ASSERT_OK(wal->AppendIntent("a", PrivacyLoss::Pure(0.5)).status());
    ASSERT_OK(wal->AppendCommit(1));
    ASSERT_OK(wal->AppendCommit(7));  // never issued
  }
  Result<store::WalRecovery> replayed = store::ReplayBudgetWal(path);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
}

TEST(WalFuzzTest, LsnRegressionIsATypedError) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/budget.wal";
  {
    ASSERT_OK_AND_ASSIGN(auto wal, store::BudgetWal::Open(path, 1));
    ASSERT_OK(wal->AppendIntent("a", PrivacyLoss::Pure(0.5)).status());
    ASSERT_OK(wal->AppendIntent("b", PrivacyLoss::Pure(0.5)).status());
  }
  {
    // A writer reopened at the WRONG next_lsn (a recovery bug) would
    // write a regressing intent; replay must refuse the whole log rather
    // than silently shrink the ledger.
    ASSERT_OK_AND_ASSIGN(auto wal, store::BudgetWal::Open(path, 1));
    ASSERT_OK(wal->AppendIntent("c", PrivacyLoss::Pure(0.5)).status());
  }
  Result<store::WalRecovery> replayed = store::ReplayBudgetWal(path);
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dpsp
