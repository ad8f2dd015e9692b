// Oracle-level glue over the snapshot container and the budget WAL:
//
//  * SaveOracleSnapshot / LoadOracleSnapshot round-trip a released oracle
//    through the snapshot format. The store prepends a "__meta__" section
//    (mechanism name, workload name, serving handle) so a recovering
//    server, or a replica installing a shipped chunk, can rebind each
//    image to its registry entry and workload without trusting
//    filenames.
//  * WalDurabilityHook adapts a BudgetWal to the
//    ReleaseContext::DurabilityHook interface, so every metered charge
//    writes an intent/commit pair around the in-memory ledger mutation.
//
// Restore trust boundary: snapshots persist ONLY released (post-DP)
// state. Loaders never see a ReleaseContext — a restore draws no noise
// and consumes no budget; the budget itself recovers separately through
// the WAL.

#ifndef DPSP_STORE_ORACLE_STORE_H_
#define DPSP_STORE_ORACLE_STORE_H_

#include <memory>
#include <string>

#include "core/distance_oracle.h"
#include "core/oracle_registry.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace dpsp {
namespace store {

/// Identity of a persisted oracle, stored in the "__meta__" section.
struct OracleSnapshotMeta {
  /// Registry name of the mechanism (OracleRegistry key).
  std::string mechanism;
  /// Name of the workload (graph + weights) the oracle serves.
  std::string workload;
  /// The serving handle the oracle was published under.
  std::string handle;
};

/// Label of the store-level metadata section. Reserved: mechanisms must
/// not emit a section with this label from SaveReleasedState.
inline constexpr const char* kOracleMetaLabel = "__meta__";

/// `oracle`'s released image as snapshot sections: the "__meta__" section
/// holding `meta`, then its SaveReleasedState output. Unimplemented for
/// oracles that do not persist released state.
Result<std::vector<ReleasedSection>> OracleSnapshotSections(
    const DistanceOracle& oracle, const OracleSnapshotMeta& meta);

/// Saves OracleSnapshotSections(oracle, meta) atomically at `path`,
/// stamping `epoch_lsn` (the curator's release/update epoch) on the
/// container header. Fails with Unimplemented for oracles that do not
/// persist released state, without touching the destination file.
Status SaveOracleSnapshot(const std::string& path,
                          const DistanceOracle& oracle,
                          const OracleSnapshotMeta& meta,
                          uint64_t epoch_lsn = 0);

/// Decodes the "__meta__" section of an open snapshot.
Result<OracleSnapshotMeta> ReadOracleSnapshotMeta(const SnapshotReader& reader);

/// Restores the oracle persisted in `reader` against the public
/// workload (graph, w) through the registry loader for its mechanism.
Result<std::unique_ptr<DistanceOracle>> LoadOracleSnapshot(
    const SnapshotReader& reader, const Graph& graph, const EdgeWeights& w);

/// DurabilityHook over a BudgetWal: LogIntent/LogCommit append the
/// corresponding records. Non-owning; the WAL must outlive the hook.
class WalDurabilityHook final : public ReleaseContext::DurabilityHook {
 public:
  explicit WalDurabilityHook(BudgetWal* wal) : wal_(wal) {}

  Result<uint64_t> LogIntent(const std::string& label,
                             const PrivacyLoss& loss) override {
    return wal_->AppendIntent(label, loss);
  }
  Status LogCommit(uint64_t intent_lsn) override {
    return wal_->AppendCommit(intent_lsn);
  }

 private:
  BudgetWal* wal_;
};

}  // namespace store
}  // namespace dpsp

#endif  // DPSP_STORE_ORACLE_STORE_H_
