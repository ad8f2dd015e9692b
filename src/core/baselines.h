// Baseline mechanisms from the introduction of Section 4. All of them apply
// to arbitrary graphs and serve as the comparison points for the paper's
// improved tree / bounded-weight algorithms:
//
//  * Single-pair query — one distance is a sensitivity-1 query, so the
//    Laplace mechanism answers it with Lap(1/eps) noise.
//  * All-pairs, pure DP — basic composition over the V(V-1)/2 pairs; noise
//    scale ~ V^2 / eps per query.
//  * All-pairs, approximate DP — advanced composition (Lemma 3.4); noise
//    scale ~ V sqrt(ln(1/delta)) / eps per query.
//  * Synthetic graph release — add Lap(1/eps) to every edge weight, clamp
//    at zero, publish the weighted graph; all distances (and paths —
//    Algorithm 3 builds on this) are post-processing. Error ~ (V/eps)
//    log(E/gamma) on every distance.
//  * Exact oracle — non-private ground truth for evaluation.
//
// The DRV10 boosting baseline discussed in §1.3 is exponential-time and is
// deliberately not implemented (DESIGN.md §1.3); its error formula is
// reported by bench_baselines for context.

#ifndef DPSP_CORE_BASELINES_H_
#define DPSP_CORE_BASELINES_H_

#include <memory>

#include "common/random.h"
#include "core/distance_oracle.h"
#include "dp/privacy.h"
#include "dp/release_context.h"

namespace dpsp {

/// Registry names of the baseline oracles.
inline constexpr const char* kExactOracleName = "exact";
inline constexpr const char* kPerPairLaplaceOracleName = "per-pair-laplace";
inline constexpr const char* kSyntheticGraphOracleName = "synthetic-graph";

/// One private distance query: dw(u, v) + Lap(rho/eps). Consumes the whole
/// budget for a single pair (Section 4, first paragraph).
Result<double> PrivateSinglePairDistance(const Graph& graph,
                                         const EdgeWeights& w, VertexId u,
                                         VertexId v,
                                         const PrivacyParams& params,
                                         Rng* rng);

/// Exact (non-private!) oracle for evaluation harnesses.
Result<std::unique_ptr<DistanceOracle>> MakeExactOracle(const Graph& graph,
                                                        const EdgeWeights& w);

/// Pipeline variant: charges nothing (the exact oracle is not private) but
/// records a zero-budget telemetry row so sweeps stay uniform.
Result<std::unique_ptr<DistanceOracle>> MakeExactOracle(const Graph& graph,
                                                        const EdgeWeights& w,
                                                        ReleaseContext& ctx);

/// All-pairs Laplace baseline: draws one release of ctx.params() from the
/// accountant and records telemetry. With delta == 0, uses basic
/// composition (noise scale = #pairs * rho / eps); with delta > 0, uses the
/// better of basic and advanced composition. Weights that are negative or
/// not finite are refused before the ledger is touched.
Result<std::unique_ptr<DistanceOracle>> MakePerPairLaplaceOracle(
    const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx);

/// Synthetic-graph baseline: releases (G, w + Lap(rho/eps) per edge,
/// clamped at 0) and answers queries by Dijkstra on the released weights.
/// Pure eps-DP. Draws one release of ctx.params() from the accountant and
/// records telemetry. Weights that are negative or not finite are refused
/// before the ledger is touched.
Result<std::unique_ptr<DistanceOracle>> MakeSyntheticGraphOracle(
    const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx);

/// Snapshot-restore factories (OracleLoader signature): rebuild each
/// baseline from its persisted released matrix. No budget is consumed.
Result<std::unique_ptr<DistanceOracle>> RestoreExactOracle(
    const Graph& graph, const EdgeWeights& w,
    std::span<const ReleasedSectionView> sections);
Result<std::unique_ptr<DistanceOracle>> RestorePerPairLaplaceOracle(
    const Graph& graph, const EdgeWeights& w,
    std::span<const ReleasedSectionView> sections);
Result<std::unique_ptr<DistanceOracle>> RestoreSyntheticGraphOracle(
    const Graph& graph, const EdgeWeights& w,
    std::span<const ReleasedSectionView> sections);

/// The per-query Laplace noise scale the all-pairs baseline uses, exposed
/// for reporting. `num_pairs` = V(V-1)/2.
Result<double> PerPairLaplaceNoiseScale(int num_pairs,
                                        const PrivacyParams& params);

/// Single-source distances via direct composition (the remark after
/// Theorem 4.6): release the V-1 distances from `source`, each with
/// Laplace noise calibrated by the better of basic and advanced
/// composition. With delta > 0 the per-distance noise scale is
/// O(sqrt(V log(1/delta)))/eps. Unreachable vertices stay infinite.
Result<std::vector<double>> PrivateSingleSourceDistances(
    const Graph& graph, const EdgeWeights& w, VertexId source,
    const PrivacyParams& params, Rng* rng);

/// Error formula of the (unimplemented, exponential-time) DRV10 boosting
/// baseline for integer weights with known ||w||_1, for the comparison
/// table: O~(sqrt(||w||_1) log V log^1.5(1/delta) / eps). Constants set
/// to 1.
double Drv10ErrorFormula(double w1_norm, int num_vertices, double epsilon,
                         double delta);

}  // namespace dpsp

#endif  // DPSP_CORE_BASELINES_H_
