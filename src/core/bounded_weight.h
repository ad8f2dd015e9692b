// Private all-pairs distances in bounded-weight graphs (Section 4.2,
// Algorithm 2, Theorems 4.3 / 4.5 / 4.6 / 4.7).
//
// Given a k-covering Z (Definition 4.1), release noisy distances between
// all pairs of covering vertices and answer a query (u, v) by the released
// value for (z(u), z(v)). Because every vertex is within k hops of its
// center and weights are at most M, |d(u,v) - d(z(u),z(v))| <= 2kM, and the
// Laplace noise on the Z(Z-1)/2 released values is calibrated by
//   * advanced composition (Theorem 4.5) when delta > 0:  scale ~ Z/eps',
//   * basic composition   (Theorem 4.6) when delta == 0:  scale ~ Z^2/eps.
// Theorem 4.3 picks k to balance the 2kM bias against the noise:
//   k = floor(sqrt(V/(M eps)))      (approximate DP),
//   k = floor(V^{2/3}/(M eps)^{1/3}) (pure DP);
// Theorem 4.7 instead supplies the explicit grid covering.

#ifndef DPSP_CORE_BOUNDED_WEIGHT_H_
#define DPSP_CORE_BOUNDED_WEIGHT_H_

#include <memory>
#include <vector>

#include "common/aligned.h"
#include "core/distance_oracle.h"
#include "dp/privacy.h"
#include "dp/release_context.h"
#include "graph/covering.h"

namespace dpsp {

/// Options for the bounded-weight oracle.
struct BoundedWeightOptions {
  /// Upper bound M on every edge weight (validated against the input).
  double max_weight = 1.0;
  /// Covering radius; 0 = choose automatically per Theorem 4.3.
  int k = 0;
  /// Covering construction when the caller does not supply one.
  enum class CoveringStrategy { kMM75, kGreedy };
  CoveringStrategy strategy = CoveringStrategy::kMM75;

  /// Noise distribution for the Z-to-Z table. kLaplace follows the paper
  /// (advanced composition when delta > 0, basic when pure). kGaussian is
  /// an ablation alternative (requires delta > 0 and eps < 1): calibrated
  /// by the l2 sensitivity sqrt(#queries), same sqrt(Z)/eps rate, lighter
  /// tails. See dp/gaussian_mechanism.h.
  enum class NoiseKind { kLaplace, kGaussian };
  NoiseKind noise = NoiseKind::kLaplace;

  /// Worker threads for the Z-center multi-source Dijkstra that dominates
  /// build time at scale (one source per task, shared CSR, thread-local
  /// heaps). 0 = hardware concurrency when no other ParallelFor call is
  /// executing, else serial; 1 = serial. The released table is identical
  /// at any thread count: noise is drawn serially afterwards.
  int build_threads = 0;
};

/// The Theorem 4.3 automatic choice of k for the given parameters, clamped
/// to [0, V-1].
int AutoCoveringRadius(int num_vertices, double max_weight,
                       const PrivacyParams& params);

/// Algorithm 2 oracle.
class BoundedWeightOracle final : public DistanceOracle {
 public:
  /// Registry name of this mechanism.
  static constexpr const char* kName = "bounded-weight";
  /// Registry name of the Gaussian-noise variant, which is metered at its
  /// natural zCDP rate (dp/privacy_loss.h) instead of the context's
  /// (eps, delta) and requires approximate params (delta > 0, eps < 1).
  static constexpr const char* kGaussianName = "bounded-weight-gaussian";

  /// Builds through the release pipeline: builds the covering per
  /// `options` (Theorem 4.3's radius for ctx.params() when k == 0) and
  /// releases the noisy Z-to-Z distance table, drawing one release from
  /// the accountant and recording telemetry. Requires a connected
  /// undirected graph and finite weights in [0, max_weight]. An empty
  /// graph, a max_weight that is not positive, or weights outside that
  /// range are refused before the ledger is touched.
  static Result<std::unique_ptr<BoundedWeightOracle>> Build(
      const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx,
      const BoundedWeightOptions& options = {});

  /// Same, with a caller-supplied covering (e.g. GridCovering for
  /// Theorem 4.7); `options.k` and `options.strategy` are unused. The
  /// weights are checked before the ledger is touched, the covering
  /// after.
  static Result<std::unique_ptr<BoundedWeightOracle>> BuildWithCovering(
      const Graph& graph, const EdgeWeights& w, Covering covering,
      ReleaseContext& ctx, const BoundedWeightOptions& options = {});

  /// a_{z(u), z(v)} — or exactly 0 when z(u) == z(v) (data-independent).
  Result<double> Distance(VertexId u, VertexId v) const override;
  /// Fused serial kernel: two assignment loads and one flat-table load per
  /// pair.
  Status DistanceInto(std::span<const VertexPair> pairs,
                      double* out) const override;
  std::string Name() const override;

  const Covering& covering() const { return covering_; }
  double noise_scale() const { return noise_scale_; }
  /// True when the table noise is Gaussian (the zCDP-metered variant).
  bool gaussian() const { return gaussian_; }
  /// Number of released noisy table entries, for telemetry.
  int num_noisy_values() const { return num_centers_ * (num_centers_ - 1) / 2; }

  /// High-probability per-query error bound as proved: 2kM plus the
  /// Laplace tail over the Z^2 released values.
  double ErrorBound(double gamma) const;

  /// Persists the released Z x Z noisy table plus the covering (centers,
  /// assignment, hop distances) and calibration. The covering is part of
  /// the released object — Algorithm 2 publishes it with the table — so
  /// persisting it verbatim is exact and costs no budget.
  Status SaveReleasedState(std::vector<ReleasedSection>* out) const override;

  /// OracleLoader counterpart (shared by the Laplace and Gaussian registry
  /// entries — the `gaussian` flag travels in the metadata): revalidates
  /// the covering against the public graph and installs the table.
  static Result<std::unique_ptr<DistanceOracle>> FromReleasedState(
      const Graph& graph, const EdgeWeights& w,
      std::span<const ReleasedSectionView> sections);

 private:
  BoundedWeightOracle() = default;

  // The table release over `covering` with noise drawn from ctx.rng():
  // the body both builders run inside ReleaseContext::MeteredBuild, after
  // they have checked the weights against options.max_weight.
  static Result<std::unique_ptr<BoundedWeightOracle>> Release(
      const Graph& graph, const EdgeWeights& w, Covering covering,
      ReleaseContext& ctx, const BoundedWeightOptions& options);

  Covering covering_;
  bool pure_ = true;
  bool gaussian_ = false;
  double max_weight_ = 0.0;
  double noise_scale_ = 0.0;
  // Dense |Z| x |Z| noisy distance table (diagonal zero), flattened
  // row-major: entry (i, j) lives at i * num_centers_ + j. Cache-line
  // aligned like every released flat buffer.
  int num_centers_ = 0;
  AlignedVector<double> noisy_;
};

}  // namespace dpsp

#endif  // DPSP_CORE_BOUNDED_WEIGHT_H_
