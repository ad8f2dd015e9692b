// Private all-pairs distances on the path graph (Appendix A / Theorem A.1),
// a restatement of the DNPR10 binary counting mechanism.
//
// The hub hierarchy is instantiated with branching factor 2 (the paper's
// k = log V levels with one-out-of-every-V^{i/k} hubs; with V^{1/k} = 2 the
// level-i hubs are the multiples of 2^i). The noisy value stored for a
// consecutive level-i hub pair (j 2^i, (j+1) 2^i) is exactly the dyadic
// segment sum of edge weights over [j 2^i, (j+1) 2^i), so the release is
// one NoisyDyadicRangeSums (core/range_sums.h) over the edge weights:
//   * every edge lies in exactly one segment per level -> the full release
//     has sensitivity (#levels), handled by one Laplace mechanism with
//     scale (#levels)/eps;
//   * any query interval [x, y) decomposes into at most 2 #levels aligned
//     segments, so each distance estimate sums <= 2 log2 V noisy values,
//     giving error O(log^1.5 V log(1/gamma))/eps by Lemma 3.1.
// tree-hld releases the same structure per heavy chain; on a path rooted
// at vertex 0 the two mechanisms answer bit-identically from one seed.

#ifndef DPSP_CORE_PATH_GRAPH_H_
#define DPSP_CORE_PATH_GRAPH_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/distance_oracle.h"
#include "core/range_sums.h"
#include "dp/privacy.h"
#include "dp/release_context.h"

namespace dpsp {

/// eps-DP all-pairs distance oracle for the path graph 0-1-...-(V-1).
class PathGraphOracle final : public DistanceOracle {
 public:
  /// Registry name of this mechanism.
  static constexpr const char* kName = "path-hierarchy";

  /// Builds the hierarchy through the release pipeline: draws one release
  /// of ctx.params() from the accountant and records telemetry.
  static Result<std::unique_ptr<PathGraphOracle>> Build(
      const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx);

  /// Legacy entry point without budget accounting. `graph` must be
  /// MakePathGraph(V)-shaped: edge i joins vertices i and i+1 (validated).
  /// Weights non-negative.
  static Result<std::unique_ptr<PathGraphOracle>> Build(
      const Graph& graph, const EdgeWeights& w, const PrivacyParams& params,
      Rng* rng);

  /// Estimated distance |path sum| between u and v; symmetric in (u, v).
  Result<double> Distance(VertexId u, VertexId v) const override;
  /// Fused serial kernel: validates every pair first, then answers pair i
  /// with one dyadic range sum while prefetching the blocks of pair i + 8.
  Status DistanceInto(std::span<const VertexPair> pairs,
                      double* out) const override;
  std::string Name() const override { return kName; }

  /// Number of hub levels (= sensitivity of the release).
  int num_levels() const { return sums_.num_levels(); }
  double noise_scale() const { return sums_.noise_scale(); }
  /// Total noisy block sums stored, for telemetry.
  int num_noisy_values() const { return sums_.num_blocks(); }

  /// Number of noisy values a query for [u, v) sums (for tests).
  Result<int> QuerySegmentCount(VertexId u, VertexId v) const;

  /// Persists the released hierarchy: the flat dyadic blocks plus
  /// {V, E, noise scale}.
  Status SaveReleasedState(std::vector<ReleasedSection>* out) const override;

  /// OracleLoader counterpart: validates the path shape and installs the
  /// persisted blocks. Bit-identical queries, no budget consumed.
  static Result<std::unique_ptr<DistanceOracle>> FromReleasedState(
      const Graph& graph, const EdgeWeights& w,
      std::span<const ReleasedSectionView> sections);

 private:
  explicit PathGraphOracle(NoisyDyadicRangeSums sums)
      : sums_(std::move(sums)) {}

  // Edge e's weight is value e: V vertices hold V - 1 values, and the u-v
  // distance is the range sum over [min(u, v), max(u, v)).
  int num_vertices() const { return sums_.size() + 1; }

  NoisyDyadicRangeSums sums_;
};

/// High-probability per-pair error bound of Theorem A.1 with the proved
/// constants (Lemma 3.1 over at most 2 #levels summands).
double PathGraphErrorBound(int num_vertices, const PrivacyParams& params,
                           double gamma);

}  // namespace dpsp

#endif  // DPSP_CORE_PATH_GRAPH_H_
