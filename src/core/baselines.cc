#include "core/baselines.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/table.h"
#include "core/released_state.h"
#include "dp/composition.h"
#include "dp/laplace_mechanism.h"
#include "graph/shortest_path.h"

namespace dpsp {

namespace {

// The three baseline oracles all release a dense matrix; they share one
// persistence image: "matrix" (row-major doubles) + "meta" (n).
Status SaveMatrixState(const DistanceMatrix& matrix,
                       std::vector<ReleasedSection>* out) {
  out->push_back(released_state::Pack<double>(
      "matrix", std::span<const double>(matrix.data())));
  out->push_back(released_state::PackScalars(
      "meta", {static_cast<double>(matrix.size())}));
  return Status::Ok();
}

Result<DistanceMatrix> RestoreMatrixState(
    const Graph& graph, std::span<const ReleasedSectionView> sections) {
  DPSP_ASSIGN_OR_RETURN(std::span<const double> meta,
                        released_state::Require<double>(sections, "meta", 1));
  DPSP_ASSIGN_OR_RETURN(int n,
                        released_state::AsInt(meta[0], "matrix size"));
  if (n != graph.num_vertices()) {
    return Status::InvalidArgument(StrFormat(
        "snapshot matrix is %d x %d but the workload has %d vertices", n, n,
        graph.num_vertices()));
  }
  DPSP_ASSIGN_OR_RETURN(
      std::span<const double> data,
      released_state::Require<double>(
          sections, "matrix", static_cast<long>(n) * static_cast<long>(n)));
  return DistanceMatrix::FromData(
      n, std::vector<double>(data.begin(), data.end()));
}

// Fused serial kernel over a dense distance matrix: one row-major load per
// pair, bounds checks folded into the loop. Shared by the three baseline
// oracles whose released object is a matrix.
Status MatrixDistanceInto(const DistanceMatrix& matrix,
                          std::span<const VertexPair> pairs, double* out) {
  const unsigned n = static_cast<unsigned>(matrix.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& [u, v] = pairs[i];
    if (static_cast<unsigned>(u) >= n || static_cast<unsigned>(v) >= n) {
      return Status::InvalidArgument("vertex out of range");
    }
    out[i] = matrix.at(u, v);
  }
  return Status::Ok();
}

class ExactOracle final : public DistanceOracle {
 public:
  explicit ExactOracle(DistanceMatrix matrix) : matrix_(std::move(matrix)) {}

  Result<double> Distance(VertexId u, VertexId v) const override {
    if (u < 0 || u >= matrix_.size() || v < 0 || v >= matrix_.size()) {
      return Status::InvalidArgument("vertex out of range");
    }
    return matrix_.at(u, v);
  }

  Status DistanceInto(std::span<const VertexPair> pairs,
                      double* out) const override {
    return MatrixDistanceInto(matrix_, pairs, out);
  }

  std::string Name() const override { return kExactOracleName; }

  Status SaveReleasedState(std::vector<ReleasedSection>* out) const override {
    return SaveMatrixState(matrix_, out);
  }

 private:
  DistanceMatrix matrix_;
};

// Dense symmetric noisy-distance table (also used by the approx variant).
class PerPairLaplaceOracle final : public DistanceOracle {
 public:
  PerPairLaplaceOracle(DistanceMatrix noisy, std::string name)
      : noisy_(std::move(noisy)), name_(std::move(name)) {}

  Result<double> Distance(VertexId u, VertexId v) const override {
    if (u < 0 || u >= noisy_.size() || v < 0 || v >= noisy_.size()) {
      return Status::InvalidArgument("vertex out of range");
    }
    return noisy_.at(u, v);
  }

  Status DistanceInto(std::span<const VertexPair> pairs,
                      double* out) const override {
    return MatrixDistanceInto(noisy_, pairs, out);
  }

  std::string Name() const override { return name_; }

  Status SaveReleasedState(std::vector<ReleasedSection>* out) const override {
    DPSP_RETURN_IF_ERROR(SaveMatrixState(noisy_, out));
    // The display name encodes the composition mode chosen at build time
    // (pure vs approx), which restore cannot re-derive without params.
    ReleasedSection name;
    name.label = "name";
    name.bytes.assign(name_.begin(), name_.end());
    out->push_back(std::move(name));
    return Status::Ok();
  }

 private:
  DistanceMatrix noisy_;
  std::string name_;
};

class SyntheticGraphOracle final : public DistanceOracle {
 public:
  explicit SyntheticGraphOracle(DistanceMatrix distances)
      : distances_(std::move(distances)) {}

  Result<double> Distance(VertexId u, VertexId v) const override {
    if (u < 0 || u >= distances_.size() || v < 0 || v >= distances_.size()) {
      return Status::InvalidArgument("vertex out of range");
    }
    return distances_.at(u, v);
  }

  Status DistanceInto(std::span<const VertexPair> pairs,
                      double* out) const override {
    return MatrixDistanceInto(distances_, pairs, out);
  }

  std::string Name() const override { return kSyntheticGraphOracleName; }

  Status SaveReleasedState(std::vector<ReleasedSection>* out) const override {
    return SaveMatrixState(distances_, out);
  }

 private:
  DistanceMatrix distances_;
};

}  // namespace

Result<double> PrivateSinglePairDistance(const Graph& graph,
                                         const EdgeWeights& w, VertexId u,
                                         VertexId v,
                                         const PrivacyParams& params,
                                         Rng* rng) {
  DPSP_RETURN_IF_ERROR(params.Validate());
  if (!graph.HasVertex(u) || !graph.HasVertex(v)) {
    return Status::InvalidArgument("vertex out of range");
  }
  DPSP_ASSIGN_OR_RETURN(ShortestPathTree tree, Dijkstra(graph, w, u));
  double truth = tree.distance[static_cast<size_t>(v)];
  if (truth == kInfiniteDistance) {
    return Status::NotFound("vertices are disconnected");
  }
  // A single distance has sensitivity 1 per unit l1 change in the weights.
  return LaplaceMechanismScalar(truth, 1.0, params, rng);
}

Result<std::unique_ptr<DistanceOracle>> MakeExactOracle(const Graph& graph,
                                                        const EdgeWeights& w) {
  DPSP_ASSIGN_OR_RETURN(DistanceMatrix matrix, AllPairsDijkstra(graph, w));
  return std::unique_ptr<DistanceOracle>(new ExactOracle(std::move(matrix)));
}

Result<std::unique_ptr<DistanceOracle>> MakeExactOracle(const Graph& graph,
                                                        const EdgeWeights& w,
                                                        ReleaseContext& ctx) {
  WallTimer timer;
  DPSP_ASSIGN_OR_RETURN(auto oracle, MakeExactOracle(graph, w));
  ReleaseTelemetry t;
  t.mechanism = kExactOracleName;  // eps/delta stay 0: nothing is private
  t.wall_ms = timer.Ms();
  ctx.RecordTelemetry(std::move(t));
  return oracle;
}

Result<double> PerPairLaplaceNoiseScale(int num_pairs,
                                        const PrivacyParams& params) {
  DPSP_RETURN_IF_ERROR(params.Validate());
  if (num_pairs < 1) {
    return Status::InvalidArgument("need at least one pair");
  }
  DPSP_ASSIGN_OR_RETURN(
      double per_query_eps,
      PerQueryEpsilonBest(num_pairs, params.epsilon, params.delta));
  return params.neighbor_l1_bound / per_query_eps;
}

Result<std::unique_ptr<DistanceOracle>> MakePerPairLaplaceOracle(
    const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx) {
  // Checked before the metered build, so refused weights log no intent
  // and draw nothing.
  DPSP_RETURN_IF_ERROR(graph.ValidateNonNegativeWeights(w));
  const int n = graph.num_vertices();
  const int num_pairs = std::max(1, n * (n - 1) / 2);
  return ctx.MeteredBuild(
      kPerPairLaplaceOracleName,
      [&]() -> Result<std::unique_ptr<DistanceOracle>> {
        DPSP_ASSIGN_OR_RETURN(DistanceMatrix exact,
                              AllPairsDijkstra(graph, w));
        DPSP_ASSIGN_OR_RETURN(
            double scale, PerPairLaplaceNoiseScale(num_pairs, ctx.params()));
        Rng* rng = ctx.rng();
        DistanceMatrix noisy(n);
        for (VertexId u = 0; u < n; ++u) {
          for (VertexId v = u + 1; v < n; ++v) {
            double truth = exact.at(u, v);
            double released = truth == kInfiniteDistance
                                  ? kInfiniteDistance
                                  : truth + rng->Laplace(scale);
            noisy.set(u, v, released);
            noisy.set(v, u, released);
          }
        }
        std::string name = ctx.params().pure() ? "per-pair-laplace(pure)"
                                               : "per-pair-laplace(approx)";
        return std::unique_ptr<DistanceOracle>(
            new PerPairLaplaceOracle(std::move(noisy), std::move(name)));
      },
      [&](const DistanceOracle&, ReleaseTelemetry& t) {
        // Joint l1 sensitivity under basic composition.
        t.sensitivity = num_pairs;
        if (Result<double> scale =
                PerPairLaplaceNoiseScale(num_pairs, ctx.params());
            scale.ok()) {
          t.noise_scale = *scale;
        }
        t.noise_draws = num_pairs;
      });
}

Result<std::unique_ptr<DistanceOracle>> MakeSyntheticGraphOracle(
    const Graph& graph, const EdgeWeights& w, ReleaseContext& ctx) {
  // Checked before the metered build, so refused weights log no intent
  // and draw nothing.
  DPSP_RETURN_IF_ERROR(graph.ValidateNonNegativeWeights(w));
  return ctx.MeteredBuild(
      kSyntheticGraphOracleName,
      [&]() -> Result<std::unique_ptr<DistanceOracle>> {
        // Releasing the entire weight vector is a sensitivity-1 query
        // (identity).
        DPSP_ASSIGN_OR_RETURN(
            EdgeWeights noisy,
            LaplaceMechanism(w, 1.0, ctx.params(), ctx.rng()));
        // Clamping at zero is post-processing and keeps Dijkstra
        // applicable.
        for (double& x : noisy) x = std::max(0.0, x);
        DPSP_ASSIGN_OR_RETURN(DistanceMatrix distances,
                              AllPairsDijkstra(graph, noisy));
        return std::unique_ptr<DistanceOracle>(
            new SyntheticGraphOracle(std::move(distances)));
      },
      [&](const DistanceOracle&, ReleaseTelemetry& t) {
        t.sensitivity = 1.0;  // identity query on the weight vector
        t.noise_scale = ctx.params().neighbor_l1_bound / ctx.params().epsilon;
        t.noise_draws = graph.num_edges();
      });
}

Result<std::vector<double>> PrivateSingleSourceDistances(
    const Graph& graph, const EdgeWeights& w, VertexId source,
    const PrivacyParams& params, Rng* rng) {
  DPSP_RETURN_IF_ERROR(params.Validate());
  if (!graph.HasVertex(source)) {
    return Status::InvalidArgument("source vertex out of range");
  }
  DPSP_ASSIGN_OR_RETURN(ShortestPathTree tree, Dijkstra(graph, w, source));
  int queries = std::max(1, graph.num_vertices() - 1);
  DPSP_ASSIGN_OR_RETURN(
      double per_query_eps,
      PerQueryEpsilonBest(queries, params.epsilon, params.delta));
  double scale = params.neighbor_l1_bound / per_query_eps;
  std::vector<double> out(tree.distance.size(), kInfiniteDistance);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (v == source) {
      out[static_cast<size_t>(v)] = 0.0;
      continue;
    }
    if (tree.Reachable(v)) {
      out[static_cast<size_t>(v)] =
          tree.distance[static_cast<size_t>(v)] + rng->Laplace(scale);
    }
  }
  return out;
}

double Drv10ErrorFormula(double w1_norm, int num_vertices, double epsilon,
                         double delta) {
  DPSP_CHECK_MSG(w1_norm >= 0.0 && num_vertices >= 2 && epsilon > 0.0 &&
                     delta > 0.0 && delta < 1.0,
                 "invalid DRV10 formula arguments");
  double log_v = std::log(static_cast<double>(num_vertices));
  double log_d = std::log(1.0 / delta);
  return std::sqrt(w1_norm) * log_v * std::pow(log_d, 1.5) / epsilon;
}

Result<std::unique_ptr<DistanceOracle>> RestoreExactOracle(
    const Graph& graph, const EdgeWeights& w,
    std::span<const ReleasedSectionView> sections) {
  (void)w;
  DPSP_ASSIGN_OR_RETURN(DistanceMatrix matrix,
                        RestoreMatrixState(graph, sections));
  return std::unique_ptr<DistanceOracle>(new ExactOracle(std::move(matrix)));
}

Result<std::unique_ptr<DistanceOracle>> RestorePerPairLaplaceOracle(
    const Graph& graph, const EdgeWeights& w,
    std::span<const ReleasedSectionView> sections) {
  (void)w;
  DPSP_ASSIGN_OR_RETURN(DistanceMatrix matrix,
                        RestoreMatrixState(graph, sections));
  DPSP_ASSIGN_OR_RETURN(ReleasedSectionView name_section,
                        released_state::Find(sections, "name"));
  std::string name(reinterpret_cast<const char*>(name_section.bytes.data()),
                   name_section.bytes.size());
  return std::unique_ptr<DistanceOracle>(
      new PerPairLaplaceOracle(std::move(matrix), std::move(name)));
}

Result<std::unique_ptr<DistanceOracle>> RestoreSyntheticGraphOracle(
    const Graph& graph, const EdgeWeights& w,
    std::span<const ReleasedSectionView> sections) {
  (void)w;
  DPSP_ASSIGN_OR_RETURN(DistanceMatrix matrix,
                        RestoreMatrixState(graph, sections));
  return std::unique_ptr<DistanceOracle>(
      new SyntheticGraphOracle(std::move(matrix)));
}

}  // namespace dpsp
