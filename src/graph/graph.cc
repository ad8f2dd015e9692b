#include "graph/graph.h"

#include <cmath>
#include <limits>

#include "common/table.h"

namespace dpsp {

Graph::Graph(int num_vertices, std::vector<EdgeEndpoints> edges,
             bool directed) {
  auto s = std::make_shared<Storage>();
  s->num_vertices = num_vertices;
  s->directed = directed;
  s->edges = std::move(edges);
  // CSR build: count degrees, prefix-sum into offsets, then scatter. Entry
  // order per vertex matches the old per-vertex push_back order (edge
  // insertion order), which BFS-based constructions rely on.
  AlignedVector<uint32_t>& offset = s->adj_offset;
  offset.assign(static_cast<size_t>(num_vertices) + 1, 0);
  for (const EdgeEndpoints& ep : s->edges) {
    ++offset[static_cast<size_t>(ep.u) + 1];
    if (!directed) ++offset[static_cast<size_t>(ep.v) + 1];
  }
  for (size_t u = 0; u < static_cast<size_t>(num_vertices); ++u) {
    offset[u + 1] += offset[u];
  }
  size_t slots = offset[static_cast<size_t>(num_vertices)];
  s->adj_to.resize(slots);
  s->adj_edge.resize(slots);
  std::vector<uint32_t> cursor(offset.begin(), offset.end() - 1);
  for (EdgeId e = 0; e < static_cast<EdgeId>(s->edges.size()); ++e) {
    const EdgeEndpoints& ep = s->edges[static_cast<size_t>(e)];
    uint32_t slot = cursor[static_cast<size_t>(ep.u)]++;
    s->adj_to[slot] = ep.v;
    s->adj_edge[slot] = e;
    if (!directed) {
      slot = cursor[static_cast<size_t>(ep.v)]++;
      s->adj_to[slot] = ep.u;
      s->adj_edge[slot] = e;
    }
  }
  storage_ = std::move(s);
}

Result<Graph> Graph::Create(int num_vertices, std::vector<EdgeEndpoints> edges,
                            bool directed) {
  if (num_vertices < 0) {
    return Status::InvalidArgument("num_vertices must be non-negative");
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    const EdgeEndpoints& ep = edges[i];
    if (ep.u < 0 || ep.u >= num_vertices || ep.v < 0 || ep.v >= num_vertices) {
      return Status::InvalidArgument(
          StrFormat("edge %zu endpoints (%d, %d) out of range [0, %d)", i,
                    ep.u, ep.v, num_vertices));
    }
    if (ep.u == ep.v) {
      return Status::InvalidArgument(
          StrFormat("edge %zu is a self-loop at vertex %d", i, ep.u));
    }
  }
  return Graph(num_vertices, std::move(edges), directed);
}

VertexId Graph::OtherEndpoint(EdgeId e, VertexId from) const {
  const EdgeEndpoints& ep = edge(e);
  DPSP_CHECK_MSG(ep.u == from || ep.v == from,
                 "OtherEndpoint: vertex not incident to edge");
  return ep.u == from ? ep.v : ep.u;
}

namespace {

// One pass over `w`: OK iff it has `num_edges` entries, each finite and at
// least `lowest`.
Status CheckWeights(const EdgeWeights& w, int num_edges, double lowest) {
  if (static_cast<int>(w.size()) != num_edges) {
    return Status::InvalidArgument(
        StrFormat("weight vector has %zu entries, graph has %d edges",
                  w.size(), num_edges));
  }
  constexpr double kMax = std::numeric_limits<double>::max();
  for (size_t i = 0; i < w.size(); ++i) {
    if (w[i] >= lowest && w[i] <= kMax) continue;  // false for NaN too
    return Status::InvalidArgument(
        StrFormat("weight of edge %zu is %s (%g)", i,
                  std::isfinite(w[i]) ? "negative" : "not finite", w[i]));
  }
  return Status::Ok();
}

}  // namespace

Status Graph::ValidateWeights(const EdgeWeights& w) const {
  return CheckWeights(w, num_edges(), -std::numeric_limits<double>::max());
}

Status Graph::ValidateNonNegativeWeights(const EdgeWeights& w) const {
  return CheckWeights(w, num_edges(), 0.0);
}

std::string Graph::ToString() const {
  return StrFormat("Graph(V=%d, E=%d, %s)", num_vertices(), num_edges(),
                   directed() ? "directed" : "undirected");
}

double TotalWeight(const EdgeWeights& weights,
                   const std::vector<EdgeId>& edges) {
  double sum = 0.0;
  for (EdgeId e : edges) sum += weights[static_cast<size_t>(e)];
  return sum;
}

}  // namespace dpsp
