#include "shard/boundary.h"

#include <algorithm>
#include <cassert>

#include "graph/csr.h"

namespace bigindex {
namespace {

/// Multi-source undirected BFS from `seeds` (all at distance 0), capped at
/// `cap`: dist[v] = min distance to a seed, kInfDistance beyond the cap.
void DistanceFromSeeds(const Graph& g, std::span<const VertexId> seeds,
                       uint32_t cap, std::vector<uint32_t>& dist) {
  dist.assign(g.NumVertices(), kInfDistance);
  std::vector<VertexId> queue;
  queue.reserve(seeds.size());
  for (VertexId s : seeds) {
    if (dist[s] == kInfDistance) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  const CsrView out = g.Out(), in = g.In();
  size_t head = 0;
  while (head < queue.size()) {
    VertexId v = queue[head++];
    uint32_t d = dist[v];
    if (d >= cap) continue;
    auto visit = [&](VertexId w) {
      if (dist[w] != kInfDistance) return;
      dist[w] = d + 1;
      queue.push_back(w);
    };
    const auto oi = out[v];
    for (uint64_t i = oi.begin; i < oi.end; ++i) visit(out.Slot(i));
    const auto ii = in[v];
    for (uint64_t i = ii.begin; i < ii.end; ++i) visit(in.Slot(i));
  }
}

}  // namespace

std::vector<std::pair<std::string, uint32_t>> AlgorithmRadii(
    const QueryEngine& engine) {
  std::vector<std::pair<std::string, uint32_t>> radii;
  for (std::string_view name : engine.AlgorithmNames()) {
    const KeywordSearchAlgorithm* algo = engine.algorithm(name);
    if (algo != nullptr) {
      radii.emplace_back(std::string(name), algo->LocalityRadius());
    }
  }
  std::sort(radii.begin(), radii.end());
  return radii;
}

std::shared_ptr<const ShardBoundary> ComputeShardBoundary(
    const Graph& local, std::span<const VertexId> global_of,
    std::span<const VertexId> ghosts,
    std::vector<std::pair<std::string, uint32_t>> algo_radius) {
  assert(global_of.size() == local.NumVertices());
  auto boundary = std::make_shared<ShardBoundary>();
  boundary->algo_radius = std::move(algo_radius);

  uint32_t max_rho = 0;
  for (const auto& [name, rho] : boundary->algo_radius) {
    max_rho = std::max(max_rho, rho);
  }
  // A near answer's dependence ball reaches rho from its anchor, and the
  // anchor is at most rho from the cut, so the region must cover 2*rho.
  const uint32_t cap = 2 * max_rho;
  boundary->export_data.radius_cap = cap;

  if (ghosts.empty()) {
    boundary->dist_to_cut.assign(local.NumVertices(), kInfDistance);
    return boundary;
  }

  std::vector<bool> is_ghost(local.NumVertices(), false);
  for (VertexId g : ghosts) is_ghost[g] = true;

  // Cut endpoints present locally: the ghosts themselves and every owned
  // endpoint of a ghost-incident edge (each such edge IS a cut edge — a
  // materialized edge always has exactly one owned endpoint when it
  // crosses the cut).
  std::vector<VertexId> seeds(ghosts.begin(), ghosts.end());
  const CsrView out = local.Out();
  for (VertexId u = 0; u < local.NumVertices(); ++u) {
    const auto oi = out[u];
    for (uint64_t i = oi.begin; i < oi.end; ++i) {
      VertexId w = out.Slot(i);
      if (is_ghost[u] != is_ghost[w]) {
        seeds.push_back(is_ghost[u] ? w : u);
      }
    }
  }
  DistanceFromSeeds(local, seeds, cap, boundary->dist_to_cut);

  BoundaryExport& ex = boundary->export_data;
  for (VertexId v = 0; v < local.NumVertices(); ++v) {
    if (!is_ghost[v] && boundary->dist_to_cut[v] <= cap) {
      ex.vertices.emplace_back(global_of[v], local.label(v));
    }
  }
  for (VertexId u = 0; u < local.NumVertices(); ++u) {
    const auto oi = out[u];
    for (uint64_t i = oi.begin; i < oi.end; ++i) {
      VertexId w = out.Slot(i);
      if (is_ghost[u] != is_ghost[w]) {
        ex.cut_edges.emplace_back(global_of[u], global_of[w]);
      } else if (!is_ghost[u] && !is_ghost[w] &&
                 boundary->dist_to_cut[u] <= cap &&
                 boundary->dist_to_cut[w] <= cap) {
        ex.edges.emplace_back(global_of[u], global_of[w]);
      }
      // Ghost-ghost edges cannot exist: a materialized cut edge has exactly
      // one owned endpoint, and intra-shard edges have two.
    }
  }
  return boundary;
}

StatusOr<BoundaryRegion> AssembleBoundaryRegion(
    std::span<const BoundaryExport> exports) {
  BoundaryRegion region;
  region.radius_cap = kInfDistance;
  std::vector<std::pair<VertexId, LabelId>> vertices;
  std::vector<std::pair<VertexId, VertexId>> edges, cut_edges;
  for (const BoundaryExport& ex : exports) {
    if (!ex.HasCut()) continue;  // ghost-free shard: contributes nothing
    region.radius_cap = std::min(region.radius_cap, ex.radius_cap);
    vertices.insert(vertices.end(), ex.vertices.begin(), ex.vertices.end());
    edges.insert(edges.end(), ex.edges.begin(), ex.edges.end());
    cut_edges.insert(cut_edges.end(), ex.cut_edges.begin(),
                     ex.cut_edges.end());
  }
  if (cut_edges.empty()) {
    region.radius_cap = 0;
    return region;  // no cut anywhere: empty region, has_cut stays false
  }
  region.has_cut = true;

  // Vertex ownership is disjoint across shards, so duplicates can only come
  // from inconsistent exports.
  std::sort(vertices.begin(), vertices.end());
  for (size_t i = 1; i < vertices.size(); ++i) {
    if (vertices[i].first == vertices[i - 1].first) {
      return Status::Corruption(
          "boundary exports overlap: vertex " +
          std::to_string(vertices[i].first) + " exported by two shards");
    }
  }
  region.global_of.reserve(vertices.size());
  for (const auto& [id, label] : vertices) region.global_of.push_back(id);
  auto local_of = [&](VertexId global, VertexId* local) {
    auto it = std::lower_bound(region.global_of.begin(),
                               region.global_of.end(), global);
    if (it == region.global_of.end() || *it != global) return false;
    *local = static_cast<VertexId>(it - region.global_of.begin());
    return true;
  };

  GraphBuilder b;
  b.Reserve(vertices.size(), edges.size() + cut_edges.size());
  for (const auto& [id, label] : vertices) b.AddVertex(label);
  for (const auto& [u, v] : edges) {
    VertexId lu, lv;
    if (!local_of(u, &lu) || !local_of(v, &lv)) {
      return Status::Corruption("boundary export edge endpoint not exported");
    }
    b.AddEdge(lu, lv);
  }
  // Each cut edge arrives from both incident shards; GraphBuilder collapses
  // the duplicate. Every cut endpoint is owned by some shard at distance 0,
  // so it must appear in that shard's vertex export.
  std::vector<VertexId> seeds;
  seeds.reserve(2 * cut_edges.size());
  for (const auto& [u, v] : cut_edges) {
    VertexId lu, lv;
    if (!local_of(u, &lu) || !local_of(v, &lv)) {
      return Status::Corruption(
          "boundary cut endpoint not exported by its owning shard");
    }
    b.AddEdge(lu, lv);
    seeds.push_back(lu);
    seeds.push_back(lv);
  }
  auto graph = b.Build();
  if (!graph.ok()) return graph.status();
  region.graph = std::move(graph).value();
  DistanceFromSeeds(region.graph, seeds, region.radius_cap,
                    region.dist_to_cut);
  return region;
}

}  // namespace bigindex
