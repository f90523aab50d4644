// Boundary-aware cross-shard evaluation (DESIGN.md §9).
//
// A bfs-mode shard plan severs edges; ghost materialization (ExtractShard)
// puts both endpoints of every cut edge in both incident shards, so each
// worker sees the true global neighborhood of every owned vertex up to the
// first cut crossing. This module computes the two derived structures the
// exactness argument rests on:
//
//   * ComputeShardBoundary — worker side. Undirected distance-to-cut for
//     every local vertex (capped at R = 2 * max locality radius) plus the
//     BoundaryExport: the owned vertices within R of the cut, the edges
//     among them, and the shard's incident cut edges, all in global ids.
//     Workers drop answers anchored within rho of the cut (they may be
//     wrong or missing locally); everything farther is provably exact on
//     the shard alone, because its whole dependence ball is cut-free.
//
//   * AssembleBoundaryRegion — coordinator side. Glues the per-shard
//     exports into one region graph (order-preserving global->region remap,
//     cut edges deduped, distance-to-cut recomputed on the region). The
//     coordinator evaluates the query on the region and keeps exactly the
//     answers anchored within rho of the cut: the region contains every
//     vertex and edge within R >= 2*rho of the cut, so those answers — and
//     their scores — match the monolithic graph. Far answers from workers
//     plus near answers from the region partition the monolithic answer
//     set, so the merge is exact.

#ifndef BIGINDEX_SHARD_BOUNDARY_H_
#define BIGINDEX_SHARD_BOUNDARY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "graph/graph.h"
#include "server/query_service.h"
#include "util/status.h"

namespace bigindex {

/// (name, LocalityRadius) of every algorithm registered on `engine`,
/// ascending by name. Radius 0 marks an algorithm whose answer locality is
/// unknown — it is excluded from boundary filtering and completion.
std::vector<std::pair<std::string, uint32_t>> AlgorithmRadii(
    const QueryEngine& engine);

/// Computes one shard's boundary state from its local graph (`local`, with
/// ghosts materialized), the local->global remap, the ghost local ids, and
/// the per-algorithm locality radii (AlgorithmRadii of the worker's engine).
/// The export cap is R = 2 * max radius. Ghost-free shards yield a state
/// with an empty export (no cut: nothing filtered, nothing completed).
/// Deterministic; the result is immutable and safe to share across threads.
std::shared_ptr<const ShardBoundary> ComputeShardBoundary(
    const Graph& local, std::span<const VertexId> global_of,
    std::span<const VertexId> ghosts,
    std::vector<std::pair<std::string, uint32_t>> algo_radius);

/// The coordinator's assembled boundary region: the union of the per-shard
/// exports under an order-preserving global->region remap.
struct BoundaryRegion {
  Graph graph;
  /// Region-local -> global vertex id, strictly ascending.
  std::vector<VertexId> global_of;
  /// Undirected distance to the nearest cut endpoint, per region-local
  /// vertex, capped at radius_cap (kInfDistance beyond).
  std::vector<uint32_t> dist_to_cut;
  /// min over the contributing exports' caps: completion for an algorithm
  /// of radius rho is sound only when 2*rho <= radius_cap.
  uint32_t radius_cap = 0;
  bool has_cut = false;
};

/// Glues per-shard exports into the region. Empty/ghost-free exports
/// contribute nothing; with no cut edge anywhere the region is empty and
/// has_cut is false. Fails with Corruption when the exports are mutually
/// inconsistent (a cut endpoint no shard exported, conflicting labels).
StatusOr<BoundaryRegion> AssembleBoundaryRegion(
    std::span<const BoundaryExport> exports);

}  // namespace bigindex

#endif  // BIGINDEX_SHARD_BOUNDARY_H_
