// Delta-propagating incremental bisimulation (Sec. 3.2, "Maintenance of
// BiG-index"; cf. Deng et al. TKDE'13 and Luo et al.'s localized
// maintenance, arXiv 1210.0748).
//
// Instead of re-refining a whole layer after an edge batch, the caller
// supplies the previous stable partition as a *seed* plus the set of
// vertices whose local signature may have drifted from what that stability
// proved. Refinement then runs in two exact phases:
//
//   Phase 1 (split): a worklist pass that re-signs only blocks containing
//   dirty vertices, splits them by (label, out-neighbor block set), and
//   marks in-neighbors of moved vertices dirty for the next round. At
//   fixpoint this yields the *coarsest stable refinement of the seed* —
//   splits are forced (any stable refinement must make them) and untouched
//   blocks stay signature-uniform by a transfer argument (none of their
//   members' out-neighbors ever changed block).
//
//   Phase 2 (merge): removals — and additions — can make previously
//   distinct blocks bisimilar, which splitting alone can never undo. Since
//   the phase-1 partition P is stable and label-uniform, max-bisim(G) is
//   exactly the pullback of max-bisim(G/P): we materialize the quotient
//   graph (summary-sized) and find its merges. The seed comes from a
//   maximal bisimulation, so the old quotient was *reduced* and the merge
//   step runs as a localized scan over the backward closure of the changed
//   blocks (DetectMerges); in the common no-merge case the quotient graph is
//   returned as the summary directly, skipping the final full-graph
//   materialization.
//
// The composed partition is renumbered in first-occurrence order over the
// vertex scan and the summary is materialized exactly as
// bisim/bisimulation.cc does, so the returned BisimResult is byte-identical
// (summary + mapping) to a from-scratch ComputeBisimulation of the updated
// graph — the differential harness in tests/update_differential_test.cpp
// holds this to serialized-image equality over random update streams.
//
// Deciding when a dirty set is too large to localize is the caller's job
// (MaintainOptions::fallback_dirty_ratio in update/maintain.h); this
// function always runs the localized split pass.

#ifndef BIGINDEX_UPDATE_INCREMENTAL_H_
#define BIGINDEX_UPDATE_INCREMENTAL_H_

#include <span>
#include <vector>

#include "bisim/bisimulation.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace bigindex {

class ExecutorPool;

/// Options for IncrementalBisimulation.
struct IncrementalBisimOptions {
  /// Worker pool forwarded to the merge scan's wholesale fallback (the
  /// localized split pass itself is serial — its work set is small by
  /// construction). Output is byte-identical for every pool size.
  ExecutorPool* pool = nullptr;

  /// Optional per-vertex label override (one entry per vertex of `g`). When
  /// non-empty, signatures, the quotient, and the materialized summary use
  /// labels[v] instead of g.label(v) — this lets maintenance refine against
  /// Gen(G, C) without ever materializing the generalized graph (the output
  /// is byte-identical to running on Generalize(g, config)).
  std::span<const LabelId> labels;

  /// Optional tighter changed set for the merge scan: vertices whose own
  /// adjacency, label, or block membership genuinely changed — as opposed to `dirty`, which also carries renaming-only
  /// vertices (out-neighbors moved to renumbered blocks) that phase 1 must
  /// re-sign but whose quotient-level behavior is unchanged up to the
  /// correspondence. Renaming-only blocks always have a quotient edge into
  /// a changed block, so the scan's backward closure recovers them without
  /// seeding them. Empty = use `dirty`.
  std::span<const VertexId> merge_changed;
};

/// Provenance of each final block relative to the seed partition. Lets the
/// caller derive the next layer's vertex correspondence in O(#blocks)
/// instead of re-matching member sets with a whole-graph scan.
struct IncrementalBisimTrace {
  /// final block id -> the seed id (the caller's original seed_partition
  /// value) every member descends from; kInvalidVertex when members of
  /// different seed blocks merged.
  std::vector<VertexId> seed_of_final;

  /// final block id -> true iff its member set is exactly its seed block's
  /// member set: the seed block never split (phase 1) and nothing merged
  /// into it (phase 2). Intact blocks inherit the seed block's identity.
  std::vector<char> intact;
};

/// Renumbers `partition` (one entry per vertex of `g`, arbitrary ids
/// < id_bound) in first-occurrence order over the vertex scan and
/// materializes the quotient summary exactly as bisim/bisimulation.cc does,
/// so results are byte-identical to ComputeBisimulation when `partition` is
/// the maximal bisimulation. `labels` optionally overrides g's labels (see
/// IncrementalBisimOptions::labels). `old_to_final`, when non-null, receives
/// the id_bound-sized renumbering table (untouched ids map to UINT32_MAX).
/// `rounds` is copied into the result's diagnostics field.
BisimResult MaterializePartition(const Graph& g, std::span<const LabelId> labels,
                                 std::vector<uint32_t> partition,
                                 size_t id_bound, size_t rounds,
                                 std::vector<uint32_t>* old_to_final = nullptr);

/// Diagnostics from one IncrementalBisimulation call.
struct IncrementalBisimStats {
  size_t dirty_seed = 0;        // dirty vertices handed in by the caller
  size_t split_rounds = 0;      // phase-1 worklist rounds
  size_t vertices_resigned = 0; // signature recomputations in phase 1
  size_t quotient_vertices = 0; // |P1| fed to the phase-2 merge
  size_t merge_active = 0;      // merge-scan working set
  bool merge_localized = false; // merge scan stayed delta-local
};

/// Result of DetectMerges: the maximal bisimulation of the scanned graph as
/// a dense partition over its nodes.
struct MergeScan {
  std::vector<uint32_t> block_of;  // node -> merge class (dense ids)
  size_t num_classes = 0;          // == NumVertices() iff nothing merged
  size_t active = 0;               // refinement working-set size
  size_t rounds = 0;               // refinement rounds (diagnostics)
  bool localized = false;          // false = fell back to wholesale CB
};

/// Default fallback threshold for DetectMerges. The merge scan runs on the
/// summary-sized quotient and its localized split pass is linear in the
/// active region, so it stays cheaper than wholesale re-summarization until
/// the active set covers most of the quotient — a far higher bar than the
/// vertex-level MaintainOptions::fallback_dirty_ratio.
inline constexpr double kMergeScanFallbackRatio = 0.75;

/// Maximal bisimulation of `q`, computed delta-locally. Precondition: `q` is
/// a perturbation of a REDUCED graph (no two nodes bisimilar — every
/// BiG-index summary qualifies, being the quotient of a maximal
/// bisimulation) such that every node whose label, out-edge set, or
/// underlying membership differs from its pre-image is listed in `changed`.
///
/// Soundness sketch: a node that cannot reach `changed` has an unchanged
/// forward cone, so two distinct such nodes were distinct in the reduced
/// pre-image and stay non-bisimilar. Hence every merge class is confined to
/// the backward closure of `changed` plus at most one outside partner per
/// class — and partners must match an in-closure node's (label,
/// successor-label set) invariant. Grouping that active set by label and
/// splitting to stability (singletons elsewhere) therefore computes exactly
/// the maximal bisimulation, touching only the perturbed region. Falls back
/// to wholesale ComputeBisimulation when the active set exceeds
/// `fallback_active_ratio` of the graph (output identical either way).
MergeScan DetectMerges(const Graph& q, std::span<const VertexId> changed,
                       double fallback_active_ratio, ExecutorPool* pool);

/// Computes the maximal (successor) bisimulation of `g`, seeded with a
/// previous partition.
///
/// `seed_partition` has one entry per vertex of `g`; block ids may be
/// arbitrary values other than kInvalidVertex (they are densified through a
/// table sized by the largest id). `dirty` lists vertices whose signature
/// the seed's stability no longer vouches for.
///
/// Preconditions (the caller's obligation; maintain.cc derives them from
/// the layer correspondence):
///   * for any two vertices u, v in the same seed block with NEITHER listed
///     in `dirty`, u and v carry the same label and the same set of seed
///     blocks over their out-neighbors (dirty closure under refinement is
///     handled internally);
///   * the seed restricted to non-dirty vertices is transported from the
///     MAXIMAL bisimulation of a predecessor graph — whose quotient is
///     therefore reduced: no two of its blocks are bisimilar — and `dirty`
///     (or `merge_changed`, when given) covers every vertex whose seed
///     block's quotient-level behavior (label, membership, or block-level
///     out-edges) differs from that predecessor's. This is what confines
///     merges to the localized scan.
/// Violating either can yield a partition coarser than maximal
/// bisimulation; neither is checked at runtime — the differential tests
/// guard them.
///
/// Returns a BisimResult byte-identical to ComputeBisimulation(g) with
/// default options (refinement_rounds is diagnostics-only and differs).
///
/// `trace`, when non-null, is filled with per-final-block seed provenance.
StatusOr<BisimResult> IncrementalBisimulation(
    const Graph& g, std::span<const VertexId> seed_partition,
    std::span<const VertexId> dirty,
    const IncrementalBisimOptions& options = {},
    IncrementalBisimStats* stats = nullptr,
    IncrementalBisimTrace* trace = nullptr);

}  // namespace bigindex

#endif  // BIGINDEX_UPDATE_INCREMENTAL_H_
