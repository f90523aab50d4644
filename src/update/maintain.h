// Whole-index incremental maintenance: applies a GraphUpdate batch to a
// BigIndex and produces the successor index *as if rebuilt from scratch*,
// propagating the update delta up the layer hierarchy only while block
// signatures actually change (Sec. 3.2; ROADMAP open item 4).
//
// The loop mirrors BigIndex::Build layer by layer — configuration,
// generalization, summarization, Build's exact stop test — so the result is
// byte-identical to BigIndex::Build on the updated base graph even when the
// layer count drifts. Unlike Build, every per-layer step is delta-localized
// when the batch allows it (docs/MAINTENANCE.md has the full cost model):
//
//   * configuration: FullOneStepConfiguration is a pure function of the
//     distinct-label set, and edge-only updates cannot change labels, so the
//     stored (already validated) layer config is reused whenever the
//     distinct-label sets match (SameFullConfiguration) — no per-layer
//     ontology walk;
//   * generalization: the generalized layer graph is never materialized on
//     the localized paths — refinement runs against the structural graph
//     plus a label-override table (IncrementalBisimOptions::labels), built
//     from the config in O(#labels);
//   * dirtiness: seeded from the delta's endpoints only (the sources of net
//     added/removed edges, then the provenance-tracked changed set per
//     layer), never from an O(V+E) drift scan;
//   * summarization, strongest case ("patched", LayerMaintenance::kPatched):
//     when the partition provably survives the delta (no-split probe over
//     the dirty blocks + discrete merge check), the summary is patched
//     directly from the projected block-level delta (ProjectDeltaToSummary +
//     ApplyDelta) and the old mapping is reused verbatim — per-layer cost is
//     O(|delta| * deg + |summary|), independent of the layer graph size;
//   * summarization, general case: seeded IncrementalBisimulation re-splits
//     only touched blocks; its seed-provenance trace yields the next
//     layer's vertex correspondence in O(#blocks) instead of the old
//     O(V + members) member-set rematch;
//   * verbatim copy of the old tail when the correspondence below is the
//     identity and the propagated delta is empty — Build is deterministic,
//     so everything above is provably unchanged;
//   * wholesale ComputeBisimulation otherwise (config drift, new layers
//     beyond the old stack, or a dirty frontier past fallback_dirty_ratio).
//     A wholesale layer carries no provenance, so every layer above it is
//     wholesale too.
//
// Correspondence persistence across batches: the successor preserves vertex
// numbering on every intact block (first-occurrence renumbering over an
// unchanged membership is the identity), so the base-level correspondence
// between consecutive generations is the identity *by construction* — batch
// N+1 starts exactly where batch N left off with no whole-graph rematch.
//
// Greedy-config indexes (use_greedy_config) fall back to a full
// BigIndex::Build: Algorithm 1's cost model samples the graph, so layer
// configs are not stable under updates and nothing can be reused soundly.
//
// The input index is not modified; the caller owns publication (see
// update/version_store.h and update/live_updater.h for the RCU serving
// path).

#ifndef BIGINDEX_UPDATE_MAINTAIN_H_
#define BIGINDEX_UPDATE_MAINTAIN_H_

#include <cstddef>
#include <span>
#include <vector>

#include "bisim/maintenance.h"
#include "core/big_index.h"
#include "update/incremental.h"
#include "util/status.h"

namespace bigindex {

/// Options for MaintainIndex.
struct MaintainOptions {
  /// Dirty-frontier ratio above which a layer (and so every layer above it)
  /// is re-summarized wholesale; 0 makes every layer wholesale. The
  /// localized split pass is worklist-driven — a large dirty set that causes
  /// few splits settles after one cheap re-sign round — so the threshold
  /// tolerates the in-neighbor widening the changed-set propagation applies
  /// to hub blocks. Output is byte-identical on either side of the knob; see
  /// docs/MAINTENANCE.md for tuning.
  double fallback_dirty_ratio = 0.5;
};

/// How one layer of the successor index was produced.
enum class LayerMaintenance {
  kPatched,      // partition unchanged: summary patched from the projected
                 // delta, mapping reused verbatim
  kIncremental,  // seeded localized refinement
  kWholesale,    // full ComputeBisimulation of the generalized layer
  kCopied,       // old layer reused verbatim (provably unchanged)
};

/// Per-layer maintenance diagnostics.
struct MaintainLayerReport {
  LayerMaintenance mode = LayerMaintenance::kWholesale;
  IncrementalBisimStats stats;  // meaningful for kPatched/kIncremental

  /// True when the stored layer configuration was reused via the
  /// distinct-label-set check instead of being re-derived.
  bool config_reused = false;

  /// Wall-clock breakdown of the four per-layer steps (ms). configure =
  /// config reuse check / recompute + validate; generalize = label-table or
  /// generalized-graph construction; correspondence = seed/dirty transport +
  /// next-level correspondence derivation; refine = probe + patch/seeded
  /// refinement/wholesale summarization.
  double configure_ms = 0;
  double generalize_ms = 0;
  double correspondence_ms = 0;
  double refine_ms = 0;
};

/// Diagnostics from one MaintainIndex call.
struct MaintainReport {
  /// Net effect of the batch against the base graph (see NormalizeUpdates).
  UpdateDelta delta;

  /// True when the index was rebuilt via BigIndex::Build (greedy-config
  /// indexes); `layers` is empty in that case.
  bool full_rebuild = false;

  std::vector<MaintainLayerReport> layers;

  /// Layers not reused verbatim (kPatched + kIncremental + kWholesale +
  /// full rebuild).
  size_t LayersRebuilt() const;
};

/// Applies `updates` to `index`'s base graph and returns the successor
/// index, equal — summary graphs, mappings, configs, serialized bytes — to
/// BigIndex::Build(updated base, ontology, index.options()). `index` is
/// unchanged. A batch with no net effect returns a (shallow) copy of
/// `index` and an empty report delta.
StatusOr<BigIndex> MaintainIndex(const BigIndex& index,
                                 std::span<const GraphUpdate> updates,
                                 const MaintainOptions& options = {},
                                 MaintainReport* report = nullptr);

}  // namespace bigindex

#endif  // BIGINDEX_UPDATE_MAINTAIN_H_
