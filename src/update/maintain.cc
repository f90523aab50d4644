#include "update/maintain.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/config_search.h"
#include "engine/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ontology/config.h"
#include "util/timer.h"

namespace bigindex {
namespace {

// Vertex correspondence between one old layer and the same layer of the
// successor index. Entries are kInvalidVertex where no counterpart exists;
// `to_new`/`to_old` are mutually inverse on valid entries (block member
// sets are disjoint, so every derivation below is injective).
struct Correspondence {
  std::vector<VertexId> to_new;  // old vertex -> new vertex
  std::vector<VertexId> to_old;  // new vertex -> old vertex
  bool usable = false;           // false once the old stack runs out

  static Correspondence Identity(size_t n) {
    Correspondence c;
    c.usable = true;
    c.to_new.resize(n);
    c.to_old.resize(n);
    for (size_t v = 0; v < n; ++v) {
      c.to_new[v] = static_cast<VertexId>(v);
      c.to_old[v] = static_cast<VertexId>(v);
    }
    return c;
  }

  bool IsTotalIdentity() const {
    if (!usable || to_new.size() != to_old.size()) return false;
    for (size_t v = 0; v < to_new.size(); ++v) {
      if (to_new[v] != static_cast<VertexId>(v)) return false;
    }
    return true;
  }
};

// The delta-propagation state flowing from one layer to the next. The
// correspondence is always present (possibly unusable); the exact edge
// delta survives only while the partition above stays identity-matched, and
// the changed set (a sound superset of vertices whose generalized label or
// mapped out-neighborhood drifted) lives exactly as long as the
// correspondence does — a wholesale layer erases both.
struct LevelLink {
  Correspondence corr;
  bool have_delta = false;
  UpdateDelta delta;
  std::vector<VertexId> changed;  // sorted, unique, new-graph vertex ids
  // Subset of `changed` whose quotient-level behavior genuinely differs
  // from the old layer (adjacency / membership / label) — excludes the
  // renaming-only vertices the in-neighbor rule adds for split coverage.
  // Seeds the localized merge scan (IncrementalBisimOptions::merge_changed).
  std::vector<VertexId> core;
};

size_t CountMode(const MaintainReport& rep, LayerMaintenance mode) {
  size_t n = 0;
  for (const MaintainLayerReport& l : rep.layers) {
    if (l.mode == mode) ++n;
  }
  return n;
}

// label -> generalized-label table covering `slots` label ids (identity for
// unmapped labels); O(#label slots), so it is rebuilt per layer.
std::vector<LabelId> GenTable(const GeneralizationConfig& config,
                              size_t slots) {
  std::vector<LabelId> table(slots);
  for (size_t l = 0; l < slots; ++l) table[l] = static_cast<LabelId>(l);
  for (const LabelMapping& m : config.mappings()) {
    if (m.from < slots) table[m.from] = m.to;
  }
  return table;
}

// Per-vertex labels of Gen(g, config) through `gen_table`; empty when the
// config maps nothing, which the refinement and materialization read as
// "use g's own labels".
std::vector<LabelId> GeneralizedLabels(const Graph& g,
                                       const GeneralizationConfig& config,
                                       const std::vector<LabelId>& gen_table) {
  std::vector<LabelId> labels;
  if (config.empty()) return labels;
  labels.resize(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    labels[v] = gen_table[g.label(v)];
  }
  return labels;
}

// No-split probe for the patched fast path: true iff every block containing
// a dirty vertex is still signature-uniform under the transported (and
// unchanged) seed. One pass suffices — a split is the only event that could
// propagate dirtiness, and the true path has none; untouched blocks remain
// uniform by the transfer argument (none of their members' out-edges or
// out-neighbor blocks changed). Cost is the dirty blocks' member degrees,
// independent of |V| + |E|.
bool PartitionSurvivesDelta(const Graph& g, std::span<const VertexId> seed,
                            const BisimMapping& mapping,
                            std::span<const VertexId> dirty,
                            const std::vector<LabelId>& gen_table) {
  std::vector<char> seen(mapping.NumSupernodes(), 0);
  std::vector<uint32_t> ref, sig;
  for (VertexId v : dirty) {
    const VertexId b = seed[v];
    if (seen[b]) continue;
    seen[b] = 1;
    const auto members = mapping.Members(b);
    if (members.size() <= 1) continue;  // singletons cannot split
    bool first = true;
    for (VertexId m : members) {
      sig.clear();
      sig.push_back(gen_table[g.label(m)]);
      const size_t fixed = sig.size();
      for (VertexId w : g.OutNeighbors(m)) sig.push_back(seed[w]);
      std::sort(sig.begin() + fixed, sig.end());
      sig.erase(std::unique(sig.begin() + fixed, sig.end()), sig.end());
      if (first) {
        ref = sig;
        first = false;
      } else if (sig != ref) {
        return false;
      }
    }
  }
  return true;
}

std::vector<VertexId> SortedUniqueSources(const UpdateDelta& delta) {
  std::vector<VertexId> out;
  out.reserve(delta.added.size() + delta.removed.size());
  for (const auto& [u, v] : delta.added) out.push_back(u);
  for (const auto& [u, v] : delta.removed) out.push_back(u);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// The old layer's partition transported into a seed for the new layer graph
// (n vertices), plus the vertices the seed's stability no longer vouches for.
struct TransportedSeed {
  std::vector<VertexId> seed;   // new vertex -> old supernode or fresh id
  std::vector<VertexId> dirty;  // propagated changed set + orphans
  // Subset of dirty-or-lost-block vertices whose quotient-level behavior
  // genuinely differs from the old layer: propagated core, orphans, and
  // survivors of lost-member blocks. The renaming-only vertices the
  // in-neighbor rule adds to `changed` stay out: the merge scan's backward
  // closure recovers them through their edge into a core block.
  std::vector<VertexId> core;
};

// Seed ids are old supernode ids (< old_num) plus at most n fresh ids for
// orphans, new vertices without an old counterpart.
TransportedSeed TransportSeed(const LevelLink& link,
                              const BisimMapping& old_map, size_t old_num,
                              size_t n) {
  const Correspondence& corr = link.corr;
  TransportedSeed out;
  out.seed.resize(n);
  VertexId fresh = static_cast<VertexId>(old_num);
  // Lost-member rule: an old vertex with no new counterpart silently
  // changes its old block's quotient behavior (the survivors' own
  // signatures are untouched, so nothing else dirties them). Splits never
  // need this — survivors stay signature-uniform — but the localized merge
  // scan does: the whole block must enter its working set, so every
  // surviving member goes into the merge core.
  std::vector<char> lost(old_num, 0);
  bool any_lost = false;
  for (VertexId s = 0; s < corr.to_new.size(); ++s) {
    if (corr.to_new[s] == kInvalidVertex) {
      lost[old_map.SuperOf(s)] = 1;
      any_lost = true;
    }
  }
  std::vector<char> dflag(n, 0);
  std::vector<char> kflag(n, 0);
  for (VertexId x : link.changed) {
    if (!dflag[x]) {
      dflag[x] = 1;
      out.dirty.push_back(x);
    }
  }
  for (VertexId x : link.core) {
    if (!kflag[x]) {
      kflag[x] = 1;
      out.core.push_back(x);
    }
  }
  for (VertexId x = 0; x < n; ++x) {
    const VertexId s =
        x < corr.to_old.size() ? corr.to_old[x] : kInvalidVertex;
    if (s == kInvalidVertex) {
      out.seed[x] = fresh++;
      if (!dflag[x]) {
        dflag[x] = 1;
        out.dirty.push_back(x);
      }
      if (!kflag[x]) {
        kflag[x] = 1;
        out.core.push_back(x);
      }
      continue;
    }
    out.seed[x] = old_map.SuperOf(s);
    // Lost-block survivors only feed the merge scan — their own signatures
    // are unchanged, so phase 1 need not re-sign them.
    if (any_lost && lost[out.seed[x]] && !kflag[x]) {
      kflag[x] = 1;
      out.core.push_back(x);
    }
  }
  return out;
}

// The next layer's changed and core sets (LevelLink), from this layer's
// result, its new -> old block correspondence and the dirty and core vertex
// sets it was refined from. Changed: blocks without a counterpart, their
// summary in-neighbors (whose mapped out-neighborhood now refers to a
// vanished block), and blocks holding a dirty member. Core: blocks without
// a counterpart and blocks holding a core member — it leaves out the
// in-neighbor widening, since those blocks changed only up to renaming and
// the merge scan's backward closure recovers them through their edge into
// a core block.
void NextChangedSets(const BisimResult& bisim,
                     std::span<const VertexId> to_old,
                     std::span<const VertexId> dirty,
                     std::span<const VertexId> core,
                     std::vector<VertexId>* next_changed,
                     std::vector<VertexId>* next_core) {
  const size_t num_final = bisim.summary.NumVertices();
  std::vector<char> cflag(num_final, 0);
  std::vector<char> kflag(num_final, 0);
  for (VertexId t = 0; t < num_final; ++t) {
    if (to_old[t] != kInvalidVertex) continue;
    cflag[t] = kflag[t] = 1;
    for (VertexId u : bisim.summary.InNeighbors(t)) cflag[u] = 1;
  }
  for (VertexId x : dirty) cflag[bisim.mapping.SuperOf(x)] = 1;
  for (VertexId x : core) kflag[bisim.mapping.SuperOf(x)] = 1;
  for (VertexId t = 0; t < num_final; ++t) {
    if (cflag[t]) next_changed->push_back(t);
    if (kflag[t]) next_core->push_back(t);
  }
}

}  // namespace

size_t MaintainReport::LayersRebuilt() const {
  size_t n = 0;
  for (const MaintainLayerReport& l : layers) {
    if (l.mode != LayerMaintenance::kCopied) ++n;
  }
  return n;
}

StatusOr<BigIndex> MaintainIndex(const BigIndex& index,
                                 std::span<const GraphUpdate> updates,
                                 const MaintainOptions& options,
                                 MaintainReport* report) {
  TRACE_SPAN("update/maintain");
  static Counter& layers_maintained = MetricsRegistry::Global().GetCounter(
      "bigindex_update_maintained_layers_total",
      "Layers produced by incremental maintenance (any mode)");
  static Counter& layers_fallback = MetricsRegistry::Global().GetCounter(
      "bigindex_update_fallback_layers_total",
      "Layers re-summarized wholesale instead of incrementally");
  static Counter& layers_patched = MetricsRegistry::Global().GetCounter(
      "bigindex_update_patched_layers_total",
      "Layers whose summary was patched directly from the projected delta");

  MaintainReport local_report;
  MaintainReport& rep = report != nullptr ? *report : local_report;
  rep = MaintainReport{};

  auto delta = NormalizeUpdates(index.base(), updates);
  if (!delta.ok()) return delta.status();
  rep.delta = std::move(*delta);
  if (rep.delta.empty()) return index;  // shallow copy; nothing to do

  Graph new_base = ApplyDelta(index.base(), rep.delta);
  const Ontology* ontology = &index.ontology();
  const BigIndexOptions& opts = index.options();

  if (opts.use_greedy_config) {
    // Algorithm 1's cost model samples the graph; stored configs are not
    // stable under updates, so nothing can be reused soundly.
    rep.full_rebuild = true;
    auto rebuilt = BigIndex::Build(std::move(new_base), ontology, opts);
    if (!rebuilt.ok()) return rebuilt.status();
    MaintainLayerReport wholesale;
    wholesale.mode = LayerMaintenance::kWholesale;
    rep.layers.assign(rebuilt->NumLayers(), wholesale);
    layers_maintained.Inc(rep.layers.size());
    layers_fallback.Inc(rep.layers.size());
    return rebuilt;
  }

  std::optional<ExecutorPool> owned_pool;
  if (opts.build.num_threads != 0) owned_pool.emplace(opts.build.num_threads);
  ExecutorPool* pool = owned_pool ? &*owned_pool : nullptr;
  const BisimOptions wholesale_opts{.pool = pool};

  std::vector<IndexLayer> new_layers;
  new_layers.reserve(opts.max_layers);
  LevelLink link;
  link.corr = Correspondence::Identity(new_base.NumVertices());
  link.have_delta = true;
  link.delta = rep.delta;
  link.changed = SortedUniqueSources(rep.delta);
  link.core = link.changed;  // at the base every changed vertex is genuine

  const Graph* cur_new = &new_base;
  for (size_t i = 1; i <= opts.max_layers; ++i) {
    TRACE_SPAN("update/layer");
    const bool have_old_layer = i <= index.NumLayers();
    const Graph& old_below = index.LayerGraph(i - 1);
    const Correspondence& corr = link.corr;

    // Strongest case: the layer below is unchanged, vertex-for-vertex. Build
    // is a deterministic function of (layer graph, ontology, options), so
    // the old stack from here up — including its stopping point — is exactly
    // what a from-scratch rebuild would produce. With an exact propagated
    // delta the test is O(1); the O(V+E) graph comparison only backs up the
    // delta-less case after a seeded layer.
    if (corr.IsTotalIdentity() &&
        ((link.have_delta && link.delta.empty()) ||
         (!link.have_delta && GraphsIdentical(*cur_new, old_below)))) {
      for (size_t j = i; j <= index.NumLayers(); ++j) {
        new_layers.push_back(index.Layer(j));
        MaintainLayerReport copied;
        copied.mode = LayerMaintenance::kCopied;
        rep.layers.push_back(copied);
      }
      break;
    }

    MaintainLayerReport lrep;
    GeneralizationConfig config;
    bool config_matches = false;
    {
      Timer t;
      TRACE_SPAN("build/config");
      if (have_old_layer && SameFullConfiguration(*cur_new, old_below)) {
        // The full one-step configuration is a pure function of the
        // distinct-label set; the stored config was validated at its own
        // build, so both the ontology walk and Validate are skipped.
        config = index.Layer(i).config;
        config_matches = true;
        lrep.config_reused = true;
      } else {
        config = FullOneStepConfiguration(*cur_new, *ontology);
        BIGINDEX_RETURN_IF_ERROR(config.Validate(*ontology));
        config_matches =
            have_old_layer &&
            config.mappings() == index.Layer(i).config.mappings();
      }
      lrep.configure_ms = t.ElapsedMillis();
    }

    const size_t n = cur_new->NumVertices();
    // Past this many dirty vertices the localized passes would touch most
    // blocks; the layer goes wholesale (Tier 3), which yields the same bytes.
    const double dirty_bound =
        options.fallback_dirty_ratio * static_cast<double>(n);
    const bool incremental_eligible = config_matches && corr.usable;
    std::vector<LabelId> gen_table;
    if (incremental_eligible) {
      Timer t_gen;
      gen_table = GenTable(config, cur_new->LabelSlots());
      lrep.generalize_ms += t_gen.ElapsedMillis();
    }

    BisimResult bisim;
    Correspondence next;
    bool next_have_delta = false;
    UpdateDelta next_delta;
    std::vector<VertexId> next_changed;
    std::vector<VertexId> next_core;
    bool done = false;

    // Tier 1 — patched: the layer below changed by an exact, identity-mapped
    // edge delta. Dirty is exactly the delta's sources (edge-only deltas
    // cannot touch labels). If no dirty block splits and no blocks merge,
    // the old partition is still the maximal bisimulation: the summary is
    // the old summary patched by the projected block-level delta, and the
    // mapping carries over verbatim — nothing layer-sized is rebuilt.
    if (incremental_eligible && link.have_delta && corr.IsTotalIdentity() &&
        static_cast<double>(link.changed.size()) <= dirty_bound) {
      TRACE_SPAN("update/patch_attempt");
      const IndexLayer& old_layer = index.Layer(i);
      const std::span<const VertexId> seed = old_layer.mapping.VertexToSuper();
      const std::vector<VertexId>& dirty = link.changed;

      Timer t_ref;
      if (PartitionSurvivesDelta(*cur_new, seed, old_layer.mapping, dirty,
                                 gen_table)) {
        UpdateDelta sdelta = ProjectDeltaToSummary(*cur_new, seed,
                                                   old_layer.graph, link.delta);
        Graph patched = sdelta.empty() ? old_layer.graph
                                       : ApplyDelta(old_layer.graph, sdelta);
        // Merge check: the old summary is reduced (no two blocks of a
        // maximal partition are bisimilar); the patch may have made blocks
        // bisimilar, but only within the backward closure of the patched
        // block edges — a delta-local scan, not a summary-sized refinement.
        MergeScan merged;
        if (sdelta.empty()) {
          merged.num_classes = patched.NumVertices();
          merged.localized = true;
        } else {
          merged = DetectMerges(patched, SortedUniqueSources(sdelta),
                                kMergeScanFallbackRatio, pool);
        }
        lrep.stats.dirty_seed = dirty.size();
        lrep.stats.quotient_vertices = patched.NumVertices();
        lrep.stats.merge_active = merged.active;
        lrep.stats.merge_localized = merged.localized;
        if (merged.num_classes == patched.NumVertices()) {
          // Discrete: partition and numbering unchanged (first-occurrence
          // renumbering of unchanged membership is the identity) — summary
          // and mapping carry over, and the next layer inherits an identity
          // correspondence plus the projected delta.
          bisim.summary = std::move(patched);
          bisim.mapping = old_layer.mapping;
          bisim.refinement_rounds = merged.rounds;
          lrep.mode = LayerMaintenance::kPatched;

          Timer t_corr;
          next = Correspondence::Identity(bisim.summary.NumVertices());
          next_changed = SortedUniqueSources(sdelta);
          next_core = next_changed;  // sdelta sources: all genuine
          next_have_delta = true;
          next_delta = std::move(sdelta);
          lrep.correspondence_ms += t_corr.ElapsedMillis();
        } else {
          // Blocks merged (splits are ruled out by the probe). Compose
          // seed ∘ merged and materialize; an old supernode survives iff
          // its merge class is a singleton.
          const std::vector<LabelId> glabels =
              GeneralizedLabels(*cur_new, config, gen_table);
          std::vector<uint32_t> composed(n);
          for (VertexId v = 0; v < n; ++v) {
            composed[v] = merged.block_of[seed[v]];
          }
          std::vector<uint32_t> old_to_final;
          bisim = MaterializePartition(*cur_new, glabels, std::move(composed),
                                       merged.num_classes, merged.rounds,
                                       &old_to_final);
          lrep.mode = LayerMaintenance::kIncremental;

          Timer t_corr;
          next.usable = true;
          next.to_new.assign(old_layer.graph.NumVertices(), kInvalidVertex);
          next.to_old.assign(bisim.summary.NumVertices(), kInvalidVertex);
          std::vector<uint32_t> class_size(merged.num_classes, 0);
          for (uint32_t c : merged.block_of) ++class_size[c];
          for (VertexId s2 = 0; s2 < old_layer.graph.NumVertices(); ++s2) {
            const uint32_t f = merged.block_of[s2];
            if (class_size[f] != 1) continue;  // old supernode merged away
            next.to_new[s2] = old_to_final[f];
            next.to_old[old_to_final[f]] = s2;
          }
          NextChangedSets(bisim, next.to_old, dirty, dirty, &next_changed,
                          &next_core);
          lrep.correspondence_ms += t_corr.ElapsedMillis();
        }
        done = true;
      }
      lrep.refine_ms += t_ref.ElapsedMillis();
    }

    // Tier 2 — seeded: transport the old partition into a seed through the
    // correspondence; dirty comes from the propagated changed set plus
    // orphans. Past the dirty bound the layer goes wholesale instead.
    if (!done && incremental_eligible) {
      const BisimMapping& old_map = index.Layer(i).mapping;
      Timer t_corr;
      const size_t old_num = index.LayerGraph(i).NumVertices();
      TransportedSeed transported = TransportSeed(link, old_map, old_num, n);
      const std::vector<VertexId>& dirty = transported.dirty;
      lrep.correspondence_ms += t_corr.ElapsedMillis();

      if (static_cast<double>(dirty.size()) <= dirty_bound) {
        Timer t_gen;
        const std::vector<LabelId> glabels =
            GeneralizedLabels(*cur_new, config, gen_table);
        lrep.generalize_ms += t_gen.ElapsedMillis();

        Timer t_ref;
        IncrementalBisimOptions iopts;
        iopts.pool = pool;
        iopts.labels = glabels;
        iopts.merge_changed = transported.core;
        IncrementalBisimTrace trace;
        auto result = IncrementalBisimulation(*cur_new, transported.seed,
                                              dirty, iopts, &lrep.stats,
                                              &trace);
        if (!result.ok()) return result.status();
        bisim = std::move(*result);
        lrep.refine_ms += t_ref.ElapsedMillis();
        lrep.mode = LayerMaintenance::kIncremental;

        // Next correspondence in O(#blocks) from the seed-provenance trace:
        // an old supernode survives iff its block is intact AND no old
        // member was orphaned (the member-count check — intact only proves
        // equality against the *transported* members).
        Timer t_nc;
        const size_t num_final = bisim.summary.NumVertices();
        next.usable = true;
        next.to_new.assign(old_num, kInvalidVertex);
        next.to_old.assign(num_final, kInvalidVertex);
        for (VertexId t2 = 0; t2 < num_final; ++t2) {
          const VertexId s = trace.seed_of_final[t2];
          if (!trace.intact[t2] || s == kInvalidVertex || s >= old_num) {
            continue;
          }
          if (old_map.Members(s).size() != bisim.mapping.Members(t2).size()) {
            continue;
          }
          next.to_new[s] = t2;
          next.to_old[t2] = s;
        }
        NextChangedSets(bisim, next.to_old, dirty, transported.core,
                        &next_changed, &next_core);
        lrep.correspondence_ms += t_nc.ElapsedMillis();
        done = true;
      }
    }

    // Tier 3 — wholesale: config drift, new layers beyond the old stack, a
    // dirty frontier past the bound, or no usable correspondence (a wholesale
    // layer below). It leaves `next` unusable, so every layer above is
    // wholesale as well.
    if (!done) {
      Timer t_gen;
      Graph generalized;
      {
        TRACE_SPAN("build/generalize");
        generalized = Generalize(*cur_new, config);
      }
      lrep.generalize_ms += t_gen.ElapsedMillis();
      Timer t_ref;
      bisim = ComputeBisimulation(generalized, wholesale_opts);
      lrep.refine_ms += t_ref.ElapsedMillis();
      lrep.mode = LayerMaintenance::kWholesale;
    }

    // Build's exact stop test.
    const double ratio =
        cur_new->Size() == 0
            ? 1.0
            : static_cast<double>(bisim.summary.Size()) / cur_new->Size();
    if (config.empty() && ratio > opts.stop_ratio) break;

    IndexLayer layer;
    layer.config = std::move(config);
    layer.graph = std::move(bisim.summary);
    layer.mapping = std::move(bisim.mapping);
    new_layers.push_back(std::move(layer));
    rep.layers.push_back(std::move(lrep));
    cur_new = &new_layers.back().graph;
    link.corr = std::move(next);
    link.have_delta = next_have_delta;
    link.delta = std::move(next_delta);
    link.changed = std::move(next_changed);
    link.core = std::move(next_core);
  }

  layers_maintained.Inc(rep.layers.size());
  layers_fallback.Inc(CountMode(rep, LayerMaintenance::kWholesale));
  layers_patched.Inc(CountMode(rep, LayerMaintenance::kPatched));
  return BigIndex::FromParts(std::move(new_base), ontology,
                             std::move(new_layers), opts);
}

}  // namespace bigindex
