#include "update/incremental.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bigindex {
namespace {

constexpr uint32_t kUnset32 = std::numeric_limits<uint32_t>::max();

// FNV-1a over a word sequence (same scheme as bisim/bisimulation.cc);
// collisions are resolved by full comparison in the group map.
uint64_t HashWords(std::span<const uint32_t> v) {
  uint64_t h = 1469598103934665603ULL;
  for (uint32_t x : v) {
    h ^= x;
    h *= 1099511628211ULL;
  }
  return h;
}

struct SigKey {
  std::vector<uint32_t> words;
  uint64_t hash;
  bool operator==(const SigKey& o) const {
    return hash == o.hash && words == o.words;
  }
};

struct SigKeyHash {
  size_t operator()(const SigKey& k) const { return k.hash; }
};

// Working partition for SplitToStability. `block`/`members_of` are mutually
// consistent (members ascending within each block); `origin_of`/`fragmented`
// carry initial-block provenance: every working block descends from exactly
// one initial block (splits preserve the origin, splitting never merges),
// and an initial block fragments the first time any block of its line
// splits.
struct RefineState {
  std::vector<uint32_t> block;                    // vertex -> working block
  std::vector<std::vector<VertexId>> members_of;  // block -> members, asc.
  std::vector<uint32_t> origin_of;                // block -> initial block
  std::vector<char> fragmented;                   // initial block -> split?
};

// Worklist signature refinement to fixpoint: per round, collect the blocks
// containing frontier vertices, re-sign every member of those blocks against
// the current partition, and split by (label, sorted-unique out-neighbor
// block set). The group holding the block's first member keeps the block id;
// other groups take fresh ids, and their members' in-neighbors join the next
// frontier (their signatures now see a different block id). At fixpoint the
// partition is the *coarsest stable refinement* of the initial one — splits
// are forced (any stable refinement must make them) and untouched blocks
// stay signature-uniform by a transfer argument. Returns the round count;
// `resigned` accumulates signature recomputations.
size_t SplitToStability(const Graph& g, std::span<const LabelId> labels,
                        RefineState& rs, std::vector<VertexId> frontier,
                        size_t* resigned) {
  auto label_of = [&](VertexId v) {
    return labels.empty() ? g.label(v) : labels[v];
  };
  const CsrView out = g.Out();
  const CsrView in = g.In();
  std::vector<char> dirty_flag(g.NumVertices(), 0);
  for (VertexId v : frontier) dirty_flag[v] = 1;

  std::vector<char> touched_flag(rs.members_of.size(), 0);
  std::vector<uint32_t> touched;
  std::vector<VertexId> moved;
  size_t rounds = 0;
  while (!frontier.empty()) {
    TRACE_SPAN("update/split_round");
    ++rounds;
    touched.clear();
    for (VertexId v : frontier) {
      dirty_flag[v] = 0;
      const uint32_t b = rs.block[v];
      if (b >= touched_flag.size()) touched_flag.resize(b + 1, 0);
      if (!touched_flag[b]) {
        touched_flag[b] = 1;
        touched.push_back(b);
      }
    }
    frontier.clear();
    std::sort(touched.begin(), touched.end());

    moved.clear();
    for (uint32_t b : touched) {
      touched_flag[b] = 0;
      std::vector<VertexId>& mem = rs.members_of[b];
      if (mem.size() <= 1) continue;  // singletons cannot split

      // Group members by signature, first-occurrence group order (members
      // are ascending, so group 0 holds mem[0] and keeps the id).
      std::unordered_map<SigKey, uint32_t, SigKeyHash> group_of;
      std::vector<std::vector<VertexId>> groups;
      SigKey key;
      for (VertexId v : mem) {
        key.words.clear();
        key.words.push_back(label_of(v));
        const size_t first = key.words.size();
        const auto [s, e] = out[v];
        for (uint64_t i = s; i < e; ++i) {
          key.words.push_back(rs.block[out.Slot(i)]);
        }
        std::sort(key.words.begin() + first, key.words.end());
        key.words.erase(
            std::unique(key.words.begin() + first, key.words.end()),
            key.words.end());
        key.hash = HashWords(key.words);
        auto [it, inserted] =
            group_of.try_emplace(key, static_cast<uint32_t>(groups.size()));
        if (inserted) groups.emplace_back();
        groups[it->second].push_back(v);
      }
      if (resigned != nullptr) *resigned += mem.size();
      if (groups.size() <= 1) continue;

      rs.fragmented[rs.origin_of[b]] = 1;
      mem = std::move(groups.front());
      for (size_t j = 1; j < groups.size(); ++j) {
        const uint32_t fresh = static_cast<uint32_t>(rs.members_of.size());
        for (VertexId v : groups[j]) {
          rs.block[v] = fresh;
          moved.push_back(v);
        }
        rs.members_of.push_back(std::move(groups[j]));
        rs.origin_of.push_back(rs.origin_of[b]);
        touched_flag.push_back(0);
      }
    }

    for (VertexId v : moved) {
      const auto [s, e] = in[v];
      for (uint64_t i = s; i < e; ++i) {
        const VertexId u = in.Slot(i);
        if (!dirty_flag[u]) {
          dirty_flag[u] = 1;
          frontier.push_back(u);
        }
      }
    }
  }
  return rounds;
}

// (label, sorted-unique successor-label set) hash — a bisimulation
// invariant: bisimilar nodes have equal successor class sets, classes are
// label-uniform, hence equal successor label sets.
uint64_t OneStepInvariant(const Graph& q, VertexId v,
                          std::vector<uint32_t>& scratch) {
  scratch.clear();
  scratch.push_back(q.label(v));
  const size_t fixed = scratch.size();
  for (VertexId w : q.OutNeighbors(v)) scratch.push_back(q.label(w));
  std::sort(scratch.begin() + fixed, scratch.end());
  scratch.erase(std::unique(scratch.begin() + fixed, scratch.end()),
                scratch.end());
  return HashWords(scratch);
}

}  // namespace

MergeScan DetectMerges(const Graph& q, std::span<const VertexId> changed,
                       double fallback_active_ratio, ExecutorPool* pool) {
  TRACE_SPAN("update/merge_scan");
  const size_t m = q.NumVertices();
  MergeScan scan;

  // Ancestors: backward closure of the changed set. A node outside it has
  // an unchanged forward cone, so (the pre-image graph being reduced) two
  // distinct non-ancestors can never be bisimilar.
  std::vector<char> active(m, 0);
  std::vector<VertexId> stack;
  for (VertexId v : changed) {
    if (v < m && !active[v]) {
      active[v] = 1;
      stack.push_back(v);
    }
  }
  const CsrView in = q.In();
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    const auto [s, e] = in[v];
    for (uint64_t i = s; i < e; ++i) {
      const VertexId u = in.Slot(i);
      if (!active[u]) {
        active[u] = 1;
        stack.push_back(u);
      }
    }
  }

  // Partner filter: a merge class holds at most one non-ancestor, and its
  // members share the one-step invariant — so a non-ancestor is a merge
  // candidate only if some ancestor matches its hash (collisions cost work,
  // never correctness). A label pre-filter skips the invariant hash for the
  // bulk of the graph.
  {
    std::unordered_set<uint64_t> anchor;
    std::vector<char> anchor_label(q.LabelSlots(), 0);
    std::vector<uint32_t> scratch;
    for (VertexId v = 0; v < m; ++v) {
      if (active[v]) {
        anchor.insert(OneStepInvariant(q, v, scratch));
        anchor_label[q.label(v)] = 1;
      }
    }
    if (!anchor.empty()) {
      for (VertexId v = 0; v < m; ++v) {
        if (!active[v] && anchor_label[q.label(v)] &&
            anchor.count(OneStepInvariant(q, v, scratch))) {
          active[v] = 1;
        }
      }
    }
  }
  for (VertexId v = 0; v < m; ++v) scan.active += active[v];

  if (static_cast<double>(scan.active) >
      fallback_active_ratio * static_cast<double>(m)) {
    // The working set covers most of the graph — the localized refinement
    // would approximate a wholesale pass anyway.
    BisimResult merged = ComputeBisimulation(q, {.pool = pool});
    scan.block_of.resize(m);
    for (VertexId v = 0; v < m; ++v) scan.block_of[v] = merged.mapping.SuperOf(v);
    scan.num_classes = merged.mapping.NumSupernodes();
    scan.rounds = merged.refinement_rounds;
    scan.localized = false;
    return scan;
  }

  // Initial partition P0: actives grouped by label, everything else a
  // singleton. The maximal bisimulation refines P0 (every multi-member
  // class lies inside one active label group), so the coarsest stable
  // refinement of P0 — which the split worklist computes — IS the maximal
  // bisimulation.
  RefineState rs;
  rs.block.resize(m);
  std::vector<VertexId> frontier;
  {
    std::unordered_map<LabelId, uint32_t> label_block;
    for (VertexId v = 0; v < m; ++v) {
      if (active[v]) {
        auto [it, inserted] = label_block.try_emplace(
            q.label(v), static_cast<uint32_t>(rs.members_of.size()));
        if (inserted) rs.members_of.emplace_back();
        rs.block[v] = it->second;
        rs.members_of[it->second].push_back(v);
        frontier.push_back(v);
      } else {
        rs.block[v] = static_cast<uint32_t>(rs.members_of.size());
        rs.members_of.push_back({v});
      }
    }
  }
  rs.origin_of.resize(rs.members_of.size());
  for (uint32_t b = 0; b < rs.origin_of.size(); ++b) rs.origin_of[b] = b;
  rs.fragmented.assign(rs.members_of.size(), 0);

  scan.rounds = SplitToStability(q, {}, rs, std::move(frontier), nullptr);
  scan.localized = true;

  scan.block_of.resize(m);
  std::vector<uint32_t> dense(rs.members_of.size(), kUnset32);
  for (VertexId v = 0; v < m; ++v) {
    uint32_t& d = dense[rs.block[v]];
    if (d == kUnset32) d = static_cast<uint32_t>(scan.num_classes++);
    scan.block_of[v] = d;
  }
  return scan;
}

BisimResult MaterializePartition(const Graph& g,
                                 std::span<const LabelId> labels,
                                 std::vector<uint32_t> partition,
                                 size_t id_bound, size_t rounds,
                                 std::vector<uint32_t>* old_to_final) {
  // Renumber in first-occurrence order over the vertex scan — the numbering
  // ComputeBisimulation's final interner round produces — then materialize
  // the summary exactly as bisim/bisimulation.cc does, so serialized results
  // are byte-identical to a from-scratch run.
  const size_t n = g.NumVertices();
  std::vector<uint32_t> dense(id_bound, kUnset32);
  size_t num_blocks = 0;
  for (VertexId v = 0; v < n; ++v) {
    uint32_t& d = dense[partition[v]];
    if (d == kUnset32) d = static_cast<uint32_t>(num_blocks++);
    partition[v] = d;
  }

  BisimResult result;
  result.refinement_rounds = rounds;
  result.mapping = BisimMapping(partition, num_blocks);

  TRACE_SPAN("bisim/materialize");
  GraphBuilder builder;
  builder.Reserve(num_blocks, g.NumEdges());
  {
    std::vector<LabelId> super_label(num_blocks, kInvalidLabel);
    for (VertexId v = 0; v < n; ++v) {
      super_label[partition[v]] = labels.empty() ? g.label(v) : labels[v];
    }
    for (size_t s = 0; s < num_blocks; ++s) builder.AddVertex(super_label[s]);
  }
  const CsrView out = g.Out();
  for (VertexId u = 0; u < n; ++u) {
    const auto [b, e] = out[u];
    for (uint64_t i = b; i < e; ++i) {
      // Duplicate block edges collapse in Build.
      builder.AddEdge(partition[u], partition[out.Slot(i)]);
    }
  }
  auto built = builder.Build();
  assert(built.ok());
  result.summary = std::move(built).value();
  if (old_to_final != nullptr) *old_to_final = std::move(dense);
  return result;
}

StatusOr<BisimResult> IncrementalBisimulation(
    const Graph& g, std::span<const VertexId> seed_partition,
    std::span<const VertexId> dirty, const IncrementalBisimOptions& options,
    IncrementalBisimStats* stats, IncrementalBisimTrace* trace) {
  TRACE_SPAN("update/incremental_bisim");
  static Counter& runs = MetricsRegistry::Global().GetCounter(
      "bigindex_update_incremental_runs_total",
      "Incremental bisimulation invocations");
  static Counter& resigned = MetricsRegistry::Global().GetCounter(
      "bigindex_update_resigned_vertices_total",
      "Vertex signatures recomputed by the localized split pass");
  runs.Inc();

  const size_t n = g.NumVertices();
  if (seed_partition.size() != n) {
    return Status::InvalidArgument("seed partition size != vertex count");
  }
  if (!options.labels.empty() && options.labels.size() != n) {
    return Status::InvalidArgument("label override size != vertex count");
  }
  for (VertexId v : dirty) {
    if (v >= n) return Status::InvalidArgument("dirty vertex out of range");
  }
  IncrementalBisimStats local_stats;
  IncrementalBisimStats& st = stats != nullptr ? *stats : local_stats;
  st = IncrementalBisimStats{};
  st.dirty_seed = dirty.size();
  if (trace != nullptr) *trace = IncrementalBisimTrace{};

  const std::span<const LabelId> labels = options.labels;

  // Densify the seed into block ids 0..B-1 (first-occurrence order; the
  // final renumber makes the choice here irrelevant to output) and build
  // block -> members lists, members ascending.
  VertexId max_seed = 0;
  for (VertexId s : seed_partition) {
    if (s == kInvalidVertex) {
      return Status::InvalidArgument("seed id is kInvalidVertex");
    }
    max_seed = std::max(max_seed, s);
  }
  RefineState rs;
  rs.block.resize(n);
  std::vector<VertexId> seed_value_of;
  {
    std::vector<uint32_t> dense(size_t{max_seed} + 1, kUnset32);
    for (VertexId v = 0; v < n; ++v) {
      const VertexId s = seed_partition[v];
      uint32_t& d = dense[s];
      if (d == kUnset32) {
        d = static_cast<uint32_t>(rs.members_of.size());
        rs.members_of.emplace_back();
        seed_value_of.push_back(s);
      }
      rs.block[v] = d;
      rs.members_of[d].push_back(v);
    }
  }
  const size_t num_seeds = rs.members_of.size();
  rs.origin_of.resize(num_seeds);
  for (uint32_t b = 0; b < num_seeds; ++b) rs.origin_of[b] = b;
  rs.fragmented.assign(num_seeds, 0);

  // Phase 1 (split): worklist refinement seeded from the dirty set.
  std::vector<VertexId> frontier;
  frontier.reserve(dirty.size());
  {
    std::vector<char> seen(n, 0);
    for (VertexId v : dirty) {
      if (!seen[v]) {
        seen[v] = 1;
        frontier.push_back(v);
      }
    }
  }
  const size_t rounds =
      SplitToStability(g, labels, rs, std::move(frontier),
                       &st.vertices_resigned);
  st.split_rounds = rounds;
  resigned.Inc(st.vertices_resigned);

  // Phase 2 (merge): the split-stable partition P may still be finer than
  // maximal bisimulation (updates can *merge* blocks). P is stable and
  // label-uniform, so max-bisim(g) is the pullback of max-bisim(g/P):
  // build the (summary-sized) quotient, find its merges, compose.
  std::vector<uint32_t> p1(n);
  std::vector<uint32_t> p1_origin;
  std::vector<uint32_t> p1_work;  // p1 block -> working block (members list)
  size_t p1_blocks = 0;
  {
    std::vector<uint32_t> dense(rs.members_of.size(), kUnset32);
    for (VertexId v = 0; v < n; ++v) {
      uint32_t& d = dense[rs.block[v]];
      if (d == kUnset32) {
        d = static_cast<uint32_t>(p1_blocks++);
        p1_origin.push_back(rs.origin_of[rs.block[v]]);
        p1_work.push_back(rs.block[v]);
      }
      p1[v] = d;
    }
  }
  st.quotient_vertices = p1_blocks;

  auto label_of = [&](VertexId v) {
    return labels.empty() ? g.label(v) : labels[v];
  };
  const CsrView out = g.Out();
  Graph quotient;
  {
    TRACE_SPAN("update/quotient");
    GraphBuilder qb;
    qb.Reserve(p1_blocks, g.NumEdges());
    std::vector<LabelId> qlabel(p1_blocks, kInvalidLabel);
    for (VertexId v = 0; v < n; ++v) qlabel[p1[v]] = label_of(v);
    for (size_t s = 0; s < p1_blocks; ++s) qb.AddVertex(qlabel[s]);
    // Pre-dedupe block edges with a stamp array so Build's sort works on
    // ~|E_q| entries instead of |E| — Build sorts and uniques regardless, so
    // the result is byte-identical to feeding every vertex-level edge.
    std::vector<uint32_t> stamp(p1_blocks, kUnset32);
    for (uint32_t b = 0; b < p1_blocks; ++b) {
      for (VertexId u : rs.members_of[p1_work[b]]) {
        const auto [s, e] = out[u];
        for (uint64_t i = s; i < e; ++i) {
          const uint32_t t = p1[out.Slot(i)];
          if (stamp[t] != b) {
            stamp[t] = b;
            qb.AddEdge(b, t);
          }
        }
      }
    }
    auto built = qb.Build();
    assert(built.ok());
    quotient = std::move(built).value();
  }

  // The seed came from a maximal bisimulation, so the old quotient was
  // *reduced* (no two blocks bisimilar) and merge classes are confined to
  // the backward closure of the changed quotient nodes: blocks holding a
  // dirty vertex, plus every block descending from a fragmented seed.
  std::vector<VertexId> qchanged;
  {
    const std::span<const VertexId> core =
        options.merge_changed.empty() ? dirty : options.merge_changed;
    std::vector<char> qflag(p1_blocks, 0);
    for (VertexId v : core) {
      if (v < n && !qflag[p1[v]]) {
        qflag[p1[v]] = 1;
        qchanged.push_back(p1[v]);
      }
    }
    for (uint32_t b = 0; b < p1_blocks; ++b) {
      if (rs.fragmented[p1_origin[b]] && !qflag[b]) {
        qflag[b] = 1;
        qchanged.push_back(b);
      }
    }
  }
  MergeScan scan = DetectMerges(quotient, qchanged,
                                kMergeScanFallbackRatio, options.pool);
  st.merge_active = scan.active;
  st.merge_localized = scan.localized;

  if (scan.num_classes == p1_blocks) {
    // Discrete: P1 is the maximal bisimulation. `quotient` was built by
    // the exact builder-call sequence MaterializePartition would issue
    // for this partition (p1 is already in first-occurrence order), so it
    // IS the byte-identical summary — no second full-graph pass.
    BisimResult result;
    result.refinement_rounds = rounds + scan.rounds;
    result.mapping = BisimMapping(p1, p1_blocks);
    result.summary = std::move(quotient);
    if (trace != nullptr) {
      trace->seed_of_final.assign(p1_blocks, kInvalidVertex);
      trace->intact.assign(p1_blocks, 0);
      for (uint32_t b = 0; b < p1_blocks; ++b) {
        const uint32_t origin = p1_origin[b];
        trace->seed_of_final[b] = seed_value_of[origin];
        trace->intact[b] = !rs.fragmented[origin];
      }
    }
    return result;
  }

  // Blocks merged (rare): compose and materialize as usual.
  std::vector<uint32_t> final_block(n);
  for (VertexId v = 0; v < n; ++v) final_block[v] = scan.block_of[p1[v]];
  std::vector<uint32_t> merged_to_final;
  BisimResult result = MaterializePartition(
      g, labels, std::move(final_block), scan.num_classes,
      rounds + scan.rounds, trace != nullptr ? &merged_to_final : nullptr);

  if (trace != nullptr) {
    std::vector<std::vector<uint32_t>> cls(scan.num_classes);
    for (uint32_t b = 0; b < p1_blocks; ++b) {
      cls[scan.block_of[b]].push_back(b);
    }
    const size_t num_final = result.mapping.NumSupernodes();
    trace->seed_of_final.assign(num_final, kInvalidVertex);
    trace->intact.assign(num_final, 0);
    for (uint32_t f = 0; f < scan.num_classes; ++f) {
      const std::vector<uint32_t>& p1s = cls[f];
      const uint32_t origin = p1_origin[p1s[0]];
      bool single_origin = true;
      for (size_t j = 1; j < p1s.size() && single_origin; ++j) {
        single_origin = p1_origin[p1s[j]] == origin;
      }
      if (!single_origin) continue;  // mixed: stays kInvalidVertex
      const uint32_t t = merged_to_final[f];
      trace->seed_of_final[t] = seed_value_of[origin];
      // Intact = the seed never split and nothing merged in: the final
      // block's member set is exactly the seed block's member set. Two
      // fragments of one seed re-merging in phase 2 is conservatively
      // non-intact (members may still differ from the seed's).
      trace->intact[t] = p1s.size() == 1 && !rs.fragmented[origin];
    }
  }
  return result;
}

}  // namespace bigindex
