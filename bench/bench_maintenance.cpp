// Live-update maintenance cost: incremental (delta-propagating) refinement
// vs wholesale re-summarization (fallback_dirty_ratio = 0) vs a full
// from-scratch rebuild, as a function of the dirty-set size (net edge
// changes per batch).
//
// The paper (Sec. 3.2) adopts incremental bisimulation maintenance and
// notes the index "can be recomputed occasionally"; the numbers to check
// here are (a) how many layers stay on a fast path (patched or seeded
// localized refinement, update/incremental.h) as the dirty set grows
// (the fallback_dirty_ratio knob trips past the crossover, and a wholesale
// layer makes every layer above it wholesale), and (b) the
// wall-clock speedup over a from-scratch rebuild — small batches avoid
// every layer-sized re-derivation (delta patching, localized merge scan,
// quotient-as-summary shortcut), so maintenance beats rebuild by 2x+
// until the propagated changed set saturates the summaries (see
// docs/MAINTENANCE.md for the cost model and EXPERIMENTS.md for numbers).
// All three paths produce byte-identical indexes; the differential gate in
// tests/update_differential_test.cpp enforces that, and --smoke re-checks
// it here on every CI run.
//
//   bench_maintenance [--smoke | --check]
//
// --smoke: tiny preset; one mixed batch through all three paths (the
// wholesale one at fallback_dirty_ratio = 0, which must report every layer
// wholesale), exits non-zero unless the three index images are
// byte-identical. Used by tools/ci.sh.
//
// --check: CI speedup gate. On the default preset, asserts incremental
// maintenance beats the from-scratch rebuild by >= 2x for small batches
// (well under 5% dirty edges) and that the maintained index's image is
// byte-identical to the rebuild's at every gated batch size. Exits
// non-zero on any miss. Used by tools/ci.sh.

#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "bench_util.h"

using namespace bigindex;
using namespace bigindex::bench;

namespace {

std::string SerializeIndex(const BigIndex& index, const LabelDictionary& dict) {
  std::ostringstream out;
  Status s = WriteIndexImage(index, dict, out);
  if (!s.ok()) {
    std::fprintf(stderr, "serialize: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return std::move(out).str();
}

/// `count` edge toggles: half removals of present edges, half additions of
/// random (mostly absent) pairs — the steady-state update mix.
std::vector<GraphUpdate> MakeBatch(const Graph& g, size_t count,
                                   uint64_t seed) {
  Rng rng(seed);
  const auto edges = g.Edges();
  std::vector<GraphUpdate> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % 2 == 0 && !edges.empty()) {
      auto [u, v] = edges[rng.Uniform(edges.size())];
      batch.push_back({GraphUpdate::Kind::kRemoveEdge, u, v});
    } else {
      batch.push_back(
          {GraphUpdate::Kind::kAddEdge,
           static_cast<VertexId>(rng.Uniform(g.NumVertices())),
           static_cast<VertexId>(rng.Uniform(g.NumVertices()))});
    }
  }
  return batch;
}

BigIndex MustMaintain(const BigIndex& index,
                      const std::vector<GraphUpdate>& batch,
                      const MaintainOptions& opt,
                      MaintainReport* report = nullptr) {
  auto result = MaintainIndex(index, batch, opt, report);
  if (!result.ok()) {
    std::fprintf(stderr, "maintain: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Layers that avoided wholesale re-summarization: patched (projected
/// block-level delta), seeded localized refinement, or copied verbatim.
size_t FastLayers(const MaintainReport& report) {
  size_t fast = 0;
  for (const MaintainLayerReport& lr : report.layers) {
    if (lr.mode != LayerMaintenance::kWholesale) ++fast;
  }
  return fast;
}

/// CI gate: incremental maintenance must beat a from-scratch rebuild by
/// kGateSpeedup at each gated batch size, and the maintained index's image
/// must be byte-identical to the rebuild's. Batch sizes are a tiny
/// fraction of |E| (50k+ edges at the default preset), far under the 5%
/// dirty-edge bound the gate documents.
constexpr size_t kGateBatches[] = {1, 4};
constexpr double kGateSpeedup = 2.0;

int RunCheck() {
  auto ds = MakeDataset("yago3", BenchScale());
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  auto index =
      BigIndex::Build(ds->graph, &ds->ontology.ontology, {.max_layers = 4});
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  std::printf("maintenance speedup gate: yago3 |V|=%zu |E|=%zu, >= %.1fx "
              "vs rebuild\n",
              ds->graph.NumVertices(), ds->graph.NumEdges(), kGateSpeedup);
  bool ok = true;
  for (size_t count : kGateBatches) {
    auto batch = MakeBatch(ds->graph, count, 1000 + count);

    MaintainReport report;
    BigIndex maintained = MustMaintain(*index, batch, MaintainOptions{},
                                       &report);
    double inc_ms = MedianMs(5, [&] {
      MustMaintain(*index, batch, MaintainOptions{});
    });

    auto updated = ApplyUpdates(ds->graph, batch);
    if (!updated.ok()) {
      std::fprintf(stderr, "%s\n", updated.status().ToString().c_str());
      return 1;
    }
    auto rebuilt = BigIndex::Build(*updated, &ds->ontology.ontology,
                                   index->options());
    if (!rebuilt.ok()) {
      std::fprintf(stderr, "%s\n", rebuilt.status().ToString().c_str());
      return 1;
    }
    double rebuild_ms = MedianMs(5, [&] {
      auto r = BigIndex::Build(*updated, &ds->ontology.ontology,
                               index->options());
      if (!r.ok()) std::exit(1);
    });

    const bool identical =
        SerializeIndex(maintained, *ds->dict) ==
        SerializeIndex(*rebuilt, *ds->dict);
    double speedup = inc_ms > 0 ? rebuild_ms / inc_ms : 0.0;
    if (speedup < kGateSpeedup) {
      // One re-measure before failing: the gate runs on shared CI machines
      // and a single noisy median should not fail the build.
      inc_ms = MedianMs(5, [&] {
        MustMaintain(*index, batch, MaintainOptions{});
      });
      rebuild_ms = MedianMs(5, [&] {
        auto r = BigIndex::Build(*updated, &ds->ontology.ontology,
                                 index->options());
        if (!r.ok()) std::exit(1);
      });
      speedup = inc_ms > 0 ? rebuild_ms / inc_ms : 0.0;
    }
    const bool fast_enough = speedup >= kGateSpeedup;
    std::printf("  batch=%zu inc=%.2fms rebuild=%.2fms speedup=%.2fx "
                "fast-layers=%zu/%zu bytes=%s  %s\n",
                count, inc_ms, rebuild_ms, speedup, FastLayers(report),
                report.layers.size(), identical ? "identical" : "DIVERGED",
                fast_enough && identical ? "ok" : "FAIL");
    ok = ok && fast_enough && identical;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: maintenance speedup gate (see rows above)\n");
    return 1;
  }
  std::printf("maintenance speedup gate OK\n");
  return 0;
}

int RunSmoke() {
  auto ds = MakeDataset("yago3", 0.002);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  auto index =
      BigIndex::Build(ds->graph, &ds->ontology.ontology, {.max_layers = 3});
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  auto batch = MakeBatch(ds->graph, 8, 42);

  MaintainReport report;
  BigIndex incremental =
      MustMaintain(*index, batch, MaintainOptions{}, &report);
  MaintainReport wholesale_report;
  BigIndex wholesale = MustMaintain(*index, batch, {.fallback_dirty_ratio = 0},
                                    &wholesale_report);
  if (FastLayers(wholesale_report) != 0) {
    std::fprintf(stderr,
                 "FAIL: fallback_dirty_ratio = 0 kept %zu/%zu layers off "
                 "the wholesale path\n",
                 FastLayers(wholesale_report), wholesale_report.layers.size());
    return 1;
  }
  auto updated = ApplyUpdates(ds->graph, batch);
  if (!updated.ok()) {
    std::fprintf(stderr, "%s\n", updated.status().ToString().c_str());
    return 1;
  }
  auto rebuilt = BigIndex::Build(*updated, &ds->ontology.ontology,
                                 index->options());
  if (!rebuilt.ok()) {
    std::fprintf(stderr, "%s\n", rebuilt.status().ToString().c_str());
    return 1;
  }

  const std::string inc = SerializeIndex(incremental, *ds->dict);
  if (inc != SerializeIndex(wholesale, *ds->dict) ||
      inc != SerializeIndex(*rebuilt, *ds->dict)) {
    std::fprintf(stderr,
                 "FAIL: incremental / wholesale / rebuild disagree "
                 "(|V|=%zu, batch=%zu)\n",
                 ds->graph.NumVertices(), batch.size());
    return 1;
  }
  std::printf("maintenance smoke OK: incremental == wholesale == rebuild "
              "(|V|=%zu, +%zu -%zu edges, %zu/%zu layers fast-path)\n",
              ds->graph.NumVertices(), report.delta.added.size(),
              report.delta.removed.size(), FastLayers(report),
              report.layers.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return RunSmoke();
  if (argc > 1 && std::strcmp(argv[1], "--check") == 0) return RunCheck();

  PrintHeader("Live-update maintenance — incremental vs wholesale vs rebuild",
              "Sec. 3.2 (maintenance of BiG-index)");
  double scale = BenchScale();

  auto ds = MakeDataset("yago3", scale);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  auto index =
      BigIndex::Build(ds->graph, &ds->ontology.ontology, {.max_layers = 4});
  if (!index.ok()) {
    std::fprintf(stderr, "%s\n", index.status().ToString().c_str());
    return 1;
  }
  Timer build_timer;
  auto rebuilt_once =
      BigIndex::Build(ds->graph, &ds->ontology.ontology, {.max_layers = 4});
  const double full_build_ms = build_timer.ElapsedMillis();
  if (!rebuilt_once.ok()) {
    std::fprintf(stderr, "%s\n", rebuilt_once.status().ToString().c_str());
    return 1;
  }
  std::printf("yago3 |V|=%zu |E|=%zu, %zu layers; from-scratch build "
              "%.1f ms\n\n",
              ds->graph.NumVertices(), ds->graph.NumEdges(),
              index->NumLayers(), full_build_ms);

  std::printf("%8s %8s %12s %12s %12s %10s %12s\n", "batch", "dirty",
              "inc(ms)", "whole(ms)", "rebuild(ms)", "inc-layers",
              "speedup-vs-rb");
  for (size_t count : {size_t{1}, size_t{4}, size_t{16}, size_t{64},
                       size_t{256}, size_t{1024}}) {
    auto batch = MakeBatch(ds->graph, count, 1000 + count);
    auto delta = NormalizeUpdates(ds->graph, batch);
    if (!delta.ok()) continue;

    MaintainReport report;
    double inc_ms = MedianMs(3, [&] {
      MustMaintain(*index, batch, MaintainOptions{}, &report);
    });
    double whole_ms = MedianMs(3, [&] {
      MustMaintain(*index, batch, {.fallback_dirty_ratio = 0});
    });
    double rebuild_ms = MedianMs(3, [&] {
      auto updated = ApplyUpdates(ds->graph, batch);
      auto r = BigIndex::Build(*updated, &ds->ontology.ontology,
                               index->options());
      if (!r.ok()) std::exit(1);
    });

    std::printf("%8zu %8zu %12.2f %12.2f %12.2f %7zu/%zu %11.2fx\n", count,
                delta->added.size() + delta->removed.size(), inc_ms, whole_ms,
                rebuild_ms, FastLayers(report), report.layers.size(),
                inc_ms > 0 ? rebuild_ms / inc_ms : 0.0);
  }
  std::printf("\ninc-layers: layers maintained on a fast path (patched, "
              "seeded localized, or copied; rest: wholesale).\n");
  return 0;
}
