// Unit + differential tests for the live-update subsystem's core:
// NormalizeUpdates edge semantics (duplicates, add-then-remove, self-loops),
// IncrementalBisimulation == ComputeBisimulation over random update batches
// (including merge-inducing removals and additions), and MaintainIndex ==
// from-scratch BigIndex::Build, down to serialized bytes.
//
// tools/ci.sh runs these under TSan alongside the other differential
// suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bisim/bisimulation.h"
#include "bisim/maintenance.h"
#include "core/big_index.h"
#include "core/index_image.h"
#include "graph/label_dictionary.h"
#include "shard/shard_build.h"
#include "testing/random_graph.h"
#include "testing/same_bytes.h"
#include "update/incremental.h"
#include "update/maintain.h"
#include "util/random.h"

namespace bigindex {
namespace {

using bigindex::testing::MakeRandomGraph;
using bigindex::testing::MakeRandomInstance;
using bigindex::testing::RandomGraphOptions;
using bigindex::testing::RandomInstance;
using bigindex::testing::RandomOntologyOptions;
using bigindex::testing::SameBytes;

GraphUpdate Add(VertexId u, VertexId v) {
  return {GraphUpdate::Kind::kAddEdge, u, v};
}
GraphUpdate Remove(VertexId u, VertexId v) {
  return {GraphUpdate::Kind::kRemoveEdge, u, v};
}

Graph MakeGraph(size_t n, LabelId label,
                std::vector<std::pair<VertexId, VertexId>> edges) {
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) b.AddVertex(label);
  for (auto [u, v] : edges) b.AddEdge(u, v);
  return std::move(b.Build()).value();
}

// Random update batch against `g`: a mix of removals of present edges,
// additions of (mostly) absent edges, self-loops, duplicates, and
// add/remove flip-flops on the same edge.
std::vector<GraphUpdate> MakeRandomBatch(const Graph& g, size_t count,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<GraphUpdate> batch;
  const size_t n = g.NumVertices();
  if (n == 0) return batch;
  const auto edges = g.Edges();
  for (size_t i = 0; i < count; ++i) {
    const uint64_t pick = rng.Uniform(10);
    if (pick < 4 && !edges.empty()) {
      auto [u, v] = edges[rng.Uniform(edges.size())];
      batch.push_back(Remove(u, v));
    } else if (pick < 8) {
      VertexId u = static_cast<VertexId>(rng.Uniform(n));
      VertexId v = rng.Bernoulli(0.1) ? u : static_cast<VertexId>(rng.Uniform(n));
      batch.push_back(Add(u, v));
    } else if (!batch.empty()) {
      // Duplicate or invert an earlier op on the same edge.
      GraphUpdate prior = batch[rng.Uniform(batch.size())];
      if (rng.Bernoulli(0.5)) {
        prior.kind = prior.kind == GraphUpdate::Kind::kAddEdge
                         ? GraphUpdate::Kind::kRemoveEdge
                         : GraphUpdate::Kind::kAddEdge;
      }
      batch.push_back(prior);
    } else {
      batch.push_back(Add(static_cast<VertexId>(rng.Uniform(n)),
                          static_cast<VertexId>(rng.Uniform(n))));
    }
  }
  return batch;
}

// Dirty frontier for a batch at the base layer: sources of every net edge
// change (successor bisimulation only observes out-neighborhoods).
std::vector<VertexId> DirtySources(const UpdateDelta& delta) {
  std::vector<VertexId> dirty;
  for (const auto& [u, v] : delta.added) dirty.push_back(u);
  for (const auto& [u, v] : delta.removed) dirty.push_back(u);
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  return dirty;
}

void ExpectSameBisim(const BisimResult& a, const BisimResult& b,
                     const std::string& context) {
  EXPECT_TRUE(GraphsIdentical(a.summary, b.summary)) << context;
  ASSERT_EQ(a.mapping.NumVertices(), b.mapping.NumVertices()) << context;
  ASSERT_EQ(a.mapping.NumSupernodes(), b.mapping.NumSupernodes()) << context;
  for (VertexId v = 0; v < a.mapping.NumVertices(); ++v) {
    ASSERT_EQ(a.mapping.SuperOf(v), b.mapping.SuperOf(v))
        << context << " vertex " << v;
  }
}

// The index image written with a synthetic dictionary covering every label
// slot the ontology can produce; byte equality of images is the strongest
// equivalence the system defines.
std::string Serialize(const BigIndex& index, size_t label_slots,
                      const ShardImageInfo& shard = {}) {
  LabelDictionary dict;
  for (size_t i = 0; i < label_slots; ++i) {
    dict.Intern("t" + std::to_string(i));
  }
  std::ostringstream out;
  EXPECT_TRUE(WriteIndexImage(index, dict, shard, out).ok());
  return out.str();
}

// Loads an image written by Serialize.
BigIndex LoadImage(std::string image, const Ontology& ontology,
                   ShardImageInfo* shard = nullptr) {
  LabelDictionary dict;
  auto loaded = LoadIndexImageFromBuffer(
      std::make_shared<const std::string>(std::move(image)), dict, &ontology,
      {}, shard);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

// ---------------------------------------------------------------------------
// NormalizeUpdates / ApplyUpdates edge semantics (satellite: duplicates,
// add-then-remove, self-loops must behave identically on every path).

TEST(NormalizeUpdatesTest, LastOpWinsAndRedundantsAreCounted) {
  Graph g = MakeGraph(3, 7, {{0, 1}});
  std::vector<GraphUpdate> batch = {
      Add(0, 2),     // net add
      Add(0, 2),     // duplicate -> redundant
      Remove(0, 1),  // superseded below -> redundant
      Add(0, 1),     // re-add of a present edge -> net no-op, redundant
      Add(1, 2),     // superseded below -> redundant
      Remove(1, 2),  // add-then-remove of an absent edge -> net no-op
      Remove(2, 0),  // remove of an absent edge -> redundant
  };
  auto delta = NormalizeUpdates(g, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->added, (std::vector<std::pair<VertexId, VertexId>>{{0, 2}}));
  EXPECT_TRUE(delta->removed.empty());
  EXPECT_EQ(delta->redundant, 6u);
}

TEST(NormalizeUpdatesTest, RemoveThenAddOfPresentEdgeIsNoOp) {
  Graph g = MakeGraph(2, 0, {{0, 1}});
  std::vector<GraphUpdate> batch = {Remove(0, 1), Add(0, 1)};
  auto delta = NormalizeUpdates(g, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());
}

TEST(NormalizeUpdatesTest, SelfLoopsAreOrdinaryEdges) {
  Graph g = MakeGraph(2, 0, {{1, 1}});
  std::vector<GraphUpdate> batch = {Add(0, 0), Remove(1, 1)};
  auto delta = NormalizeUpdates(g, batch);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->added, (std::vector<std::pair<VertexId, VertexId>>{{0, 0}}));
  EXPECT_EQ(delta->removed,
            (std::vector<std::pair<VertexId, VertexId>>{{1, 1}}));

  auto updated = ApplyUpdates(g, batch);
  ASSERT_TRUE(updated.ok());
  EXPECT_TRUE(updated->HasEdge(0, 0));
  EXPECT_FALSE(updated->HasEdge(1, 1));
}

TEST(NormalizeUpdatesTest, OutOfRangeEndpointsFail) {
  Graph g = MakeGraph(2, 0, {});
  EXPECT_FALSE(NormalizeUpdates(g, std::vector<GraphUpdate>{Add(0, 2)}).ok());
  EXPECT_FALSE(
      NormalizeUpdates(g, std::vector<GraphUpdate>{Remove(5, 0)}).ok());
}

TEST(NormalizeUpdatesTest, MatchesSequentialApplicationOnRandomBatches) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    RandomGraphOptions opt;
    opt.seed = seed;
    opt.num_vertices = 10 + seed % 40;
    opt.edge_density = 1.0 + static_cast<double>(seed % 4);
    Graph g = MakeRandomGraph(opt);
    auto batch = MakeRandomBatch(g, 1 + seed % 25, seed * 13 + 1);

    // Reference: one-op-at-a-time application.
    Graph reference = g;
    for (const GraphUpdate& up : batch) {
      auto next = ApplyUpdates(reference, std::vector<GraphUpdate>{up});
      ASSERT_TRUE(next.ok());
      reference = std::move(next).value();
    }
    auto batched = ApplyUpdates(g, batch);
    ASSERT_TRUE(batched.ok());
    EXPECT_TRUE(GraphsIdentical(reference, *batched)) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// IncrementalBisimulation == ComputeBisimulation.

TEST(IncrementalBisimTest, RemovalCanMergeBlocks) {
  // a->b, c: removing a->b makes all three bisimilar — splitting alone can
  // never produce that; the quotient merge phase must.
  Graph g0 = MakeGraph(3, 5, {{0, 1}});
  BisimResult before = ComputeBisimulation(g0);
  ASSERT_EQ(before.mapping.NumSupernodes(), 2u);

  auto g1 = ApplyUpdates(g0, std::vector<GraphUpdate>{Remove(0, 1)});
  ASSERT_TRUE(g1.ok());
  std::vector<VertexId> seed(3);
  for (VertexId v = 0; v < 3; ++v) seed[v] = before.mapping.SuperOf(v);
  auto incremental =
      IncrementalBisimulation(*g1, seed, std::vector<VertexId>{0});
  ASSERT_TRUE(incremental.ok());
  EXPECT_EQ(incremental->mapping.NumSupernodes(), 1u);
  ExpectSameBisim(ComputeBisimulation(*g1), *incremental, "removal merge");
}

TEST(IncrementalBisimTest, AdditionCanMergeBlocks) {
  // a->b plus isolated c,d: adding c->d makes a ~ c and b ~ d.
  Graph g0 = MakeGraph(4, 5, {{0, 1}});
  BisimResult before = ComputeBisimulation(g0);
  auto g1 = ApplyUpdates(g0, std::vector<GraphUpdate>{Add(2, 3)});
  ASSERT_TRUE(g1.ok());
  std::vector<VertexId> seed(4);
  for (VertexId v = 0; v < 4; ++v) seed[v] = before.mapping.SuperOf(v);
  auto incremental =
      IncrementalBisimulation(*g1, seed, std::vector<VertexId>{2});
  ASSERT_TRUE(incremental.ok());
  EXPECT_EQ(incremental->mapping.NumSupernodes(), 2u);
  ExpectSameBisim(ComputeBisimulation(*g1), *incremental, "addition merge");
}

TEST(IncrementalBisimTest, MatchesWholesaleOnRandomUpdateStreams) {
  size_t incremental_runs = 0;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    RandomGraphOptions opt;
    opt.seed = seed;
    opt.num_vertices = 15 + (seed * 31) % 300;
    opt.edge_density = 0.5 + static_cast<double>(seed % 6);
    opt.num_labels = 1 + seed % 10;
    opt.label_skew = (seed % 3) * 0.5;
    Graph g = MakeRandomGraph(opt);

    // Chain several batches so seeds themselves come from incremental runs.
    BisimResult current = ComputeBisimulation(g);
    for (int step = 0; step < 3; ++step) {
      auto batch = MakeRandomBatch(g, 1 + (seed + step) % 12,
                                   seed * 97 + step + 1);
      auto delta = NormalizeUpdates(g, batch);
      ASSERT_TRUE(delta.ok());
      Graph next = ApplyDelta(g, *delta);

      std::vector<VertexId> seed_partition(g.NumVertices());
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        seed_partition[v] = current.mapping.SuperOf(v);
      }
      auto incremental =
          IncrementalBisimulation(next, seed_partition, DirtySources(*delta));
      ASSERT_TRUE(incremental.ok());
      ++incremental_runs;

      BisimResult wholesale = ComputeBisimulation(next);
      ExpectSameBisim(wholesale, *incremental,
                      "seed " + std::to_string(seed) + " step " +
                          std::to_string(step));
      g = std::move(next);
      current = std::move(*incremental);
    }
  }
  EXPECT_GE(incremental_runs, 300u);
}

TEST(IncrementalBisimTest, RejectsMalformedInput) {
  Graph g = MakeGraph(3, 0, {});
  EXPECT_FALSE(
      IncrementalBisimulation(g, std::vector<VertexId>{0, 1}, {}).ok());
  std::vector<VertexId> seed{0, 0, 0};
  EXPECT_FALSE(
      IncrementalBisimulation(g, seed, std::vector<VertexId>{9}).ok());
  std::vector<VertexId> invalid_seed{0, kInvalidVertex, 0};
  EXPECT_FALSE(
      IncrementalBisimulation(g, invalid_seed, std::vector<VertexId>{0}).ok());
}

// ---------------------------------------------------------------------------
// MaintainIndex == from-scratch Build, serialized bytes.

RandomInstance MakeInstance(uint64_t seed) {
  RandomGraphOptions gopt;
  gopt.seed = seed;
  gopt.num_vertices = 20 + (seed * 41) % 250;
  gopt.edge_density = 1.0 + static_cast<double>(seed % 4);
  gopt.num_labels = 4 + seed % 8;
  RandomOntologyOptions oopt;
  oopt.num_leaves = gopt.num_labels;
  oopt.height = 2 + seed % 3;
  oopt.seed = seed + 1;
  return MakeRandomInstance(gopt, oopt);
}

TEST(MaintainIndexTest, MatchesFromScratchBuildOnRandomStreams) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    RandomInstance inst = MakeInstance(seed);
    BigIndexOptions opts;
    opts.max_layers = 4;
    auto index = BigIndex::Build(inst.graph, &inst.ontology, opts);
    ASSERT_TRUE(index.ok());

    Graph base = inst.graph;
    BigIndex current = *index;
    for (int step = 0; step < 2; ++step) {
      auto batch =
          MakeRandomBatch(base, 1 + (seed + step) % 10, seed * 71 + step);
      MaintainReport report;
      auto maintained =
          MaintainIndex(current, batch, MaintainOptions{}, &report);
      ASSERT_TRUE(maintained.ok()) << "seed " << seed << " step " << step;

      auto updated_base = ApplyUpdates(base, batch);
      ASSERT_TRUE(updated_base.ok());
      auto rebuilt = BigIndex::Build(*updated_base, &inst.ontology, opts);
      ASSERT_TRUE(rebuilt.ok());

      const size_t slots = inst.ontology.LabelSlots();
      EXPECT_TRUE(
          SameBytes(Serialize(*maintained, slots), Serialize(*rebuilt, slots)))
          << "seed " << seed << " step " << step;
      base = std::move(*updated_base);
      current = std::move(*maintained);
    }
  }
}

// fallback_dirty_ratio = 0 sends every layer down the wholesale path, and
// the result is still the rebuild, byte for byte.
TEST(MaintainIndexTest, ZeroFallbackRatioMakesEveryLayerWholesale) {
  RandomInstance inst = MakeInstance(7);
  BigIndexOptions opts;
  opts.max_layers = 3;
  auto index = BigIndex::Build(inst.graph, &inst.ontology, opts);
  ASSERT_TRUE(index.ok());
  auto batch = MakeRandomBatch(inst.graph, 8, 1234);

  MaintainReport report;
  auto maintained =
      MaintainIndex(*index, batch, {.fallback_dirty_ratio = 0}, &report);
  ASSERT_TRUE(maintained.ok());
  ASSERT_FALSE(report.delta.empty());
  ASSERT_FALSE(report.layers.empty());
  for (size_t i = 0; i < report.layers.size(); ++i) {
    EXPECT_EQ(report.layers[i].mode, LayerMaintenance::kWholesale)
        << "layer " << i + 1;
  }
  auto updated_base = ApplyUpdates(inst.graph, batch);
  ASSERT_TRUE(updated_base.ok());
  auto rebuilt = BigIndex::Build(*updated_base, &inst.ontology, opts);
  ASSERT_TRUE(rebuilt.ok());
  const size_t slots = inst.ontology.LabelSlots();
  EXPECT_TRUE(
      SameBytes(Serialize(*maintained, slots), Serialize(*rebuilt, slots)));
}

// A wholesale layer erases the provenance the localized tiers need, so every
// layer above it is wholesale too. Searches seeded instances for batches
// whose maintenance goes wholesale above the first layer and checks the rule
// and the bytes on each.
TEST(MaintainIndexTest, LayersAboveAWholesaleLayerAreWholesale) {
  size_t mid_stack = 0;
  for (uint64_t seed = 0; seed < 100; ++seed) {
    RandomInstance inst = MakeInstance(seed);
    BigIndexOptions opts;
    opts.max_layers = 4;
    auto index = BigIndex::Build(inst.graph, &inst.ontology, opts);
    ASSERT_TRUE(index.ok());
    auto batch = MakeRandomBatch(inst.graph, 2 + seed % 24, seed * 53 + 9);
    MaintainReport report;
    auto maintained = MaintainIndex(*index, batch, MaintainOptions{}, &report);
    ASSERT_TRUE(maintained.ok()) << "seed " << seed;

    size_t first_wholesale = report.layers.size();
    for (size_t i = 0; i < report.layers.size(); ++i) {
      if (report.layers[i].mode == LayerMaintenance::kWholesale) {
        first_wholesale = i;
        break;
      }
    }
    if (first_wholesale == report.layers.size()) continue;
    if (first_wholesale > 0) ++mid_stack;
    for (size_t i = first_wholesale; i < report.layers.size(); ++i) {
      EXPECT_EQ(report.layers[i].mode, LayerMaintenance::kWholesale)
          << "seed " << seed << " layer " << i + 1;
    }
    auto updated_base = ApplyUpdates(inst.graph, batch);
    ASSERT_TRUE(updated_base.ok());
    auto rebuilt = BigIndex::Build(*updated_base, &inst.ontology, opts);
    ASSERT_TRUE(rebuilt.ok());
    const size_t slots = inst.ontology.LabelSlots();
    EXPECT_TRUE(
        SameBytes(Serialize(*maintained, slots), Serialize(*rebuilt, slots)))
        << "seed " << seed;
  }
  // The sweep must reach the case the rule is about.
  EXPECT_GT(mid_stack, 0u);
}

TEST(MaintainIndexTest, NoNetChangeReturnsUnchangedIndex) {
  RandomInstance inst = MakeInstance(11);
  auto index = BigIndex::Build(inst.graph, &inst.ontology, {});
  ASSERT_TRUE(index.ok());

  // A batch that cancels itself out entirely.
  std::vector<GraphUpdate> batch = {Add(0, 1), Remove(0, 1)};
  if (inst.graph.HasEdge(0, 1)) batch = {Remove(0, 1), Add(0, 1)};
  MaintainReport report;
  auto maintained = MaintainIndex(*index, batch, MaintainOptions{}, &report);
  ASSERT_TRUE(maintained.ok());
  EXPECT_TRUE(report.delta.empty());
  EXPECT_EQ(report.LayersRebuilt(), 0u);
  const size_t slots = inst.ontology.LabelSlots();
  EXPECT_TRUE(
      SameBytes(Serialize(*maintained, slots), Serialize(*index, slots)));
}

TEST(MaintainIndexTest, EdgeSemanticsMatchWholesalePath) {
  // Duplicate updates, add-then-remove, and self-loops must land exactly as
  // the graph-level ApplyUpdates lands them (both normalize through
  // NormalizeUpdates), and the maintained index must equal a from-scratch
  // Build of that graph down to its image bytes.
  RandomInstance inst = MakeInstance(13);
  BigIndexOptions opts;
  opts.max_layers = 3;
  auto index = BigIndex::Build(inst.graph, &inst.ontology, opts);
  ASSERT_TRUE(index.ok());
  std::vector<GraphUpdate> batch = {
      Add(1, 1), Add(1, 1),            // duplicate self-loop add
      Add(2, 3), Remove(2, 3),         // add-then-remove
      Remove(0, 0), Add(0, 0),         // remove-then-add of a self-loop
      Add(4, 5),
  };
  auto maintained = MaintainIndex(*index, batch);
  ASSERT_TRUE(maintained.ok());

  auto updated_base = ApplyUpdates(inst.graph, batch);
  ASSERT_TRUE(updated_base.ok());
  EXPECT_TRUE(GraphsIdentical(maintained->base(), *updated_base));
  auto rebuilt = BigIndex::Build(*updated_base, &inst.ontology, opts);
  ASSERT_TRUE(rebuilt.ok());
  const size_t slots = inst.ontology.LabelSlots();
  EXPECT_TRUE(
      SameBytes(Serialize(*maintained, slots), Serialize(*rebuilt, slots)));
  EXPECT_TRUE(maintained->base().HasEdge(1, 1));
  EXPECT_FALSE(maintained->base().HasEdge(2, 3));
  EXPECT_TRUE(maintained->base().HasEdge(0, 0));
  EXPECT_TRUE(maintained->base().HasEdge(4, 5));
}

TEST(MaintainIndexTest, GreedyConfigFallsBackToFullRebuild) {
  RandomInstance inst = MakeInstance(17);
  BigIndexOptions opts;
  opts.max_layers = 2;
  opts.use_greedy_config = true;
  auto index = BigIndex::Build(inst.graph, &inst.ontology, opts);
  ASSERT_TRUE(index.ok());
  auto batch = MakeRandomBatch(inst.graph, 5, 99);
  MaintainReport report;
  auto maintained = MaintainIndex(*index, batch, MaintainOptions{}, &report);
  ASSERT_TRUE(maintained.ok());
  if (!report.delta.empty()) {
    EXPECT_TRUE(report.full_rebuild);
    auto updated_base = ApplyUpdates(inst.graph, batch);
    ASSERT_TRUE(updated_base.ok());
    auto rebuilt = BigIndex::Build(*updated_base, &inst.ontology, opts);
    ASSERT_TRUE(rebuilt.ok());
    const size_t slots = inst.ontology.LabelSlots();
    EXPECT_TRUE(
        SameBytes(Serialize(*maintained, slots), Serialize(*rebuilt, slots)));
  }
}

// ---------------------------------------------------------------------------
// An image records the options its index was built with, so an index loaded
// from one is maintained at its built depth rather than the default one.

// An instance whose default build has more than 3 layers, so a depth-3 index
// grown to the default depth shows in its layer count.
RandomInstance MakeDeepInstance() {
  RandomGraphOptions gopt;
  gopt.seed = 5;
  gopt.num_vertices = 160;
  gopt.edge_density = 2.0;
  gopt.num_labels = 12;
  RandomOntologyOptions oopt;
  oopt.num_leaves = gopt.num_labels;
  oopt.height = 6;
  oopt.seed = 6;
  return MakeRandomInstance(gopt, oopt);
}

// A seeded single-edge toggle: removes an edge of `g` or adds a missing one.
GraphUpdate Toggle(const Graph& g, Rng& rng) {
  const auto edges = g.Edges();
  if (!edges.empty() && rng.Bernoulli(0.5)) {
    auto [u, v] = edges[rng.Uniform(edges.size())];
    return Remove(u, v);
  }
  const auto u = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
  const auto v = static_cast<VertexId>(rng.Uniform(g.NumVertices()));
  return g.HasEdge(u, v) ? Remove(u, v) : Add(u, v);
}

// Applies `steps` toggles to `current`, each successor round-tripped through
// its image, and expects every successor's image to equal that of a
// from-scratch build of the updated graph with `options`.
void ExpectTogglesMatchRebuild(BigIndex current, const Ontology& ontology,
                               const BigIndexOptions& options,
                               const ShardImageInfo& shard, uint64_t seed,
                               int steps) {
  const size_t slots = ontology.LabelSlots();
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const std::vector<GraphUpdate> batch = {Toggle(current.base(), rng)};
    auto maintained = MaintainIndex(current, batch);
    ASSERT_TRUE(maintained.ok()) << "step " << step;
    auto updated_base = ApplyUpdates(current.base(), batch);
    ASSERT_TRUE(updated_base.ok());
    auto rebuilt = BigIndex::Build(*updated_base, &ontology, options);
    ASSERT_TRUE(rebuilt.ok());
    std::string image = Serialize(*maintained, slots, shard);
    ASSERT_TRUE(SameBytes(image, Serialize(*rebuilt, slots, shard)))
        << "at step " << step << ": maintained "
        << maintained->NumLayers() << " layer(s), rebuilt "
        << rebuilt->NumLayers();
    current = LoadImage(std::move(image), ontology);
  }
}

TEST(MaintainIndexTest, ImageRecordsBuildOptions) {
  RandomInstance inst = MakeDeepInstance();
  const size_t slots = inst.ontology.LabelSlots();
  auto index = BigIndex::Build(inst.graph, &inst.ontology,
                               {.max_layers = 3, .stop_ratio = 0.99});
  ASSERT_TRUE(index.ok());
  BigIndex loaded = LoadImage(Serialize(*index, slots), inst.ontology);
  EXPECT_EQ(loaded.options().max_layers, 3u);
  EXPECT_EQ(loaded.options().stop_ratio, 0.99);
  EXPECT_FALSE(loaded.options().use_greedy_config);

  auto greedy = BigIndex::Build(inst.graph, &inst.ontology,
                                {.max_layers = 2, .use_greedy_config = true});
  ASSERT_TRUE(greedy.ok());
  loaded = LoadImage(Serialize(*greedy, slots), inst.ontology);
  EXPECT_EQ(loaded.options().max_layers, 2u);
  EXPECT_TRUE(loaded.options().use_greedy_config);
}

TEST(MaintainIndexTest, ImageLoadedIndexIsMaintainedAtItsBuiltDepth) {
  RandomInstance inst = MakeDeepInstance();
  auto deep = BigIndex::Build(inst.graph, &inst.ontology, {});
  ASSERT_TRUE(deep.ok());
  ASSERT_GT(deep->NumLayers(), 3u) << "instance too shallow for this test";
  const BigIndexOptions options{.max_layers = 3};
  auto index = BigIndex::Build(inst.graph, &inst.ontology, options);
  ASSERT_TRUE(index.ok());
  BigIndex loaded = LoadImage(
      Serialize(*index, inst.ontology.LabelSlots()), inst.ontology);
  ExpectTogglesMatchRebuild(std::move(loaded), inst.ontology, options, {},
                            /*seed=*/42, /*steps=*/12);
}

TEST(MaintainIndexTest, ShardImageLoadedIndexIsMaintainedAtItsBuiltDepth) {
  RandomInstance inst = MakeDeepInstance();
  const BigIndexOptions options{.max_layers = 3};
  auto sharded = BuildShardedIndex(
      inst.graph, &inst.ontology,
      {.plan = {.num_shards = 2, .mode = ShardMode::kBfsBlocks,
                .bfs_block_size = 40},
       .index = options});
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  bool deep_shard = false;
  for (const BuiltShard& built : sharded->shards) {
    auto deep = BigIndex::Build(built.index.base(), &inst.ontology, {});
    ASSERT_TRUE(deep.ok());
    deep_shard = deep_shard || deep->NumLayers() > 3;

    ShardImageInfo shard;
    BigIndex loaded =
        LoadImage(Serialize(built.index, inst.ontology.LabelSlots(),
                            built.shard),
                  inst.ontology, &shard);
    EXPECT_EQ(loaded.options().max_layers, 3u);
    EXPECT_EQ(shard.shard_id, built.shard.shard_id);
    EXPECT_EQ(shard.global_of, built.shard.global_of);
    EXPECT_EQ(shard.ghosts, built.shard.ghosts);
    ExpectTogglesMatchRebuild(std::move(loaded), inst.ontology, options,
                              built.shard, /*seed=*/7 + shard.shard_id,
                              /*steps=*/6);
  }
  EXPECT_TRUE(deep_shard) << "no shard deep enough for this test";
}

}  // namespace
}  // namespace bigindex
