// The live-update acceptance gate: random interleaved query + update
// streams against the full serving stack (SearchService + LiveUpdater with
// the RCU epoch swap wired), differentially checked against a from-scratch
// rebuild after every batch — the served successor index must match the
// rebuild down to serialized bytes, and the served answers must match a
// fresh engine on the rebuilt index for all four algorithms at every layer.
// Because the same queries repeat across update steps, the sweep also
// proves the answer cache never hands back a pre-swap result for a
// post-swap epoch.
//
// Runs 100 seeds by default; override downwards with
// BIGINDEX_UPDATE_GATE_SEEDS for slow instrumented runs (tools/ci.sh uses
// this under TSan).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bisim/maintenance.h"
#include "core/big_index.h"
#include "core/index_image.h"
#include "engine/query_engine.h"
#include "graph/label_dictionary.h"
#include "search/rclique.h"
#include "server/search_service.h"
#include "testing/random_graph.h"
#include "testing/same_bytes.h"
#include "update/live_updater.h"
#include "update/maintain.h"
#include "util/random.h"

namespace bigindex {
namespace {

using bigindex::testing::MakeRandomInstance;
using bigindex::testing::RandomGraphOptions;
using bigindex::testing::RandomInstance;
using bigindex::testing::RandomOntologyOptions;
using bigindex::testing::SameBytes;

// The acceptance gate runs this many seeds; override downwards with
// BIGINDEX_UPDATE_GATE_SEEDS for slow instrumented runs (TSan).
int GateSeeds() {
  const char* env = std::getenv("BIGINDEX_UPDATE_GATE_SEEDS");
  int seeds = env != nullptr ? std::atoi(env) : 100;
  return seeds > 0 ? seeds : 100;
}

constexpr const char* kAlgorithms[] = {"bkws", "blinks", "r-clique",
                                       "bidirectional"};

// r-clique's default registration caps answers internally; the gate
// compares full answer sets, so both the served engines (via
// configure_engine, which also runs on every successor) and the reference
// engine re-register it uncapped.
void UncapRClique(QueryEngine& engine) {
  engine.Register(
      std::make_unique<RCliqueAlgorithm>(RCliqueOptions{.r = 4, .top_k = 0}));
}

std::vector<Answer> Sorted(std::vector<Answer> answers) {
  SortAnswers(answers);
  return answers;
}

RandomInstance MakeInstance(uint64_t seed) {
  RandomGraphOptions gopt;
  gopt.seed = seed;
  gopt.num_vertices = 20 + (seed * 37) % 120;
  gopt.edge_density = 1.0 + static_cast<double>(seed % 3);
  gopt.num_labels = 4 + seed % 6;
  RandomOntologyOptions oopt;
  oopt.num_leaves = gopt.num_labels;
  oopt.height = 2 + seed % 3;
  oopt.seed = seed + 1;
  return MakeRandomInstance(gopt, oopt);
}

// Random update batch: removals of present edges, additions of (mostly)
// absent edges, self-loops, duplicates, and flip-flops — same generator
// shape as tests/update_test.cpp.
std::vector<GraphUpdate> MakeRandomBatch(const Graph& g, size_t count,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<GraphUpdate> batch;
  const size_t n = g.NumVertices();
  const auto edges = g.Edges();
  for (size_t i = 0; i < count; ++i) {
    const uint64_t pick = rng.Uniform(10);
    if (pick < 4 && !edges.empty()) {
      auto [u, v] = edges[rng.Uniform(edges.size())];
      batch.push_back({GraphUpdate::Kind::kRemoveEdge, u, v});
    } else if (pick < 8 || batch.empty()) {
      VertexId u = static_cast<VertexId>(rng.Uniform(n));
      VertexId v =
          rng.Bernoulli(0.1) ? u : static_cast<VertexId>(rng.Uniform(n));
      batch.push_back({GraphUpdate::Kind::kAddEdge, u, v});
    } else {
      GraphUpdate prior = batch[rng.Uniform(batch.size())];
      if (rng.Bernoulli(0.5)) {
        prior.kind = prior.kind == GraphUpdate::Kind::kAddEdge
                         ? GraphUpdate::Kind::kRemoveEdge
                         : GraphUpdate::Kind::kAddEdge;
      }
      batch.push_back(prior);
    }
  }
  return batch;
}

std::string Serialize(const BigIndex& index, size_t label_slots) {
  LabelDictionary dict;
  for (size_t i = 0; i < label_slots; ++i) {
    dict.Intern("t" + std::to_string(i));
  }
  std::ostringstream out;
  EXPECT_TRUE(WriteIndexImage(index, dict, out).ok());
  return out.str();
}

TEST(UpdateDifferentialGate, ServingMatchesRebuildOnInterleavedStreams) {
  const int seeds = GateSeeds();
  for (int seed = 1; seed <= seeds; ++seed) {
    RandomInstance inst = MakeInstance(seed);
    BigIndexOptions opts;
    opts.max_layers = 2;
    auto built = BigIndex::Build(inst.graph, &inst.ontology, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    auto index = std::make_shared<const BigIndex>(std::move(built).value());

    auto bootstrap = std::make_shared<QueryEngine>(index, QueryEngineOptions{});
    UncapRClique(*bootstrap);
    std::shared_ptr<const QueryEngine> engine = bootstrap;

    SearchService service(engine);
    LiveUpdaterOptions uopts;
    uopts.configure_engine = UncapRClique;
    LiveUpdater updater(index, engine, std::move(uopts));
    updater.set_swap([&service](std::shared_ptr<const QueryEngine> next) {
      return service.SwapEngine(std::move(next));
    });
    service.set_updater([&updater](std::span<const GraphUpdate> updates) {
      return updater.Apply(updates);
    });

    // Two fixed keyword queries per seed: repeating them across update
    // steps walks them through multiple epochs of the answer cache.
    Rng rng(seed * 131 + 5);
    std::vector<LabelId> keywords = {
        static_cast<LabelId>(rng.Uniform(4 + seed % 6)),
        static_cast<LabelId>(rng.Uniform(4 + seed % 6))};

    Graph base = inst.graph;
    const size_t slots = inst.ontology.LabelSlots();
    for (int step = 0; step < 2; ++step) {
      auto batch =
          MakeRandomBatch(base, 1 + (seed + step) % 8, seed * 97 + step + 1);
      auto outcome = service.ApplyUpdate(batch);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_EQ(outcome->applied + outcome->skipped, batch.size())
          << "seed " << seed << " step " << step;
      EXPECT_EQ(outcome->epoch, service.epoch());

      auto updated = ApplyUpdates(base, batch);
      ASSERT_TRUE(updated.ok());
      auto rebuilt = BigIndex::Build(*updated, &inst.ontology, opts);
      ASSERT_TRUE(rebuilt.ok());

      // Byte-exact successor: the published version equals the rebuild.
      auto current = updater.versions().Current();
      ASSERT_NE(current, nullptr);
      ASSERT_TRUE(SameBytes(Serialize(*current->index, slots),
                            Serialize(*rebuilt, slots)))
          << "seed " << seed << " step " << step;

      // Served answers equal a fresh engine on the rebuilt index for every
      // algorithm at every layer (full sets, no top-k cut).
      QueryEngine reference(std::move(rebuilt).value(),
                            QueryEngineOptions{});
      UncapRClique(reference);
      const size_t layers = reference.index().NumLayers();
      for (const char* algo : kAlgorithms) {
        EngineQuery q;
        q.algorithm = algo;
        q.keywords = keywords;
        q.NormalizeKeywords();
        q.eval.top_k = 0;
        for (int layer = 0; layer <= static_cast<int>(layers); ++layer) {
          q.eval.forced_layer = layer;
          auto expected = reference.Evaluate(q);
          ASSERT_TRUE(expected.ok()) << expected.status().ToString();
          auto served = service.Query(q);
          ASSERT_TRUE(served.ok()) << served.status().ToString();
          ASSERT_EQ(Sorted(served->answers), Sorted(expected->answers))
              << "seed " << seed << " step " << step << " algo " << algo
              << " layer " << layer;
        }
      }
      base = std::move(*updated);
    }
  }
}

// Persistent-correspondence differential: chaining MaintainIndex across
// batches, exactly as LiveUpdater does, must land on the same bytes as the
// concatenated batch in one call and as a from-scratch rebuild:
// maintain(maintain(I, A), B) == maintain(I, A+B) == Build(G after A+B).
// This is the contract that lets the serving path keep maintaining
// incrementally forever instead of re-anchoring on a rebuild: each successor
// preserves vertex numbering on intact blocks, so batch N+1's
// correspondence starts where batch N left off.
TEST(UpdateDifferentialGate, ChainedMaintenanceMatchesConcatenatedAndRebuild) {
  const int seeds = GateSeeds();
  size_t fast_layers = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    RandomInstance inst = MakeInstance(seed);
    BigIndexOptions opts;
    opts.max_layers = 2;
    auto built = BigIndex::Build(inst.graph, &inst.ontology, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const BigIndex original = std::move(built).value();
    const size_t slots = inst.ontology.LabelSlots();

    Graph base = inst.graph;
    std::vector<GraphUpdate> all;
    const BigIndex* cur = &original;
    std::optional<BigIndex> chained;
    for (int step = 0; step < 3; ++step) {
      auto batch =
          MakeRandomBatch(base, 1 + (seed + step) % 6, seed * 211 + step);
      MaintainReport report;
      auto next = MaintainIndex(*cur, batch, {}, &report);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      chained = std::move(next).value();
      cur = &*chained;
      for (const MaintainLayerReport& lr : report.layers) {
        if (lr.mode != LayerMaintenance::kWholesale) ++fast_layers;
      }
      auto updated = ApplyUpdates(base, batch);
      ASSERT_TRUE(updated.ok());
      base = std::move(*updated);
      all.insert(all.end(), batch.begin(), batch.end());
    }
    auto concat = MaintainIndex(original, all);
    ASSERT_TRUE(concat.ok()) << concat.status().ToString();
    auto rebuilt = BigIndex::Build(base, &inst.ontology, opts);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    const std::string chained_bytes = Serialize(*chained, slots);
    ASSERT_TRUE(SameBytes(chained_bytes, Serialize(*concat, slots)))
        << "seed " << seed;
    ASSERT_TRUE(SameBytes(chained_bytes, Serialize(*rebuilt, slots)))
        << "seed " << seed;
  }
  // Aggregate, not per-seed: tiny random instances may legitimately trip a
  // wholesale fallback, but the sweep as a whole must exercise the
  // localized paths or the persistence claim is untested.
  EXPECT_GT(fast_layers, 0u);
}

// Rollback differential: after ROLLBACK the served version must be
// byte-identical to the pre-update index, and a subsequent update batch
// must maintain from the *restored* base — equal to a rebuild on
// (original graph + B), as if batch A never happened.
TEST(UpdateDifferentialGate, RollbackThenUpdateMatchesRebuild) {
  const int seeds = GateSeeds();
  for (int seed = 1; seed <= seeds; ++seed) {
    RandomInstance inst = MakeInstance(seed);
    BigIndexOptions opts;
    opts.max_layers = 2;
    auto built = BigIndex::Build(inst.graph, &inst.ontology, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    auto index = std::make_shared<const BigIndex>(std::move(built).value());
    const size_t slots = inst.ontology.LabelSlots();
    const std::string original_bytes = Serialize(*index, slots);

    auto engine = std::make_shared<const QueryEngine>(index,
                                                      QueryEngineOptions{});
    SearchService service(engine);
    LiveUpdater updater(index, engine, {});
    updater.set_swap([&service](std::shared_ptr<const QueryEngine> next) {
      return service.SwapEngine(std::move(next));
    });
    service.set_updater([&updater](std::span<const GraphUpdate> updates) {
      return updater.Apply(updates);
    });
    service.set_rollbacker([&updater] { return updater.Rollback(); });

    // Nothing retained yet: the verb must refuse, not serve garbage.
    auto premature = service.Rollback();
    ASSERT_FALSE(premature.ok());
    EXPECT_EQ(premature.status().code(), StatusCode::kFailedPrecondition);

    auto a = MakeRandomBatch(inst.graph, 4 + seed % 5, seed * 313 + 7);
    auto outcome_a = service.ApplyUpdate(a);
    ASSERT_TRUE(outcome_a.ok()) << outcome_a.status().ToString();
    if (outcome_a->mode == UpdateOutcome::Mode::kNone) continue;  // no-op A

    auto epoch = service.Rollback();
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    EXPECT_EQ(*epoch, service.epoch());
    auto current = updater.versions().Current();
    ASSERT_NE(current, nullptr);
    ASSERT_TRUE(SameBytes(Serialize(*current->index, slots), original_bytes))
        << "seed " << seed;

    // One generation of history: a second consecutive rollback refuses.
    auto again = service.Rollback();
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(service.Snapshot().rollbacks, 1u);

    auto b = MakeRandomBatch(inst.graph, 1 + seed % 6, seed * 421 + 11);
    auto outcome_b = service.ApplyUpdate(b);
    ASSERT_TRUE(outcome_b.ok()) << outcome_b.status().ToString();

    auto updated = ApplyUpdates(inst.graph, b);
    ASSERT_TRUE(updated.ok());
    auto rebuilt = BigIndex::Build(*updated, &inst.ontology, opts);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    auto after = updater.versions().Current();
    ASSERT_NE(after, nullptr);
    ASSERT_TRUE(
        SameBytes(Serialize(*after->index, slots), Serialize(*rebuilt, slots)))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace bigindex
