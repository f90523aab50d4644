// Shard-substrate tests: the scatter-gather acceptance gate (sharded
// answers identical to monolithic for 2 and 4 shards, both substrates, all
// registered algorithms at every layer, over the seeded random-graph
// harness), the INFO verb, ProtocolClient timeout/retry semantics,
// coordinator attach validation, the generation-keyed result cache,
// deadlines, and the sharded index-image round-trip (tools/ci.sh re-runs
// the concurrency-relevant suites under ThreadSanitizer).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bisim/maintenance.h"
#include "core/big_index.h"
#include "core/index_image.h"
#include "engine/query_engine.h"
#include "search/answer.h"
#include "search/bidirectional.h"
#include "search/bkws.h"
#include "search/blinks.h"
#include "search/partitioner.h"
#include "search/rclique.h"
#include "server/line_protocol.h"
#include "server/protocol_client.h"
#include "server/search_service.h"
#include "server/tcp_server.h"
#include "shard/in_process_substrate.h"
#include "shard/remote_substrate.h"
#include "shard/shard_build.h"
#include "shard/sharded_service.h"
#include "testing/random_graph.h"
#include "util/random.h"
#include "util/timer.h"

namespace bigindex {
namespace {

using testing::MakeRandomGraph;
using testing::MakeRandomOntologyDag;
using testing::RandomGraphOptions;

// The acceptance gate runs this many seeds; override downwards with
// BIGINDEX_SHARD_GATE_SEEDS for slow instrumented runs (TSan).
int GateSeeds() {
  const char* env = std::getenv("BIGINDEX_SHARD_GATE_SEEDS");
  int seeds = env != nullptr ? std::atoi(env) : 100;
  return seeds > 0 ? seeds : 100;
}

RandomGraphOptions GraphOptions(uint64_t seed) {
  RandomGraphOptions opts;
  opts.num_vertices = 30 + seed % 70;
  opts.edge_density = 0.5 + 0.03 * static_cast<double>(seed % 40);
  opts.num_labels = 6;
  opts.label_skew = seed % 3 ? 0.0 : 0.8;
  opts.seed = seed;
  return opts;
}

Ontology TestOntology() {
  return MakeRandomOntologyDag({.num_leaves = 6, .height = 3, .seed = 7});
}

// r-clique's default registration caps answers internally at top_k=10; the
// gate compares full answer sets, so every engine (monolithic and every
// shard) re-registers it uncapped.
void UncapRClique(QueryEngine& engine) {
  engine.Register(
      std::make_unique<RCliqueAlgorithm>(RCliqueOptions{.r = 4, .top_k = 0}));
}

InProcessSubstrateOptions SubstrateOptions() {
  InProcessSubstrateOptions opts;
  opts.configure_engine = UncapRClique;
  return opts;
}

// The coordinator's completion pass re-derives cut-near answers with its
// own algorithm instances; they must be configured like the workers'
// (UncapRClique), so every coordinator in these tests gets this factory.
ShardedServiceOptions CoordinatorOptions(ShardedServiceOptions opts = {}) {
  opts.make_algorithm = [](const std::string& name)
      -> std::unique_ptr<KeywordSearchAlgorithm> {
    if (name == "bkws") return std::make_unique<BkwsAlgorithm>();
    if (name == "blinks") return std::make_unique<BlinksAlgorithm>();
    if (name == "bidirectional") {
      return std::make_unique<BidirectionalAlgorithm>();
    }
    if (name == "r-clique") {
      return std::make_unique<RCliqueAlgorithm>(
          RCliqueOptions{.r = 4, .top_k = 0});
    }
    return nullptr;
  };
  return opts;
}

constexpr const char* kAlgorithms[] = {"bkws", "blinks", "r-clique",
                                       "bidirectional"};

std::vector<Answer> Sorted(std::vector<Answer> answers) {
  SortAnswers(answers);
  return answers;
}

/// The layer-invariant part of an answer: which answer it is (root + keyword
/// assignment) and its exact score. Answer::vertices is only a witness — any
/// minimal connecting tree attains the score, and the evaluator's choice
/// among equal-cost witnesses depends on the summary it specialized
/// through (even a monolithic engine picks different witnesses at different
/// layers).
std::vector<std::tuple<VertexId, std::vector<VertexId>, uint32_t>> Identities(
    const std::vector<Answer>& answers) {
  std::vector<std::tuple<VertexId, std::vector<VertexId>, uint32_t>> ids;
  ids.reserve(answers.size());
  for (const Answer& a : answers) {
    ids.emplace_back(a.root, a.keyword_vertices, a.score);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// One shard worker fleet: every shard of an InProcessSubstrate fronted by
/// its own TcpServer on an ephemeral loopback port — the single-process
/// stand-in for N bigindex_serverd --shard-of processes.
struct RemoteFleet {
  std::vector<std::unique_ptr<TcpServer>> servers;
  std::vector<ShardEndpoint> endpoints;

  explicit RemoteFleet(InProcessSubstrate& substrate) {
    for (size_t s = 0; s < substrate.num_shards(); ++s) {
      servers.push_back(std::make_unique<TcpServer>(
          substrate.shard_service(s), nullptr, TcpServerOptions{.port = 0}));
      Status started = servers.back()->Start();
      EXPECT_TRUE(started.ok()) << started.ToString();
      endpoints.push_back({"127.0.0.1", servers.back()->port()});
    }
  }
  ~RemoteFleet() {
    for (auto& server : servers) server->Stop();
  }
};

// --- The differential acceptance gate -------------------------------------

/// Serves `q` twice through `service` and returns the first result. The
/// repeat must be a result-cache hit whose answers are identical, ranking
/// included, to the first.
StatusOr<QueryResult> QueryTwice(ShardedSearchService& service,
                                 const EngineQuery& q) {
  auto first = service.Query(q);
  if (!first.ok()) return first;
  const uint64_t hits = service.Snapshot().cache_hits;
  auto repeat = service.Query(q);
  EXPECT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_EQ(service.Snapshot().cache_hits, hits + 1) << "repeat missed";
  if (repeat.ok()) {
    EXPECT_EQ(repeat->answers, first->answers);
  }
  return first;
}

/// The 100-seed sharded==monolithic differential, parametrized by shard
/// mode. Under kBfsBlocks the plan has a real cut (block size 12 on 30–100
/// vertex graphs), so every assertion below exercises ghost materialization,
/// the workers' near-answer filter and the coordinator's completion pass.
/// Every coordinator query is issued twice (QueryTwice), so the gate also
/// holds the coordinator's result cache to the uncached answer.
void RunDifferentialGate(ShardMode mode, uint32_t bfs_block_size) {
  const int seeds = GateSeeds();
  size_t plans_with_cut = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    Graph g = MakeRandomGraph(GraphOptions(seed));
    Ontology ontology = TestOntology();

    auto mono_index = BigIndex::Build(g, &ontology, {.max_layers = 2});
    ASSERT_TRUE(mono_index.ok());
    QueryEngine mono(std::move(mono_index).value());
    UncapRClique(mono);
    const size_t mono_layers = mono.index().NumLayers();

    Rng rng(seed * 1009);
    EngineQuery base;
    base.keywords = {static_cast<LabelId>(rng.Uniform(6)),
                     static_cast<LabelId>(rng.Uniform(6))};
    base.NormalizeKeywords();

    for (size_t n : {2u, 4u}) {
      auto sharded = BuildShardedIndex(
          g, &ontology,
          {.plan = {.num_shards = n,
                    .mode = mode,
                    .bfs_block_size = bfs_block_size},
           .index = {.max_layers = 2}});
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      if (!sharded->plan.CutEdges().empty()) ++plans_with_cut;
      auto substrate = InProcessSubstrate::Create(
          std::move(sharded->shards), SubstrateOptions());
      ASSERT_TRUE(substrate.ok()) << substrate.status().ToString();

      ShardedSearchService local(substrate->get(), CoordinatorOptions());
      ASSERT_TRUE(local.Attach().ok());

      RemoteFleet fleet(**substrate);
      RemoteSubstrate remote(fleet.endpoints);
      ShardedSearchService wire(&remote, CoordinatorOptions());
      Status attached = wire.Attach();
      ASSERT_TRUE(attached.ok()) << attached.ToString();

      for (const char* algo : kAlgorithms) {
        // The distance/rooted algorithms return the same exact answer set at
        // every layer (the Thm 4.2 equivalence), so any layer is a valid
        // reference. r-clique's layer>0 candidate enumeration is
        // representation-dependent — which combinations it realizes depends
        // on the summary graph actually evaluated — so once the fleet's
        // summaries differ from the monolithic one (bfs plans cut blocks,
        // not components) only layer 0 defines an exact target for it. The
        // wcc gate keeps asserting r-clique at every layer: component-closed
        // shards summarize identically to the monolithic index.
        const int max_layer =
            (mode == ShardMode::kBfsBlocks &&
             std::string_view(algo) == "r-clique")
                ? 0
                : static_cast<int>(mono_layers);
        EngineQuery q = base;
        q.algorithm = algo;
        q.eval.top_k = 0;  // full-set equality at every layer
        for (int layer = 0; layer <= max_layer; ++layer) {
          q.eval.forced_layer = layer;
          auto expected = mono.Evaluate(q);
          ASSERT_TRUE(expected.ok()) << expected.status().ToString();
          auto via_local = QueryTwice(local, q);
          ASSERT_TRUE(via_local.ok()) << via_local.status().ToString();
          auto via_wire = QueryTwice(wire, q);
          ASSERT_TRUE(via_wire.ok()) << via_wire.status().ToString();
          if (mode == ShardMode::kBfsBlocks && layer > 0) {
            // At layers > 0 the witness trees are evaluator tie-break
            // artifacts (see Identities); the exactness claim is the
            // answer identity set with exact scores.
            ASSERT_EQ(Identities(via_local->answers),
                      Identities(expected->answers))
                << "in-process: seed " << seed << " shards " << n << " algo "
                << algo << " layer " << layer;
            ASSERT_EQ(Identities(via_wire->answers),
                      Identities(expected->answers))
                << "remote: seed " << seed << " shards " << n << " algo "
                << algo << " layer " << layer;
            continue;
          }
          ASSERT_EQ(Sorted(via_local->answers), Sorted(expected->answers))
              << "in-process: seed " << seed << " shards " << n << " algo "
              << algo << " layer " << layer;
          ASSERT_EQ(Sorted(via_wire->answers), Sorted(expected->answers))
              << "remote: seed " << seed << " shards " << n << " algo "
              << algo << " layer " << layer;
        }
        // Top-k ranking agreement where scores are exact (layer 0).
        q.eval.forced_layer = 0;
        q.eval.top_k = 3;
        auto expected = mono.Evaluate(q);
        ASSERT_TRUE(expected.ok());
        auto via_local = QueryTwice(local, q);
        ASSERT_TRUE(via_local.ok());
        ASSERT_EQ(via_local->answers, expected->answers)
            << "top-k: seed " << seed << " shards " << n << " algo " << algo;
        auto via_wire = QueryTwice(wire, q);
        ASSERT_TRUE(via_wire.ok());
        ASSERT_EQ(via_wire->answers, expected->answers);

        // The default path: no forced layer, so the monolithic engine and
        // every shard pick their own layer by Formula 4, and the picks
        // differ between them on many seeds. The claim is the answer
        // identity set with exact scores.
        q.eval.forced_layer = -1;
        q.eval.top_k = 0;
        expected = mono.Evaluate(q);
        ASSERT_TRUE(expected.ok());
        via_local = QueryTwice(local, q);
        ASSERT_TRUE(via_local.ok()) << via_local.status().ToString();
        ASSERT_EQ(Identities(via_local->answers), Identities(expected->answers))
            << "default layer, in-process: seed " << seed << " shards " << n
            << " algo " << algo;
        via_wire = QueryTwice(wire, q);
        ASSERT_TRUE(via_wire.ok()) << via_wire.status().ToString();
        ASSERT_EQ(Identities(via_wire->answers), Identities(expected->answers))
            << "default layer, remote: seed " << seed << " shards " << n
            << " algo " << algo;
      }
    }
  }
  if (mode == ShardMode::kBfsBlocks) {
    // The bfs gate is vacuous unless the plans actually sever edges; with
    // block size 12 on these graphs every plan should have a cut.
    ASSERT_GT(plans_with_cut, 0u);
  }
}

TEST(ShardDifferentialGate, ShardedEqualsMonolithicBothSubstrates) {
  RunDifferentialGate(ShardMode::kConnectivityClosed, /*bfs_block_size=*/0);
}

// The headline gate for boundary-aware evaluation (DESIGN.md §9): bfs-mode
// plans cut edges, yet sharded serving — ghost materialization, worker
// near-answer filtering, coordinator completion — must still return exactly
// the monolithic answer set for all four algorithms at every layer, and the
// monolithic top-k ranking at layer 0, over both substrates.
TEST(ShardDifferentialGate, BfsModeShardedEqualsMonolithicBothSubstrates) {
  RunDifferentialGate(ShardMode::kBfsBlocks, /*bfs_block_size=*/12);
}

// --- Coordinator behavior --------------------------------------------------

struct CoordinatorFixture {
  Graph graph;
  Ontology ontology = TestOntology();
  ShardPlan plan;
  std::unique_ptr<InProcessSubstrate> substrate;

  /// kBfsBlocks plans use block size 12, so the fleet has a cut.
  explicit CoordinatorFixture(
      uint64_t seed = 11, size_t num_shards = 2,
      ShardMode mode = ShardMode::kConnectivityClosed) {
    graph = MakeRandomGraph(GraphOptions(seed));
    auto sharded = BuildShardedIndex(
        graph, &ontology,
        {.plan = {.num_shards = num_shards,
                  .mode = mode,
                  .bfs_block_size = 12},
         .index = {.max_layers = 2}});
    plan = sharded->plan;
    substrate = std::move(
        InProcessSubstrate::Create(std::move(sharded->shards),
                                   SubstrateOptions()))
                    .value();
  }

  EngineQuery Query(const char* algo = "bkws") {
    EngineQuery q;
    q.algorithm = algo;
    q.keywords = {0, 1};
    return q;
  }

  /// Full answer sets at layer 0: exact, so comparable answer for answer.
  EngineQuery ExactQuery() {
    EngineQuery q = Query();
    q.eval.top_k = 0;
    q.eval.forced_layer = 0;
    return q;
  }

  /// A monolithic engine's sorted answers to `q` on `g`.
  std::vector<Answer> MonolithicAnswers(const Graph& g,
                                        const EngineQuery& q) {
    auto index = BigIndex::Build(g, &ontology, {.max_layers = 2});
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    if (!index.ok()) return {};
    QueryEngine mono(std::move(index).value());
    UncapRClique(mono);
    auto result = mono.Evaluate(q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? Sorted(result->answers) : std::vector<Answer>{};
  }

  /// An edge with both endpoints on one shard (so an update of it is
  /// applied, not skipped) whose removal changes the monolithic answers to
  /// `q`; writes the graph without it to `*without`.
  std::pair<VertexId, VertexId> SensitiveEdge(const EngineQuery& q,
                                              Graph* without) {
    const std::vector<Answer> with = MonolithicAnswers(graph, q);
    for (const auto& [u, v] : graph.Edges()) {
      if (plan.ShardOf(u) != plan.ShardOf(v)) continue;
      auto removed = ApplyUpdates(
          graph, std::vector<GraphUpdate>{
                     {GraphUpdate::Kind::kRemoveEdge, u, v}});
      if (removed.ok() && MonolithicAnswers(*removed, q) != with) {
        *without = std::move(removed).value();
        return {u, v};
      }
    }
    ADD_FAILURE() << "no owned edge changes the answers";
    return {kInvalidVertex, kInvalidVertex};
  }
};

TEST(ShardCoordinator, QueryBeforeAttachFails) {
  CoordinatorFixture fx;
  ShardedSearchService service(fx.substrate.get());
  auto result = service.Query(fx.Query());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardCoordinator, RejectsInvalidQueries) {
  CoordinatorFixture fx;
  ShardedSearchService service(fx.substrate.get());
  ASSERT_TRUE(service.Attach().ok());
  EngineQuery empty = fx.Query();
  empty.keywords.clear();
  EXPECT_EQ(service.Query(empty).status().code(),
            StatusCode::kInvalidArgument);
  EngineQuery unknown = fx.Query("no-such-algo");
  EXPECT_EQ(service.Query(unknown).status().code(), StatusCode::kNotFound);
}

TEST(ShardCoordinator, ExpiredDeadlineRejectedBeforeFanOut) {
  CoordinatorFixture fx;
  ShardedSearchService service(fx.substrate.get());
  ASSERT_TRUE(service.Attach().ok());
  EngineQuery q = fx.Query();
  q.eval.deadline = Deadline::After(0);
  while (!q.eval.deadline.Expired()) {
  }
  auto result = service.Query(q);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.Snapshot().deadline_misses, 1u);
}

TEST(ShardCoordinator, ResultCacheHitsOnRepeatAndInvalidatesOnBump) {
  CoordinatorFixture fx;
  ShardedSearchService service(fx.substrate.get());
  ASSERT_TRUE(service.Attach().ok());
  EngineQuery q = fx.Query();

  auto first = service.Query(q);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(service.Snapshot().batched_queries, 2u);  // both shards fanned

  auto second = service.Query(q);
  ASSERT_TRUE(second.ok());
  // The repeat was a result-cache hit: no new fan-out.
  EXPECT_EQ(service.Snapshot().batched_queries, 2u);
  EXPECT_EQ(Sorted(second->answers), Sorted(first->answers));

  service.BumpEpoch();
  auto third = service.Query(q);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(service.Snapshot().batched_queries, 4u);  // re-fanned after bump
  EXPECT_EQ(Sorted(third->answers), Sorted(first->answers));
}

TEST(ShardCoordinator, CacheDisabledAlwaysFansOut) {
  CoordinatorFixture fx;
  ShardedSearchService service(fx.substrate.get(), {.enable_cache = false});
  ASSERT_TRUE(service.Attach().ok());
  EngineQuery q = fx.Query();
  ASSERT_TRUE(service.Query(q).ok());
  ASSERT_TRUE(service.Query(q).ok());
  EXPECT_EQ(service.Snapshot().batched_queries, 4u);
}

TEST(ShardCoordinator, ParallelFanOutMatchesSerial) {
  CoordinatorFixture fx(13, 4);
  ShardedSearchService serial(fx.substrate.get(), {.enable_cache = false});
  ShardedSearchService parallel(
      fx.substrate.get(), {.fanout_threads = 4, .enable_cache = false});
  ASSERT_TRUE(serial.Attach().ok());
  ASSERT_TRUE(parallel.Attach().ok());
  for (const char* algo : kAlgorithms) {
    EngineQuery q = fx.Query(algo);
    auto a = serial.Query(q);
    auto b = parallel.Query(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(Sorted(a->answers), Sorted(b->answers));
  }
}

TEST(ShardCoordinator, AttachRejectsShardsOutOfOrder) {
  CoordinatorFixture fx;
  RemoteFleet fleet(*fx.substrate);
  std::vector<ShardEndpoint> reversed(fleet.endpoints.rbegin(),
                                      fleet.endpoints.rend());
  RemoteSubstrate remote(reversed);
  ShardedSearchService service(&remote);
  Status attached = service.Attach();
  EXPECT_EQ(attached.code(), StatusCode::kFailedPrecondition);
}

TEST(ShardCoordinator, AttachRejectsWrongFleetSize) {
  CoordinatorFixture fx;  // shards built for num_shards=2
  RemoteFleet fleet(*fx.substrate);
  std::vector<ShardEndpoint> half = {fleet.endpoints[0]};
  RemoteSubstrate remote(half);
  ShardedSearchService service(&remote);
  EXPECT_EQ(service.Attach().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardCoordinator, AttachFailsWhenShardUnreachable) {
  CoordinatorFixture fx;
  RemoteFleet fleet(*fx.substrate);
  std::vector<ShardEndpoint> endpoints = fleet.endpoints;
  endpoints[1].port = 1;  // nothing listens there
  RemoteSubstrate remote(endpoints,
                         {.connect_timeout_ms = 100, .max_attempts = 1});
  ShardedSearchService service(&remote);
  EXPECT_EQ(service.Attach().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardCoordinator, AllowPartialServesSurvivingShards) {
  CoordinatorFixture fx;
  RemoteFleet fleet(*fx.substrate);
  RemoteSubstrate remote(fleet.endpoints,
                         {.connect_timeout_ms = 100, .max_attempts = 1});

  ShardedSearchService strict(&remote, {.enable_cache = false});
  ASSERT_TRUE(strict.Attach().ok());
  ShardedSearchService lenient(&remote, {.allow_partial = true});
  ASSERT_TRUE(lenient.Attach().ok());

  fleet.servers[1]->Stop();  // shard 1 goes dark after attach

  EngineQuery q = fx.Query();
  auto failed = strict.Query(q);
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);

  auto partial = lenient.Query(q);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  // What did arrive is exactly shard 0's contribution.
  auto direct = fx.substrate->Query(0, q);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(Sorted(partial->answers), Sorted(direct->answers));

  // A partial result is never cached: the repeat is served partially again
  // instead of being handed the incomplete answer as if it were whole.
  ASSERT_TRUE(lenient.Query(q).ok());
  ServiceStats stats = lenient.Snapshot();
  EXPECT_EQ(stats.partial_results, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);
}

// --- The coordinator's result cache -----------------------------------------

// A hit must hand back exactly what the uncached coordinator computes —
// after boundary completion, merge and the caller's own top-k cut — for
// every algorithm and cut size, on a fleet with a real cut.
TEST(ShardCoordinator, ResultCacheHitEqualsUncachedAnswersAtEveryTopK) {
  CoordinatorFixture fx(11, 2, ShardMode::kBfsBlocks);
  ASSERT_FALSE(fx.plan.CutEdges().empty());
  ShardedSearchService cached(fx.substrate.get(), CoordinatorOptions());
  ShardedSearchService uncached(fx.substrate.get(),
                                CoordinatorOptions({.enable_cache = false}));
  ASSERT_TRUE(cached.Attach().ok());
  ASSERT_TRUE(uncached.Attach().ok());
  for (const char* algo : kAlgorithms) {
    for (size_t k : {0u, 1u, 3u, 10u}) {
      EngineQuery q = fx.Query(algo);
      q.eval.top_k = k;
      auto reference = uncached.Query(q);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      auto miss = cached.Query(q);
      ASSERT_TRUE(miss.ok()) << miss.status().ToString();
      const uint64_t hits = cached.Snapshot().cache_hits;
      auto hit = cached.Query(q);
      ASSERT_TRUE(hit.ok()) << hit.status().ToString();
      EXPECT_EQ(cached.Snapshot().cache_hits, hits + 1);
      EXPECT_EQ(miss->answers, reference->answers)
          << algo << " top_k=" << k;
      EXPECT_EQ(hit->answers, reference->answers) << algo << " top_k=" << k;
    }
  }
  EXPECT_EQ(uncached.Snapshot().cache_hits, 0u);
}

// The key carries the caller's top_k, not the fan-out's rewritten top_k=0:
// a top-1 answer must never be served to a top-2 caller, or vice versa.
TEST(ShardCoordinator, ResultCacheKeepsTopKVariantsApart) {
  CoordinatorFixture fx(11, 2, ShardMode::kBfsBlocks);
  ShardedSearchService service(fx.substrate.get(), CoordinatorOptions());
  ASSERT_TRUE(service.Attach().ok());
  EngineQuery full = fx.ExactQuery();
  auto all = service.Query(full);
  ASSERT_TRUE(all.ok());
  ASSERT_GT(all->answers.size(), 2u);

  for (size_t k : {1u, 2u}) {
    EngineQuery q = full;
    q.eval.top_k = k;
    for (int round = 0; round < 2; ++round) {
      auto got = service.Query(q);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->answers,
                std::vector<Answer>(all->answers.begin(),
                                    all->answers.begin() + k))
          << "top_k=" << k << " round " << round;
    }
  }
  ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.cache_misses, 3u);  // top_k = 0, 1, 2: one entry each
  EXPECT_EQ(stats.cache_hits, 2u);    // the second round of 1 and 2
  EXPECT_EQ(stats.cache_entries, 3u);
}

// Every fleet change advances the generation: after BumpEpoch the query
// fans out again, and after ApplyUpdate / Rollback the served answers are
// the new state's, never the cached ones.
TEST(ShardCoordinator, ResultCacheNeverStaleAfterBumpUpdateOrRollback) {
  CoordinatorFixture fx(11, 2, ShardMode::kBfsBlocks);
  ShardedSearchService service(fx.substrate.get(), CoordinatorOptions());
  ASSERT_TRUE(service.Attach().ok());
  const EngineQuery q = fx.ExactQuery();
  Graph without;
  const auto [u, v] = fx.SensitiveEdge(q, &without);
  ASSERT_NE(u, kInvalidVertex);
  const std::vector<Answer> with_edge = fx.MonolithicAnswers(fx.graph, q);
  const std::vector<Answer> without_edge = fx.MonolithicAnswers(without, q);

  auto served = [&] {
    auto result = service.Query(q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? Sorted(result->answers) : std::vector<Answer>{};
  };
  EXPECT_EQ(served(), with_edge);
  EXPECT_EQ(served(), with_edge);
  EXPECT_EQ(service.Snapshot().cache_hits, 1u);

  const uint64_t fanned = service.Snapshot().batched_queries;
  service.BumpEpoch();
  EXPECT_EQ(served(), with_edge);
  EXPECT_GT(service.Snapshot().batched_queries, fanned);

  auto removed = service.ApplyUpdate(std::vector<GraphUpdate>{
      {GraphUpdate::Kind::kRemoveEdge, u, v}});
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  ASSERT_EQ(removed->applied, 1u);
  EXPECT_EQ(served(), without_edge);
  EXPECT_EQ(served(), without_edge);

  auto rolled = service.Rollback();
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  EXPECT_EQ(served(), with_edge);
}

/// Forwards to another substrate, with two fault hooks for the coordinator
/// tests below.
class HookedSubstrate : public ShardSubstrate {
 public:
  explicit HookedSubstrate(ShardSubstrate* inner) : inner_(inner) {}

  size_t num_shards() const override { return inner_->num_shards(); }
  StatusOr<ShardInfo> Info(size_t shard) override {
    auto info = inner_->Info(shard);
    if (info.ok() && skew_info) ++info->epoch;
    return info;
  }
  StatusOr<QueryResult> Query(size_t shard, const EngineQuery& q) override {
    return inner_->Query(shard, q);
  }
  StatusOr<uint64_t> BumpEpoch(size_t shard) override {
    return inner_->BumpEpoch(shard);
  }
  StatusOr<UpdateOutcome> Update(
      size_t shard, std::span<const GraphUpdate> updates) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(update_delay_ms));
    return inner_->Update(shard, updates);
  }
  StatusOr<uint64_t> Rollback(size_t shard) override {
    return inner_->Rollback(shard);
  }
  StatusOr<BoundaryExport> Boundary(size_t shard) override {
    if (fail_boundary > 0) {
      --fail_boundary;
      return Status::Unavailable("boundary fetch refused");
    }
    return inner_->Boundary(shard);
  }

  /// Info reports every shard's epoch one past the real one — what the
  /// coordinator sees when an update races its rollback broadcast.
  bool skew_info = false;
  /// Update waits this long before it reaches the shard, so concurrent
  /// queries have time to run against the pre-update fleet.
  int update_delay_ms = 0;
  /// The next this-many Boundary calls fail as Unavailable.
  int fail_boundary = 0;

 private:
  ShardSubstrate* inner_;
};

// The fleet-coherence exit of Rollback returns FailedPrecondition after
// shards have rolled back; the generation must still advance there, or
// epoch() and the result cache would keep presenting the pre-rollback one.
TEST(ShardCoordinator, RollbackCoherenceFailureAdvancesGeneration) {
  CoordinatorFixture fx;
  HookedSubstrate skew(fx.substrate.get());
  ShardedSearchService service(&skew, CoordinatorOptions());
  ASSERT_TRUE(service.Attach().ok());
  const EngineQuery q = fx.ExactQuery();
  Graph without;
  const auto [u, v] = fx.SensitiveEdge(q, &without);
  ASSERT_NE(u, kInvalidVertex);

  auto removed = service.ApplyUpdate(std::vector<GraphUpdate>{
      {GraphUpdate::Kind::kRemoveEdge, u, v}});
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  auto cached = service.Query(q);  // fills the cache with the removal
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(Sorted(cached->answers), fx.MonolithicAnswers(without, q));

  skew.skew_info = true;
  const uint64_t generation = service.epoch();
  auto rolled = service.Rollback();
  EXPECT_EQ(rolled.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_GT(service.epoch(), generation);
  EXPECT_EQ(service.Snapshot().rollbacks, 0u);

  // The shards did roll back; the next query must show it.
  auto after = service.Query(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Sorted(after->answers), fx.MonolithicAnswers(fx.graph, q));
}

// Under allow_partial, a region assembled without a failed shard's
// BOUNDARY export serves only the query that saw the failure: once the
// shard answers again, the next query fetches its export and is whole.
TEST(ShardCoordinator, PartialRegionIsRetriedAfterShardRecovers) {
  CoordinatorFixture fx;
  HookedSubstrate flaky(fx.substrate.get());
  ShardedSearchService service(&flaky,
                               CoordinatorOptions({.allow_partial = true}));
  ASSERT_TRUE(service.Attach().ok());
  const EngineQuery q = fx.ExactQuery();

  flaky.fail_boundary = 1;
  auto first = service.Query(q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(service.Snapshot().partial_results, 1u);

  auto second = service.Query(q);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(service.Snapshot().partial_results, 1u);
  EXPECT_EQ(Sorted(second->answers), fx.MonolithicAnswers(fx.graph, q));
}

// The coordinator-level CacheEpochRace: readers hammer one query while the
// writer toggles an answer-changing edge through ApplyUpdate on a fleet
// with a cut (so every update also invalidates the boundary region). A
// query issued after ApplyUpdate returns must reflect the new graph, even
// though the old result is still cached under the old generation. Each
// update is held back 2 ms before it reaches the shards, so readers do
// fill the cache from the pre-update fleet while it is in flight; a
// generation advanced before the shards change would keep such a fill
// reachable. Readers racing an update may see a mix of old and new shard
// state, so they only check that serving never fails; TSan (tools/ci.sh)
// checks the interleavings for data races.
TEST(ShardCoordinator, ResultCacheRaceNeverServesPreUpdateResult) {
  CoordinatorFixture fx(11, 2, ShardMode::kBfsBlocks);
  HookedSubstrate slow(fx.substrate.get());
  slow.update_delay_ms = 2;
  ShardedSearchService service(&slow, CoordinatorOptions());
  ASSERT_TRUE(service.Attach().ok());
  const EngineQuery q = fx.ExactQuery();
  Graph without;
  const auto [u, v] = fx.SensitiveEdge(q, &without);
  ASSERT_NE(u, kInvalidVertex);
  const std::vector<Answer> with_edge = fx.MonolithicAnswers(fx.graph, q);
  const std::vector<Answer> without_edge = fx.MonolithicAnswers(without, q);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  // Joins the readers however the test body exits, so a failed assertion
  // below reports instead of destroying joinable threads.
  struct JoinReaders {
    std::atomic<bool>& stop;
    std::vector<std::thread>& readers;
    ~JoinReaders() {
      stop.store(true, std::memory_order_relaxed);
      for (std::thread& t : readers) t.join();
    }
  } join_readers{stop, readers};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&service, &q, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = service.Query(q);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
      }
    });
  }

  bool present = true;
  for (int i = 0; i < 24; ++i) {
    const GraphUpdate toggle{present ? GraphUpdate::Kind::kRemoveEdge
                                     : GraphUpdate::Kind::kAddEdge,
                             u, v};
    present = !present;
    auto outcome = service.ApplyUpdate(std::vector<GraphUpdate>{toggle});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_EQ(outcome->applied, 1u);
    auto result = service.Query(q);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(Sorted(result->answers), present ? with_edge : without_edge)
        << "iteration " << i;
  }
}

// --- Substrate contracts ---------------------------------------------------

TEST(ShardSubstrate, InProcessRejectsMisnumberedShards) {
  CoordinatorFixture fx;
  Graph g = MakeRandomGraph(GraphOptions(3));
  auto sharded = BuildShardedIndex(
      g, &fx.ontology, {.plan = {.num_shards = 2}, .index = {}});
  ASSERT_TRUE(sharded.ok());
  std::vector<BuiltShard> shards = std::move(sharded->shards);
  std::swap(shards[0], shards[1]);  // identities no longer match positions
  EXPECT_FALSE(InProcessSubstrate::Create(std::move(shards)).ok());
}

TEST(ShardSubstrate, OutOfRangeShardIsRejected) {
  CoordinatorFixture fx;
  EXPECT_EQ(fx.substrate->Query(7, fx.Query()).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(fx.substrate->Info(7).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(fx.substrate->BumpEpoch(7).status().code(),
            StatusCode::kOutOfRange);
}

TEST(ShardSubstrate, InfoReportsShardIdentity) {
  CoordinatorFixture fx;
  for (size_t s = 0; s < fx.substrate->num_shards(); ++s) {
    auto info = fx.substrate->Info(s);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->shard_id, s);
    EXPECT_EQ(info->num_shards, 2u);
    EXPECT_EQ(info->epoch, 1u);
    EXPECT_EQ(info->algorithms.size(), 4u);
  }
}

// --- INFO verb + wire plumbing ---------------------------------------------

TEST(InfoVerb, RoundTripsIdentityOverTheWire) {
  CoordinatorFixture fx;
  RemoteFleet fleet(*fx.substrate);
  RemoteSubstrate remote(fleet.endpoints);
  for (size_t s = 0; s < 2; ++s) {
    auto info = remote.Info(s);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    auto direct = fx.substrate->Info(s);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(info->epoch, direct->epoch);
    EXPECT_EQ(info->fingerprint, direct->fingerprint);
    EXPECT_EQ(info->num_layers, direct->num_layers);
    EXPECT_EQ(info->shard_id, direct->shard_id);
    EXPECT_EQ(info->num_shards, direct->num_shards);
    EXPECT_EQ(info->algorithms, direct->algorithms);
  }
}

TEST(InfoVerb, ParseInfoLineRejectsGarbage) {
  WireInfo info;
  EXPECT_FALSE(ParseInfoLine("OK nope", &info).ok());
  EXPECT_FALSE(ParseInfoLine("", &info).ok());
  Status ok = ParseInfoLine(
      "OK epoch=3 checksum=ff layers=2 shard=1/4 algos=a,b", &info);
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(info.epoch, 3u);
  EXPECT_EQ(info.fingerprint, 0xffu);
  EXPECT_EQ(info.num_layers, 2u);
  EXPECT_EQ(info.shard_id, 1u);
  EXPECT_EQ(info.num_shards, 4u);
  EXPECT_EQ(info.algorithms, (std::vector<std::string>{"a", "b"}));

  // Numeric fields are range-checked, not read as 0 or wrapped.
  for (const char* bad :
       {"OK epoch=x shard=1/4", "OK epoch=3 shard=1/4x",
        "OK epoch=3 shard=4294967296/4", "OK epoch=-3 shard=1/4",
        "OK epoch=3 checksum=zz shard=1/4"}) {
    EXPECT_FALSE(ParseInfoLine(bad, &info).ok()) << bad;
  }
  Answer answer;
  EXPECT_TRUE(ParseAnswerLine("A root=7 score=2 kw=7,9 v=7,8,9", &answer).ok());
  EXPECT_FALSE(ParseAnswerLine("A root=4294967296 score=2", &answer).ok());
  EXPECT_FALSE(ParseAnswerLine("A root=7 score=-2", &answer).ok());
  EXPECT_FALSE(ParseAnswerLine("A root=7 kw=7,99999999999", &answer).ok());
}

// --- ProtocolClient connect semantics --------------------------------------

TEST(ProtocolClient, UnreachablePortSurfacesUnavailable) {
  ProtocolClient client("127.0.0.1", 1,
                        {.connect_timeout_ms = 100,
                         .max_attempts = 2,
                         .backoff_base_ms = 10,
                         .backoff_cap_ms = 20});
  Timer t;
  Status connected = client.Connect();
  EXPECT_EQ(connected.code(), StatusCode::kUnavailable);
  // Bounded: 2 attempts + one 10ms backoff, far below a kernel TCP timeout.
  EXPECT_LT(t.ElapsedMillis(), 5000.0);
  EXPECT_FALSE(client.connected());
}

TEST(ProtocolClient, ResolveFailureIsInvalidArgumentWithoutRetry) {
  ProtocolClient client("no.such.host.invalid", 7419,
                        {.max_attempts = 4, .backoff_base_ms = 1000});
  Timer t;
  Status connected = client.Connect();
  EXPECT_EQ(connected.code(), StatusCode::kInvalidArgument);
  // No retry/backoff on permanent errors (4 attempts would sleep seconds).
  EXPECT_LT(t.ElapsedMillis(), 1000.0);
}

TEST(ProtocolClient, RequestReconnectsAfterServerRestart) {
  CoordinatorFixture fx;
  TcpServer server(fx.substrate->shard_service(0), nullptr,
                   TcpServerOptions{.port = 0});
  ASSERT_TRUE(server.Start().ok());
  ProtocolClient client("127.0.0.1", server.port());
  auto first = client.Request("info");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  server.Stop();
  // The lost connection surfaces as Unavailable...
  EXPECT_EQ(client.Request("info").status().code(), StatusCode::kUnavailable);
}

// --- Sharded index images --------------------------------------------------

TEST(ShardImage, RoundTripsShardIdentityAndRemap) {
  Graph g = MakeRandomGraph(GraphOptions(5));
  Ontology ontology = TestOntology();
  auto sharded = BuildShardedIndex(
      g, &ontology, {.plan = {.num_shards = 2}, .index = {.max_layers = 2}});
  ASSERT_TRUE(sharded.ok());

  LabelDictionary dict;
  for (size_t l = 0; l < ontology.LabelSlots(); ++l) {
    dict.Intern("L" + std::to_string(l));
  }
  std::string prefix =
      ::testing::TempDir() + "/shard_image_" + std::to_string(::getpid());
  ASSERT_TRUE(SaveShardImages(*sharded, dict, prefix).ok());

  for (const BuiltShard& built : sharded->shards) {
    std::string path =
        ShardImagePath(prefix, built.shard.shard_id, built.shard.num_shards);
    auto info = InspectIndexImage(path);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->shard_id, built.shard.shard_id);
    EXPECT_EQ(info->num_shards, 2u);
    EXPECT_NE(info->fingerprint, 0u);

    LabelDictionary load_dict;
    for (size_t l = 0; l < ontology.LabelSlots(); ++l) {
      load_dict.Intern("L" + std::to_string(l));
    }
    ShardImageInfo loaded_shard;
    auto loaded =
        LoadIndexImage(path, load_dict, &ontology, {}, &loaded_shard);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded_shard.shard_id, built.shard.shard_id);
    EXPECT_EQ(loaded_shard.num_shards, built.shard.num_shards);
    EXPECT_EQ(loaded_shard.global_of, built.shard.global_of);
    EXPECT_EQ(loaded->NumLayers(), built.index.NumLayers());
    std::remove(path.c_str());
  }
}

// bfs-mode shards carry a ghost manifest (the GHOSTS section); it must
// round-trip through the image byte-exactly so a worker restarted from disk
// reconstructs the same boundary the builder materialized.
TEST(ShardImage, RoundTripsGhostManifestUnderBfsPlans) {
  Graph g = MakeRandomGraph(GraphOptions(5));
  Ontology ontology = TestOntology();
  auto sharded = BuildShardedIndex(
      g, &ontology,
      {.plan = {.num_shards = 2,
                .mode = ShardMode::kBfsBlocks,
                .bfs_block_size = 12},
       .index = {.max_layers = 2}});
  ASSERT_TRUE(sharded.ok());
  ASSERT_FALSE(sharded->plan.CutEdges().empty());

  LabelDictionary dict;
  for (size_t l = 0; l < ontology.LabelSlots(); ++l) {
    dict.Intern("L" + std::to_string(l));
  }
  bool any_ghosts = false;
  for (const BuiltShard& built : sharded->shards) {
    std::ostringstream out;
    ASSERT_TRUE(
        WriteIndexImage(built.index, dict, built.shard, out).ok());
    auto bytes = std::make_shared<std::string>(out.str());
    LabelDictionary load_dict;
    ShardImageInfo loaded_shard;
    auto loaded = LoadIndexImageFromBuffer(
        std::shared_ptr<const std::string>(bytes), load_dict, &ontology, {},
        &loaded_shard);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded_shard.global_of, built.shard.global_of);
    EXPECT_EQ(loaded_shard.ghosts, built.shard.ghosts);
    any_ghosts = any_ghosts || !built.shard.ghosts.empty();
  }
  // A non-empty cut materializes ghosts on at least one shard, so the
  // round-trip above was not vacuous.
  EXPECT_TRUE(any_ghosts);
}

TEST(ShardImage, CorruptedShardMapFailsLoudly) {
  Graph g = MakeRandomGraph(GraphOptions(6));
  Ontology ontology = TestOntology();
  auto sharded = BuildShardedIndex(
      g, &ontology, {.plan = {.num_shards = 2}, .index = {.max_layers = 1}});
  ASSERT_TRUE(sharded.ok());
  LabelDictionary dict;
  for (size_t l = 0; l < ontology.LabelSlots(); ++l) {
    dict.Intern("L" + std::to_string(l));
  }
  std::ostringstream out;
  ASSERT_TRUE(WriteIndexImage(sharded->shards[1].index, dict,
                              sharded->shards[1].shard, out)
                  .ok());
  auto bytes = std::make_shared<std::string>(out.str());
  // Flip one byte in the trailing SHARDMAP payload (the remap array).
  ASSERT_GT(bytes->size(), 16u);
  (*bytes)[bytes->size() - 8] ^= 0x40;
  LabelDictionary load_dict;
  auto loaded = LoadIndexImageFromBuffer(
      std::shared_ptr<const std::string>(bytes), load_dict, &ontology);
  EXPECT_FALSE(loaded.ok());
}

// --- Live updates through the coordinator ----------------------------------

GraphUpdate AddEdgeOp(VertexId u, VertexId v) {
  return {GraphUpdate::Kind::kAddEdge, u, v};
}
GraphUpdate RemoveEdgeOp(VertexId u, VertexId v) {
  return {GraphUpdate::Kind::kRemoveEdge, u, v};
}

TEST(ShardedUpdate, BeforeAttachFailsAndCountsRejected) {
  CoordinatorFixture fx;
  ShardedSearchService service(fx.substrate.get());
  EXPECT_EQ(
      service.ApplyUpdate(std::vector<GraphUpdate>{AddEdgeOp(0, 1)})
          .status()
          .code(),
      StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Snapshot().updates_rejected, 1u);
}

// The sharded post-update differential: remove an existing edge through the
// in-process coordinator, re-add it through the wire coordinator, and at
// each state the merged answers must equal a monolithic engine on the same
// graph for every algorithm at every layer. Under the default
// connectivity-closed plan both endpoints of any existing edge are on one
// shard, so each batch applies on exactly one worker and skips elsewhere.
TEST(ShardedUpdate, BroadcastMatchesMonolithicBothSubstrates) {
  Graph g = MakeRandomGraph(GraphOptions(21));
  Ontology ontology = TestOntology();
  const auto edges = g.Edges();
  ASSERT_FALSE(edges.empty());
  const auto [u, v] = edges[edges.size() / 2];

  auto sharded = BuildShardedIndex(
      g, &ontology, {.plan = {.num_shards = 2}, .index = {.max_layers = 2}});
  ASSERT_TRUE(sharded.ok());
  auto substrate = InProcessSubstrate::Create(std::move(sharded->shards),
                                              SubstrateOptions());
  ASSERT_TRUE(substrate.ok()) << substrate.status().ToString();

  // Caches off: both coordinators mutate the same substrate, and a
  // coordinator only learns of epoch bumps it issued itself (the documented
  // bump-through-the-coordinator contract).
  ShardedSearchService local(substrate->get(), {.enable_cache = false});
  ASSERT_TRUE(local.Attach().ok());
  RemoteFleet fleet(**substrate);
  RemoteSubstrate remote(fleet.endpoints);
  ShardedSearchService wire(&remote, {.enable_cache = false});
  ASSERT_TRUE(wire.Attach().ok());

  auto expect_matches_monolithic = [&](const Graph& state,
                                       const std::string& context) {
    auto mono_index = BigIndex::Build(state, &ontology, {.max_layers = 2});
    ASSERT_TRUE(mono_index.ok());
    QueryEngine mono(std::move(mono_index).value());
    UncapRClique(mono);
    for (const char* algo : kAlgorithms) {
      EngineQuery q;
      q.algorithm = algo;
      q.keywords = {0, 1};
      q.eval.top_k = 0;
      for (int layer = 0; layer <= static_cast<int>(mono.index().NumLayers());
           ++layer) {
        q.eval.forced_layer = layer;
        auto expected = mono.Evaluate(q);
        ASSERT_TRUE(expected.ok());
        auto via_local = local.Query(q);
        ASSERT_TRUE(via_local.ok()) << via_local.status().ToString();
        ASSERT_EQ(Sorted(via_local->answers), Sorted(expected->answers))
            << context << " local algo " << algo << " layer " << layer;
        auto via_wire = wire.Query(q);
        ASSERT_TRUE(via_wire.ok()) << via_wire.status().ToString();
        ASSERT_EQ(Sorted(via_wire->answers), Sorted(expected->answers))
            << context << " wire algo " << algo << " layer " << layer;
      }
    }
  };

  // Remove through the in-process coordinator.
  const uint64_t epoch_before = local.epoch();
  auto removed =
      local.ApplyUpdate(std::vector<GraphUpdate>{RemoveEdgeOp(u, v)});
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed->applied, 1u);
  EXPECT_EQ(removed->skipped, 0u);
  EXPECT_NE(removed->mode, UpdateOutcome::Mode::kNone);
  EXPECT_GT(removed->epoch, epoch_before);
  auto delta = NormalizeUpdates(g, std::vector<GraphUpdate>{RemoveEdgeOp(u, v)});
  ASSERT_TRUE(delta.ok());
  Graph without = ApplyDelta(g, *delta);
  expect_matches_monolithic(without, "after remove");
  EXPECT_EQ(local.Snapshot().updates_applied, 1u);

  // Re-add over the wire (RemoteSubstrate -> UPDATE verb -> worker).
  auto readded = wire.ApplyUpdate(std::vector<GraphUpdate>{AddEdgeOp(u, v)});
  ASSERT_TRUE(readded.ok()) << readded.status().ToString();
  EXPECT_EQ(readded->applied, 1u);
  expect_matches_monolithic(g, "after re-add");

  // A batch with no net effect anywhere: applied=0, mode none, no bump.
  const uint64_t wire_epoch = wire.epoch();
  auto noop = wire.ApplyUpdate(std::vector<GraphUpdate>{AddEdgeOp(u, v)});
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(noop->applied, 0u);
  EXPECT_EQ(noop->skipped, 1u);
  EXPECT_EQ(noop->mode, UpdateOutcome::Mode::kNone);
  EXPECT_EQ(wire.epoch(), wire_epoch);
}

TEST(ShardedUpdate, CrossShardAddIsSkippedUnderWccPlans) {
  Graph g = MakeRandomGraph(GraphOptions(11));
  Ontology ontology = TestOntology();
  auto sharded = BuildShardedIndex(
      g, &ontology, {.plan = {.num_shards = 2}, .index = {.max_layers = 2}});
  ASSERT_TRUE(sharded.ok());
  // One vertex from each shard's cover: the edge between them is owned by
  // no shard (the documented wcc-mode limitation).
  ASSERT_FALSE(sharded->shards[0].shard.global_of.empty());
  ASSERT_FALSE(sharded->shards[1].shard.global_of.empty());
  const VertexId a = sharded->shards[0].shard.global_of.front();
  const VertexId b = sharded->shards[1].shard.global_of.front();
  auto substrate = InProcessSubstrate::Create(std::move(sharded->shards),
                                              SubstrateOptions());
  ASSERT_TRUE(substrate.ok());
  ShardedSearchService service(substrate->get());
  ASSERT_TRUE(service.Attach().ok());

  const uint64_t epoch = service.epoch();
  auto outcome = service.ApplyUpdate(std::vector<GraphUpdate>{AddEdgeOp(a, b)});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->applied, 0u);
  EXPECT_EQ(outcome->skipped, 1u);
  EXPECT_EQ(outcome->mode, UpdateOutcome::Mode::kNone);
  EXPECT_EQ(service.epoch(), epoch);
}

// Under bfs plans a cut edge is materialized in both incident shards via
// ghosts, but neither shard OWNS both endpoints: mutating it locally would
// desynchronize the replicas, so ghost-incident ops are skipped (the same
// documented limitation as wcc cross-shard adds) and reported in the
// coordinator's applied/skipped accounting.
TEST(ShardedUpdate, GhostIncidentOpsAreSkippedUnderBfsPlans) {
  Graph g = MakeRandomGraph(GraphOptions(11));
  Ontology ontology = TestOntology();
  auto sharded = BuildShardedIndex(
      g, &ontology,
      {.plan = {.num_shards = 2,
                .mode = ShardMode::kBfsBlocks,
                .bfs_block_size = 12},
       .index = {.max_layers = 2}});
  ASSERT_TRUE(sharded.ok());
  ASSERT_FALSE(sharded->plan.CutEdges().empty());
  const CutEdge cut = sharded->plan.CutEdges().front();
  auto substrate = InProcessSubstrate::Create(std::move(sharded->shards),
                                              SubstrateOptions());
  ASSERT_TRUE(substrate.ok());
  ShardedSearchService service(substrate->get(), CoordinatorOptions());
  ASSERT_TRUE(service.Attach().ok());

  const uint64_t epoch = service.epoch();
  // Removing an existing cut edge and re-adding it: both ops touch a ghost
  // on every shard that sees them, so nothing applies anywhere.
  for (const GraphUpdate& op :
       {RemoveEdgeOp(cut.source, cut.target),
        AddEdgeOp(cut.source, cut.target)}) {
    auto outcome = service.ApplyUpdate(std::vector<GraphUpdate>{op});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->applied, 0u);
    EXPECT_EQ(outcome->skipped, 1u);
    EXPECT_EQ(outcome->mode, UpdateOutcome::Mode::kNone);
  }
  EXPECT_EQ(service.epoch(), epoch);

  // The cut edge still serves: sharded answers still match the unmodified
  // monolithic graph (the skipped removal really was a no-op, not a
  // half-applied mutation).
  auto mono_index = BigIndex::Build(g, &ontology, {.max_layers = 2});
  ASSERT_TRUE(mono_index.ok());
  QueryEngine mono(std::move(mono_index).value());
  UncapRClique(mono);
  EngineQuery q;
  q.algorithm = "bkws";
  q.keywords = {0, 1};
  q.eval.top_k = 0;
  q.eval.forced_layer = 0;
  auto expected = mono.Evaluate(q);
  ASSERT_TRUE(expected.ok());
  auto got = service.Query(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Sorted(got->answers), Sorted(expected->answers));
}

// Coordinator ROLLBACK: broadcast to all workers, restore the pre-update
// answers, and stay retry-safe when only a subset of shards retained a
// previous version (the untouched shard answers FailedPrecondition, which
// the broadcast treats as "nothing to undo").
TEST(ShardedUpdate, RollbackBroadcastRestoresPreviousVersion) {
  Graph g = MakeRandomGraph(GraphOptions(21));
  Ontology ontology = TestOntology();
  const auto edges = g.Edges();
  ASSERT_FALSE(edges.empty());
  const auto [u, v] = edges[edges.size() / 2];

  auto sharded = BuildShardedIndex(
      g, &ontology, {.plan = {.num_shards = 2}, .index = {.max_layers = 2}});
  ASSERT_TRUE(sharded.ok());
  auto substrate = InProcessSubstrate::Create(std::move(sharded->shards),
                                              SubstrateOptions());
  ASSERT_TRUE(substrate.ok());
  ShardedSearchService service(substrate->get());
  ASSERT_TRUE(service.Attach().ok());

  EngineQuery q;
  q.algorithm = "bkws";
  q.keywords = {0, 1};
  q.eval.top_k = 0;
  q.eval.forced_layer = 0;
  auto before = service.Query(q);
  ASSERT_TRUE(before.ok());

  // Nothing to roll back yet.
  EXPECT_EQ(service.Rollback().status().code(),
            StatusCode::kFailedPrecondition);

  // A wcc-plan edge removal applies on exactly one shard; the other shard
  // retains no previous version, and the broadcast must tolerate that.
  auto removed =
      service.ApplyUpdate(std::vector<GraphUpdate>{RemoveEdgeOp(u, v)});
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  ASSERT_EQ(removed->applied, 1u);
  auto after_remove = service.Query(q);
  ASSERT_TRUE(after_remove.ok());

  const uint64_t epoch_before_rollback = service.epoch();
  auto rolled = service.Rollback();
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  EXPECT_GT(*rolled, epoch_before_rollback);
  EXPECT_EQ(service.Snapshot().rollbacks, 1u);

  auto restored = service.Query(q);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(Sorted(restored->answers), Sorted(before->answers));

  // The version store keeps one generation: a second rollback has nothing
  // left to restore on any shard.
  EXPECT_EQ(service.Rollback().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardedUpdate, UpdateInvalidatesCoordinatorCaches) {
  CoordinatorFixture fx;
  ShardedSearchService service(fx.substrate.get());
  ASSERT_TRUE(service.Attach().ok());
  EngineQuery q = fx.Query();
  q.eval.top_k = 0;        // full sets at layer 0: ranking-independent
  q.eval.forced_layer = 0;

  auto first = service.Query(q);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(service.Query(q).ok());
  EXPECT_EQ(service.Snapshot().batched_queries, 2u);  // repeat hit the cache

  const auto edges = fx.graph.Edges();
  ASSERT_FALSE(edges.empty());
  auto outcome = service.ApplyUpdate(
      std::vector<GraphUpdate>{RemoveEdgeOp(edges[0].first, edges[0].second)});
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->applied, 1u);

  auto after = service.Query(q);
  ASSERT_TRUE(after.ok());
  // The update advanced the generation: the query fanned out again, and
  // the answers reflect the updated graph.
  EXPECT_GT(service.Snapshot().batched_queries, 2u);
  auto updated = ApplyUpdates(
      fx.graph,
      std::vector<GraphUpdate>{RemoveEdgeOp(edges[0].first, edges[0].second)});
  ASSERT_TRUE(updated.ok());
  auto mono_index = BigIndex::Build(*updated, &fx.ontology, {.max_layers = 2});
  ASSERT_TRUE(mono_index.ok());
  QueryEngine mono(std::move(mono_index).value());
  UncapRClique(mono);
  EngineQuery ref = q;
  auto expected = mono.Evaluate(ref);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Sorted(after->answers), Sorted(expected->answers));
}

}  // namespace
}  // namespace bigindex
