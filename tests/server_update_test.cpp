// Serving-side live-update tests: IndexVersionStore publish/rollback
// semantics, LiveUpdater outcome accounting and swap wiring, the UPDATE
// verb through the line protocol (monolithic and shard-remapped), the
// FormatUpdateLine/ParseUpdateOutcomeLine wire round-trip, and the
// answer-cache epoch-invalidation race (a query racing an epoch swap must
// never be served a pre-swap cached answer for a post-swap epoch).
// tools/ci.sh re-runs this suite under ThreadSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bisim/maintenance.h"
#include "core/big_index.h"
#include "core/index_image.h"
#include "engine/query_engine.h"
#include "graph/label_dictionary.h"
#include "obs/metrics.h"
#include "server/line_protocol.h"
#include "server/search_service.h"
#include "testing/same_bytes.h"
#include "update/live_updater.h"
#include "update/version_store.h"

namespace bigindex {
namespace {

using bigindex::testing::SameBytes;

GraphUpdate Add(VertexId u, VertexId v) {
  return {GraphUpdate::Kind::kAddEdge, u, v};
}
GraphUpdate Remove(VertexId u, VertexId v) {
  return {GraphUpdate::Kind::kRemoveEdge, u, v};
}

// Ontology: leaves {0..5} -> mids {6,7,8} -> root 9 (as in server_test).
Ontology MakeOntology() {
  OntologyBuilder b;
  b.AddSupertypeEdge(0, 6);
  b.AddSupertypeEdge(1, 6);
  b.AddSupertypeEdge(2, 6);
  b.AddSupertypeEdge(3, 7);
  b.AddSupertypeEdge(4, 7);
  b.AddSupertypeEdge(5, 8);
  b.AddSupertypeEdge(6, 9);
  b.AddSupertypeEdge(7, 9);
  b.AddSupertypeEdge(8, 9);
  return std::move(b.Build()).value();
}

// Path graph 0(label 0) -> 1(label 1) -> 2(label 2), plus spare vertices.
// Removing/adding 1->2 flips whether keywords {0,2} connect — the served
// answer set changes observably with each toggle.
Graph ToggleGraph() {
  GraphBuilder b;
  for (LabelId l = 0; l < 6; ++l) b.AddVertex(l);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  return std::move(b.Build()).value();
}

std::string Serialize(const BigIndex& index) {
  LabelDictionary dict;
  for (size_t i = 0; i < 10; ++i) dict.Intern("t" + std::to_string(i));
  std::ostringstream out;
  EXPECT_TRUE(WriteIndexImage(index, dict, out).ok());
  return out.str();
}

/// The whole write path in one harness: service + updater, swap wired.
struct UpdateFixture {
  Ontology ontology = MakeOntology();
  std::shared_ptr<const BigIndex> index;
  std::shared_ptr<const QueryEngine> engine;
  SearchService service;
  LiveUpdater updater;

  explicit UpdateFixture(Graph g = ToggleGraph(),
                         SearchServiceOptions service_options = {},
                         LiveUpdaterOptions updater_options = {})
      : index(std::make_shared<const BigIndex>(
            std::move(BigIndex::Build(g, &ontology, {.max_layers = 2}))
                .value())),
        engine(std::make_shared<const QueryEngine>(index,
                                                   QueryEngineOptions{})),
        service(engine, service_options),
        updater(index, engine, std::move(updater_options)) {
    updater.set_swap([this](std::shared_ptr<const QueryEngine> next) {
      return service.SwapEngine(std::move(next));
    });
    service.set_updater([this](std::span<const GraphUpdate> updates) {
      return updater.Apply(updates);
    });
    service.set_rollbacker([this] { return updater.Rollback(); });
  }

  EngineQuery ConnectivityQuery() {
    EngineQuery q;
    q.algorithm = "bkws";
    q.keywords = {0, 2};
    return q;
  }
};

// ---------------------------------------------------------------------------
// IndexVersionStore.

TEST(VersionStore, PublishRetainsPreviousAndAdvancesSequence) {
  UpdateFixture fx;  // only for a ready-made index/engine pair
  IndexVersionStore store;
  EXPECT_EQ(store.Current(), nullptr);
  EXPECT_EQ(store.Previous(), nullptr);
  EXPECT_EQ(store.CurrentAgeSeconds(), 0.0);

  EXPECT_EQ(store.Publish(fx.index, fx.engine), 1u);
  ASSERT_NE(store.Current(), nullptr);
  EXPECT_EQ(store.Current()->sequence, 1u);
  EXPECT_EQ(store.Previous(), nullptr);
  EXPECT_GE(store.CurrentAgeSeconds(), 0.0);

  EXPECT_EQ(store.Publish(fx.index, fx.engine), 2u);
  EXPECT_EQ(store.Current()->sequence, 2u);
  ASSERT_NE(store.Previous(), nullptr);
  EXPECT_EQ(store.Previous()->sequence, 1u);
}

TEST(VersionStore, ReadersKeepPinnedVersionsAliveAcrossPublish) {
  UpdateFixture fx;
  IndexVersionStore store;
  store.Publish(fx.index, fx.engine);
  std::shared_ptr<const IndexVersion> pinned = store.Current();
  store.Publish(fx.index, fx.engine);
  store.Publish(fx.index, fx.engine);  // generation 1 leaves the store
  // The reader's pin is the RCU grace period: the old version stays valid
  // until the last snapshot drops.
  EXPECT_EQ(pinned->sequence, 1u);
  EXPECT_NE(pinned->index, nullptr);
  EXPECT_NE(pinned->engine, nullptr);
}

TEST(VersionStore, RollbackConsumesPreviousAndRepublishes) {
  UpdateFixture fx;
  IndexVersionStore store;
  EXPECT_EQ(store.Rollback().status().code(),
            StatusCode::kFailedPrecondition);

  store.Publish(fx.index, fx.engine);
  auto other = std::make_shared<const BigIndex>(*fx.index);
  store.Publish(other, fx.engine);

  auto rolled = store.Rollback();
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ(*rolled, 3u);  // a rollback is a new generation, not a rewind
  EXPECT_EQ(store.Current()->index, fx.index);
  // The previous slot is consumed: no ping-pong rollback-of-rollback.
  EXPECT_EQ(store.Previous(), nullptr);
  EXPECT_EQ(store.Rollback().status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// LiveUpdater.

TEST(LiveUpdater, OutcomeAccountingCoversWholeBatch) {
  UpdateFixture fx;
  std::vector<GraphUpdate> batch = {
      Add(3, 4),     // net add
      Add(3, 4),     // duplicate
      Add(4, 5),     // cancelled below
      Remove(4, 5),  // add-then-remove
      Remove(2, 0),  // remove of an absent edge
  };
  auto outcome = fx.updater.Apply(batch);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->applied, 1u);
  EXPECT_EQ(outcome->skipped, 4u);
  EXPECT_NE(outcome->mode, UpdateOutcome::Mode::kNone);
  EXPECT_GT(outcome->layers_rebuilt, 0u);
  EXPECT_EQ(outcome->epoch, fx.service.epoch());
}

TEST(LiveUpdater, NoopBatchPublishesNothing) {
  UpdateFixture fx;
  const uint64_t sequence = fx.updater.versions().Current()->sequence;
  const uint64_t epoch = fx.service.epoch();
  auto outcome = fx.updater.Apply(std::vector<GraphUpdate>{Remove(5, 0)});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->applied, 0u);
  EXPECT_EQ(outcome->skipped, 1u);
  EXPECT_EQ(outcome->mode, UpdateOutcome::Mode::kNone);
  EXPECT_EQ(outcome->epoch, 0u);  // sentinel: nothing was swapped
  EXPECT_EQ(fx.updater.versions().Current()->sequence, sequence);
  EXPECT_EQ(fx.service.epoch(), epoch);
}

TEST(LiveUpdater, SuccessorMatchesRebuildAndSwapInstallsIt) {
  UpdateFixture fx;
  // An empty batch registers the updater's metrics; the swapped batch below
  // then records one sample per update stage.
  ASSERT_TRUE(fx.updater.Apply(std::vector<GraphUpdate>{}).ok());
  std::vector<std::pair<Histogram*, uint64_t>> stages;
  for (const char* name :
       {"bigindex_update_writer_wait_ms", "bigindex_update_maintain_ms",
        "bigindex_update_engine_build_ms", "bigindex_update_swap_ms"}) {
    Histogram& h = MetricsRegistry::Global().GetHistogram(name, "");
    stages.emplace_back(&h, h.count());
  }
  auto outcome = fx.updater.Apply(std::vector<GraphUpdate>{Remove(1, 2)});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->applied, 1u);
  for (const auto& [histogram, before] : stages) {
    EXPECT_EQ(histogram->count(), before + 1);
  }

  auto updated = ApplyUpdates(fx.index->base(),
                              std::vector<GraphUpdate>{Remove(1, 2)});
  ASSERT_TRUE(updated.ok());
  auto rebuilt = BigIndex::Build(*updated, &fx.ontology, {.max_layers = 2});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(SameBytes(Serialize(*fx.updater.versions().Current()->index),
                        Serialize(*rebuilt)));
  // The serving engine now evaluates over the successor index.
  EXPECT_EQ(fx.service.engine_snapshot()->index().base().NumEdges(),
            updated->NumEdges());
}

TEST(LiveUpdater, RollbackRestoresPreviousGeneration) {
  UpdateFixture fx;
  const std::string original = Serialize(*fx.index);
  ASSERT_TRUE(fx.updater.Apply(std::vector<GraphUpdate>{Add(3, 4)}).ok());
  EXPECT_FALSE(
      SameBytes(Serialize(*fx.updater.versions().Current()->index), original));

  const uint64_t epoch_before = fx.service.epoch();
  auto rolled = fx.updater.Rollback();
  ASSERT_TRUE(rolled.ok());
  EXPECT_GT(*rolled, epoch_before);  // rollback swaps: readers see a bump
  EXPECT_TRUE(
      SameBytes(Serialize(*fx.updater.versions().Current()->index), original));
  EXPECT_EQ(fx.updater.Rollback().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LiveUpdater, ForceWholesaleReportsFallbackMode) {
  LiveUpdaterOptions opts;
  opts.maintain.fallback_dirty_ratio = 0;  // every layer wholesale
  UpdateFixture fx(ToggleGraph(), {}, std::move(opts));
  auto outcome = fx.updater.Apply(std::vector<GraphUpdate>{Add(3, 4)});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->mode, UpdateOutcome::Mode::kWholesale);
  // The serving layer counts wholesale/rebuild outcomes as fallbacks.
}

// ---------------------------------------------------------------------------
// SearchService::ApplyUpdate.

TEST(ServiceUpdate, NoUpdaterWiredReturnsUnimplemented) {
  Ontology ontology = MakeOntology();
  auto index = std::make_shared<const BigIndex>(
      std::move(BigIndex::Build(ToggleGraph(), &ontology, {})).value());
  SearchService service(
      std::make_shared<const QueryEngine>(index, QueryEngineOptions{}));
  auto outcome =
      service.ApplyUpdate(std::vector<GraphUpdate>{Add(3, 4)});
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(service.Snapshot().updates_rejected, 1u);
}

TEST(ServiceUpdate, CountersAndEpochAdvanceThroughService) {
  UpdateFixture fx;
  const uint64_t epoch = fx.service.epoch();
  auto outcome =
      fx.service.ApplyUpdate(std::vector<GraphUpdate>{Remove(1, 2)});
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->epoch, epoch);
  EXPECT_EQ(outcome->epoch, fx.service.epoch());

  // No-net-effect batch through the service: epoch unchanged but reported
  // as the current one (the updater's 0 sentinel never escapes).
  auto noop = fx.service.ApplyUpdate(std::vector<GraphUpdate>{Add(1, 1),
                                                              Remove(1, 1)});
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(noop->mode, UpdateOutcome::Mode::kNone);
  EXPECT_EQ(noop->epoch, fx.service.epoch());

  ServiceStats stats = fx.service.Snapshot();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.updates_rejected, 0u);
  EXPECT_GE(stats.epoch_age_s, 0.0);
}

TEST(ServiceUpdate, QueriesSeeTheUpdatedGraph) {
  UpdateFixture fx;
  EngineQuery q = fx.ConnectivityQuery();
  auto before = fx.service.Query(q);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->answers.empty());  // 0 -> 1 -> 2 connects {0,2}

  auto cut = fx.service.ApplyUpdate(std::vector<GraphUpdate>{Remove(1, 2)});
  ASSERT_TRUE(cut.ok());
  auto after = fx.service.Query(q);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->answers.empty());

  auto heal = fx.service.ApplyUpdate(std::vector<GraphUpdate>{Add(1, 2)});
  ASSERT_TRUE(heal.ok());
  auto healed = fx.service.Query(q);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->answers, before->answers);
}

// The satellite race test: readers hammer one query while the writer
// toggles the connecting edge through full epoch swaps. The admission path
// captures the cache-key epoch before the engine snapshot is pinned, so a
// cache entry keyed epoch E is always computed on the engine of epoch E or
// newer — which the writer observes as: a query issued after ApplyUpdate
// returns NEVER sees the pre-swap answer set. TSan (tools/ci.sh) checks the
// same interleavings for data races.
TEST(CacheEpochRace, PostSwapQueryNeverServedPreSwapCache) {
  UpdateFixture fx;
  EngineQuery q = fx.ConnectivityQuery();
  auto connected = fx.service.Query(q);
  ASSERT_TRUE(connected.ok());
  const std::vector<Answer> with_edge = connected->answers;
  ASSERT_FALSE(with_edge.empty());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&fx, &q, &with_edge, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = fx.service.Query(q);
        ASSERT_TRUE(result.ok());
        // Every result is one of the two consistent states — never a
        // partial or mixed view.
        ASSERT_TRUE(result->answers.empty() || result->answers == with_edge);
      }
    });
  }

  bool present = true;
  for (int i = 0; i < 12; ++i) {
    GraphUpdate toggle = present ? Remove(1, 2) : Add(1, 2);
    present = !present;
    auto outcome = fx.service.ApplyUpdate(std::vector<GraphUpdate>{toggle});
    ASSERT_TRUE(outcome.ok());
    // Issued strictly after the swap: must reflect the new graph, even
    // though the pre-swap answer for this exact query is still cached
    // under the old epoch.
    auto result = fx.service.Query(q);
    ASSERT_TRUE(result.ok());
    if (present) {
      ASSERT_EQ(result->answers, with_edge) << "iteration " << i;
    } else {
      ASSERT_TRUE(result->answers.empty()) << "iteration " << i;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
}

// ---------------------------------------------------------------------------
// Wire format round-trip.

TEST(UpdateProtocol, FormatAndParseRoundTrip) {
  std::vector<GraphUpdate> batch = {Add(1, 2), Remove(3, 4), Add(5, 5)};
  EXPECT_EQ(FormatUpdateLine(batch), "update add:1:2 remove:3:4 add:5:5");

  UpdateOutcome out;
  ASSERT_TRUE(ParseUpdateOutcomeLine(
                  "OK applied=3 skipped=1 rebuilt=2 epoch=7 mode=incremental",
                  &out)
                  .ok());
  EXPECT_EQ(out.applied, 3u);
  EXPECT_EQ(out.skipped, 1u);
  EXPECT_EQ(out.layers_rebuilt, 2u);
  EXPECT_EQ(out.epoch, 7u);
  EXPECT_EQ(out.mode, UpdateOutcome::Mode::kIncremental);

  // Unknown keys are skipped (forward compatibility); missing required
  // keys and unknown modes are errors.
  ASSERT_TRUE(ParseUpdateOutcomeLine(
                  "OK applied=0 shiny=yes epoch=1 mode=none", &out)
                  .ok());
  EXPECT_EQ(out.mode, UpdateOutcome::Mode::kNone);
  EXPECT_FALSE(ParseUpdateOutcomeLine("OK skipped=1 mode=none", &out).ok());
  EXPECT_FALSE(
      ParseUpdateOutcomeLine("OK applied=1 epoch=2 mode=sideways", &out).ok());
}

// ---------------------------------------------------------------------------
// The UPDATE verb through the line protocol.

TEST(UpdateVerb, EndToEndThroughLineHandler) {
  UpdateFixture fx;
  LineHandler handler(&fx.service, nullptr);

  LineHandler::Result r = handler.Handle("update remove:1:2 add:3:4");
  ASSERT_TRUE(r.response.starts_with("OK applied=2")) << r.response;
  UpdateOutcome outcome;
  std::string head = r.response.substr(0, r.response.find('\n'));
  ASSERT_TRUE(ParseUpdateOutcomeLine(head, &outcome).ok()) << head;
  EXPECT_EQ(outcome.epoch, fx.service.epoch());
  EXPECT_NE(outcome.mode, UpdateOutcome::Mode::kNone);

  // INFO reflects the applied batch and carries the epoch age.
  LineHandler::Result info = handler.Handle("info");
  EXPECT_NE(info.response.find("updates=2/0/"), std::string::npos)
      << info.response;
  EXPECT_NE(info.response.find("epoch_age_s="), std::string::npos);

  // Malformed ops and empty batches are protocol errors, not crashes.
  EXPECT_TRUE(handler.Handle("update").response.starts_with("ERR"));
  EXPECT_TRUE(handler.Handle("update add:1").response.starts_with("ERR"));
  EXPECT_TRUE(handler.Handle("update grow:1:2").response.starts_with("ERR"));
  EXPECT_TRUE(handler.Handle("update add:x:2").response.starts_with("ERR"));
}

// 4294967297 is 2^32 + 1: a parser that wraps it to 32 bits would apply
// the edge 1 -> 0 instead of rejecting the op.
TEST(UpdateVerb, OutOfRangeVertexIdIsRejectedNotWrapped) {
  UpdateFixture fx;
  LineHandler handler(&fx.service, nullptr);
  const uint64_t epoch = fx.service.epoch();
  LineHandler::Result r = handler.Handle("update add:4294967297:0");
  EXPECT_TRUE(r.response.starts_with("ERR InvalidArgument")) << r.response;
  EXPECT_EQ(fx.service.epoch(), epoch);
  EXPECT_FALSE(fx.service.engine_snapshot()->index().base().HasEdge(1, 0));
  EXPECT_EQ(fx.service.Snapshot().updates_applied, 0u);
}

// ---------------------------------------------------------------------------
// The ROLLBACK verb.

TEST(RollbackVerb, NoRollbackerWiredReturnsUnimplemented) {
  Ontology ontology = MakeOntology();
  auto index = std::make_shared<const BigIndex>(
      std::move(BigIndex::Build(ToggleGraph(), &ontology, {})).value());
  SearchService service(
      std::make_shared<const QueryEngine>(index, QueryEngineOptions{}));
  LineHandler handler(&service, nullptr);
  LineHandler::Result r = handler.Handle("rollback");
  EXPECT_TRUE(r.response.starts_with("ERR Unimplemented")) << r.response;
}

TEST(RollbackVerb, EndToEndThroughLineHandler) {
  UpdateFixture fx;
  LineHandler handler(&fx.service, nullptr);
  EngineQuery q = fx.ConnectivityQuery();
  auto before = fx.service.Query(q);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->answers.empty());  // 0 -> 1 -> 2 connects {0,2}

  // Nothing retained yet: the verb refuses instead of serving garbage.
  LineHandler::Result premature = handler.Handle("rollback");
  EXPECT_TRUE(premature.response.starts_with("ERR FailedPrecondition"))
      << premature.response;

  // Cut the connecting edge, then undo it through the verb: the pre-update
  // answers come back and the epoch advances (the rollback is itself an
  // epoch swap, never an in-place mutation).
  ASSERT_TRUE(
      handler.Handle("update remove:1:2").response.starts_with("OK"));
  auto cut = fx.service.Query(q);
  ASSERT_TRUE(cut.ok());
  EXPECT_TRUE(cut->answers.empty());
  const uint64_t epoch_before = fx.service.epoch();

  LineHandler::Result r = handler.Handle("rollback");
  ASSERT_TRUE(r.response.starts_with("OK epoch=")) << r.response;
  EXPECT_GT(fx.service.epoch(), epoch_before);
  auto restored = fx.service.Query(q);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->answers, before->answers);

  // One generation of history: a second consecutive rollback refuses.
  LineHandler::Result again = handler.Handle("rollback");
  EXPECT_TRUE(again.response.starts_with("ERR FailedPrecondition"))
      << again.response;

  // INFO and STATS expose the (successful) rollback count.
  LineHandler::Result info = handler.Handle("info");
  EXPECT_NE(info.response.find("rollbacks=1"), std::string::npos)
      << info.response;
  EXPECT_EQ(fx.service.Snapshot().rollbacks, 1u);
}

TEST(UpdateVerb, ShardRemapTranslatesAndSkipsUnowned) {
  UpdateFixture fx;
  // This "shard" owns global vertices {10,11,12,13,14,15} as locals
  // {0..5}; everything else is unowned and must be skipped, not applied.
  ShardRemapService remapped(&fx.service,
                             std::vector<VertexId>{10, 11, 12, 13, 14, 15});
  std::vector<GraphUpdate> batch = {
      Remove(11, 12),  // both owned -> local remove:1:2
      Add(10, 99),     // 99 unowned -> skipped
      Add(7, 8),       // neither owned -> skipped
  };
  auto outcome = remapped.ApplyUpdate(batch);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->applied, 1u);
  EXPECT_EQ(outcome->skipped, 2u);
  EXPECT_FALSE(fx.service.engine_snapshot()->index().base().HasEdge(1, 2));

  // A batch with no owned endpoints never reaches the inner service.
  auto all_foreign =
      remapped.ApplyUpdate(std::vector<GraphUpdate>{Add(20, 21)});
  ASSERT_TRUE(all_foreign.ok());
  EXPECT_EQ(all_foreign->applied, 0u);
  EXPECT_EQ(all_foreign->skipped, 1u);
  EXPECT_EQ(all_foreign->epoch, fx.service.epoch());
}

TEST(UpdateVerb, DefaultQueryServiceIsReadOnly) {
  UpdateFixture fx;
  // ShardRemapService with an identity map passes through; a QueryService
  // subclass that never overrides ApplyUpdate reports Unimplemented — the
  // compiled-in default keeps read-only services read-only.
  class ReadOnly : public QueryService {
   public:
    explicit ReadOnly(QueryService* inner) : inner_(inner) {}
    StatusOr<QueryResult> Query(EngineQuery query) override {
      return inner_->Query(std::move(query));
    }
    uint64_t epoch() const override { return inner_->epoch(); }
    uint64_t BumpEpoch() override { return inner_->BumpEpoch(); }
    ServiceStats Snapshot() const override { return inner_->Snapshot(); }
    std::vector<std::string> AlgorithmNames() const override {
      return inner_->AlgorithmNames();
    }
    ServiceIdentity Identity() const override { return inner_->Identity(); }

   private:
    QueryService* inner_;
  } read_only(&fx.service);
  EXPECT_EQ(read_only.ApplyUpdate(std::vector<GraphUpdate>{Add(0, 1)})
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace bigindex
