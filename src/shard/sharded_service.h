// ShardedSearchService — the scatter-gather coordinator (DESIGN.md §9).
//
// One QueryService over N shards of a ShardSubstrate:
//
//   client → [validate + normalize + deadline]          (caller's thread)
//          → result-cache probe                         (generation-keyed)
//          → fan-out to every shard                     (ExecutorPool)
//          → merge: concat + boundary completion + rank + top-k cut
//          → result-cache fill
//
// Merge semantics: shard vertex sets are disjoint, so per-shard answer sets
// are disjoint and the merged set is their concatenation — no cross-shard
// dedup exists to do. Ranking uses the same deterministic AnswerLess order
// as a monolithic evaluation, then applies the top-k cut. Under the
// connectivity-closed shard mode no answer spans shards, so with top_k=0
// the merged set is *exactly* the monolithic answer set for every algorithm
// at every layer (the differential gate in tests/shard_test.cpp); with a
// top-k cut the merged ranking equals the monolithic ranking whenever
// scores are exact (layer 0, or exact mode's verified scores).
//
// Boundary completion (DESIGN.md §9): under bfs-mode plans the fleet has a
// cut, and workers withhold answers anchored within the algorithm's
// locality radius rho of it (ShardRemapService's near-answer filter — those
// answers could be wrong or missing locally). The coordinator lazily
// assembles the per-shard BoundaryExports into one region graph, evaluates
// the query on it with its own algorithm instances, and keeps exactly the
// answers anchored within rho of the cut; the region covers every vertex
// and edge within 2*rho, so those answers and scores are exact. Far worker
// answers plus near region answers partition the monolithic answer set, so
// bfs-mode serving is exact too. While a cut exists, fan-out queries are
// rewritten to top_k=0 (a per-shard cut could displace a cut-crossing
// answer) and the caller's top-k is applied after the merge.
//
// Result cache and generation: one AnswerCache holds *final* results (after
// completion, merge and the caller's top-k cut), keyed on (generation,
// normalized query with the caller's own top_k). A hit skips boundary
// completion, fan-out and merge entirely. After a one-shard update the
// other shards still answer a miss from their own epoch-keyed caches
// (workers keep them, in process and remote), so the coordinator keeps no
// per-shard copies. Partial results (allow_partial skipped a shard) and
// errors are never cached.
//
// The generation is epoch(). Invariant: every path that changes the fleet
// or the boundary region — Attach, BumpEpoch, ApplyUpdate (full or
// partial) and every Rollback exit that rolled a shard back — finishes its
// substrate calls and invalidates the region BEFORE it advances the
// generation, and Query reads the generation BEFORE it assembles the region
// or fans out. So a result cached under generation G was computed on the
// fleet of generation G or newer, and no query that starts after an update
// returns is served a result from before it. This is the publish-then-bump
// ordering of SearchService::SwapEngine. Mutate the fleet *through the
// coordinator*: a worker bumped or updated behind its back serves fresh
// answers to direct clients while the coordinator's cache and region keep
// the old generation.
//
// Deadlines ride in EngineQuery::eval.deadline: every shard sees the same
// deadline, expired queries are rejected before fan-out, and one slow shard
// turns into DeadlineExceeded for the whole query (all-or-nothing; there
// are no partial answer sets unless allow_partial opts in).

#ifndef BIGINDEX_SHARD_SHARDED_SERVICE_H_
#define BIGINDEX_SHARD_SHARDED_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/search_algorithm.h"
#include "engine/executor.h"
#include "server/answer_cache.h"
#include "server/query_service.h"
#include "shard/boundary.h"
#include "shard/substrate.h"
#include "util/timer.h"

namespace bigindex {

struct ShardedServiceOptions {
  /// Fan-out pool threads. 0 = serial fan-out (still correct, just no
  /// overlap); ExecutorPool::kHardwareConcurrency = one per hardware
  /// thread. The pool is shared by concurrent coordinator queries
  /// (ParallelFor is re-entrant across threads).
  size_t fanout_threads = 0;

  /// The coordinator's result cache of final (merged, completed, top-k cut)
  /// answers, sized by `cache`. enable_cache=false turns it off: every query
  /// fans out (workers still consult their own caches).
  bool enable_cache = true;
  AnswerCacheOptions cache;

  /// Deadline applied to queries that arrive without one; 0 = none.
  double default_deadline_ms = 0;

  /// If true, a failed shard (unreachable, overloaded) is skipped and the
  /// merge proceeds over the shards that answered — availability over
  /// exactness, counted in stats. If false (default), any shard failure
  /// fails the query with that shard's status.
  bool allow_partial = false;

  /// Factory for the completion pass's algorithm instances, called once per
  /// fleet algorithm name when the boundary region is (re)assembled. MUST
  /// construct instances configured identically to the workers' (same
  /// options the workers' configure_engine applied), or the near answers
  /// re-derived on the region diverge from what the workers withheld.
  /// Unset = the engine's default registrations (bkws, blinks, r-clique,
  /// bidirectional with default options). Returning nullptr for a name
  /// fails that algorithm's queries whenever the fleet has a cut.
  std::function<std::unique_ptr<KeywordSearchAlgorithm>(
      const std::string& name)>
      make_algorithm;
};

class ShardedSearchService : public QueryService {
 public:
  /// `substrate` is borrowed and must outlive the service.
  explicit ShardedSearchService(ShardSubstrate* substrate,
                                ShardedServiceOptions options = {});

  /// Fetches every shard's Info and verifies the fleet is coherent: shard
  /// ids form the exact cover 0..N-1 of one num_shards (monolithic workers
  /// are accepted only for N=1) and algorithm sets agree. Layer counts may
  /// differ (a small shard can summarize away in fewer layers); Identity()
  /// reports the deepest. Advances the generation (a re-attach may follow a
  /// fleet rebuild). Must succeed before Query()/BumpEpoch();
  /// FailedPrecondition otherwise.
  Status Attach();

  // QueryService interface. Identity() presents the coordinator as a
  // whole-graph service (shard=0/0): clients are not supposed to care that
  // shards exist behind it.
  StatusOr<QueryResult> Query(EngineQuery query) override;
  uint64_t epoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }
  uint64_t BumpEpoch() override;
  ServiceStats Snapshot() const override;
  std::vector<std::string> AlgorithmNames() const override;
  ServiceIdentity Identity() const override;

  /// Broadcasts the batch to every shard in parallel (each shard applies
  /// only the edges it owns and skips the rest — see ShardSubstrate::Update)
  /// and advances the generation when any shard changed or failed.
  /// `applied` is summed across shards (vertex ownership is disjoint);
  /// `skipped` = batch size − applied, so the coordinator-level accounting
  /// matches a monolithic server's. Under wcc-mode plans a cross-shard edge
  /// add is owned by no shard and counts as skipped — a documented
  /// limitation (see DESIGN.md §"Live updates").
  ///
  /// On a shard failure the batch may be PARTIALLY applied across the fleet;
  /// the returned status names the failing shard. Re-sending the same batch
  /// is safe: updates are normalized against each shard's current graph, so
  /// already-applied ops become net no-ops on retry.
  StatusOr<UpdateOutcome> ApplyUpdate(
      std::span<const GraphUpdate> updates) override;

  /// Broadcasts ROLLBACK to every shard in parallel, advances the
  /// generation when any shard rolled back or failed, then verifies fleet
  /// coherence: each rolled-back shard must still report the epoch its
  /// rollback returned (a concurrent update racing the broadcast would
  /// leave the fleet serving mixed generations — that surfaces as
  /// FailedPrecondition after one more generation advance, so nothing stale
  /// is served either way). Shards that retain no previous version answer
  /// FailedPrecondition and are skipped — a single-shard update stays
  /// reversible fleet-wide; if NO shard rolled back the call itself returns
  /// FailedPrecondition. On success returns the coordinator's new epoch.
  /// A shard failure mid-broadcast leaves the fleet partially rolled back;
  /// the returned status names the first failing shard and a retry
  /// re-broadcasts (already-rolled-back shards are then skipped as above).
  StatusOr<uint64_t> Rollback() override;

  bool attached() const { return attached_.load(std::memory_order_acquire); }
  size_t num_shards() const { return substrate_->num_shards(); }

 private:
  /// Lazily assembled completion state: the region plus the coordinator's
  /// own algorithm instances (with their locality radii). Immutable once
  /// published; rebuilt after every invalidation.
  struct RegionState {
    BoundaryRegion region;
    bool partial = false;  // allow_partial assembled it without some shard
    std::vector<std::pair<std::string,
                          std::unique_ptr<KeywordSearchAlgorithm>>>
        algos;  // ascending by name

    const KeywordSearchAlgorithm* Find(const std::string& name) const;
  };

  /// Returns the current region state, fetching every shard's boundary and
  /// assembling on first use after an invalidation. Unavailable when a
  /// shard's boundary cannot be fetched.
  StatusOr<std::shared_ptr<const RegionState>> EnsureRegion();

  /// Drops the region and the result cache, then advances the generation
  /// (in that order — see the header comment) and returns the new one.
  uint64_t AdvanceGeneration();

  /// Evaluates `query` on the region and returns the near answers (anchor
  /// within the algorithm's locality radius of the cut), remapped to global
  /// ids — exactly the answers the workers withheld.
  StatusOr<std::vector<Answer>> CompleteAcrossCut(
      const RegionState& state, const EngineQuery& query) const;

  ShardSubstrate* substrate_;
  ShardedServiceOptions options_;
  ExecutorPool pool_;
  Timer uptime_;

  std::atomic<bool> attached_{false};
  AnswerCache cache_;
  std::vector<std::string> algorithms_;  // common set, from Attach
  uint32_t num_layers_ = 0;              // deepest shard layer count

  std::atomic<uint64_t> epoch_{1};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_invalid_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> deadline_misses_{0};
  std::atomic<uint64_t> shard_queries_{0};   // fan-out requests actually sent
  std::atomic<uint64_t> shard_failures_{0};  // failed shard requests
  std::atomic<uint64_t> partial_results_{0};
  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> updates_rejected_{0};
  std::atomic<uint64_t> update_fallbacks_{0};
  std::atomic<uint64_t> rollbacks_{0};

  mutable std::mutex region_mutex_;
  std::shared_ptr<const RegionState> region_;  // null = needs (re)assembly
  std::atomic<double> epoch_changed_at_s_{0};  // uptime-relative, like
                                               // SearchService's
  LatencyHistogram latency_;
};

}  // namespace bigindex

#endif  // BIGINDEX_SHARD_SHARDED_SERVICE_H_
