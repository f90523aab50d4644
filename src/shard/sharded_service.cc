#include "shard/sharded_service.h"

#include <algorithm>
#include <utility>

#include "search/answer.h"
#include "search/bidirectional.h"
#include "search/bkws.h"
#include "search/blinks.h"
#include "search/rclique.h"
#include "server/search_service.h"

namespace bigindex {
namespace {

/// Mirrors QueryEngine's default registrations (query_engine.cc) for fleets
/// that never customize configure_engine; nullptr for unknown names.
std::unique_ptr<KeywordSearchAlgorithm> MakeDefaultAlgorithm(
    const std::string& name) {
  if (name == "bkws") return std::make_unique<BkwsAlgorithm>();
  if (name == "blinks") return std::make_unique<BlinksAlgorithm>();
  if (name == "r-clique") return std::make_unique<RCliqueAlgorithm>();
  if (name == "bidirectional") {
    return std::make_unique<BidirectionalAlgorithm>();
  }
  return nullptr;
}

/// The completion pass's anchor rule — must match ShardRemapService's
/// (root for rooted semantics, else smallest keyword vertex; both survive
/// the order-preserving remap, so region-local and global anchors agree).
VertexId AnchorOf(const Answer& a) {
  if (a.root != kInvalidVertex) return a.root;
  if (a.keyword_vertices.empty()) return kInvalidVertex;
  return *std::min_element(a.keyword_vertices.begin(),
                           a.keyword_vertices.end());
}

}  // namespace

ShardedSearchService::ShardedSearchService(ShardSubstrate* substrate,
                                           ShardedServiceOptions options)
    : substrate_(substrate),
      options_(options),
      pool_(options.fanout_threads),
      cache_(options.enable_cache ? options.cache
                                  : AnswerCacheOptions{.capacity = 0}) {}

Status ShardedSearchService::Attach() {
  const size_t n = substrate_->num_shards();
  if (n == 0) return Status::InvalidArgument("substrate has no shards");
  std::vector<ShardInfo> infos;
  infos.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    auto info = substrate_->Info(s);
    if (!info.ok()) {
      return Status::FailedPrecondition(
          "shard " + std::to_string(s) +
          " unreachable at attach: " + info.status().ToString());
    }
    infos.push_back(std::move(info).value());
  }
  for (size_t s = 0; s < n; ++s) {
    const ShardInfo& info = infos[s];
    if (info.num_shards == 0) {
      // A monolithic worker is a valid 1-shard fleet, nothing else.
      if (n != 1) {
        return Status::FailedPrecondition(
            "shard " + std::to_string(s) +
            " serves a monolithic index inside a " + std::to_string(n) +
            "-shard fleet");
      }
    } else {
      if (info.num_shards != n) {
        return Status::FailedPrecondition(
            "shard " + std::to_string(s) + " was built for " +
            std::to_string(info.num_shards) + " shards, fleet has " +
            std::to_string(n));
      }
      if (info.shard_id != s) {
        return Status::FailedPrecondition(
            "endpoint " + std::to_string(s) + " serves shard " +
            std::to_string(info.shard_id) +
            " (endpoints must be in shard-id order)");
      }
    }
    if (info.algorithms != infos[0].algorithms) {
      return Status::FailedPrecondition(
          "shard algorithm sets disagree between shard 0 and shard " +
          std::to_string(s));
    }
  }
  algorithms_ = std::move(infos[0].algorithms);
  // A smaller shard can legitimately summarize away in fewer layers than its
  // siblings (Build stops once a layer stops compressing), so layer counts
  // are informational: present the deepest.
  num_layers_ = 0;
  for (const ShardInfo& info : infos) {
    num_layers_ = std::max(num_layers_, info.num_layers);
  }
  AdvanceGeneration();  // re-attach may follow a fleet rebuild
  attached_.store(true, std::memory_order_release);
  return Status::OK();
}

const KeywordSearchAlgorithm* ShardedSearchService::RegionState::Find(
    const std::string& name) const {
  auto it = std::lower_bound(
      algos.begin(), algos.end(), name,
      [](const auto& e, const std::string& n) { return e.first < n; });
  if (it == algos.end() || it->first != name) return nullptr;
  return it->second.get();
}

uint64_t ShardedSearchService::AdvanceGeneration() {
  {
    std::lock_guard<std::mutex> lock(region_mutex_);
    region_.reset();
  }
  cache_.Clear();
  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  epoch_changed_at_s_.store(uptime_.ElapsedSeconds(),
                            std::memory_order_relaxed);
  return epoch;
}

StatusOr<std::shared_ptr<const ShardedSearchService::RegionState>>
ShardedSearchService::EnsureRegion() {
  std::lock_guard<std::mutex> lock(region_mutex_);
  if (region_ != nullptr) return region_;
  auto state = std::make_shared<RegionState>();
  std::vector<BoundaryExport> exports;
  for (size_t s = 0; s < num_shards(); ++s) {
    auto ex = substrate_->Boundary(s);
    if (!ex.ok()) {
      // allow_partial already trades exactness for availability on the
      // query path; do the same here and assemble from the shards that
      // answered (a missing cut-incident export surfaces as Corruption
      // below). Without it, a dead shard fails the query.
      if (options_.allow_partial) {
        shard_failures_.fetch_add(1, std::memory_order_relaxed);
        state->partial = true;
        continue;
      }
      return Status::Unavailable("shard " + std::to_string(s) +
                                 " boundary fetch failed: " +
                                 ex.status().ToString());
    }
    exports.push_back(std::move(ex).value());
  }
  auto assembled = AssembleBoundaryRegion(exports);
  if (!assembled.ok()) return assembled.status();
  state->region = std::move(assembled).value();
  if (state->region.has_cut) {
    for (const std::string& name : algorithms_) {
      std::unique_ptr<KeywordSearchAlgorithm> algo =
          options_.make_algorithm ? options_.make_algorithm(name)
                                  : MakeDefaultAlgorithm(name);
      if (algo == nullptr) continue;  // CompleteAcrossCut rejects the query
      const uint32_t rho = algo->LocalityRadius();
      if (2 * rho > state->region.radius_cap) {
        return Status::FailedPrecondition(
            "completion for '" + name + "' needs region radius " +
            std::to_string(2 * rho) + " but the fleet exported only " +
            std::to_string(state->region.radius_cap) +
            " — worker and coordinator algorithm configurations disagree");
      }
      state->algos.emplace_back(name, std::move(algo));
    }
    // algorithms_ arrives in the workers' registration order; Find does a
    // binary search by name.
    std::sort(state->algos.begin(), state->algos.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  // A partial region serves this query only: stored, it would keep the
  // failed shard's export out until the next generation advance, so the
  // next query retries the fetch instead.
  if (state->partial) return std::shared_ptr<const RegionState>(state);
  region_ = std::move(state);
  return region_;
}

StatusOr<std::vector<Answer>> ShardedSearchService::CompleteAcrossCut(
    const RegionState& state, const EngineQuery& query) const {
  const KeywordSearchAlgorithm* algo = state.Find(query.algorithm);
  if (algo == nullptr) {
    return Status::FailedPrecondition(
        "fleet has a cut but the coordinator has no completion instance "
        "for algorithm '" + query.algorithm +
        "' (set ShardedServiceOptions::make_algorithm)");
  }
  const uint32_t rho = algo->LocalityRadius();
  if (rho == 0) return std::vector<Answer>{};  // workers did not filter
  std::vector<Answer> answers =
      algo->Evaluate(state.region.graph, query.keywords);
  std::vector<Answer> near;
  for (Answer& a : answers) {
    VertexId anchor = AnchorOf(a);
    // Keep exactly the answers the workers withheld: anchored within rho of
    // the cut. The region's extra vertices (between rho and the export cap)
    // only exist so those answers score exactly; answers anchored out there
    // are the far shards' responsibility and are dropped here.
    if (anchor == kInvalidVertex ||
        state.region.dist_to_cut[anchor] > rho) {
      continue;
    }
    if (a.root != kInvalidVertex) a.root = state.region.global_of[a.root];
    for (VertexId& v : a.vertices) v = state.region.global_of[v];
    for (VertexId& v : a.keyword_vertices) {
      v = state.region.global_of[v];
    }
    near.push_back(std::move(a));
  }
  return near;
}

StatusOr<QueryResult> ShardedSearchService::Query(EngineQuery query) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!attached()) {
    return Status::FailedPrecondition("coordinator is not attached");
  }
  if (query.keywords.empty()) {
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument("query has no keywords");
  }
  if (std::find(algorithms_.begin(), algorithms_.end(), query.algorithm) ==
      algorithms_.end()) {
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("no algorithm registered as '" + query.algorithm +
                            "'");
  }
  query.NormalizeKeywords();
  if (options_.default_deadline_ms > 0 && query.eval.deadline.IsNever()) {
    query.eval.deadline = Deadline::After(options_.default_deadline_ms);
  }
  if (query.eval.deadline.Expired()) {
    deadline_misses_.fetch_add(1, std::memory_order_relaxed);
    return Status::DeadlineExceeded("deadline expired before fan-out");
  }

  // The generation is read before the region and the fan-out (header
  // invariant), so this key never names a result older than its generation.
  Timer timer;
  std::string key;
  if (options_.enable_cache) {
    key = SearchService::CacheKeyFor(epoch(), query);
    if (std::shared_ptr<const QueryResult> hit = cache_.Lookup(key)) {
      completed_.fetch_add(1, std::memory_order_relaxed);
      latency_.Record(timer.ElapsedMillis());
      return QueryResult(*hit);
    }
  }

  // Boundary completion setup: with a cut in the fleet the workers withhold
  // near answers and a per-shard top-k could displace a cut-crossing
  // answer, so fan out with top_k=0 and apply the caller's cut after the
  // merge. Cut-free fleets take none of this path.
  auto region_state = EnsureRegion();
  if (!region_state.ok()) return region_state.status();
  const std::shared_ptr<const RegionState>& region = *region_state;
  const bool completing = region->region.has_cut;
  const size_t original_top_k = query.eval.top_k;
  if (completing) query.eval.top_k = 0;

  // ParallelFor is re-entrant across threads, so concurrent coordinator
  // queries share the pool; with fanout_threads=0 this runs inline.
  const size_t n = num_shards();
  std::vector<StatusOr<QueryResult>> fetched(
      n, Status::Unavailable("shard fan-out not run"));
  shard_queries_.fetch_add(n, std::memory_order_relaxed);
  pool_.ParallelFor(n, [&](size_t /*slot*/, size_t s) {
    fetched[s] = substrate_->Query(s, query);
  });

  // Merge: shard vertex sets are disjoint, so concatenation is the union;
  // rank with the same deterministic order a monolithic evaluation uses,
  // then apply the top-k cut.
  QueryResult merged;
  merged.algorithm = query.algorithm;
  bool partial = region->partial;
  for (StatusOr<QueryResult>& r : fetched) {
    if (!r.ok()) {
      shard_failures_.fetch_add(1, std::memory_order_relaxed);
      if (options_.allow_partial &&
          r.status().code() != StatusCode::kInvalidArgument &&
          r.status().code() != StatusCode::kNotFound) {
        partial = true;
        continue;
      }
      if (r.status().code() == StatusCode::kDeadlineExceeded) {
        deadline_misses_.fetch_add(1, std::memory_order_relaxed);
      }
      return r.status();
    }
    merged.breakdown.layer = std::max(merged.breakdown.layer,
                                      r->breakdown.layer);
    merged.breakdown.generalized_answers += r->breakdown.generalized_answers;
    merged.breakdown.candidate_roots += r->breakdown.candidate_roots;
    if (merged.answers.empty()) {
      merged.answers = std::move(r->answers);
    } else {
      merged.answers.insert(merged.answers.end(),
                            std::make_move_iterator(r->answers.begin()),
                            std::make_move_iterator(r->answers.end()));
    }
  }
  if (completing) {
    auto near = CompleteAcrossCut(*region, query);
    if (!near.ok()) return near.status();
    merged.answers.insert(merged.answers.end(),
                          std::make_move_iterator(near->begin()),
                          std::make_move_iterator(near->end()));
  }
  SortAnswers(merged.answers);
  if (original_top_k > 0 && merged.answers.size() > original_top_k) {
    merged.answers.resize(original_top_k);
  }
  merged.breakdown.final_answers = merged.answers.size();
  merged.wall_ms = timer.ElapsedMillis();
  if (partial) {
    partial_results_.fetch_add(1, std::memory_order_relaxed);
  } else if (!key.empty()) {
    cache_.Insert(key, merged);
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  latency_.Record(merged.wall_ms);
  return merged;
}

uint64_t ShardedSearchService::BumpEpoch() {
  // Best effort on the remote side: a shard whose bump failed keeps serving
  // the same index, so results refilled under the new generation stay
  // correct.
  for (size_t s = 0; s < num_shards(); ++s) substrate_->BumpEpoch(s);
  return AdvanceGeneration();
}

StatusOr<uint64_t> ShardedSearchService::Rollback() {
  if (!attached()) {
    return Status::FailedPrecondition("coordinator is not attached");
  }
  const size_t n = num_shards();
  std::vector<StatusOr<uint64_t>> per(
      n, Status::Unavailable("shard rollback not run"));
  pool_.ParallelFor(n, [&](size_t /*slot*/, size_t s) {
    per[s] = substrate_->Rollback(s);
  });

  bool any_changed = false;
  Status first_failure = Status::OK();
  for (size_t s = 0; s < n; ++s) {
    if (per[s].ok()) {
      any_changed = true;
      continue;
    }
    // A shard the last batch never touched retains no previous version and
    // answers FailedPrecondition — that is "nothing to undo here", not a
    // broadcast failure (a single-shard update must stay reversible
    // fleet-wide).
    if (per[s].status().code() == StatusCode::kFailedPrecondition) continue;
    shard_failures_.fetch_add(1, std::memory_order_relaxed);
    if (first_failure.ok()) first_failure = per[s].status();
  }
  if (!any_changed && first_failure.ok()) {
    return Status::FailedPrecondition(
        "no shard had a previous index version to restore");
  }
  // A failed shard may have rolled back before its reply was lost, so a
  // failure advances the generation too. A retry re-broadcasts
  // (already-rolled-back shards then answer FailedPrecondition, which the
  // retry skips).
  uint64_t epoch = AdvanceGeneration();
  if (!first_failure.ok()) return first_failure;

  // Fleet-coherence check: every rolled-back shard must still report the
  // epoch its rollback returned — an update racing the broadcast would
  // leave the fleet serving mixed generations, possibly cached under the
  // generation just advanced to, so that exit advances once more.
  for (size_t s = 0; s < n; ++s) {
    if (!per[s].ok()) continue;
    auto info = substrate_->Info(s);
    if (!info.ok()) return info.status();
    if (info->epoch != *per[s]) {
      AdvanceGeneration();
      return Status::FailedPrecondition(
          "shard " + std::to_string(s) + " epoch moved during rollback (" +
          std::to_string(*per[s]) + " -> " + std::to_string(info->epoch) +
          "); a concurrent update raced the broadcast");
    }
  }
  rollbacks_.fetch_add(1, std::memory_order_relaxed);
  return epoch;
}

StatusOr<UpdateOutcome> ShardedSearchService::ApplyUpdate(
    std::span<const GraphUpdate> updates) {
  if (!attached()) {
    updates_rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status::FailedPrecondition("coordinator is not attached");
  }
  const size_t n = num_shards();
  std::vector<StatusOr<UpdateOutcome>> per(
      n, Status::Unavailable("shard update not run"));
  pool_.ParallelFor(n, [&](size_t /*slot*/, size_t s) {
    per[s] = substrate_->Update(s, updates);
  });

  UpdateOutcome merged;
  bool any_changed = false;
  Status first_failure = Status::OK();
  for (size_t s = 0; s < n; ++s) {
    if (!per[s].ok()) {
      shard_failures_.fetch_add(1, std::memory_order_relaxed);
      if (first_failure.ok()) first_failure = per[s].status();
      continue;
    }
    merged.applied += per[s]->applied;
    merged.layers_rebuilt += per[s]->layers_rebuilt;
    // Mode severity: none < incremental < wholesale < rebuild (the enum's
    // declaration order); report the fleet's worst.
    if (per[s]->mode > merged.mode) merged.mode = per[s]->mode;
    if (per[s]->mode != UpdateOutcome::Mode::kNone) any_changed = true;
  }
  // An applied update can move edges near the cut, so the workers' exports
  // (recomputed at their engine swaps) may differ, and a failed shard may
  // have applied before its reply was lost: either way cached results and
  // the region are stale. On a partial failure the caller retries the batch
  // (retry is idempotent — applied ops normalize to net no-ops).
  merged.epoch = any_changed || !first_failure.ok() ? AdvanceGeneration()
                                                    : epoch();
  if (!first_failure.ok()) {
    updates_rejected_.fetch_add(1, std::memory_order_relaxed);
    return first_failure;
  }

  // Ownership is disjoint, so summed applied <= batch size and the
  // coordinator-level accounting mirrors a monolithic server's.
  merged.skipped = updates.size() - merged.applied;
  updates_applied_.fetch_add(merged.applied, std::memory_order_relaxed);
  if (merged.mode == UpdateOutcome::Mode::kWholesale ||
      merged.mode == UpdateOutcome::Mode::kRebuild) {
    update_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }
  return merged;
}

ServiceStats ShardedSearchService::Snapshot() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  // Fan-out counters ride the batch fields: one "batch" per completed query,
  // batched_queries = shard requests sent (a result-cache hit sends none).
  s.batches = s.completed;
  s.batched_queries = shard_queries_.load(std::memory_order_relaxed);
  s.mean_batch_size =
      s.batches ? static_cast<double>(s.batched_queries) / s.batches : 0;
  AnswerCacheStats cs = cache_.stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  s.cache_evictions = cs.evictions;
  s.cache_entries = cs.entries;
  s.cache_hit_ratio = (s.cache_hits + s.cache_misses)
                          ? static_cast<double>(s.cache_hits) /
                                static_cast<double>(s.cache_hits +
                                                    s.cache_misses)
                          : 0;
  s.shard_failures = shard_failures_.load(std::memory_order_relaxed);
  s.partial_results = partial_results_.load(std::memory_order_relaxed);
  s.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  s.updates_rejected = updates_rejected_.load(std::memory_order_relaxed);
  s.update_fallbacks = update_fallbacks_.load(std::memory_order_relaxed);
  s.rollbacks = rollbacks_.load(std::memory_order_relaxed);
  s.p50_ms = latency_.Quantile(0.50);
  s.p95_ms = latency_.Quantile(0.95);
  s.p99_ms = latency_.Quantile(0.99);
  s.uptime_s = uptime_.ElapsedSeconds();
  s.throughput_qps =
      s.uptime_s > 0 ? static_cast<double>(s.completed) / s.uptime_s : 0;
  s.epoch = epoch();
  s.epoch_age_s =
      s.uptime_s - epoch_changed_at_s_.load(std::memory_order_relaxed);
  if (s.epoch_age_s < 0) s.epoch_age_s = 0;
  return s;
}

std::vector<std::string> ShardedSearchService::AlgorithmNames() const {
  return algorithms_;
}

ServiceIdentity ShardedSearchService::Identity() const {
  return ServiceIdentity{.fingerprint = 0,
                         .num_layers = num_layers_,
                         .shard_id = 0,
                         .num_shards = 0};
}

}  // namespace bigindex
