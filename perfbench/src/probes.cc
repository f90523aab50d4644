#include "probes.h"

#include <algorithm>

#include "harness.h"

namespace perfbench {

using namespace bigindex;

namespace {

/// The span the calling thread is inside, for children recorded on the same
/// thread (a coordinator assembling its boundary region, an UPDATE reaching
/// the updater).
thread_local InflightRegistry::Entry tls_current;

class ScopedCurrent {
 public:
  explicit ScopedCurrent(InflightRegistry::Entry entry) : saved_(tls_current) {
    tls_current = entry;
  }
  ~ScopedCurrent() { tls_current = saved_; }
  ScopedCurrent(const ScopedCurrent&) = delete;
  ScopedCurrent& operator=(const ScopedCurrent&) = delete;

 private:
  InflightRegistry::Entry saved_;
};

/// Result fields of one evaluation. A cached result carries the wall time
/// of the evaluation that filled the cache, while a cache hit returns in far
/// less; a call that returned in less than its result's wall time was
/// therefore a hit.
void AddResultArgs(Span& span, const QueryResult& r) {
  const EvalBreakdown& b = r.breakdown;
  span.args = {
      {"wall_ms", r.wall_ms},
      {"miss", span.DurationMs() >= r.wall_ms ? 1.0 : 0.0},
      {"layer", static_cast<double>(b.layer)},
      {"explore_ms", b.explore_ms},
      {"specialize_ms", b.specialize_ms},
      {"generate_ms", b.generate_ms},
      {"verify_ms", b.verify_ms},
      {"generalized", static_cast<double>(b.generalized_answers)},
      {"pruned", static_cast<double>(b.pruned_answers)},
      {"candidates", static_cast<double>(b.candidate_roots)},
      {"final", static_cast<double>(b.final_answers)},
      {"answers", static_cast<double>(r.answers.size())},
  };
}

}  // namespace

bool Probe::ClaimFirstReadAfterSwap() {
  const uint64_t done = swaps.load(std::memory_order_acquire);
  uint64_t marked = swaps_marked.load(std::memory_order_relaxed);
  while (marked < done) {
    if (swaps_marked.compare_exchange_weak(marked, done)) return true;
  }
  return false;
}

std::string QueryKey(const std::string& algorithm,
                     std::vector<LabelId> keywords) {
  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()),
                 keywords.end());
  std::string key = algorithm;
  for (LabelId k : keywords) key += ' ' + std::to_string(k);
  return key;
}

std::string UpdateKey(std::span<const GraphUpdate> updates) {
  return FormatUpdateLine(updates);
}

StatusOr<QueryResult> TimedService::Query(EngineQuery query) {
  if (!probe_->spans.enabled()) return inner_->Query(std::move(query));
  const std::string key = QueryKey(query.algorithm, query.keywords);
  const InflightRegistry::Entry client = probe_->client_requests.Claim(key);
  Span span;
  span.name = "server.query";
  span.detail = query.algorithm;
  span.id = probe_->spans.NewId();
  span.parent = client.span;
  span.request = client.request;
  const bool first_after_swap = probe_->ClaimFirstReadAfterSwap();
  probe_->service_calls.Add(key, {client.request, span.id});
  span.start_ms = NowMs();
  StatusOr<QueryResult> result = [&] {
    ScopedCurrent current({client.request, span.id});
    return inner_->Query(std::move(query));
  }();
  span.end_ms = NowMs();
  probe_->service_calls.Remove(key, span.id);
  if (result.ok()) {
    AddResultArgs(span, *result);
  } else {
    span.args = {{"error", 1}};
  }
  if (first_after_swap) span.args.emplace_back("first_after_swap", 1);
  probe_->spans.Record(std::move(span));
  return result;
}

StatusOr<UpdateOutcome> TimedService::ApplyUpdate(
    std::span<const GraphUpdate> updates) {
  if (!probe_->spans.enabled()) return inner_->ApplyUpdate(updates);
  const InflightRegistry::Entry client =
      probe_->client_requests.Claim(UpdateKey(updates));
  Span span;
  span.name = "server.update";
  span.id = probe_->spans.NewId();
  span.parent = client.span;
  span.request = client.request;
  span.start_ms = NowMs();
  StatusOr<UpdateOutcome> outcome = [&] {
    ScopedCurrent current({client.request, span.id});
    return inner_->ApplyUpdate(updates);
  }();
  span.end_ms = NowMs();
  span.args = {{"ok", outcome.ok() ? 1.0 : 0.0}};
  probe_->spans.Record(std::move(span));
  return outcome;
}

StatusOr<QueryResult> TimedSubstrate::Query(size_t shard,
                                            const EngineQuery& query) {
  if (!probe_->spans.enabled()) return inner_->Query(shard, query);
  const InflightRegistry::Entry parent =
      probe_->service_calls.Peek(QueryKey(query.algorithm, query.keywords));
  Span span;
  span.name = "shard.query";
  span.detail = query.algorithm;
  span.id = probe_->spans.NewId();
  span.parent = parent.span;
  span.request = parent.request;
  span.start_ms = NowMs();
  StatusOr<QueryResult> result = inner_->Query(shard, query);
  span.end_ms = NowMs();
  if (result.ok()) {
    AddResultArgs(span, *result);
  } else {
    span.args = {{"error", 1}};
  }
  span.args.emplace_back("shard", static_cast<double>(shard));
  probe_->spans.Record(std::move(span));
  return result;
}

StatusOr<BoundaryExport> TimedSubstrate::Boundary(size_t shard) {
  if (!probe_->spans.enabled()) return inner_->Boundary(shard);
  Span span;
  span.name = "shard.boundary";
  span.id = probe_->spans.NewId();
  span.parent = tls_current.span;
  span.request = tls_current.request;
  span.start_ms = NowMs();
  StatusOr<BoundaryExport> exported = inner_->Boundary(shard);
  span.end_ms = NowMs();
  span.args = {{"shard", static_cast<double>(shard)}};
  if (exported.ok()) {
    span.args.emplace_back("vertices",
                           static_cast<double>(exported->vertices.size()));
    span.args.emplace_back("cut", static_cast<double>(exported->cut_edges.size()));
  }
  probe_->spans.Record(std::move(span));
  return exported;
}

ProbedUpdater::ProbedUpdater(Probe* probe, std::shared_ptr<const BigIndex> index,
                             std::shared_ptr<const QueryEngine> engine,
                             const QueryEngineOptions& engine_options,
                             SearchService* service)
    : probe_(probe), service_(service) {
  LiveUpdaterOptions options;
  options.maintain.fallback_dirty_ratio = 0.5;  // bigindex_serverd default
  options.engine = engine_options;
  // Runs right after the successor engine is constructed, under writer_.
  options.configure_engine = [this](QueryEngine&) { configured_ms_ = NowMs(); };
  updater_ = std::make_unique<LiveUpdater>(std::move(index), std::move(engine),
                                           std::move(options));
  updater_->set_swap([this](std::shared_ptr<const QueryEngine> next) {
    swap_start_ms_ = NowMs();
    const uint64_t epoch = service_->SwapEngine(std::move(next));
    swap_end_ms_ = NowMs();
    probe_->swaps.fetch_add(1, std::memory_order_release);
    return epoch;
  });
  service_->set_updater(
      [this](std::span<const GraphUpdate> updates) { return Apply(updates); });
  service_->set_rollbacker([this] {
    std::lock_guard<std::mutex> lock(writer_);
    return updater_->Rollback();
  });
}

StatusOr<UpdateOutcome> ProbedUpdater::Apply(
    std::span<const GraphUpdate> updates) {
  const double requested = NowMs();
  std::lock_guard<std::mutex> lock(writer_);
  const double locked = NowMs();
  configured_ms_ = swap_start_ms_ = swap_end_ms_ = 0;
  MaintainReport report;
  StatusOr<UpdateOutcome> outcome = updater_->Apply(updates, &report);
  const double done = NowMs();
  if (!probe_->spans.enabled()) return outcome;

  Span apply;
  apply.name = "update.apply";
  apply.id = probe_->spans.NewId();
  apply.parent = tls_current.span;
  apply.request = tls_current.request;
  apply.start_ms = requested;
  apply.end_ms = done;
  apply.args = {{"ok", outcome.ok() ? 1.0 : 0.0},
                {"applied", outcome.ok() ? double(outcome->applied) : 0.0}};

  Span wait;
  wait.name = "update.writer_wait";
  wait.id = probe_->spans.NewId();
  wait.parent = apply.id;
  wait.request = apply.request;
  wait.start_ms = requested;
  wait.end_ms = locked;
  probe_->spans.Record(std::move(wait));

  if (outcome.ok() && outcome->mode != UpdateOutcome::Mode::kNone) {
    // MaintainReport times the four steps of every layer; what remains of
    // the interval up to the configure_engine hook is the rest of the
    // maintenance call plus constructing the successor engine.
    Span maintain;
    maintain.name = "update.maintain";
    maintain.id = probe_->spans.NewId();
    maintain.parent = apply.id;
    maintain.request = apply.request;
    maintain.start_ms = locked;
    maintain.end_ms = configured_ms_;
    double steps_ms = 0;
    size_t kept_local = 0;
    for (size_t i = 0; i < report.layers.size(); ++i) {
      const MaintainLayerReport& layer = report.layers[i];
      const double ms = layer.configure_ms + layer.generalize_ms +
                        layer.correspondence_ms + layer.refine_ms;
      steps_ms += ms;
      if (layer.mode != LayerMaintenance::kWholesale) ++kept_local;
      maintain.args.emplace_back("maintain_ms.L" + std::to_string(i + 1), ms);
    }
    maintain.args.emplace_back("maintain_ms", steps_ms);
    maintain.args.emplace_back("engine_build_ms",
                               maintain.DurationMs() - steps_ms);
    maintain.args.emplace_back("layers",
                               static_cast<double>(report.layers.size()));
    maintain.args.emplace_back("non_wholesale_layers",
                               static_cast<double>(kept_local));
    probe_->spans.Record(std::move(maintain));

    Span swap;
    swap.name = "update.swap";
    swap.id = probe_->spans.NewId();
    swap.parent = apply.id;
    swap.request = apply.request;
    swap.start_ms = swap_start_ms_;
    swap.end_ms = swap_end_ms_;
    probe_->spans.Record(std::move(swap));
  }
  probe_->spans.Record(std::move(apply));
  return outcome;
}

}  // namespace perfbench
