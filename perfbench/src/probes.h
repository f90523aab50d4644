// Decorators around the program's public interfaces, timed from outside:
//
//   TimedService    QueryService in front of the TcpServer (a SearchService
//                   or the ShardedSearchService coordinator);
//   TimedSubstrate  ShardSubstrate between the coordinator and its shards;
//   ProbedUpdater   LiveUpdater wired to a SearchService the way
//                   bigindex_serverd wires it, with timestamps taken at the
//                   set_updater, configure_engine and set_swap hooks.
//
// With tracing off every call is forwarded untouched (one relaxed load), so
// the untraced runs serve through the same stack.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "bigindex.h"
#include "trace.h"

namespace perfbench {

struct Probe {
  SpanRecorder spans;
  /// Requests the sender threads have on the wire, by request key.
  InflightRegistry client_requests;
  /// Queries inside TimedService, by query key (parents of shard calls).
  InflightRegistry service_calls;
  /// Engine swaps completed, and swaps whose first read was marked.
  std::atomic<uint64_t> swaps{0};
  std::atomic<uint64_t> swaps_marked{0};

  /// True exactly once per completed swap: for the first read that starts
  /// after it.
  bool ClaimFirstReadAfterSwap();
};

/// Key a request is linked by across layers: algorithm plus the sorted,
/// de-duplicated keyword ids.
std::string QueryKey(const std::string& algorithm,
                     std::vector<bigindex::LabelId> keywords);

/// Key of an update request: its wire line.
std::string UpdateKey(std::span<const bigindex::GraphUpdate> updates);

class TimedService : public bigindex::QueryService {
 public:
  TimedService(bigindex::QueryService* inner, Probe* probe)
      : inner_(inner), probe_(probe) {}

  bigindex::StatusOr<bigindex::QueryResult> Query(
      bigindex::EngineQuery query) override;
  bigindex::StatusOr<bigindex::UpdateOutcome> ApplyUpdate(
      std::span<const bigindex::GraphUpdate> updates) override;

  uint64_t epoch() const override { return inner_->epoch(); }
  uint64_t BumpEpoch() override { return inner_->BumpEpoch(); }
  bigindex::ServiceStats Snapshot() const override {
    return inner_->Snapshot();
  }
  std::vector<std::string> AlgorithmNames() const override {
    return inner_->AlgorithmNames();
  }
  bigindex::ServiceIdentity Identity() const override {
    return inner_->Identity();
  }
  bigindex::StatusOr<uint64_t> Rollback() override {
    return inner_->Rollback();
  }
  bigindex::StatusOr<bigindex::BoundaryExport> Boundary() override {
    return inner_->Boundary();
  }

 private:
  bigindex::QueryService* inner_;
  Probe* probe_;
};

class TimedSubstrate : public bigindex::ShardSubstrate {
 public:
  TimedSubstrate(bigindex::ShardSubstrate* inner, Probe* probe)
      : inner_(inner), probe_(probe) {}

  size_t num_shards() const override { return inner_->num_shards(); }
  bigindex::StatusOr<bigindex::ShardInfo> Info(size_t shard) override {
    return inner_->Info(shard);
  }
  bigindex::StatusOr<bigindex::QueryResult> Query(
      size_t shard, const bigindex::EngineQuery& query) override;
  bigindex::StatusOr<uint64_t> BumpEpoch(size_t shard) override {
    return inner_->BumpEpoch(shard);
  }
  bigindex::StatusOr<bigindex::UpdateOutcome> Update(
      size_t shard,
      std::span<const bigindex::GraphUpdate> updates) override {
    return inner_->Update(shard, updates);
  }
  bigindex::StatusOr<uint64_t> Rollback(size_t shard) override {
    return inner_->Rollback(shard);
  }
  bigindex::StatusOr<bigindex::BoundaryExport> Boundary(
      size_t shard) override;

 private:
  bigindex::ShardSubstrate* inner_;
  Probe* probe_;
};

class ProbedUpdater {
 public:
  /// Wires a LiveUpdater over (index, engine) into `service`: write path,
  /// rollback path and swap hook. `service` must outlive this object.
  ProbedUpdater(Probe* probe, std::shared_ptr<const bigindex::BigIndex> index,
                std::shared_ptr<const bigindex::QueryEngine> engine,
                const bigindex::QueryEngineOptions& engine_options,
                bigindex::SearchService* service);

  ProbedUpdater(const ProbedUpdater&) = delete;
  ProbedUpdater& operator=(const ProbedUpdater&) = delete;

 private:
  bigindex::StatusOr<bigindex::UpdateOutcome> Apply(
      std::span<const bigindex::GraphUpdate> updates);

  Probe* probe_;
  bigindex::SearchService* service_;
  /// Serializes Apply in front of the updater's own writer mutex, so the
  /// time a batch waits for the writer is observable from outside.
  std::mutex writer_;
  double configured_ms_ = 0;  // guarded by writer_
  double swap_start_ms_ = 0;  // guarded by writer_
  double swap_end_ms_ = 0;    // guarded by writer_
  std::unique_ptr<bigindex::LiveUpdater> updater_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
