// In-memory span recording for the traced run. Spans are kept in one
// vector and written out as chrome://tracing JSON when the run ends; a
// layer's self time is its span minus the union of its children.
//
// Spans are recorded only from the benchmark's own files: the sender
// threads and the decorators in probes.h around the program's public
// interfaces. Nothing inside the program is instrumented.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string detail;  // e.g. the algorithm of a query span
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by every span of one request; 0 = none
  double start_ms = 0;
  double end_ms = 0;
  uint32_t thread = 0;   // set by Record when 0
  std::vector<std::pair<std::string, double>> args;

  double DurationMs() const { return end_ms - start_ms; }
  double Arg(const std::string& key, double fallback = 0) const;
};

class SpanRecorder {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_release); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(Span span);
  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Small dense id of the calling thread, for the trace's tid column.
uint32_t ThreadOrdinal();

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval that its children's intervals cover.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// chrome://tracing "traceEvents" JSON of `spans`.
std::string ChromeTraceJson(const std::vector<Span>& spans);

/// Links spans across threads by request identity. The layer that starts a
/// request registers (request, span id) under the request's key; the layer
/// it calls into looks the key up. Requests with equal keys are served in
/// the order they were registered; when two identical requests are in
/// flight at once their spans may be swapped, which changes no duration.
class InflightRegistry {
 public:
  struct Entry {
    uint64_t request = 0;
    uint64_t span = 0;
  };

  void Add(const std::string& key, Entry entry);
  /// Removes and returns the oldest entry under `key` (zeros if none).
  Entry Claim(const std::string& key);
  /// Returns the oldest entry under `key` without removing it.
  Entry Peek(const std::string& key) const;
  /// Removes the entry with span id `span` under `key`.
  void Remove(const std::string& key, uint64_t span);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::deque<Entry>> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
