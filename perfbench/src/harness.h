// Pure helpers of the serving benchmark: percentile convention, the seeded
// operation stream, and the open-loop sender. They hold no reference to the
// serving stack, so selftest.cc checks them in isolation.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an ascending sample: the value at 1-based rank
/// ceil(p/100 * n). 0 for an empty sample.
double PercentileSorted(const std::vector<double>& sorted, double p);

/// Sorts a copy of `values` and returns its p-th percentile.
double Percentile(std::vector<double> values, double p);

/// Samples ranked strictly above the p-th percentile's rank in a sample of n.
size_t SamplesBeyond(size_t n, double p);

/// The highest of {50, 90, 99, 99.9, 99.99} with at least 10 samples beyond
/// it; 0 when even the median has fewer (n < 20).
double HighestSupportedPercentile(size_t n);

double Mean(const std::vector<double>& values);

/// Marks the windows whose median read latency is at most the 25th
/// percentile of the windows' medians: the quarter of the run the host
/// disturbed least, or more when medians tie (every window when they are
/// all equal). Windows without reads (NaN) are never calm.
std::vector<bool> CalmWindows(const std::vector<double>& window_p50);

// ---------------------------------------------------------------------------
// Operation stream
// ---------------------------------------------------------------------------

/// Reads draw from a pool of hot_pool + cold_pool entries. Every
/// 1/cold_share-th read (evenly spaced, from a seeded phase) is cold and
/// takes the next unused cold entry (a one-off query: a cache miss at a
/// steady rate through the run); the others draw a hot entry Zipf-skewed
/// (repeats: cache hits once the entry is cached).
struct StreamParams {
  double read_rate = 0;    // reads per second (fixed interval, seeded phase)
  double update_rate = 0;  // updates per second (fixed interval); 0 = none
  double seconds = 0;
  size_t hot_pool = 0;     // entries [0, hot_pool)
  size_t cold_pool = 0;    // entries [hot_pool, hot_pool + cold_pool)
  double zipf = 1.0;       // popularity skew over the shuffled hot entries
  double cold_share = 0;
  size_t toggle_edges = 0; // distinct edges the update stream cycles over
};

/// Cold entries a run of `params` needs so that none repeats (with margin
/// for the random count).
size_t ColdPoolSize(double read_rate, double seconds, double cold_share);

struct Op {
  enum class Kind : uint8_t { kRead, kUpdate };
  double due_ms = 0;  // offset from the start of the run
  Kind kind = Kind::kRead;
  /// kRead: pool entry. kUpdate: toggle ordinal t; edge t/2 of the toggle
  /// list, removed when t is even and re-added when t is odd.
  uint32_t index = 0;

  friend bool operator==(const Op&, const Op&) = default;
};

/// Merged read + update stream, ascending by due time. A pure function of
/// (params, seed).
std::vector<Op> BuildOpStream(const StreamParams& params, uint64_t seed);

/// Derives an independent stream seed from the run seed and a salt, so the
/// pool, schedule and edge toggles never share random draws.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

// ---------------------------------------------------------------------------
// Open-loop sender
// ---------------------------------------------------------------------------

/// Per-op timestamps, in ms since the run's start.
struct OpTiming {
  double due_ms = 0;
  double take_ms = 0;  // when a free worker picked the op up
  double send_ms = 0;  // when the request left the worker
  double done_ms = 0;  // when its reply was complete
  /// CPU time the worker spent on the op, its wait for the due time
  /// included, by the worker thread's own clock.
  double client_cpu_ms = 0;

  /// Latency as the user sees it: from when the op was due, so a stall
  /// also charges every op that queued behind it.
  double LatencyMs() const { return done_ms - due_ms; }
  /// How far the generator itself ran behind: send time minus the later
  /// of due time and pick-up time. Waiting for a busy connection is the
  /// server's backlog, not generator lateness.
  double LatenessMs() const;
};

/// Drives `due_ms` (ascending) open loop over `workers` threads. Each worker
/// takes the next op, sleeps until it is due, and calls send(worker, op),
/// which must block until the reply is complete.
using SendFn = std::function<void(size_t worker, size_t op)>;
std::vector<OpTiming> RunOpenLoop(const std::vector<double>& due_ms,
                                  size_t workers, const SendFn& send);

/// Samples the process's CPU time at every multiple of `period_ms` from its
/// construction, on a thread of its own, until Stop().
class ProcessCpuSampler {
 public:
  explicit ProcessCpuSampler(double period_ms);
  ~ProcessCpuSampler();
  /// Stops sampling; returns the samples in ms, the first at construction
  /// and the last at the first Stop().
  std::vector<double> Stop();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> samples_;
  std::thread thread_;
};

/// Milliseconds on the steady clock since an arbitrary process-wide origin.
double NowMs();

/// CPU time of the whole process, and of the calling thread, in ms.
double ProcessCpuMs();
double ThreadCpuMs();

// ---------------------------------------------------------------------------
// Host facts
// ---------------------------------------------------------------------------

/// Peak resident set (VmHWM) of this process in MiB; 0 if unreadable.
double PeakRssMb();

/// Effective parallelism with k spinning threads: k * t(1) / t(k), for
/// k = 1, 2, 4 (an ideal host gives 1, 2, 4).
std::vector<double> SpinProbe();

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

/// Minimal ordered JSON object writer (numbers, strings, nested objects).
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Obj(const std::string& key, const JsonObject& value);
  std::string ToString() const;

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonEscape(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
