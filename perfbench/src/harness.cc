#include "harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#include <time.h>

#include "util/random.h"

namespace perfbench {

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, p);
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

double HighestSupportedPercentile(size_t n) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (SamplesBeyond(n, p) >= 10) best = p;
  }
  return best;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::vector<bool> CalmWindows(const std::vector<double>& window_p50) {
  std::vector<double> measured;
  for (double p50 : window_p50) {
    if (!std::isnan(p50)) measured.push_back(p50);
  }
  const double cut = Percentile(measured, 25);
  std::vector<bool> calm;
  for (double p50 : window_p50) calm.push_back(p50 <= cut);
  return calm;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  bigindex::Rng rng(seed * 0x100000001B3ULL + salt);
  return rng.Next();
}

std::vector<Op> BuildOpStream(const StreamParams& params, uint64_t seed) {
  std::vector<Op> ops;
  const double horizon_ms = params.seconds * 1000.0;

  // Popularity: Zipf ranks over a seeded permutation of the hot entries, so
  // the most popular ones are a random subset rather than the first ones
  // generated.
  bigindex::Rng perm_rng(DeriveSeed(seed, 1));
  std::vector<uint32_t> by_rank(params.hot_pool);
  std::iota(by_rank.begin(), by_rank.end(), 0u);
  for (size_t i = by_rank.size(); i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[perm_rng.Uniform(i)]);
  }
  if (params.read_rate > 0 && params.hot_pool > 0) {
    bigindex::ZipfSampler zipf(params.hot_pool, params.zipf);
    bigindex::Rng rng(DeriveSeed(seed, 2));
    size_t next_cold = 0;
    const double gap_ms = 1000.0 / params.read_rate;
    // Cold reads are spread evenly (every 1/cold_share-th read, from a
    // seeded phase), so every stretch of the run holds the same share of
    // misses.
    double cold_credit = rng.NextDouble();
    for (double t = rng.NextDouble() * gap_ms; t < horizon_ms; t += gap_ms) {
      uint32_t entry;
      cold_credit += params.cold_share;
      if (params.cold_pool > 0 && cold_credit >= 1) {
        cold_credit -= 1;
        entry = static_cast<uint32_t>(params.hot_pool +
                                      next_cold++ % params.cold_pool);
      } else {
        entry = by_rank[zipf.Sample(rng)];
      }
      ops.push_back({t, Op::Kind::kRead, entry});
    }
  }
  if (params.update_rate > 0 && params.toggle_edges > 0) {
    // Whole remove/re-add pairs only, so a run leaves the graph as it found
    // it and a second pass can replay the same toggles.
    const double gap_ms = 1000.0 / params.update_rate;
    size_t count = static_cast<size_t>(horizon_ms / gap_ms + 0.5);
    count -= count % 2;
    const uint32_t cycle = static_cast<uint32_t>(2 * params.toggle_edges);
    for (uint32_t ordinal = 0; ordinal < count; ++ordinal) {
      ops.push_back({gap_ms / 2 + ordinal * gap_ms, Op::Kind::kUpdate,
                     ordinal % cycle});
    }
  }
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    return a.due_ms < b.due_ms;
  });
  return ops;
}

size_t ColdPoolSize(double read_rate, double seconds, double cold_share) {
  return static_cast<size_t>(std::ceil(read_rate * seconds * cold_share * 1.2)) +
         16;
}

double OpTiming::LatenessMs() const {
  return send_ms - std::max(due_ms, take_ms);
}

double NowMs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

namespace {
double ClockMs(clockid_t clock) {
  struct timespec ts;
  clock_gettime(clock, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}
}  // namespace

double ProcessCpuMs() { return ClockMs(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuMs() { return ClockMs(CLOCK_THREAD_CPUTIME_ID); }

std::vector<OpTiming> RunOpenLoop(const std::vector<double>& due_ms,
                                  size_t workers, const SendFn& send) {
  std::vector<OpTiming> timings(due_ms.size());
  std::atomic<size_t> next{0};
  const auto origin = std::chrono::steady_clock::now();
  auto since_origin = [origin] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - origin)
        .count();
  };
  auto loop = [&](size_t worker) {
    for (;;) {
      const double cpu0 = ThreadCpuMs();
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= due_ms.size()) return;
      OpTiming& t = timings[i];
      t.due_ms = due_ms[i];
      t.take_ms = since_origin();
      if (t.take_ms < t.due_ms) {
        std::this_thread::sleep_until(
            origin + std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(t.due_ms)));
      }
      t.send_ms = since_origin();
      send(worker, i);
      t.done_ms = since_origin();
      t.client_cpu_ms = ThreadCpuMs() - cpu0;
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) threads.emplace_back(loop, w);
  for (std::thread& th : threads) th.join();
  return timings;
}

ProcessCpuSampler::ProcessCpuSampler(double period_ms) {
  samples_.push_back(ProcessCpuMs());
  const auto origin = std::chrono::steady_clock::now();
  thread_ = std::thread([this, origin, period_ms] {
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t k = 1;; ++k) {
      const auto at = origin + std::chrono::duration_cast<
                                   std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double, std::milli>(
                                       k * period_ms));
      if (cv_.wait_until(lock, at, [this] { return stop_; })) return;
      samples_.push_back(ProcessCpuMs());
    }
  });
}

ProcessCpuSampler::~ProcessCpuSampler() { Stop(); }

std::vector<double> ProcessCpuSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
    samples_.push_back(ProcessCpuMs());
  }
  return samples_;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

std::vector<double> SpinProbe() {
  // A fixed amount of dependent integer work per thread (~30 ms on one
  // core); the wall time with k threads shows how many cores really run.
  auto spin = [] {
    volatile uint64_t sink = 0;
    uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
  };
  auto wall_ms = [&](size_t k) {
    const double start = NowMs();
    std::vector<std::thread> threads;
    for (size_t i = 0; i < k; ++i) threads.emplace_back(spin);
    for (std::thread& th : threads) th.join();
    return NowMs() - start;
  };
  const double t1 = wall_ms(1);
  std::vector<double> out;
  for (size_t k : {1u, 2u, 4u}) {
    const double tk = k == 1 ? t1 : wall_ms(k);
    out.push_back(static_cast<double>(k) * t1 / tk);
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"' + JsonEscape(key) + "\": ";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += '"' + JsonEscape(value) + '"';
  return *this;
}

JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  Key(key);
  body_ += value.ToString();
  return *this;
}

std::string JsonObject::ToString() const { return "{" + body_ + "}"; }

}  // namespace perfbench
