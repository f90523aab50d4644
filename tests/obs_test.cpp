// Observability tests: counter exactness under concurrent increments (the
// suite tools/ci.sh re-runs under ThreadSanitizer), histogram quantiles
// against a sorted-vector oracle, registry identity / kind-mismatch /
// Prometheus exposition contracts, and span nesting with a chrome://tracing
// dump round-trip.
//
// Tracer tests share the process-wide Tracer::Global() (TRACE_SPAN has no
// registry parameter), so each one starts with SetEnabled + Clear; metrics
// tests use private MetricsRegistry instances throughout.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"

namespace bigindex {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge

TEST(MetricsTest, ConcurrentCounterIncrementsAreExact) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("t_total", "test");
  constexpr int kThreads = 8;
  constexpr int kIncs = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncs; ++i) counter.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), static_cast<uint64_t>(kThreads) * kIncs);

  counter.Inc(5);
  EXPECT_EQ(counter.value(), static_cast<uint64_t>(kThreads) * kIncs + 5);
}

TEST(MetricsTest, GaugeTracksLevel) {
  MetricsRegistry registry;
  Gauge& gauge = registry.GetGauge("t_depth", "test");
  gauge.Set(10);
  gauge.Add(5);
  gauge.Sub(12);
  EXPECT_EQ(gauge.value(), 3);
  gauge.Sub(7);
  EXPECT_EQ(gauge.value(), -4);  // signed: transient negatives are legal
}

// ---------------------------------------------------------------------------
// Histogram

/// The header's documented bucket function, restated independently.
size_t OracleBucket(double v) {
  if (!(v > Histogram::kBase)) return 0;
  double idx = std::log(v / Histogram::kBase) / std::log(Histogram::kGrowth);
  return std::min(Histogram::kBuckets - 1, static_cast<size_t>(idx));
}

TEST(MetricsTest, HistogramQuantileMatchesSortedOracle) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("t_ms", "test");
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform over ~6 decades: exercises many distinct buckets.
    values.push_back(1e-3 * std::pow(10.0, rng.NextDouble() * 6.0));
    hist.Record(values.back());
  }
  std::sort(values.begin(), values.end());

  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    // The implementation's documented rank convention: 1-based ceiling.
    size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(q * values.size())));
    double oracle = values[rank - 1];
    double estimate = hist.Quantile(q);
    // The estimate is the upper bound of the oracle value's bucket: never
    // below the true value, and at most one growth factor above it.
    EXPECT_EQ(estimate, Histogram::BucketUpper(OracleBucket(oracle)))
        << "q=" << q;
    EXPECT_GE(estimate, oracle) << "q=" << q;
    EXPECT_LE(estimate, oracle * Histogram::kGrowth * 1.0001) << "q=" << q;
  }
}

TEST(MetricsTest, HistogramEmptyAndEdgeValues) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("t_ms", "test");
  EXPECT_EQ(hist.Quantile(0.5), 0);
  EXPECT_EQ(hist.count(), 0u);

  hist.Record(0.0);    // at/below kBase -> bucket 0
  hist.Record(-1.0);   // negative -> bucket 0, sum may go down
  hist.Record(1e9);    // beyond the range -> last bucket
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_EQ(hist.Quantile(0.01), Histogram::BucketUpper(0));
  EXPECT_EQ(hist.Quantile(1.0),
            Histogram::BucketUpper(Histogram::kBuckets - 1));
}

TEST(MetricsTest, HistogramConcurrentRecordsAllCounted) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("t_ms", "test");
  constexpr int kThreads = 4;
  constexpr int kRecords = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      Rng rng(static_cast<uint64_t>(t));
      for (int i = 0; i < kRecords; ++i) hist.Record(rng.NextDouble() * 10);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads) * kRecords);
  EXPECT_GT(hist.sum(), 0);
}

// ---------------------------------------------------------------------------
// Registry

TEST(MetricsTest, SameNameAndLabelsReturnSameMetric) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("t_total", "test");
  Counter& b = registry.GetCounter("t_total", "ignored on re-registration");
  EXPECT_EQ(&a, &b);

  Counter& bkws = registry.GetCounter("t_total", "test", R"(algo="bkws")");
  Counter& blinks = registry.GetCounter("t_total", "test", R"(algo="blinks")");
  EXPECT_NE(&bkws, &blinks);
  EXPECT_NE(&a, &bkws);
  EXPECT_EQ(&bkws, &registry.GetCounter("t_total", "test", R"(algo="bkws")"));
  EXPECT_EQ(registry.NumSeries(), 3u);
}

TEST(MetricsTest, KindMismatchDetachesInsteadOfAliasing) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("t_total", "test");
  counter.Inc(7);
  Gauge& wrong = registry.GetGauge("t_total", "test");
  wrong.Set(99);  // usable, but parked off to the side
  EXPECT_EQ(counter.value(), 7u);  // the counter was not corrupted

  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE t_total counter"), std::string::npos);
  EXPECT_EQ(text.find("t_total 99"), std::string::npos);
  EXPECT_NE(text.find("bigindex_obs_detached_total 1"), std::string::npos);
}

/// Minimal structural check of the exposition format: every line is either a
/// comment or `name[{labels}] value` with a parseable finite value. Shared
/// idea with the server test's METRICS assertions.
void ExpectParseablePrometheus(const std::string& text) {
  size_t start = 0;
  int samples = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "unterminated last line";
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) FAIL() << "blank line in exposition";
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      continue;
    }
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    char* parse_end = nullptr;
    double v = std::strtod(line.c_str() + sp + 1, &parse_end);
    EXPECT_EQ(*parse_end, '\0') << line;
    EXPECT_TRUE(std::isfinite(v)) << line;
    std::string name_part = line.substr(0, sp);
    size_t brace = name_part.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name_part.back(), '}') << line;
    }
    ++samples;
  }
  EXPECT_GT(samples, 0);
}

TEST(MetricsTest, RenderPrometheusShape) {
  MetricsRegistry registry;
  registry.GetCounter("t_total", "plain counter").Inc(3);
  registry.GetCounter("t_total", "plain counter", R"(algo="bkws")").Inc(2);
  registry.GetGauge("t_depth", "a gauge").Set(-4);
  Histogram& h = registry.GetHistogram("t_ms", "a histogram");
  h.Record(0.5);
  h.Record(2.0);

  std::string text = registry.RenderPrometheus();
  ExpectParseablePrometheus(text);
  EXPECT_NE(text.find("# HELP t_total plain counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("\nt_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("t_total{algo=\"bkws\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("t_depth -4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_ms summary\n"), std::string::npos);
  EXPECT_NE(text.find("t_ms{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("t_ms{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("t_ms_sum"), std::string::npos);
  EXPECT_NE(text.find("t_ms_count 2\n"), std::string::npos);
}

TEST(MetricsTest, ConcurrentRegistrationIsIdempotent) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      Counter& c = registry.GetCounter("t_total", "test");
      c.Inc();
      seen[static_cast<size_t>(t)] = &c;
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[0], seen[t]);
  EXPECT_EQ(seen[0]->value(), static_cast<uint64_t>(kThreads));
  EXPECT_EQ(registry.NumSeries(), 1u);
}

// ---------------------------------------------------------------------------
// Tracer

/// Extracts the ts / dur fields of the first event named `name` in a dump.
struct ParsedSpan {
  bool found = false;
  uint64_t ts = 0;
  uint64_t dur = 0;
};
ParsedSpan FindSpan(const std::string& json, const std::string& name) {
  ParsedSpan span;
  size_t at = json.find("{\"name\":\"" + name + "\"");
  if (at == std::string::npos) return span;
  size_t ts_at = json.find("\"ts\":", at);
  size_t dur_at = json.find("\"dur\":", at);
  if (ts_at == std::string::npos || dur_at == std::string::npos) return span;
  span.found = true;
  span.ts = std::strtoull(json.c_str() + ts_at + 5, nullptr, 10);
  span.dur = std::strtoull(json.c_str() + dur_at + 6, nullptr, 10);
  return span;
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(false);
  tracer.Clear();
  {
    TRACE_SPAN("test/never");
  }
  Tracer::Stats stats = tracer.GetStats();
  EXPECT_FALSE(stats.enabled);
  EXPECT_EQ(stats.events, 0u);
  EXPECT_EQ(Tracer::Global().DumpJson().find("test/never"),
            std::string::npos);
}

TEST(TraceTest, NestedSpansDumpWithTimeContainment) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(true);
  tracer.Clear();
  {
    TRACE_SPAN("test/outer");
    {
      TRACE_SPAN("test/inner");
      // Volatile spin so inner (and outer) have measurable width even on a
      // coarse steady clock.
      volatile uint64_t sink = 0;
      for (int i = 0; i < 200000; ++i) sink = sink + static_cast<uint64_t>(i);
    }
  }
  tracer.SetEnabled(false);

  std::string json = tracer.DumpJson();
  // Single line, chrome://tracing shape.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  ParsedSpan outer = FindSpan(json, "test/outer");
  ParsedSpan inner = FindSpan(json, "test/inner");
  ASSERT_TRUE(outer.found);
  ASSERT_TRUE(inner.found);
  // chrome://tracing nests by time containment; the inner interval must sit
  // inside the outer one.
  EXPECT_GE(inner.ts, outer.ts);
  EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur);

  EXPECT_EQ(tracer.GetStats().events, 2u);
  tracer.Clear();
  EXPECT_EQ(tracer.GetStats().events, 0u);
  EXPECT_EQ(tracer.DumpJson().find("test/outer"), std::string::npos);
}

TEST(TraceTest, RingOverwriteCountsDropped) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(true);
  tracer.Clear();
  constexpr uint64_t kExtra = 7;
  for (uint64_t i = 0; i < Tracer::kRingCapacity + kExtra; ++i) {
    tracer.Append("test/flood", i, 1);
  }
  tracer.SetEnabled(false);
  Tracer::Stats stats = tracer.GetStats();
  EXPECT_EQ(stats.events, Tracer::kRingCapacity);
  EXPECT_EQ(stats.dropped, kExtra);
  tracer.Clear();
}

TEST(TraceTest, ConcurrentSpansFromManyThreads) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(true);
  tracer.Clear();
  constexpr int kThreads = 4;
  constexpr int kSpans = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kSpans; ++i) {
        TRACE_SPAN("test/worker");
        if (i % 100 == 0) (void)tracer.DumpJson();  // dump while appending
      }
    });
  }
  for (auto& t : threads) t.join();
  tracer.SetEnabled(false);
  Tracer::Stats stats = tracer.GetStats();
  EXPECT_EQ(stats.events + stats.dropped,
            static_cast<uint64_t>(kThreads) * kSpans);
  tracer.Clear();
}

}  // namespace
}  // namespace bigindex
