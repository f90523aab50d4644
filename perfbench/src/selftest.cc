// Self-tests of the harness's own helpers (perfbench --self-test; run.py
// runs them before every measurement). The check that the output names
// every metric BENCHMARK.json declares lives in run.py, which reads that
// file.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
  }
}

void PercentileConvention() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Expect(PercentileSorted(v, 50) == 50, "nearest-rank p50 of 1..100 is 50");
  Expect(PercentileSorted(v, 99) == 99, "nearest-rank p99 of 1..100 is 99");
  Expect(PercentileSorted(v, 100) == 100, "p100 is the maximum");
  Expect(Percentile({3, 1, 2}, 50) == 2, "Percentile sorts its input");
  Expect(SamplesBeyond(10000, 99.9) == 10, "10 samples beyond p99.9 of 10000");
  Expect(SamplesBeyond(1000, 99) == 10, "10 samples beyond p99 of 1000");
  Expect(HighestSupportedPercentile(10000) == 99.9, "n=10000 supports p99.9");
  Expect(HighestSupportedPercentile(9999) == 99, "n=9999 supports only p99");
  Expect(HighestSupportedPercentile(100) == 90, "n=100 supports p90");
  Expect(HighestSupportedPercentile(1000) == 99, "n=1000 supports p99");
  Expect(HighestSupportedPercentile(19) == 0, "n=19 supports nothing");
  std::vector<double> p50;
  for (int i = 0; i < 20; ++i) p50.push_back(1.0 + 0.1 * (i % 10));
  p50.push_back(std::nan(""));
  std::vector<bool> expected;
  for (int i = 0; i < 20; ++i) expected.push_back(i % 10 <= 2);
  expected.push_back(false);
  Expect(CalmWindows(p50) == expected,
         "calm windows are those at or below the 25th percentile of their "
         "median read latency; a window without reads is never calm");
  Expect(CalmWindows({2, 2, 2}) == std::vector<bool>(3, true),
         "equal medians keep every window");
}

void OpenLoopTimesFromDue() {
  // One worker; op 0 stalls 60 ms, ops 1 and 2 are due during the stall.
  // Timed from due they carry the stall; timed from send they would not.
  const std::vector<double> due = {0, 10, 20};
  std::vector<OpTiming> t = RunOpenLoop(due, 1, [](size_t, size_t op) {
    if (op == 0) std::this_thread::sleep_for(std::chrono::milliseconds(60));
  });
  Expect(t.size() == 3, "one timing per op");
  Expect(t[1].LatencyMs() >= 45, "op due during a stall is charged the stall");
  Expect(t[2].LatencyMs() >= 35, "every queued op is charged the stall");
  Expect(t[1].done_ms - t[1].send_ms < 20, "its own service time is short");
  Expect(t[1].LatenessMs() < 20,
         "waiting for a busy connection is not generator lateness");
  // Ops not yet due are held until due.
  std::vector<OpTiming> idle =
      RunOpenLoop({0, 30}, 2, [](size_t, size_t) {});
  Expect(idle[1].send_ms >= 29.5, "an op is not sent before it is due");
  // The client CPU clock counts the worker's own work, not its sleep.
  std::vector<OpTiming> cpu = RunOpenLoop({0, 0}, 1, [](size_t, size_t op) {
    if (op == 0) {
      const double start = ThreadCpuMs();
      while (ThreadCpuMs() - start < 20) {
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  Expect(cpu[0].client_cpu_ms >= 20 && cpu[0].client_cpu_ms < 40,
         "a spinning op is charged its CPU time");
  Expect(cpu[1].client_cpu_ms < 5, "a sleeping op is charged no CPU time");
}

void CpuSamplerKeepsPeriod() {
  const double wall0 = NowMs();
  ProcessCpuSampler sampler(10);
  const double start = ThreadCpuMs();
  while (ThreadCpuMs() - start < 35) {
  }
  const std::vector<double> samples = sampler.Stop();
  const double periods = (NowMs() - wall0) / 10;
  bool ascending = true;
  for (size_t i = 1; i < samples.size(); ++i) {
    ascending &= samples[i] >= samples[i - 1];
  }
  Expect(samples.size() >= 3 && samples.size() <= periods + 2,
         "the sampler takes one sample per period");
  Expect(ascending && samples.back() - samples.front() >= 25,
         "samples follow the process's CPU clock");
}

void SameSeedSameStream() {
  StreamParams p;
  p.read_rate = 500;
  p.update_rate = 10;
  p.seconds = 2;
  p.hot_pool = 200;
  p.zipf = 1.0;
  p.cold_share = 0.1;
  p.cold_pool = ColdPoolSize(p.read_rate, p.seconds, p.cold_share);
  p.toggle_edges = 11;
  const std::vector<Op> a = BuildOpStream(p, 7);
  const std::vector<Op> b = BuildOpStream(p, 7);
  const std::vector<Op> c = BuildOpStream(p, 8);
  Expect(a == b, "same seed gives the same op stream");
  Expect(a != c, "another seed gives another op stream");
  size_t reads = 0, updates = 0, hottest = 0, cold = 0;
  std::vector<size_t> freq(p.hot_pool + p.cold_pool);
  bool ascending = true, alternating = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].due_ms < a[i - 1].due_ms) ascending = false;
    if (a[i].kind == Op::Kind::kRead) {
      ++reads;
      hottest = std::max(hottest, ++freq[a[i].index]);
      if (a[i].index >= p.hot_pool) ++cold;
    } else {
      if (a[i].index != updates) alternating = false;
      ++updates;
    }
  }
  Expect(ascending, "ops are ordered by due time");
  Expect(reads > 850 && reads < 1150, "read count near rate * seconds");
  Expect(updates == 20, "update count is rate * seconds, whole pairs");
  Expect(alternating, "toggles run remove/re-add in ordinal order");
  Expect(hottest > 5 * reads / p.hot_pool, "hot reads are Zipf-skewed");
  Expect(cold >= reads / 10 - 1 && cold <= reads / 10 + 1,
         "cold reads are cold_share of the reads");
  bool cold_once = true;
  for (size_t e = p.hot_pool; e < freq.size(); ++e) cold_once &= freq[e] <= 1;
  Expect(cold_once, "no cold entry repeats");
}

void SelfTimeSubtractsChildren() {
  std::vector<Span> spans(3);
  spans[0].id = 1;
  spans[0].start_ms = 0;
  spans[0].end_ms = 10;
  spans[1].id = 2;
  spans[1].parent = 1;
  spans[1].start_ms = 2;
  spans[1].end_ms = 6;
  spans[2].id = 3;
  spans[2].parent = 1;
  spans[2].start_ms = 4;  // overlaps its sibling: covered once
  spans[2].end_ms = 8;
  const std::vector<double> self = SelfTimes(spans);
  Expect(self[0] == 4, "self time is the span minus its children's union");
  Expect(self[1] == 4 && self[2] == 4, "leaf self time is its duration");
}

}  // namespace

int RunSelfTests() {
  PercentileConvention();
  OpenLoopTimesFromDue();
  CpuSamplerKeepsPeriod();
  SameSeedSameStream();
  SelfTimeSubtractsChildren();
  std::fprintf(stderr, "perfbench self-tests: %s\n",
               failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
