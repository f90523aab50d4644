#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "harness.h"

namespace perfbench {

double Span::Arg(const std::string& key, double fallback) const {
  for (const auto& [k, v] : args) {
    if (k == key) return v;
  }
  return fallback;
}

void SpanRecorder::Record(Span span) {
  if (span.thread == 0) span.thread = ThreadOrdinal();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out = std::move(spans_);
  spans_.clear();
  return out;
}

uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t ordinal = next.fetch_add(1);
  return ordinal;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index_of.find(s.parent);
    if (s.parent == 0 || it == index_of.end()) continue;
    children[it->second].emplace_back(s.start_ms, s.end_ms);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ms);
      hi = std::min(hi, s.end_ms);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = s.DurationMs() - covered;
  }
  return self;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\": [";
  char buf[64];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i) out += ",\n";
    JsonObject args;
    args.Int("request", static_cast<int64_t>(s.request))
        .Int("span", static_cast<int64_t>(s.id))
        .Int("parent", static_cast<int64_t>(s.parent));
    if (!s.detail.empty()) args.Str("detail", s.detail);
    for (const auto& [k, v] : s.args) args.Num(k, v);
    out += "{\"name\": \"" + JsonEscape(s.name) + "\", \"ph\": \"X\", ";
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f, ",
                  s.start_ms * 1000.0, s.DurationMs() * 1000.0);
    out += buf;
    out += "\"pid\": 1, \"tid\": " + std::to_string(s.thread) +
           ", \"args\": " + args.ToString() + "}";
  }
  out += "]}\n";
  return out;
}

void InflightRegistry::Add(const std::string& key, Entry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_[key].push_back(entry);
}

InflightRegistry::Entry InflightRegistry::Claim(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.empty()) return {};
  Entry e = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) entries_.erase(it);
  return e;
}

InflightRegistry::Entry InflightRegistry::Peek(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.empty()) return {};
  return it->second.front();
}

void InflightRegistry::Remove(const std::string& key, uint64_t span) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  auto& q = it->second;
  q.erase(std::remove_if(q.begin(), q.end(),
                         [span](const Entry& e) { return e.span == span; }),
          q.end());
  if (q.empty()) entries_.erase(it);
}

}  // namespace perfbench
