// perfbench — the serving benchmark binary (see perfbench/README.md).
//
//   perfbench --workload read-mono|read-sharded|mixed-update --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//   perfbench --self-test
//
// Serves the index the way bigindex_serverd does — an in-process TcpServer
// in front of a QueryService — and drives it over loopback from this
// process through kConnections persistent ProtocolClient connections, on a
// seeded open-loop schedule. Prints one JSON object as its last line:
// correct, attempted, failed, metrics, and an info object for the human
// summary. perfbench/run.py builds this binary and selects the metrics
// BENCHMARK.json declares.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bigindex.h"
#include "harness.h"
#include "probes.h"
#include "trace.h"

namespace perfbench {

int RunSelfTests();  // selftest.cc

namespace {

using namespace bigindex;

// Fixed serving configuration: bigindex_serverd's defaults, with the thread
// counts it would pick on a 4-CPU host written down as constants so the
// benchmark does not change shape with the host it runs on.
constexpr double kScale = 0.01;        // yago3: 26,353 V / 50,790 E
constexpr size_t kLayers = 4;
constexpr size_t kEngineThreads = 4;   // monolithic engine pool
constexpr size_t kShards = 4;          // bfs plan
constexpr size_t kShardEngineThreads = 1;
constexpr size_t kFanoutThreads = 4;
constexpr size_t kConnections = 4;     // persistent client connections
constexpr size_t kTopK = 10;
constexpr double kBeta = 0.5;          // EvalOptions default (Formula 4)

// Measurement rules.
/// setup_s is the median of kSetupReps set-ups: kEarlySetups before the
/// passes (the last one serves them) and the rest after the checks, so the
/// median samples the host at both ends of the run.
constexpr size_t kSetupReps = 11;
constexpr size_t kEarlySetups = 5;
constexpr size_t kMinReadSamples = 10000;
/// Reads the calm windows must hold: 10 beyond their p99.
constexpr size_t kMinCalmReads = 1000;
/// A pass whose generator ran later than this at its p99 measures the host,
/// not the program; it is repeated once and otherwise reported invalid.
constexpr double kMaxLatenessP99Ms = 10.0;
constexpr size_t kFinalCheckSample = 64;
constexpr size_t kFinalRemovals = 8;
constexpr size_t kLayerSweepSample = 48;
constexpr size_t kLayerSweepReps = 3;
/// Per-query deadline of the off-path r-clique measurement: single r-clique
/// queries can take seconds.
constexpr double kRCliqueDeadlineMs = 2000;

const char* const kAlgorithms[] = {"bkws", "blinks", "r-clique",
                                   "bidirectional"};

/// The workloads. Only the mode and the rates differ between them; the
/// traffic shape below is shared.
struct Workload {
  const char* name;
  bool sharded;
  double read_rate;    // reads per second
  double update_rate;  // single-edge UPDATEs per second; 0 = none
};
constexpr Workload kWorkloads[] = {
    {"read-mono", false, 1000, 0},
    {"read-sharded", true, 410, 0},
    {"mixed-update", false, 410, 5},
};

// Traffic shape, shared by every workload. These are assumptions, not
// measured traffic: no query log of this system exists to fit them to.
constexpr size_t kHotPool = 2048;   // hot entries, primed into the cache
constexpr double kColdShare = 0.15; // one-off reads, always cache misses
constexpr double kZipf = 0.5;       // popularity skew over the hot entries
/// Served algorithms, drawn with equal weight. r-clique is measured off the
/// serving path, in the traced run of the monolithic read workload.
const char* const kServedAlgorithms[] = {"bkws", "blinks", "bidirectional"};
constexpr size_t kRCliqueSample = 32;

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) Die(std::string(flag) + " needs a value");
      return argv[++i];
    };
    std::string flag = argv[i];
    if (flag == "--workload") {
      const std::string name = value("--workload");
      for (const Workload& w : kWorkloads) {
        if (name == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) Die("unknown workload " + name);
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value("--seed").c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value("--seconds").c_str());
    } else if (flag == "--trace") {
      a.trace = value("--trace") == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value("--work-dir");
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload == nullptr || a.seconds <= 0 || a.work_dir.empty()) {
    Die("--workload, --seconds and --work-dir are required");
  }
  return a;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct PoolEntry {
  std::vector<LabelId> keywords;  // sorted, distinct
  std::string algorithm;
};

EngineQuery MakeQuery(const PoolEntry& e) {
  EngineQuery q;
  q.keywords = e.keywords;
  q.algorithm = e.algorithm;
  q.eval.top_k = kTopK;
  return q;
}

/// Table-4 queries from several derived GenerateQueryWorkload seeds, each
/// keyword set used once and given the served algorithms in turn, so any
/// run of consecutive cold entries holds them 1:1:1.
std::vector<PoolEntry> BuildPool(const Dataset& ds, uint64_t seed,
                                 size_t size) {
  std::set<std::vector<LabelId>> seen;
  std::vector<PoolEntry> pool;
  for (uint64_t round = 0; pool.size() < size && round < 1000; ++round) {
    QueryGenOptions opt;
    opt.min_count = std::max<size_t>(10, static_cast<size_t>(3000 * kScale));
    opt.seed = DeriveSeed(seed, 100 + round);
    opt.sizes.clear();
    for (size_t i = 0; i < 64; ++i) opt.sizes.push_back(2 + i % 5);
    for (const QuerySpec& spec : GenerateQueryWorkload(ds, opt)) {
      std::vector<LabelId> kw = spec.keywords;
      std::sort(kw.begin(), kw.end());
      kw.erase(std::unique(kw.begin(), kw.end()), kw.end());
      if (kw.size() < 2 || !seen.insert(kw).second) continue;
      const char* algo =
          kServedAlgorithms[pool.size() % std::size(kServedAlgorithms)];
      pool.push_back({std::move(kw), algo});
      if (pool.size() == size) break;
    }
  }
  if (pool.size() < size) Die("query generator ran dry");
  return pool;
}

/// Distinct existing edges the update stream toggles (remove, then re-add).
std::vector<std::pair<VertexId, VertexId>> PickToggleEdges(const Graph& g,
                                                           size_t count,
                                                           uint64_t seed) {
  std::vector<std::pair<VertexId, VertexId>> edges = g.Edges();
  Rng rng(DeriveSeed(seed, 4));
  std::vector<std::pair<VertexId, VertexId>> picked;
  std::set<size_t> used;
  while (picked.size() < count && used.size() < edges.size()) {
    size_t i = rng.Uniform(edges.size());
    if (used.insert(i).second) picked.push_back(edges[i]);
  }
  return picked;
}

GraphUpdate ToggleOp(const std::vector<std::pair<VertexId, VertexId>>& edges,
                     uint32_t ordinal) {
  const auto& [u, v] = edges[ordinal / 2];
  return {ordinal % 2 == 0 ? GraphUpdate::Kind::kRemoveEdge
                           : GraphUpdate::Kind::kAddEdge,
          u, v};
}

// ---------------------------------------------------------------------------
// Answer fingerprints
// ---------------------------------------------------------------------------

/// FNV-1a over the answers in rank order: `full` covers every field,
/// `identity` only (root, score) — the relation that is exact above layer 0
/// for sharded serving (tests/shard_test.cpp).
struct AnswerHash {
  uint64_t full = 1469598103934665603ULL;
  uint64_t identity = 1469598103934665603ULL;

  static void Mix(uint64_t& h, uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void Add(const Answer& a) {
    Mix(identity, a.root);
    Mix(identity, a.score);
    Mix(full, a.root);
    Mix(full, a.score);
    Mix(full, a.keyword_vertices.size());
    for (VertexId v : a.keyword_vertices) Mix(full, v);
    Mix(full, a.vertices.size());
    for (VertexId v : a.vertices) Mix(full, v);
  }
  static AnswerHash Of(const std::vector<Answer>& answers) {
    AnswerHash h;
    for (const Answer& a : answers) h.Add(a);
    return h;
  }
};

// ---------------------------------------------------------------------------
// Serving stack
// ---------------------------------------------------------------------------

struct SetupTimes {
  double build_ms = 0, save_ms = 0, load_ms = 0, engine_ms = 0, serve_ms = 0;
  std::map<std::string, double> warm_ms;
  double total_s = 0;
  double image_bytes = 0;
};

/// Members are destroyed in reverse order: the server stops first, the
/// updater (which holds the service) goes before the service.
struct Stack {
  std::shared_ptr<const QueryEngine> engine;  // monolithic
  std::unique_ptr<SearchService> service;
  std::unique_ptr<ProbedUpdater> updater;
  std::unique_ptr<InProcessSubstrate> shards;  // sharded
  std::unique_ptr<TimedSubstrate> timed_shards;
  std::unique_ptr<ShardedSearchService> coordinator;
  size_t cut_edges = 0;
  size_t ghosts = 0;
  std::unique_ptr<TimedService> front;
  std::unique_ptr<TcpServer> server;

  ~Stack() {
    if (server) server->Stop();
  }
};

double FileBytes(const std::string& path) {
  struct stat st;
  return stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0;
}

std::vector<std::string> PoolAlgorithms(const std::vector<PoolEntry>& pool) {
  std::set<std::string> names;
  for (const PoolEntry& e : pool) names.insert(e.algorithm);
  return {names.begin(), names.end()};
}

/// A single-keyword query: feasible at every layer (Def 4.1 asks only that
/// the generalized keywords stay distinct), and a cache key no pool entry
/// shares, since pool entries have two or more keywords.
EngineQuery WarmQuery(LabelId keyword, const std::string& algo, int layer) {
  EngineQuery q;
  q.keywords = {keyword};
  q.algorithm = algo;
  q.eval.forced_layer = layer;
  q.eval.top_k = 1;
  return q;
}

/// Builds `algo`'s lazy per-layer structures (blinks blocks, r-clique
/// neighbour lists) on every layer of `engine`'s index; returns the ms spent.
double WarmEngine(const QueryEngine& engine, const std::string& algo,
                  LabelId keyword) {
  const double start = NowMs();
  for (size_t m = 0; m <= engine.index().NumLayers(); ++m) {
    if (!engine.Evaluate(WarmQuery(keyword, algo, static_cast<int>(m))).ok()) {
      Die("warm-up query failed");
    }
  }
  return NowMs() - start;
}

std::unique_ptr<Stack> SetupMonolithic(Dataset& ds,
                                       const std::vector<PoolEntry>& pool,
                                       const std::string& image_path,
                                       Probe* probe, SetupTimes* times) {
  auto stack = std::make_unique<Stack>();
  const double t0 = NowMs();
  StatusOr<BigIndex> built = BigIndex::Build(ds.graph, &ds.ontology.ontology,
                                             {.max_layers = kLayers});
  if (!built.ok()) Die(built.status().ToString());
  const double t1 = NowMs();
  Status saved = SaveIndexImageFile(*built, *ds.dict, image_path);
  if (!saved.ok()) Die(saved.ToString());
  built = Status::Unavailable("released");
  const double t2 = NowMs();
  StatusOr<BigIndex> loaded =
      LoadIndexImage(image_path, *ds.dict, &ds.ontology.ontology);
  if (!loaded.ok()) Die(loaded.status().ToString());
  auto index = std::make_shared<const BigIndex>(std::move(loaded).value());
  const double t3 = NowMs();
  const QueryEngineOptions engine_options{.num_threads = kEngineThreads};
  stack->engine = std::make_shared<const QueryEngine>(index, engine_options);
  const double t4 = NowMs();
  for (const std::string& algo : PoolAlgorithms(pool)) {
    times->warm_ms[algo] =
        WarmEngine(*stack->engine, algo, pool.front().keywords.front());
  }
  const double t5 = NowMs();
  stack->service = std::make_unique<SearchService>(stack->engine);
  stack->updater = std::make_unique<ProbedUpdater>(
      probe, index, stack->engine, engine_options, stack->service.get());
  stack->front = std::make_unique<TimedService>(stack->service.get(), probe);
  stack->server = std::make_unique<TcpServer>(stack->front.get(),
                                              ds.dict.get(),
                                              TcpServerOptions{.port = 0});
  Status started = stack->server->Start();
  if (!started.ok()) Die(started.ToString());
  const double t6 = NowMs();
  times->build_ms = t1 - t0;
  times->save_ms = t2 - t1;
  times->load_ms = t3 - t2;
  times->engine_ms = t4 - t3;
  times->serve_ms = t6 - t5;
  times->total_s = (t6 - t0) / 1000.0;
  times->image_bytes = FileBytes(image_path);
  return stack;
}

std::unique_ptr<Stack> SetupSharded(Dataset& ds,
                                    const std::vector<PoolEntry>& pool,
                                    const std::string& image_prefix,
                                    Probe* probe, SetupTimes* times) {
  auto stack = std::make_unique<Stack>();
  const Ontology* ontology = &ds.ontology.ontology;
  const double t0 = NowMs();
  StatusOr<ShardedIndex> built = BuildShardedIndex(
      ds.graph, ontology,
      {.plan = {.num_shards = kShards, .mode = ShardMode::kBfsBlocks},
       .index = {.max_layers = kLayers}});
  if (!built.ok()) Die(built.status().ToString());
  stack->cut_edges = built->plan.CutEdges().size();
  const double t1 = NowMs();
  std::vector<std::string> paths;
  for (const BuiltShard& shard : built->shards) {
    paths.push_back(ShardImagePath(image_prefix, shard.shard.shard_id,
                                   shard.shard.num_shards));
    Status saved = SaveIndexImageFile(shard.index, *ds.dict, shard.shard,
                                      paths.back());
    if (!saved.ok()) Die(saved.ToString());
  }
  built = Status::Unavailable("released");
  const double t2 = NowMs();
  std::vector<BuiltShard> loaded;
  for (const std::string& path : paths) {
    ShardImageInfo info;
    StatusOr<BigIndex> index =
        LoadIndexImage(path, *ds.dict, ontology, {}, &info);
    if (!index.ok()) Die(index.status().ToString());
    stack->ghosts += info.ghosts.size();
    loaded.push_back({std::move(index).value(), std::move(info)});
  }
  const double t3 = NowMs();
  auto substrate = InProcessSubstrate::Create(
      std::move(loaded), {.engine_threads = kShardEngineThreads});
  if (!substrate.ok()) Die(substrate.status().ToString());
  stack->shards = std::move(substrate).value();
  const double t4 = NowMs();
  stack->timed_shards =
      std::make_unique<TimedSubstrate>(stack->shards.get(), probe);
  stack->coordinator = std::make_unique<ShardedSearchService>(
      stack->timed_shards.get(),
      ShardedServiceOptions{.fanout_threads = kFanoutThreads});
  Status attached = stack->coordinator->Attach();
  if (!attached.ok()) Die(attached.ToString());
  const double t5 = NowMs();
  // Warm each shard's lazy structures at every layer, then let the
  // coordinator assemble its boundary region and warm its completion
  // algorithms.
  const LabelId keyword = pool.front().keywords.front();
  for (const std::string& algo : PoolAlgorithms(pool)) {
    const double start = NowMs();
    for (size_t s = 0; s < kShards; ++s) {
      StatusOr<ShardInfo> info = stack->shards->Info(s);
      if (!info.ok()) Die(info.status().ToString());
      for (uint32_t m = 0; m <= info->num_layers; ++m) {
        EngineQuery q = WarmQuery(keyword, algo, static_cast<int>(m));
        if (!stack->shards->Query(s, q).ok()) Die("shard warm-up failed");
      }
    }
    if (!stack->coordinator->Query(WarmQuery(keyword, algo, -1)).ok()) {
      Die("coordinator warm-up failed");
    }
    times->warm_ms[algo] = NowMs() - start;
  }
  const double t6 = NowMs();
  stack->front =
      std::make_unique<TimedService>(stack->coordinator.get(), probe);
  stack->server = std::make_unique<TcpServer>(stack->front.get(),
                                              ds.dict.get(),
                                              TcpServerOptions{.port = 0});
  Status started = stack->server->Start();
  if (!started.ok()) Die(started.ToString());
  const double t7 = NowMs();
  times->build_ms = t1 - t0;
  times->save_ms = t2 - t1;
  times->load_ms = t3 - t2;
  times->engine_ms = t4 - t3;
  times->serve_ms = (t5 - t4) + (t7 - t6);
  times->total_s = (t7 - t0) / 1000.0;
  for (const std::string& path : paths) times->image_bytes += FileBytes(path);
  return stack;
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Width of the windows a pass is cut into by due time: 12 in a 25 s run,
/// each with 820 or more reads and, on mixed-update, exactly 10 updates.
constexpr double kWindowMs = 2000;

size_t WindowOf(const Op& op, size_t windows) {
  return std::min(windows - 1, static_cast<size_t>(op.due_ms / kWindowMs));
}

struct OpRecord {
  bool ok = false;
  std::string error;
  int layer = -1;
  AnswerHash hash;
  uint64_t applied = 0;
};

struct PassResult {
  std::vector<OpTiming> timings;
  std::vector<OpRecord> records;
  ServiceStats before, after;
  double cpu_cores = 0;    // this process's CPU time / wall time
  /// The process's CPU time at the start of the pass and at the end of
  /// every kWindowMs window (ProcessCpuSampler).
  std::vector<double> process_cpu_ms;
  double steal_share = 0;  // host CPU time stolen by other guests
};

/// (steal, total) jiffies over all CPUs from /proc/stat; zeros if absent.
std::pair<double, double> StealJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v, steal = 0, total = 0;
  stat >> cpu;
  for (int i = 0; i < 10 && stat >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Parses one QUERY response block into `rec`.
void ParseQueryResponse(const std::vector<std::string>& lines, OpRecord* rec) {
  if (lines.empty()) {
    rec->error = "empty response";
    return;
  }
  if (lines[0].rfind("OK", 0) != 0) {
    rec->error = lines[0];
    return;
  }
  size_t at = lines[0].find(" layer=");
  if (at != std::string::npos) rec->layer = std::atoi(lines[0].c_str() + at + 7);
  for (size_t i = 1; i < lines.size(); ++i) {
    Answer a;
    Status parsed = ParseAnswerLine(lines[i], &a);
    if (!parsed.ok()) {
      rec->error = parsed.ToString();
      return;
    }
    rec->hash.Add(a);
  }
  rec->ok = true;
}

PassResult RunPass(const std::vector<Op>& ops,
                   const std::vector<PoolEntry>& pool,
                   const std::vector<std::pair<VertexId, VertexId>>& toggles,
                   std::vector<std::unique_ptr<ProtocolClient>>& clients,
                   Probe* probe, QueryService* front) {
  PassResult pass;
  pass.records.resize(ops.size());
  std::vector<double> due(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) due[i] = ops[i].due_ms;
  const bool tracing = probe->spans.enabled();
  pass.before = front->Snapshot();
  const double cpu0 = ProcessCpuMs();
  const auto [steal0, jiffies0] = StealJiffies();
  const double wall0 = NowMs();
  ProcessCpuSampler sampler(kWindowMs);
  pass.timings = RunOpenLoop(due, clients.size(), [&](size_t worker,
                                                      size_t i) {
    const Op& op = ops[i];
    OpRecord& rec = pass.records[i];
    std::string line, key;
    if (op.kind == Op::Kind::kRead) {
      const PoolEntry& e = pool[op.index];
      line = FormatQueryLine(MakeQuery(e));
      key = QueryKey(e.algorithm, e.keywords);
    } else {
      GraphUpdate up = ToggleOp(toggles, op.index);
      line = FormatUpdateLine(std::span<const GraphUpdate>(&up, 1));
      key = line;
    }
    Span span;
    if (tracing) {
      span.name = op.kind == Op::Kind::kRead ? "client.query" : "client.update";
      span.id = probe->spans.NewId();
      span.request = i + 1;
      if (op.kind == Op::Kind::kRead) span.detail = pool[op.index].algorithm;
      probe->client_requests.Add(key, {span.request, span.id});
      span.start_ms = NowMs();
    }
    StatusOr<std::vector<std::string>> response = clients[worker]->Request(line);
    if (tracing) {
      span.end_ms = NowMs();
      probe->spans.Record(std::move(span));
    }
    if (!response.ok()) {
      rec.error = response.status().ToString();
      return;
    }
    if (op.kind == Op::Kind::kRead) {
      ParseQueryResponse(*response, &rec);
      return;
    }
    UpdateOutcome outcome;
    Status parsed = response->empty()
                        ? Status::IOError("empty response")
                        : ParseUpdateOutcomeLine(response->front(), &outcome);
    if (!parsed.ok()) {
      rec.error = response->empty() ? parsed.ToString() : response->front();
      return;
    }
    rec.ok = true;
    rec.applied = outcome.applied;
  });
  pass.process_cpu_ms = sampler.Stop();
  pass.cpu_cores = (ProcessCpuMs() - cpu0) / (NowMs() - wall0);
  const auto [steal1, jiffies1] = StealJiffies();
  pass.steal_share = Ratio(steal1 - steal0, jiffies1 - jiffies0);
  pass.after = front->Snapshot();
  return pass;
}

/// Share of the pass's reads the service answered from its cache.
double HitRatio(const PassResult& pass) {
  const double hits = double(pass.after.cache_hits - pass.before.cache_hits);
  const double misses =
      double(pass.after.cache_misses - pass.before.cache_misses);
  return Ratio(hits, hits + misses);
}

std::vector<double> Latencies(const PassResult& pass,
                              const std::vector<Op>& ops, Op::Kind kind) {
  std::vector<double> out;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == kind) out.push_back(pass.timings[i].LatencyMs());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Median read latency of each kWindowMs window of the pass; NaN for a
/// window without reads.
std::vector<double> WindowP50s(const PassResult& pass,
                               const std::vector<Op>& ops, double seconds) {
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(seconds * 1000 / kWindowMs));
  std::vector<std::vector<double>> reads(windows);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != Op::Kind::kRead) continue;
    reads[WindowOf(ops[i], windows)].push_back(pass.timings[i].LatencyMs());
  }
  std::vector<double> p50;
  for (const std::vector<double>& r : reads) {
    p50.push_back(r.empty() ? std::nan("") : Percentile(r, 50));
  }
  return p50;
}

/// Marks the operations of the pass's calm windows: the pass is cut into
/// kWindowMs windows by due time, and the quarter whose reads have the
/// lowest median latency is kept (CalmWindows). The windows carry the same
/// traffic (fixed rates, the same popularity draw), so their medians differ
/// mostly by how much the host disturbed them: on a shared 4-vCPU host, six
/// busy processes beside the benchmark raised mixed-update's window medians
/// from 2 ms to 6-24 ms, and the host's steal counter did not show it. The
/// calm windows of the traced pass are chosen the same way.
std::vector<bool> CalmOps(const PassResult& pass, const std::vector<Op>& ops,
                          double seconds) {
  const std::vector<double> p50 = WindowP50s(pass, ops, seconds);
  const std::vector<bool> calm_window = CalmWindows(p50);
  std::vector<bool> calm(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    calm[i] = calm_window[WindowOf(ops[i], p50.size())];
  }
  return calm;
}

/// Read latencies of the calm operations, ascending. With `cold_only`, only
/// the one-off cold reads, which always miss the cache.
std::vector<double> CalmReads(const PassResult& pass,
                              const std::vector<Op>& ops,
                              const std::vector<bool>& calm,
                              bool cold_only = false) {
  std::vector<double> out;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != Op::Kind::kRead || !calm[i]) continue;
    if (cold_only && ops[i].index < kHotPool) continue;
    out.push_back(pass.timings[i].LatencyMs());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Server CPU time per operation in each whole kWindowMs window: the
/// process's CPU time over the window minus what the client connections
/// spent on the ops due in it, over their count. The rest of the process
/// is the serving stack; the main thread waits and the sampler wakes once
/// a window.
std::vector<double> WindowServerCpuMs(const PassResult& pass,
                                      const std::vector<Op>& ops,
                                      double seconds) {
  const size_t windows = std::min(
      static_cast<size_t>(seconds * 1000 / kWindowMs),
      pass.process_cpu_ms.empty() ? 0 : pass.process_cpu_ms.size() - 1);
  std::vector<double> client(windows, 0), count(windows, 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    const size_t w = static_cast<size_t>(ops[i].due_ms / kWindowMs);
    if (w >= windows) continue;
    client[w] += pass.timings[i].client_cpu_ms;
    count[w] += 1;
  }
  std::vector<double> out;
  for (size_t w = 0; w < windows; ++w) {
    const double process =
        pass.process_cpu_ms[w + 1] - pass.process_cpu_ms[w];
    out.push_back(Ratio(process - client[w], count[w]));
  }
  return out;
}

struct Lateness {
  double p99 = 0, max = 0;
};

/// How far the generator ran behind its schedule in the calm windows, the
/// part of the pass the metrics come from.
Lateness GeneratorLateness(const PassResult& pass, const std::vector<Op>& ops,
                           double seconds) {
  const std::vector<bool> calm = CalmOps(pass, ops, seconds);
  std::vector<double> late;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (calm[i]) late.push_back(pass.timings[i].LatenessMs());
  }
  std::sort(late.begin(), late.end());
  return {PercentileSorted(late, 99), late.empty() ? 0 : late.back()};
}

// ---------------------------------------------------------------------------
// Answer checks
// ---------------------------------------------------------------------------

struct CheckTally {
  uint64_t attempted = 0;  // operations, checks included
  uint64_t errors = 0;     // failed, refused or deadline-missed
  uint64_t wrong = 0;      // answered, but not what the reference says
  uint64_t reads_checked = 0;  // served reads compared with a reference
  std::vector<std::string> notes;

  void Note(const std::string& s) {
    if (notes.size() < 8) notes.push_back(s);
  }
};

std::string Describe(const PoolEntry& e) {
  return QueryKey(e.algorithm, e.keywords);
}

/// read-mono: every answer list equals a direct QueryEngine::Evaluate of
/// the same query on the served index. mixed-update: the same, against the
/// starting index, for the reads `checkable` marks (BaseStateReads).
void CheckMonolithicReads(const PassResult& pass, const std::vector<Op>& ops,
                          const std::vector<PoolEntry>& pool,
                          const QueryEngine& engine,
                          const std::vector<bool>& checkable,
                          CheckTally* tally) {
  std::map<uint32_t, AnswerHash> expected;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != Op::Kind::kRead || !checkable[i]) continue;
    const OpRecord& rec = pass.records[i];
    if (!rec.ok) continue;
    ++tally->reads_checked;
    auto it = expected.find(ops[i].index);
    if (it == expected.end()) {
      StatusOr<QueryResult> ref = engine.Evaluate(MakeQuery(pool[ops[i].index]));
      if (!ref.ok()) Die("reference evaluation failed: " + ref.status().ToString());
      it = expected.emplace(ops[i].index, AnswerHash::Of(ref->answers)).first;
    }
    if (rec.hash.full != it->second.full) {
      ++tally->wrong;
      tally->Note("answer mismatch: " + Describe(pool[ops[i].index]));
    }
  }
}

/// mixed-update: marks the reads whose whole round trip fell while the
/// graph was in its starting state — before a toggle's remove was sent, or
/// after its re-add's reply (which the server sends after the swap) and
/// before the next remove was sent.
std::vector<bool> BaseStateReads(const PassResult& pass,
                                 const std::vector<Op>& ops) {
  std::map<uint32_t, double> removed_at, restored_at;  // by edge
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != Op::Kind::kUpdate) continue;
    if (ops[i].index % 2 == 0) {
      removed_at[ops[i].index / 2] = pass.timings[i].send_ms;
    } else {
      restored_at[ops[i].index / 2] = pass.timings[i].done_ms;
    }
  }
  std::vector<std::pair<double, double>> changed;  // graph may differ
  for (const auto& [edge, from] : removed_at) {
    auto it = restored_at.find(edge);
    changed.emplace_back(from, it == restored_at.end() ? 1e300 : it->second);
  }
  std::vector<bool> base(ops.size(), false);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != Op::Kind::kRead) continue;
    const OpTiming& t = pass.timings[i];
    base[i] = std::none_of(changed.begin(), changed.end(), [&](const auto& c) {
      return t.send_ms <= c.second && c.first <= t.done_ms;
    });
  }
  return base;
}

/// read-sharded: against the monolithic exact top-k (layer 0, all answers,
/// ranked, cut at k): full answers when the fleet answered at layer 0,
/// (root, score) identity above it.
void CheckShardedReads(const PassResult& pass, const std::vector<Op>& ops,
                       const std::vector<PoolEntry>& pool,
                       const QueryEngine& reference, CheckTally* tally) {
  std::map<uint32_t, AnswerHash> expected;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != Op::Kind::kRead) continue;
    const OpRecord& rec = pass.records[i];
    if (!rec.ok) continue;
    ++tally->reads_checked;
    auto it = expected.find(ops[i].index);
    if (it == expected.end()) {
      EngineQuery q = MakeQuery(pool[ops[i].index]);
      q.eval.top_k = 0;
      q.eval.forced_layer = 0;
      StatusOr<QueryResult> ref = reference.Evaluate(q);
      if (!ref.ok()) Die("reference evaluation failed: " + ref.status().ToString());
      SortAnswers(ref->answers);
      if (ref->answers.size() > kTopK) ref->answers.resize(kTopK);
      it = expected.emplace(ops[i].index, AnswerHash::Of(ref->answers)).first;
    }
    const bool match = rec.layer == 0 ? rec.hash.full == it->second.full
                                      : rec.hash.identity == it->second.identity;
    if (!match) {
      ++tally->wrong;
      tally->Note("answer mismatch at layer " + std::to_string(rec.layer) +
                  ": " + Describe(pool[ops[i].index]));
    }
  }
}

void CountOps(const PassResult& pass, const std::vector<Op>& ops,
              CheckTally* tally) {
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& rec = pass.records[i];
    ++tally->attempted;
    if (!rec.ok) {
      ++tally->errors;
      tally->Note("operation failed: " + rec.error);
    } else if (ops[i].kind == Op::Kind::kUpdate && rec.applied != 1) {
      ++tally->wrong;
      tally->Note("toggle " + std::to_string(ops[i].index) + " applied=" +
                  std::to_string(rec.applied));
    }
  }
}

/// mixed-update, after every pass: one unpaired UPDATE removes an edge of
/// the best answer of each of the first kFinalRemovals sampled queries, so
/// the graph ends up changed where the check reads. Then a sample of reads
/// on the served index must equal a fresh engine over BigIndex::Build of
/// that final graph. Returns how many sampled answers the removal changed.
size_t CheckFinalIndex(const Dataset& ds, const std::vector<Op>& ops,
                       const std::vector<PoolEntry>& pool,
                       const QueryEngine& start, ProtocolClient& client,
                       CheckTally* tally) {
  std::vector<uint32_t> sample;
  std::set<uint32_t> sampled;
  for (const Op& op : ops) {
    if (op.kind == Op::Kind::kRead && sample.size() < kFinalCheckSample &&
        sampled.insert(op.index).second) {
      sample.push_back(op.index);
    }
  }
  std::vector<AnswerHash> before;
  std::vector<GraphUpdate> removals;
  std::set<std::pair<VertexId, VertexId>> picked;
  for (uint32_t index : sample) {
    StatusOr<QueryResult> ref = start.Evaluate(MakeQuery(pool[index]));
    if (!ref.ok()) Die("reference evaluation failed");
    before.push_back(AnswerHash::Of(ref->answers));
    if (removals.size() == kFinalRemovals || ref->answers.empty()) continue;
    const std::vector<VertexId>& vs = ref->answers.front().vertices;
    bool done = false;
    for (size_t a = 0; a < vs.size() && !done; ++a) {
      for (size_t b = 0; b < vs.size() && !done; ++b) {
        if (a != b && ds.graph.HasEdge(vs[a], vs[b]) &&
            picked.insert({vs[a], vs[b]}).second) {
          removals.push_back({GraphUpdate::Kind::kRemoveEdge, vs[a], vs[b]});
          done = true;
        }
      }
    }
  }
  ++tally->attempted;
  StatusOr<std::vector<std::string>> response =
      client.Request(FormatUpdateLine(removals));
  UpdateOutcome outcome;
  if (!response.ok() || response->empty() ||
      !ParseUpdateOutcomeLine(response->front(), &outcome).ok()) {
    ++tally->errors;
    tally->Note("final update failed");
  } else if (outcome.applied != removals.size()) {
    ++tally->wrong;
    tally->Note("final update applied=" + std::to_string(outcome.applied) +
                " of " + std::to_string(removals.size()));
  }

  StatusOr<UpdateDelta> delta = NormalizeUpdates(ds.graph, removals);
  if (!delta.ok()) Die(delta.status().ToString());
  StatusOr<BigIndex> fresh =
      BigIndex::Build(ApplyDelta(ds.graph, *delta), &ds.ontology.ontology,
                      {.max_layers = kLayers});
  if (!fresh.ok()) Die(fresh.status().ToString());
  QueryEngine engine(std::move(fresh).value());
  size_t changed = 0;
  for (size_t s = 0; s < sample.size(); ++s) {
    ++tally->attempted;
    const EngineQuery q = MakeQuery(pool[sample[s]]);
    StatusOr<QueryResult> ref = engine.Evaluate(q);
    if (!ref.ok()) Die("reference evaluation failed");
    const AnswerHash expected = AnswerHash::Of(ref->answers);
    if (expected.full != before[s].full) ++changed;
    OpRecord read;
    StatusOr<std::vector<std::string>> answer =
        client.Request(FormatQueryLine(q));
    if (answer.ok()) ParseQueryResponse(*answer, &read);
    if (!read.ok) {
      ++tally->errors;
      tally->Note("final check read failed: " + read.error);
    } else if (read.hash.full != expected.full) {
      ++tally->wrong;
      tally->Note("served index differs from rebuild: " +
                  Describe(pool[sample[s]]));
    }
  }
  // A removal that changes none of the answers read back would let a
  // server that never swaps its engine pass.
  if (changed == 0) Die("the final update changed no sampled answer");
  return changed;
}

// ---------------------------------------------------------------------------
// Per-layer metrics from the traced pass
// ---------------------------------------------------------------------------

using Metrics = std::map<std::string, double>;

void LayerMetricsFromSpans(const std::vector<Span>& spans, bool sharded,
                           size_t shards, Metrics* m) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  std::vector<double> wire, queue, fanout_max, coord_self, boundary;
  std::map<std::string, std::vector<double>> eval_by_algo;
  std::vector<double> explore, specialize, generate, verify, layer;
  double finals = 0, candidates = 0, pruned = 0, generalized = 0;
  double coord_queries = 0, shard_calls = 0, shipped = 0, returned = 0;
  std::map<uint64_t, double> slowest_child;
  std::vector<double> writer_wait, maintain, engine_build, swap, post_swap;
  std::vector<double> maintain_layer[kLayers];
  double layers_total = 0, layers_local = 0;

  auto add_eval = [&](const Span& s) {
    if (s.Arg("error") != 0 || s.Arg("miss") == 0) return;
    eval_by_algo[s.detail].push_back(s.Arg("wall_ms"));
    explore.push_back(s.Arg("explore_ms"));
    specialize.push_back(s.Arg("specialize_ms"));
    generate.push_back(s.Arg("generate_ms"));
    verify.push_back(s.Arg("verify_ms"));
    layer.push_back(s.Arg("layer"));
    finals += s.Arg("final");
    candidates += s.Arg("candidates");
    pruned += s.Arg("pruned");
    generalized += s.Arg("generalized");
  };

  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name == "client.query") {
      wire.push_back(self[i]);
    } else if (s.name == "server.query") {
      if (s.Arg("error") != 0) continue;
      if (s.Arg("miss") != 0) queue.push_back(s.DurationMs() - s.Arg("wall_ms"));
      if (s.Arg("first_after_swap") != 0) post_swap.push_back(s.DurationMs());
      if (sharded) {
        ++coord_queries;
        returned += s.Arg("answers");
        coord_self.push_back(self[i]);
      } else {
        add_eval(s);
      }
    } else if (s.name == "shard.query") {
      if (s.parent == 0) continue;  // priming, not a measured request
      ++shard_calls;
      shipped += s.Arg("answers");
      add_eval(s);
      if (s.parent != 0 && index_of.count(s.parent)) {
        double& slot = slowest_child[s.parent];
        slot = std::max(slot, s.DurationMs());
      }
    } else if (s.name == "shard.boundary") {
      boundary.push_back(s.DurationMs());
    } else if (s.name == "update.writer_wait") {
      writer_wait.push_back(s.DurationMs());
    } else if (s.name == "update.maintain") {
      maintain.push_back(s.Arg("maintain_ms"));
      engine_build.push_back(s.Arg("engine_build_ms"));
      for (size_t l = 0; l < kLayers; ++l) {
        maintain_layer[l].push_back(
            s.Arg("maintain_ms.L" + std::to_string(l + 1)));
      }
      layers_total += s.Arg("layers");
      layers_local += s.Arg("non_wholesale_layers");
    } else if (s.name == "update.swap") {
      swap.push_back(s.DurationMs());
    }
  }
  for (const auto& [parent, ms] : slowest_child) fanout_max.push_back(ms);

  (*m)["server.wire_ms"] = Percentile(wire, 50);
  (*m)["server.queue_ms"] = Percentile(queue, 50);
  for (const char* algo : kAlgorithms) {
    const std::vector<double>& v = eval_by_algo[algo];
    (*m)[std::string("engine.eval_ms.") + algo + ".p50"] = Percentile(v, 50);
    (*m)[std::string("engine.eval_ms.") + algo + ".p99"] = Percentile(v, 99);
  }
  (*m)["core.explore_ms"] = Mean(explore);
  (*m)["core.specialize_ms"] = Mean(specialize);
  (*m)["core.generate_ms"] = Mean(generate);
  (*m)["core.verify_ms"] = Mean(verify);
  (*m)["core.layer_mean"] = Mean(layer);
  (*m)["core.candidate_yield"] = Ratio(finals, candidates);
  (*m)["core.prune_ratio"] = Ratio(pruned, generalized);
  (*m)["shard.fanout_ms"] = Percentile(fanout_max, 50);
  (*m)["shard.coord_self_ms"] = Percentile(coord_self, 50);
  (*m)["shard.fanout_per_query"] = Ratio(shard_calls, coord_queries);
  (*m)["shard.shipped_per_returned"] = Ratio(shipped, returned);
  // One region assembly fetches every shard's boundary once.
  (*m)["shard.boundary_ms"] =
      Ratio(std::accumulate(boundary.begin(), boundary.end(), 0.0),
            static_cast<double>(boundary.size()) / static_cast<double>(shards));
  (*m)["update.writer_wait_ms"] = Mean(writer_wait);
  (*m)["update.maintain_ms"] = Mean(maintain);
  for (size_t l = 0; l < kLayers; ++l) {
    (*m)["update.maintain_ms.L" + std::to_string(l + 1)] = Mean(maintain_layer[l]);
  }
  (*m)["update.incremental_layer_share"] = Ratio(layers_local, layers_total);
  (*m)["update.engine_build_ms"] = Mean(engine_build);
  (*m)["update.swap_ms"] = Mean(swap);
  (*m)["update.post_swap_query_ms"] = Percentile(post_swap, 50);
}

/// Share of sampled pool queries (rooted algorithms; r-clique's lazy lists
/// would cost seconds per extra layer) whose Formula 4 layer is the fastest
/// in a forced-layer sweep, plus that sample's size.
std::pair<double, size_t> LayerPickHit(const QueryEngine& engine,
                                       const std::vector<PoolEntry>& pool) {
  size_t sampled = 0, hits = 0;
  for (const PoolEntry& e : pool) {
    if (sampled == kLayerSweepSample) break;
    if (e.algorithm == "r-clique") continue;
    ++sampled;
    std::map<size_t, double> best_by_layer;
    for (size_t m = 0; m <= engine.index().NumLayers(); ++m) {
      EngineQuery q = MakeQuery(e);
      q.eval.forced_layer = static_cast<int>(m);
      double best = 1e300;
      size_t effective = m;
      for (size_t r = 0; r < kLayerSweepReps; ++r) {
        const double start = NowMs();
        StatusOr<QueryResult> res = engine.Evaluate(q);
        best = std::min(best, NowMs() - start);
        if (res.ok()) effective = res->breakdown.layer;
      }
      if (!best_by_layer.count(effective)) best_by_layer[effective] = best;
    }
    size_t fastest = 0;
    for (const auto& [l, ms] : best_by_layer) {
      if (ms < best_by_layer[fastest]) fastest = l;
    }
    if (OptimalQueryLayer(engine.index(), e.keywords, kBeta) == fastest) ++hits;
  }
  return {Ratio(hits, sampled), sampled};
}

/// r-clique off the serving path (traced run only): its neighbour lists on
/// every layer, then `sample` hot pool keyword sets evaluated as r-clique
/// queries through QueryEngine::Evaluate. Expired evaluations count at the
/// deadline.
void MeasureRClique(const QueryEngine& engine,
                    const std::vector<PoolEntry>& pool, size_t sample,
                    Metrics* m, size_t* expired) {
  (*m)["setup.warm_ms.r-clique"] =
      WarmEngine(engine, "r-clique", pool.front().keywords.front());
  std::vector<double> eval_ms;
  for (size_t i = 0; i < sample && i < pool.size(); ++i) {
    EngineQuery q = MakeQuery(pool[i]);
    q.algorithm = "r-clique";
    q.eval.deadline = Deadline::After(kRCliqueDeadlineMs);
    const double start = NowMs();
    StatusOr<QueryResult> result = engine.Evaluate(q);
    if (result.ok()) {
      eval_ms.push_back(result->wall_ms);
    } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
      eval_ms.push_back(std::max(NowMs() - start, kRCliqueDeadlineMs));
      ++*expired;
    } else {
      Die("r-clique evaluation failed: " + result.status().ToString());
    }
  }
  (*m)["engine.eval_ms.r-clique.p50"] = Percentile(eval_ms, 50);
  (*m)["engine.eval_ms.r-clique.p99"] = Percentile(eval_ms, 99);
}

double MedianOf(std::vector<double> v) { return Percentile(std::move(v), 50); }

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

int Run(const Args& args) {
  // Progress on standard error: where a run's wall time goes.
  const double run_start = NowMs();
  auto progress = [&](const char* step) {
    std::fprintf(stderr, "perfbench: %s at %.1f s\n", step,
                 (NowMs() - run_start) / 1000.0);
  };
  Probe probe;
  const std::vector<double> spin = SpinProbe();

  StatusOr<Dataset> ds = MakeDataset("yago3", kScale);
  if (!ds.ok()) Die(ds.status().ToString());
  const Workload& w = *args.workload;
  StreamParams params;
  params.read_rate = w.read_rate;
  params.update_rate = w.update_rate;
  params.seconds = args.seconds;
  params.hot_pool = kHotPool;
  params.cold_pool = ColdPoolSize(w.read_rate, args.seconds, kColdShare);
  params.zipf = kZipf;
  params.cold_share = kColdShare;
  const std::vector<PoolEntry> pool =
      BuildPool(*ds, args.seed, params.hot_pool + params.cold_pool);
  params.toggle_edges =
      static_cast<size_t>(std::ceil(w.update_rate * args.seconds / 2)) + 1;
  const std::vector<Op> ops = BuildOpStream(params, args.seed);
  const auto toggles =
      w.update_rate > 0
          ? PickToggleEdges(ds->graph, params.toggle_edges, args.seed)
          : std::vector<std::pair<VertexId, VertexId>>{};
  const bool sharded = w.sharded;
  progress("inputs ready");

  // Set-up, repeated; the last early stack serves the load.
  std::vector<SetupTimes> setups(kSetupReps);
  auto setup = [&](size_t r) {
    // The late set-ups write their own image: the serving stack's is live.
    const std::string image = args.work_dir + "/" + w.name +
                              (r < kEarlySetups ? "" : "-late") + ".img";
    return sharded ? SetupSharded(*ds, pool, image, &probe, &setups[r])
                   : SetupMonolithic(*ds, pool, image, &probe, &setups[r]);
  };
  std::unique_ptr<Stack> stack;
  for (size_t r = 0; r < kEarlySetups; ++r) {
    stack.reset();
    stack = setup(r);
  }

  std::vector<std::unique_ptr<ProtocolClient>> clients;
  for (size_t c = 0; c < kConnections; ++c) {
    clients.push_back(
        std::make_unique<ProtocolClient>("127.0.0.1", stack->server->port()));
    Status connected = clients.back()->Connect();
    if (!connected.ok()) Die(connected.ToString());
  }

  auto valid = [&](const PassResult& pass) {
    return GeneratorLateness(pass, ops, args.seconds).p99 <= kMaxLatenessP99Ms;
  };
  // Every pass starts from the same state: the answer cache is emptied and
  // then primed with every hot entry, so hot reads hit and cold reads miss
  // (the update stream leaves the graph as it found it). Priming goes to
  // the service behind the decorator, so it records no request spans; on
  // the coordinator it reassembles the boundary region, which a traced
  // pass records.
  QueryService* const served =
      sharded ? static_cast<QueryService*>(stack->coordinator.get())
              : stack->service.get();
  auto measure = [&](bool traced) {
    served->BumpEpoch();
    probe.spans.SetEnabled(traced);
    for (size_t i = 0; i < params.hot_pool; ++i) {
      if (!served->Query(MakeQuery(pool[i])).ok()) Die("priming failed");
    }
    PassResult pass = RunPass(ops, pool, toggles, clients, &probe,
                              stack->front.get());
    probe.spans.SetEnabled(false);
    return pass;
  };

  // A pass whose generator fell behind in its calm windows is run again
  // once, and the second is kept if it kept up. Every pass that ran is
  // checked.
  std::vector<std::unique_ptr<PassResult>> passes;
  size_t repeats = 0;
  auto run_pass = [&](bool traced) -> const PassResult& {
    passes.push_back(std::make_unique<PassResult>(measure(traced)));
    const PassResult* kept = passes.back().get();
    if (!valid(*kept)) {
      ++repeats;
      std::vector<Span> first_spans = probe.spans.Take();
      passes.push_back(std::make_unique<PassResult>(measure(traced)));
      if (valid(*passes.back())) {
        kept = passes.back().get();
      } else {
        probe.spans.Take();
        for (Span& span : first_spans) probe.spans.Record(std::move(span));
      }
    }
    return *kept;
  };
  progress("set-ups done");
  const PassResult& untraced = run_pass(false);
  progress("untraced pass done");
  // The peak before any reference index of the checks below is built.
  const double peak_rss_mb = PeakRssMb();
  // A traced run whose untraced pass is invalid is reported invalid anyway.
  const PassResult* traced_pass =
      args.trace && valid(untraced) ? &run_pass(true) : nullptr;
  const PassResult& main_pass = traced_pass ? *traced_pass : untraced;

  if (traced_pass != nullptr) progress("traced pass done");

  // Checks, on every pass that ran.
  CheckTally tally;
  std::unique_ptr<QueryEngine> reference;
  if (sharded) {
    StatusOr<BigIndex> mono = BigIndex::Build(ds->graph, &ds->ontology.ontology,
                                              {.max_layers = kLayers});
    if (!mono.ok()) Die(mono.status().ToString());
    reference = std::make_unique<QueryEngine>(std::move(mono).value());
  }
  for (const auto& pass : passes) {
    CountOps(*pass, ops, &tally);
    if (sharded) {
      CheckShardedReads(*pass, ops, pool, *reference, &tally);
    } else {
      // stack->engine is the starting engine; swaps replace the service's.
      CheckMonolithicReads(*pass, ops, pool, *stack->engine,
                           w.update_rate > 0
                               ? BaseStateReads(*pass, ops)
                               : std::vector<bool>(ops.size(), true),
                           &tally);
    }
  }
  size_t final_changed = 0;
  if (w.update_rate > 0) {
    final_changed =
        CheckFinalIndex(*ds, ops, pool, *stack->engine, *clients[0], &tally);
  }

  progress("answer checks done");
  for (size_t r = kEarlySetups; r < kSetupReps; ++r) setup(r).reset();
  progress("late set-ups done");

  // End-to-end metrics (from the untraced pass).
  const std::vector<double> reads = Latencies(untraced, ops, Op::Kind::kRead);
  const std::vector<double> updates =
      Latencies(untraced, ops, Op::Kind::kUpdate);
  std::vector<double> setup_s;
  for (const SetupTimes& t : setups) setup_s.push_back(t.total_s);
  Metrics m;
  m["setup_s"] = MedianOf(setup_s);
  // What serving costs, in CPU time of the serving stack per request: on a
  // shared host this moved by about a tenth with the other tenants, while
  // the wall-clock latencies below moved by a factor of two or more.
  m["server_cpu_ms_per_op"] =
      MedianOf(WindowServerCpuMs(untraced, ops, args.seconds));
  const std::vector<bool> calm = CalmOps(untraced, ops, args.seconds);
  const std::vector<double> calm_reads = CalmReads(untraced, ops, calm);
  m["query_p50_ms"] = PercentileSorted(calm_reads, 50);
  m["query_p90_ms"] = PercentileSorted(calm_reads, 90);
  m["query_p99_ms"] = PercentileSorted(calm_reads, 99);
  // Cold reads are one-off queries the cache has never seen, so this
  // median falls on the engine/core/search path (or the shard fan-out),
  // which query_p50_ms, set by cache hits, does not reach.
  const std::vector<double> calm_cold_reads =
      CalmReads(untraced, ops, calm, /*cold_only=*/true);
  m["cold_query_p50_ms"] = PercentileSorted(calm_cold_reads, 50);
  m["peak_rss_mb"] = peak_rss_mb;
  m["update_p50_ms"] = PercentileSorted(updates, 50);
  m["update_p90_ms"] = PercentileSorted(updates, 90);

  // Per-layer metrics.
  auto setup_median = [&](auto field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(field(t));
    return MedianOf(v);
  };
  m["setup.build_ms"] = setup_median([](const SetupTimes& t) { return t.build_ms; });
  m["setup.image_save_ms"] = setup_median([](const SetupTimes& t) { return t.save_ms; });
  m["setup.image_load_ms"] = setup_median([](const SetupTimes& t) { return t.load_ms; });
  m["setup.engine_ms"] = setup_median([](const SetupTimes& t) { return t.engine_ms; });
  m["setup.serve_ms"] = setup_median([](const SetupTimes& t) { return t.serve_ms; });
  for (const char* algo : kAlgorithms) {
    m[std::string("setup.warm_ms.") + algo] = setup_median(
        [algo](const SetupTimes& t) {
          auto it = t.warm_ms.find(algo);
          return it == t.warm_ms.end() ? 0.0 : it->second;
        });
  }
  m["setup.image_bytes"] = setups.back().image_bytes;
  m["shard.cut_edges"] = static_cast<double>(stack->cut_edges);
  m["shard.ghosts"] = static_cast<double>(stack->ghosts);
  std::string trace_file;
  size_t sweep_sample = 0;
  size_t rclique_expired = 0;
  if (traced_pass != nullptr) {
    std::vector<Span> spans = probe.spans.Take();
    LayerMetricsFromSpans(spans, sharded, kShards, &m);
    const ServiceStats& a = traced_pass->before;
    const ServiceStats& b = traced_pass->after;
    m["server.cache_hit_ratio"] = HitRatio(*traced_pass);
    m["server.mean_batch"] = Ratio(double(b.batched_queries - a.batched_queries),
                                   double(b.batches - a.batches));
    m["trace.overhead_ms"] =
        PercentileSorted(CalmReads(*traced_pass, ops,
                                   CalmOps(*traced_pass, ops, args.seconds)),
                         50) -
        m["query_p50_ms"];
    const std::shared_ptr<const QueryEngine> served_engine =
        sharded ? nullptr : stack->service->engine_snapshot();
    auto [hit, sample] =
        LayerPickHit(sharded ? *reference : *served_engine, pool);
    m["core.layer_pick_hit"] = hit;
    sweep_sample = sample;
    if (!sharded && w.update_rate == 0) {
      MeasureRClique(*served_engine, pool, kRCliqueSample, &m,
                     &rclique_expired);
    }
    trace_file = args.work_dir + "/trace-" + w.name + "-seed" +
                 std::to_string(args.seed) + ".json";
    std::ofstream(trace_file) << ChromeTraceJson(spans);
  }

  // Run-validity record.
  const Lateness late = GeneratorLateness(main_pass, ops, args.seconds);
  auto list = [](const std::vector<double>& values) {
    std::string out;
    for (double v : values) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.3f", out.empty() ? "" : " ", v);
      out += buf;
    }
    return out;
  };
  const bool run_valid = valid(untraced) && valid(main_pass) &&
                         reads.size() >= kMinReadSamples &&
                         calm_reads.size() >= kMinCalmReads;
  JsonObject info;
  info.Str("workload", w.name)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Num("scale", kScale)
      .Int("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .Num("spin_parallelism_1", spin[0])
      .Num("spin_parallelism_2", spin[1])
      .Num("spin_parallelism_4", spin[2])
      .Int("pool_size", static_cast<int64_t>(pool.size()))
      .Int("read_samples", static_cast<int64_t>(reads.size()))
      .Int("update_samples", static_cast<int64_t>(updates.size()))
      .Num("read_highest_percentile", HighestSupportedPercentile(reads.size()))
      .Num("read_highest_percentile_ms",
           PercentileSorted(reads, HighestSupportedPercentile(reads.size())))
      .Num("update_highest_percentile",
           HighestSupportedPercentile(updates.size()))
      .Num("window_ms", kWindowMs)
      .Str("window_p50s_ms", list(WindowP50s(untraced, ops, args.seconds)))
      .Str("window_server_cpu_ms",
           list(WindowServerCpuMs(untraced, ops, args.seconds)))
      .Int("calm_read_samples", static_cast<int64_t>(calm_reads.size()))
      .Int("setup_reps", static_cast<int64_t>(kSetupReps))
      .Num("setup_s_min", *std::min_element(setup_s.begin(), setup_s.end()))
      .Num("setup_s_max", *std::max_element(setup_s.begin(), setup_s.end()))
      .Num("all_reads_p50_ms", PercentileSorted(reads, 50))
      .Int("calm_cold_reads", static_cast<int64_t>(calm_cold_reads.size()))
      .Num("cache_hit_ratio", HitRatio(untraced))
      .Int("reads_checked", static_cast<int64_t>(tally.reads_checked))
      .Int("final_check_changed", static_cast<int64_t>(final_changed))
      .Num("all_reads_p99_ms", PercentileSorted(reads, 99))
      .Num("update_p50_ms", m["update_p50_ms"])
      .Num("update_p90_ms", m["update_p90_ms"])
      .Num("generator_lateness_p99_ms", late.p99)
      .Num("generator_lateness_max_ms", late.max)
      .Num("generator_lateness_bound_ms", kMaxLatenessP99Ms)
      .Int("pass_repeats", static_cast<int64_t>(repeats))
      .Num("cpu_cores", main_pass.cpu_cores)
      .Num("host_steal_share", main_pass.steal_share)
      .Bool("valid", run_valid)
      .Int("errors", static_cast<int64_t>(tally.errors))
      .Int("wrong", static_cast<int64_t>(tally.wrong))
      .Num("error_share", Ratio(double(tally.errors + tally.wrong),
                                double(tally.attempted)));
  if (traced_pass != nullptr) {
    info.Int("layer_sweep_sample", static_cast<int64_t>(sweep_sample))
        .Int("rclique_sample",
             static_cast<int64_t>(!sharded && w.update_rate == 0
                                      ? kRCliqueSample
                                      : 0))
        .Int("rclique_expired", static_cast<int64_t>(rclique_expired))
        .Str("trace_file", trace_file);
  }
  for (size_t i = 0; i < tally.notes.size(); ++i) {
    info.Str("note_" + std::to_string(i), tally.notes[i]);
  }

  JsonObject metrics;
  for (const auto& [name, value] : m) metrics.Num(name, value);
  JsonObject out;
  out.Bool("correct", tally.wrong == 0)
      .Bool("valid", run_valid)
      .Int("attempted", static_cast<int64_t>(tally.attempted))
      .Int("failed", static_cast<int64_t>(tally.errors + tally.wrong))
      .Obj("metrics", metrics)
      .Obj("info", info);

  // Tear down before printing: every thread this process started is joined.
  for (auto& c : clients) c->Disconnect();
  clients.clear();
  stack.reset();
  std::printf("%s\n", out.ToString().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return perfbench::RunSelfTests();
  }
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
