#!/usr/bin/env bash
# CI entry point: tier-1 correctness, then a ThreadSanitizer pass over the
# engine + serving + shard-substrate + live-update + observability +
# parallel-construction + CSR-differential tests (the suites that exercise
# cross-thread sharing, including the update differential gate and the
# cache-epoch race test) plus the multi-process coordinator/shard
# integration test (which now drives the UPDATE verb end to end), then an
# ASan+UBSan pass over the index-image and line-protocol fuzz suites (the
# hostile-bytes paths), then a docs-link check, a metrics-overhead smoke, a
# parallel-construction smoke, an index-image cold-start smoke, the shard
# scatter-gather throughput gate, a maintenance differential smoke, a
# maintained-depth smoke on an image-loaded index, the maintenance speedup
# gate, and a short serving-layer load smoke (with the mixed read/update
# phase).
#
#   tools/ci.sh [jobs]
#
# Uses separate build trees so the sanitized build never dirties the main one.
# The sanitizer trees build with warnings as errors, so a change that adds a
# compiler warning fails here (the tier-1 build/ tree keeps the default).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "=== tier-1: build + ctest (build/) ==="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo
echo "=== tsan: engine + server + shard tests (build-tsan/) ==="
cmake -B build-tsan -S . -DBIGINDEX_SANITIZE=thread \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
cmake --build build-tsan -j"$JOBS" --target bigindex_tests bigindex_serverd \
  bigindex_client
# halt_on_error makes any race a hard failure rather than a log line. The
# shard and update differential gates run at reduced seeds under TSan (full
# strength in the tier-1 pass above) — ShardDifferentialGate covers BOTH
# shard modes (wcc and bfs with boundary completion); the ghost-manifest
# invariants, coordinator fan-out, substrates, protocol client, live
# updater, and the cache-epoch race test run in full.
TSAN_OPTIONS="halt_on_error=1" BIGINDEX_SHARD_GATE_SEEDS=5 \
  BIGINDEX_UPDATE_GATE_SEEDS=5 \
  ./build-tsan/tests/bigindex_tests \
  --gtest_filter='ExecutorPool*:QueryContext*:QueryEngine*:Deadline*:AnswerCache*:SearchService*:LineProtocol*:TcpServer*:Metrics*:Trace*:ParallelBisim*:BuildDeterminism*:CsrDifferential*:ShardCoordinator*:ShardSubstrate*:ShardDifferentialGate*:ExtractShard*:GhostManifest*:ShardImage*:ProtocolClient*:InfoVerb*:NormalizeUpdates*:IncrementalBisim*:MaintainIndex*:VersionStore*:LiveUpdater*:ServiceUpdate*:CacheEpochRace*:UpdateProtocol*:UpdateVerb*:ShardedUpdate*:UpdateDifferentialGate*'

echo
echo "=== tsan: multi-process coordinator/shard integration ==="
# Two shard worker processes + a scatter-gather coordinator, differentially
# checked against a monolithic server — all four processes TSan-built.
tools/shard_integration.sh build-tsan

echo
echo "=== asan+ubsan: index-image + line-protocol fuzz (build-asan/) ==="
cmake -B build-asan -S . -DBIGINDEX_SANITIZE=address \
  -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
# The examples build here too, so their warnings fail CI as well.
cmake --build build-asan -j"$JOBS" --target bigindex_tests quickstart \
  movie_search knowledge_graph_search general_graph_search index_explorer
# The fuzz suites feed truncated/corrupted images through the mmap loader
# and mutated lines through the protocol handler and client parsers; any
# out-of-bounds read or UB under hostile bytes is a hard failure.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
  ./build-asan/tests/bigindex_tests \
  --gtest_filter='IndexImageFuzz*:LineProtocolFuzz*'

echo
echo "=== docs: no dead relative links in *.md ==="
tools/check_doc_links.sh

echo
echo "=== docs: protocol verbs match server dispatch ==="
tools/check_protocol_docs.sh

echo
echo "=== smoke: disabled-instrumentation overhead budget ==="
# Fails if the disabled observability hooks would cost > 2% of real query
# time (BIGINDEX_OBS_OVERHEAD_PCT overrides the threshold).
./build/bench/bench_obs_overhead --check

echo
echo "=== smoke: parallel construction (2 threads == serial) ==="
# Builds a small index twice (serial, then 2 build threads) and fails if the
# index images differ — exercises the parallel construction path in CI.
./build/bench/bench_construction --smoke

echo
echo "=== smoke: index image cold start (load correctness + >=10x) ==="
# Saves a 7-layer dbpedia@0.01 index image and fails unless it loads
# correctly (identical answers) and >= 10x faster than a serial
# BigIndex::Build of the same graph.
./build/bench/bench_index_load --check

echo
echo "=== smoke: shard scatter-gather gate (1-shard >= 0.9x monolithic) ==="
# Fails unless the 1-shard coordinator stays within 0.9x of the monolithic
# service on the same workload AND answers are identical at 1/2/4 shards.
BIGINDEX_BENCH_SCALE="${BIGINDEX_BENCH_SCALE:-0.002}" \
  ./build/bench/bench_shards --smoke

echo
echo "=== smoke: maintenance differential (incremental == wholesale == rebuild) ==="
# One mixed update batch through all three maintenance paths; fails unless
# the three index images are byte-identical.
./build/bench/bench_maintenance --smoke

echo
echo "=== smoke: an image-loaded index is maintained at its built depth ==="
# Builds a 3-layer index image with the CLI, updates it with --check (the
# successor's image bytes must equal a from-scratch rebuild's), and fails
# unless the successor keeps the 3 layers the image records.
depth_dir="$(mktemp -d)"
trap 'rm -rf "$depth_dir"' EXIT
./build/tools/bigindex_cli gen yago3 0.004 "$depth_dir/g.bin" \
  "$depth_dir/o.bin" >/dev/null
./build/tools/bigindex_cli build "$depth_dir/g.bin" "$depth_dir/o.bin" \
  "$depth_dir/idx.img" 3 >/dev/null
depth_out="$(./build/tools/bigindex_cli update "$depth_dir/g.bin" \
  "$depth_dir/o.bin" "$depth_dir/idx.img" add:1:2 remove:0:1 --check)"
echo "$depth_out" | tail -2
if ! grep -q "maintained 3 -> 3 layer(s)" <<<"$depth_out"; then
  echo "FAIL: the update did not keep the image's recorded depth of 3"
  exit 1
fi

echo
echo "=== gate: maintenance speedup (>= 2x at small batches) ==="
# Measures maintained-vs-rebuilt wall clock at batch sizes 1 and 4 and fails
# unless incremental maintenance beats a from-scratch rebuild by >= 2x while
# staying byte-identical (one re-measure retry absorbs scheduler noise).
./build/bench/bench_maintenance --check

echo
echo "=== smoke: serving-layer load generator (~2s) ==="
# Tiny instance; exercises the full service pipeline (admission, batching,
# cache, deadlines, backpressure, mixed read/update serving with live epoch
# swaps) end to end without benchmarking anything.
BIGINDEX_BENCH_SCALE="${BIGINDEX_BENCH_SCALE:-0.002}" \
  ./build/bench/bench_server --smoke

echo
echo "CI OK"
