#!/usr/bin/env python3
"""Serving benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), and so do the
index images and traces a run writes. The last line of standard output is
one JSON object: correct, attempted, failed and the metrics BENCHMARK.json
declares (end_to_end with --trace 0, per_layer with --trace 1). The lines
before it are the human summary. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = "4"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(build_dir):
    """Configures and builds the perfbench binary; returns its path."""
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", BUILD_JOBS],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    return os.path.join(build_dir, "perfbench")


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def select_metrics(raw, declared):
    """The declared metrics with their units; raises KeyError naming any
    declared metric the binary did not report."""
    missing = [m["name"] for m in declared if m["name"] not in raw["metrics"]]
    if missing:
        raise KeyError(", ".join(missing))
    return {m["name"]: {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared}


def self_test(root, build_dir):
    bench = load_json(os.path.join(root, "BENCHMARK.json"))
    problems = []
    try:
        select_metrics({"metrics": {}}, bench["end_to_end"][:1])
        problems.append("select_metrics accepted a missing metric")
    except KeyError:
        pass
    binary = build(build_dir)
    if subprocess.run([binary, "--self-test"]).returncode != 0:
        problems.append("perfbench self-tests failed")
    for p in problems:
        print(f"self-test FAILED: {p}", file=sys.stderr)
    print("run.py self-tests:", "FAILED" if problems else "ok", file=sys.stderr)
    return 1 if problems else 0


def summary(raw, reported, sha, trace):
    info = raw["info"]
    lines = [
        f"workload {info['workload']} seed {info['seed']} "
        f"({'traced' if trace else 'untraced'}) git {sha}",
        f"  host: nproc {info['nproc']}, spin parallelism 1/2/4 threads = "
        f"{info['spin_parallelism_1']:.2f}/{info['spin_parallelism_2']:.2f}/"
        f"{info['spin_parallelism_4']:.2f}, scale {info['scale']}",
        f"  load: {info['read_samples']} reads, {info['update_samples']} "
        f"updates, {info['cpu_cores']:.2f} cores busy, host steal "
        f"{100 * info['host_steal_share']:.1f}%",
        f"  generator lateness p99 {info['generator_lateness_p99_ms']:.3f} ms,"
        f" max {info['generator_lateness_max_ms']:.3f} ms (bound "
        f"{info['generator_lateness_bound_ms']} ms at p99), "
        f"repeated passes {info['pass_repeats']}, valid {info['valid']}",
        f"  reads: p{info['read_highest_percentile']} = "
        f"{info['read_highest_percentile_ms']:.3f} ms (highest percentile with"
        f" >= 10 samples beyond, n={info['read_samples']})",
        f"  all reads: p50 {info['all_reads_p50_ms']:.3f} ms, p99 "
        f"{info['all_reads_p99_ms']:.3f} ms; the query_* metrics take the "
        f"{info['calm_read_samples']} reads of the calmest quarter of the "
        f"{info['window_ms']:.0f} ms windows by median read latency",
        f"  window read medians (ms): {info['window_p50s_ms']}",
        f"  window server CPU per op (ms): {info['window_server_cpu_ms']}",
    ]
    lines.append(f"  query_p50_ms {raw['metrics']['query_p50_ms']:.3f} ms, "
                 f"query_p90_ms {raw['metrics']['query_p90_ms']:.3f} ms, "
                 f"query_p99_ms {raw['metrics']['query_p99_ms']:.3f} ms "
                 f"(calm windows; per_layer metrics, see README)")
    if info["update_samples"]:
        lines.append(
            f"  update_p50_ms {info['update_p50_ms']:.3f} ms update_p90_ms "
            f"{info['update_p90_ms']:.3f} ms (n={info['update_samples']}, "
            f"highest supported p{info['update_highest_percentile']})")
    lines.append(f"  setup_s is the median of {info['setup_reps']} set-ups, which ranged "
                 f"{info['setup_s_min']:.3f}-{info['setup_s_max']:.3f} s")
    lines.append(f"  cache hit ratio {info['cache_hit_ratio']:.3f}; "
                 f"cold (always-miss) reads p50 "
                 f"{raw['metrics']['cold_query_p50_ms']:.3f} ms over "
                 f"{info['calm_cold_reads']} in the calm windows")
    lines.append(f"  error_share {info['error_share']} share "
                 f"({raw['failed']} of {raw['attempted']} operations); "
                 f"{info['reads_checked']} served reads checked")
    if info["update_samples"]:
        lines.append(f"  final update changed {info['final_check_changed']} "
                     f"of the sampled answers read back")
    for key in sorted(k for k in info if k.startswith("note_")):
        lines.append(f"  note: {info[key]}")
    if "trace_file" in info:
        lines.append(f"  trace: {info['trace_file']} "
                     f"(layer sweep sample {info['layer_sweep_sample']}, "
                     f"r-clique sample {info['rclique_sample']} with "
                     f"{info['rclique_expired']} past the deadline)")
    for name, m in reported.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    if args.self_test:
        sys.exit(self_test(root, build_dir))

    bench = load_json(os.path.join(root, "BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; have {workloads}")
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    binary = build(build_dir)
    if subprocess.run([binary, "--self-test"]).returncode != 0:
        fail("perfbench self-tests failed")

    work_dir = os.path.join(build_dir, "run",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # Index images are large; keep only the chrome trace of a traced run.
        for entry in os.listdir(work_dir):
            if entry.endswith(".img"):
                os.remove(os.path.join(work_dir, entry))
    if done.returncode != 0:
        fail(f"perfbench exited {done.returncode}")
    try:
        raw = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result")
    if not os.listdir(work_dir):
        shutil.rmtree(work_dir)

    sha = git_sha(root)
    if not raw["valid"]:
        print(summary(raw, {}, sha, args.trace))
        fail("run invalid: the generator fell behind its schedule or the run "
             "held too few samples; not reported", code=3)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    try:
        reported = select_metrics(raw, declared)
    except KeyError as e:
        fail(f"perfbench did not report declared metrics: {e}")
    print(summary(raw, reported, sha, args.trace))
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": reported}))


if __name__ == "__main__":
    main()
