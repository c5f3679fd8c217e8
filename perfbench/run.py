#!/usr/bin/env python3
"""End-to-end benchmark for InsightNotes+.

Builds the engine and the benchmark runner from source (Release, into
$CARGO_TARGET_DIR or .bench_build), then runs one workload:

    python3 perfbench/run.py --workload casestudy|ingest|serve \
        --seed N --seconds S --trace 0|1

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.

Two more modes, for people rather than the harness:

    python3 perfbench/run.py --workload all [--seed N --seconds S]
        every workload untraced and traced, with the tracing overhead;
    python3 perfbench/run.py --selfcheck [--seed N --seconds S]
        same-seed count determinism on casestudy and ingest, and every
        answer check on every workload at a second seed.
"""

import argparse
import fcntl
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("casestudy", "ingest", "serve")
RUN_TIMEOUT_S = 170
# Per-layer counts that must repeat exactly across same-seed runs.
DETERMINISTIC = re.compile(r"(_per_stmt|_per_ann|_per_call|_bytes_|_ratio$)")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    return os.path.join(target, "perfbench")


def build():
    """Configures and builds the runner; returns the binary's path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    cmake_dir = os.path.join(out, "cmake")
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", cmake_dir, "--target",
                          "insight_perfbench", "-j", str(os.cpu_count() or 1)])
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=log).returncode:
                    with open(log_path) as text:
                        sys.stderr.write(text.read()[-4000:])
                    fail("build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "insight_perfbench")


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, workload, seed, seconds, trace, echo):
    """Runs one workload; returns (stdout lines, parsed result object)."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, done.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    if sorted(result["metrics"]) != sorted(expected_metrics(trace)):
        fail("metrics differ from BENCHMARK.json")
    if echo:
        print("\n".join(lines))
    return lines, result


def run_all(binary, seed, seconds):
    """Every workload untraced and traced; reports the tracing overhead."""
    rows = []
    for workload in WORKLOADS:
        plain_lines, plain = run_workload(binary, workload, seed, seconds,
                                        False, False)
        traced_lines, traced = run_workload(binary, workload, seed, seconds,
                                          True, False)
        for line in plain_lines[:-1] + traced_lines[:-1]:
            if not line.startswith("{"):
                print(line)
        untraced_p50 = plain["metrics"]["p50_ms"]["value"]
        traced_p50 = traced["metrics"]["trace.stmt_p50_ms"]["value"]
        rows.append((workload, plain["correct"] and traced["correct"],
                     untraced_p50, traced_p50))
    print("\n%-10s %-8s %14s %14s %16s" % ("workload", "correct",
                                           "p50_ms", "traced_p50_ms",
                                           "overhead_ms"))
    for workload, correct, plain_p50, traced_p50 in rows:
        print("%-10s %-8s %14.4f %14.4f %16.4f" % (
            workload, correct, plain_p50, traced_p50, traced_p50 - plain_p50))
    return all(row[1] for row in rows)


def selfcheck(binary, seed, seconds):
    """Same-seed count determinism plus answer checks at a second seed."""
    ok = True
    for workload in ("casestudy", "ingest"):
        runs = [run_workload(binary, workload, seed, seconds, True, False)[1]
                for _ in range(2)]
        for name, first in runs[0]["metrics"].items():
            if not DETERMINISTIC.search(name):
                continue
            second = runs[1]["metrics"][name]["value"]
            same = first["value"] == second
            ok &= same
            print("%-10s %-38s %14.6g %14.6g %s" % (
                workload, name, first["value"], second,
                "same" if same else "DIFFERS"))
    for workload in WORKLOADS:
        result = run_workload(binary, workload, seed + 1, seconds, False,
                            False)[1]
        ok &= result["correct"] and result["failed"] == 0
        print("%-10s seed %d: correct=%s attempted=%d failed=%d" % (
            workload, seed + 1, result["correct"], result["attempted"],
            result["failed"]))
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload or --selfcheck is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found next to " + HERE)
    binary = build()
    if args.selfcheck:
        sys.exit(0 if selfcheck(binary, args.seed, args.seconds) else 1)
    if args.workload == "all":
        sys.exit(0 if run_all(binary, args.seed, args.seconds) else 1)
    run_workload(binary, args.workload, args.seed, args.seconds,
               bool(args.trace), True)


if __name__ == "__main__":
    main()
