#!/usr/bin/env python3
"""Build hetsim's suite benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark program (perfbench/suite_bench.cc) and the simulator library are
built with CMake into $CARGO_TARGET_DIR (default .bench_build) under the
checkout; later invocations reuse the build.  Build output goes to
stderr.  The program's report is passed through to stdout, and its last
line, one JSON object {correct, attempted, failed, metrics}, stays the
last line.  Each invocation also writes a run record (host, build type,
source revision, seed, quantum, rounds, spans) to
<build dir>/records/<workload>-seed<n>-trace<t>.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["paper-sweep", "dram-bound", "compute-bound", "latency-bound"]
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest(root):
    """SHA-256 over every file under src/, so a record names the exact
    simulator sources even when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    """Configure (once) and build; all tool output goes to stderr."""
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) are missing; run from a full checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-G", "Ninja", f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if res.returncode != 0:
            fail(f"build step {cmd[:2]} exited with {res.returncode}")
    exe = os.path.join(build_dir, "hetsim_suite_bench")
    if not os.access(exe, os.X_OK):
        fail("build produced no hetsim_suite_bench")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    exe = build(root, build_dir)

    records = os.path.join(build_dir, "records")
    os.makedirs(records, exist_ok=True)
    record = os.path.join(
        records, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--record", record, "--git-rev", git_rev(root),
           "--source-digest", source_digest(root)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("HETSIM_")}
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        fail(f"hetsim_suite_bench exited with {res.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the benchmark's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the benchmark's result has unexpected keys")
    for line in lines[:-1]:
        print(line)
    print(f"run record: {os.path.relpath(record, root)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
