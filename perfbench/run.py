#!/usr/bin/env python3
"""The repository benchmark: builds the load generator and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 16 --trace 0

Workloads: serve_read, serve_write, nearest, crossmatch (see NOTES.md);
--workload all runs the four in turn and ends with one combined line whose
metrics are named <workload>.<metric>.
--trace 0 measures the end-to-end metrics; --trace 1 is the separate traced
run that reports per-layer metrics and writes its spans under .bench_trace/.

The load generator is built from ../src with CMake into $CARGO_TARGET_DIR (default
.bench_build). Each run keeps its database files in its own directory under
.bench_runs/, removed when the run ends, also when it fails. The last line
of stdout is the JSON result; the exit status is 0 only when every output
check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ("serve_read", "serve_write", "nearest", "crossmatch")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def source_stamp(root):
    """Commit (when the checkout is a git repository) and a digest of the
    sources the load generator is built from."""
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def run_all(args):
    """Runs every workload, each in its own process, and combines their
    result lines. Returns the exit status."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 1,
                      "metrics": {}}
        print(f"[{workload}] {json.dumps(result)}", flush=True)
        status = status or proc.returncode or (0 if result["correct"] else 1)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        die("run from the root of a checkout: library sources (src/) not found")
    if args.workload == "all":
        sys.exit(run_all(args))
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        die(f"build failed: {e}")

    runs = os.path.join(root, ".bench_runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", run_dir]
    if args.trace:
        trace_dir = os.path.join(root, ".bench_trace")
        os.makedirs(trace_dir, exist_ok=True)
        spans = os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl")
        if os.path.exists(spans):
            os.remove(spans)
        command += ["--spans", spans]

    proc = None

    def stop(signum, _frame):
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.splitlines()
    if not lines:
        die(f"{args.workload} printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"{args.workload} exited {proc.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    print("source " + json.dumps(source_stamp(root)))
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
