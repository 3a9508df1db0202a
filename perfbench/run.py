#!/usr/bin/env python3
"""End-to-end benchmark of mhbc: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script

  1. builds perfbench/ (which builds the library from ../src) into the
     directory named by $CARGO_TARGET_DIR, default .bench_build, with
     CMake in Release mode; a warm build is a no-op;
  2. writes the workload's inputs for --seed with perf_gen, in its own
     process, so generation stays out of the measured set-up and RSS;
  3. runs perf_run on them, which measures for --seconds and checks every
     answer, and relays its output.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit status is 0 only when every
correctness check held. Workloads: cold-estimate, churn-serve (see
README.md). A traced run (--trace 1) also writes its spans to
<build>/traces/ and keeps centrality.passes_per_read across traced runs in
<build>/history.jsonl, to show how far it moves between runs.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-estimate", "churn-serve")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds perf_gen and perf_run; returns the
    CMake build directory, or None when the build failed."""
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as build_log:
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=build_log,
                              stderr=subprocess.STDOUT).returncode != 0:
                shutil.rmtree(cmake_dir, ignore_errors=True)
                return None, log_path
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                          stdout=build_log,
                          stderr=subprocess.STDOUT).returncode != 0:
            return None, log_path
    return cmake_dir, log_path


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for name in sorted(files):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as source:
                        digest.update(source.read())
    return digest.hexdigest()[:16]


def commit():
    # The ceiling keeps git from taking the commit of a repository that
    # merely encloses this checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def passes_history(build_dir, workload, seed, result):
    """Appends this traced run's passes_per_read and returns its spread
    over every traced run of the workload kept so far."""
    value = result["metrics"].get("centrality.passes_per_read", {}).get("value")
    if value is None:
        return None
    path = os.path.join(build_dir, "history.jsonl")
    with open(path, "a") as history:
        history.write(json.dumps({"workload": workload, "seed": seed,
                                  "passes_per_read": value}) + "\n")
    values = []
    with open(path) as history:
        for line in history:
            entry = json.loads(line)
            if entry["workload"] == workload:
                values.append(entry["passes_per_read"])
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    cmake_dir, log_path = build(build_dir)
    if cmake_dir is None:
        with open(log_path) as build_log:
            log(build_log.read()[-4000:])
        log("run.py: build failed (log: %s)" % log_path)
        return 3

    inputs = os.path.join(build_dir, "inputs",
                          "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    generated = subprocess.run(
        [os.path.join(cmake_dir, "perf_gen"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", inputs])
    if generated.returncode != 0:
        log("run.py: input generation failed")
        return 3

    command = [os.path.join(cmake_dir, "perf_run"), "--workload",
               args.workload, "--inputs", inputs, "--seconds",
               repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: perf_run exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(run.stdout)
        log("run.py: perf_run printed no result (exit %d)" % run.returncode)
        return run.returncode or 5

    for line in lines[:-1]:
        print(line)
    print("host: commit=%s source_digest=%s workload_seed=%d"
          % (commit(), source_digest(), args.seed))
    if args.trace == "1":
        values = passes_history(build_dir, args.workload, args.seed, result)
        if values and len(values) >= 2:
            quartiles = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            print("centrality.passes_per_read over %d traced runs of %s: "
                  "median %.4g, quartile spread %.2f%% of the median"
                  % (len(values), args.workload, median,
                     100.0 * (quartiles[2] - quartiles[0]) / median
                     if median else 0.0))
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
