#!/usr/bin/env python3
"""Builds and runs the WEBDIS benchmark from the root of a source checkout.

One workload, one seed (what BENCHMARK.json's command runs):

    python3 perfbench/run.py --workload cold_crawl --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer breakdown (and writes the span
trace under .bench_build/perfbench/traces/).

Other modes:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25
        every workload, untraced then traced; prints both tables and writes
        .bench_build/perfbench/results.json
    python3 perfbench/run.py --selftest
        the benchmark's own unit checks (percentiles, quartiles, seeding)
    python3 perfbench/run.py --selfcheck --seed 1
        every workload briefly on a second seed (seed + 1), traced and
        untraced; fails if any answer or replay count is wrong

The benchmark is built from ../src with its own CMake project into
.bench_build/perfbench (Release). Exit status is non-zero on a build failure,
a wrong answer, a replay-count mismatch or a nondeterministic drive.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# Compilers and the benchmark keep their temporary files inside the checkout.
TMP_DIR = os.path.join(BUILD_DIR, "tmp")
ENV = dict(os.environ, TMPDIR=TMP_DIR)
WORKLOADS = ["cold_crawl", "shared_hot", "churn_overload"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; exits 2 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write(
            "error: the WEBDIS sources (src/) are not beside perfbench/; "
            "run from the root of a source checkout\n")
        sys.exit(2)
    os.makedirs(TMP_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=ENV, check=False).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("error: build failed (see %s)\n" % log_path)
                sys.exit(2)


def run_binary(args, capture):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    cmd = [os.path.join(BUILD_DIR, "webdis_perfbench")] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S, env=ENV,
                              check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: %s timed out\n" % " ".join(args))
        return 1, None
    return done.returncode, done.stdout


def workload_args(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            "%g" % seconds, "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    return args


def last_json(stdout):
    lines = [l for l in (stdout or "").splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def run_all(seed, seconds):
    results = {"seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for workload in WORKLOADS:
        entry = {}
        for trace in (False, True):
            code, out = run_binary(
                workload_args(workload, seed, seconds, trace), capture=True)
            sys.stdout.write(out or "")
            sys.stdout.flush()
            for line in (out or "").splitlines():
                if line.startswith("machine: "):
                    entry["machine"] = dict(
                        kv.split("=", 1) for kv in line[9:].split())
            entry["traced" if trace else "untraced"] = last_json(out)
            status = status or code
        results["workloads"][workload] = entry
    path = os.path.join(BUILD_DIR, "results.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=2)
    print("results written to %s" % os.path.relpath(path, ROOT))
    return status


def self_check(seed):
    status = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            code, out = run_binary(
                workload_args(workload, seed + 1, 1, trace), capture=True)
            result = last_json(out)
            ok = code == 0 and result is not None and result["correct"]
            print("selfcheck %-15s seed %d trace %d: %s"
                  % (workload, seed + 1, trace, "ok" if ok else "FAIL"))
            if not ok:
                sys.stdout.write(out or "")
                status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    opts = parser.parse_args()
    if not (opts.workload or opts.selftest or opts.selfcheck):
        parser.error("give --workload, --selftest or --selfcheck")

    build()
    if opts.selftest:
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              env=ENV, check=False).returncode
    if opts.selfcheck:
        return self_check(opts.seed)
    if opts.workload == "all":
        return run_all(opts.seed, opts.seconds)
    code, _ = run_binary(
        workload_args(opts.workload, opts.seed, opts.seconds, opts.trace == 1),
        capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
