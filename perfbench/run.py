#!/usr/bin/env python3
"""Builds the benchmark from the checked-out sources and runs one workload.

    python3 perfbench/run.py --workload solver --seed 1 --seconds 20 --trace 0

The library (src/) and the benchmark (perfbench/) are compiled into
.bench_build/ at the root of the checkout on first use; later runs only
re-check the build.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer ledger for
--trace 1 (see perfbench/README.md).  Everything a run writes — the build,
the span log of a traced run, and a copy of its report — stays under
.bench_build/.

    python3 perfbench/run.py --selftest

builds and runs the peel validation test instead.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench-build"
OUT_DIR = BUILD_ROOT / "perfbench-out"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("solver", "bulk", "wire", "simscale")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; stdout stays clean."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed: " + " ".join(cmd))


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources not found at " + str(ROOT / "src"))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "--target", target,
               "-j", jobs], BUILD_TIMEOUT_S)
    return BUILD_DIR / target


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if head.returncode == 0:
                return head.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is here."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are " + ", ".join(sorted(result)))
    expected = expected_metrics(trace)
    # A run that failed reports the failure, not a full metric set.
    if expected is not None and result["correct"]:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            units = sorted(n for n in set(got) & set(expected)
                           if got[n] != expected[n])
            raise ValueError("metrics differ from BENCHMARK.json: missing %s,"
                             " extra %s, unit mismatch %s"
                             % (missing, extra, units))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the peel validation test")
    args = parser.parse_args()

    if args.selftest:
        test = build("perfbench_peel_test")
        sys.exit(subprocess.run([str(test)], cwd=ROOT,
                                timeout=RUN_TIMEOUT_S).returncode)
    if args.workload is None:
        fail("--workload is required")

    binary = build("perfbench")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR), "--commit", source_id()]
    # The binary forks its set-up children; a new session lets a timeout
    # stop all of them, and the wait below reaps the whole group.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        sys.stderr.write(stdout + stderr)
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    sys.stderr.write(stderr)
    log = OUT_DIR / ("%s-seed%d-trace%d.log"
                     % (args.workload, args.seed, args.trace))
    log.write_text(stdout)
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        fail("benchmark exited with %d" % proc.returncode, 3)
    try:
        check_result(stdout.rstrip("\n").split("\n")[-1], args.trace == 1)
    except (ValueError, KeyError, json.JSONDecodeError) as error:
        sys.stderr.write(stdout)
        fail("bad result line: %s" % error, 3)
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
