#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <read_mostly|update_storm|verify>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the ruco library and the benchmark binary from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs the benchmark's self-test, then the
workload.  The last line of standard output is the JSON result; with
--trace 0 it holds the end_to_end metrics of BENCHMARK.json, with --trace 1
the per_layer ones.  Exits non-zero, without a result, if anything fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read_mostly", "update_storm", "verify")
BUILD_DEADLINE_S = 840  # a first run, which builds, may take 900 s
DEADLINE_S = 175  # every run after the build ends within 180 s


def run(cmd, timeout, **kwargs):
    """subprocess.run in its own process group, so that a timeout also
    stops the compilers and workers the command started."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        return out


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    deadline = time.monotonic() + BUILD_DEADLINE_S
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configured every time (a second when cached), so that a build tree
    # left by other sources picks up changed targets.
    run(["cmake", "-S", HERE, "-B", out_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        timeout=deadline - time.monotonic(), stdout=sys.stderr)
    run(["cmake", "--build", out_dir, "-j", jobs, "--target",
         "perfbench", "perfbench_selftest"],
        timeout=deadline - time.monotonic(), stdout=sys.stderr)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys: %s" % sorted(result))
    if sorted(result["metrics"]) != sorted(declared_metrics(trace)):
        raise ValueError("metrics differ from BENCHMARK.json")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")

    out_dir = build_dir()
    build(out_dir)
    started = time.monotonic()
    run([os.path.join(out_dir, "perfbench_selftest")], timeout=60,
        stdout=sys.stderr)
    timeline = os.path.join(out_dir, args.workload + ".trace.json")
    out = run(
        [os.path.join(out_dir, "perfbench"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--expected", os.path.join(HERE, "expected_verdicts.txt"),
         "--timeline", timeline],
        timeout=DEADLINE_S - (time.monotonic() - started),
        stdout=subprocess.PIPE, text=True)
    check_result(out.rstrip("\n").split("\n")[-1], args.trace == 1)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
