#!/usr/bin/env python3
"""Perf-smoke regression guard over bench JSON output.

Usage: check_perf_smoke.py <bench_json>... [--baseline <baseline_json>]
       check_perf_smoke.py --self-test

Compares steps/op of selected (workload, mode, threads) series against the
recorded baselines (scripts/perf_baseline.json by default) and fails when a
series exceeds its baseline by more than the configured tolerance.  The
series of every bench file given are checked together: the hardware lanes
come from bench_hw_throughput --json, the deterministic sim-pct lanes (the
max register's and the f-array counter's) from bench_propagate_ablation
--json.  Steps/op is the paper's complexity
measure -- unlike ops/sec it does not depend on CI machine speed.  Solo (threads=1) lanes are fully deterministic, so a 10%
excursion means an actual hot-path step regression (an extra load in the
refresh loop, a lost fast path), not noise.  Contended lanes are *not*
deterministic: a lost first-round CAS legitimately triggers a second
refresh round (up to 4 extra events per level), so adverse scheduling on a
noisy runner can push steps/op above the solo ceiling.  Those lanes carry a
measured baseline plus a wider per-lane tolerance.  The sim-pct lanes are
contended too, but under seeded PCT schedules of the simulation layer, so
they are exact and take the global tolerance.

A baseline entry is either a bare number (steps/op ceiling, checked with
the global tolerance) or an object {"baseline": B, "tolerance": T} for a
lane that needs its own headroom.

Malformed input never raises: every missing or non-numeric field turns
into a per-lane failure line naming the file, the lane, and the field, so
a truncated bench JSON or a mistyped baseline reads as an actionable
verdict instead of a KeyError traceback.  `--self-test` exercises the
guard against synthetic in-memory fixtures (pass, regression, missing
lane, malformed entry, bad baseline) and is run by CI before the real
comparison.
"""

import json
import os
import sys


def load_series(bench, bench_path):
    """Index bench series by lane key; report malformed entries."""
    series = {}
    problems = []
    entries = bench.get("series")
    if not isinstance(entries, list):
        return series, [f"{bench_path}: no 'series' array at top level"]
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            problems.append(f"{bench_path}: series[{i}] is not an object")
            continue
        workload = entry.get("workload")
        if not workload:
            problems.append(
                f"{bench_path}: series[{i}] has no 'workload' field")
            continue
        key = "|".join(
            [workload,
             entry.get("mode", "default"),
             str(entry.get("threads", bench.get("threads", "?")))])
        try:
            series[key] = float(entry["steps_per_op"])
        except KeyError:
            problems.append(
                f"{bench_path}: lane '{key}' has no 'steps_per_op' field")
        except (TypeError, ValueError):
            problems.append(
                f"{bench_path}: lane '{key}' has non-numeric steps_per_op "
                f"{entry['steps_per_op']!r}")
    return series, problems


def check(benches, baseline, baseline_path="<baseline>", out=sys.stdout):
    """Core comparison over {bench_path: bench}; returns the failures."""
    try:
        tolerance = float(baseline.get("tolerance", 1.10))
    except (TypeError, ValueError):
        return [f"{baseline_path}: global 'tolerance' is not a number"]
    lanes = baseline.get("baselines")
    if not isinstance(lanes, dict):
        return [f"{baseline_path}: no 'baselines' object at top level"]

    series, failures = {}, []
    for bench_path, bench in benches.items():
        bench_series, problems = load_series(bench, bench_path)
        series.update(bench_series)
        failures += problems
    bench_paths = ", ".join(benches)
    for key, entry in lanes.items():
        try:
            if isinstance(entry, dict):
                base = float(entry["baseline"])
                lane_tolerance = float(entry.get("tolerance", tolerance))
            else:
                base = float(entry)
                lane_tolerance = tolerance
        except KeyError:
            failures.append(
                f"{baseline_path}: lane '{key}' object has no 'baseline'")
            continue
        except (TypeError, ValueError):
            failures.append(
                f"{baseline_path}: lane '{key}' has a non-numeric "
                "baseline/tolerance")
            continue
        if key not in series:
            failures.append(
                f"missing lane '{key}' in {bench_paths} -- the bench run "
                "did not produce this series (crashed early, or the "
                "workload/mode/threads key changed?)")
            continue
        measured = series[key]
        limit = base * lane_tolerance
        verdict = "OK" if measured <= limit else "FAIL"
        print(f"{verdict}: {key}: steps/op {measured:.2f} "
              f"(baseline {base:.2f}, limit {limit:.2f})", file=out)
        if measured > limit:
            failures.append(
                f"{key}: steps/op {measured:.2f} exceeds {limit:.2f}")
    return failures


def self_test() -> int:
    """Run the guard against synthetic fixtures; 0 iff all behave."""
    import io

    def run(bench, baseline, more=None):
        benches = {"bench.json": bench, **(more or {})}
        return check(benches, baseline, "base.json", out=io.StringIO())

    lane = {"workload": "counter", "mode": "solo", "threads": 1,
            "steps_per_op": 3.0}
    good_bench = {"series": [lane]}
    good_base = {"tolerance": 1.10, "baselines": {"counter|solo|1": 3.0}}

    cases = [
        ("clean pass", run(good_bench, good_base), []),
        ("regression flagged",
         run({"series": [dict(lane, steps_per_op=9.0)]}, good_base),
         ["exceeds"]),
        ("per-lane tolerance respected",
         run({"series": [dict(lane, steps_per_op=4.0)]},
             {"baselines": {"counter|solo|1":
                            {"baseline": 3.0, "tolerance": 1.5}}}),
         []),
        ("missing lane named",
         run({"series": []}, good_base), ["missing lane 'counter|solo|1'"]),
        ("entry without steps_per_op named, not KeyError",
         run({"series": [{"workload": "counter", "mode": "solo",
                          "threads": 1}]}, good_base),
         ["no 'steps_per_op'", "missing lane"]),
        ("entry without workload named",
         run({"series": [{"steps_per_op": 3.0}]}, good_base),
         ["no 'workload'", "missing lane"]),
        ("non-numeric steps_per_op named",
         run({"series": [dict(lane, steps_per_op="fast")]}, good_base),
         ["non-numeric steps_per_op", "missing lane"]),
        ("bench without series named",
         run({}, good_base), ["no 'series' array", "missing lane"]),
        ("baseline object without 'baseline' named",
         run(good_bench, {"baselines": {"counter|solo|1": {"tolerance": 2}}}),
         ["no 'baseline'"]),
        ("baseline without 'baselines' named",
         run(good_bench, {}), ["no 'baselines' object"]),
        ("lanes of a second bench file checked too",
         run(good_bench,
             {"baselines": {"counter|solo|1": 3.0, "tree|sim-pct|4": 5.0}},
             {"sim.json": {"series": [{"workload": "tree", "mode": "sim-pct",
                                       "threads": 4, "steps_per_op": 6.0}]}}),
         ["tree|sim-pct|4: steps/op 6.00 exceeds"]),
    ]

    bad = 0
    for name, failures, expected_bits in cases:
        if len(failures) != len(expected_bits) or not all(
                bit in msg for bit, msg in zip(expected_bits, failures)):
            print(f"SELF-TEST FAIL: {name}: got {failures!r}, "
                  f"expected fragments {expected_bits!r}")
            bad += 1
        else:
            print(f"self-test ok: {name}")
    if bad:
        print(f"\ncheck_perf_smoke self-test FAILED ({bad} case(s))")
        return 1
    print(f"\ncheck_perf_smoke self-test passed ({len(cases)} cases).")
    return 0


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--self-test":
        return self_test()
    args = sys.argv[1:]
    baseline_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "perf_baseline.json")
    if "--baseline" in args:
        i = args.index("--baseline")
        if i + 1 == len(args):
            print(__doc__)
            return 2
        baseline_path = args[i + 1]
        del args[i:i + 2]
    if not args:
        print(__doc__)
        return 2
    benches = {}
    for bench_path in args:
        with open(bench_path) as f:
            benches[bench_path] = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    failures = check(benches, baseline, baseline_path)
    if failures:
        print("\nperf-smoke regression guard FAILED:")
        for f_ in failures:
            print(f"  - {f_}")
        return 1
    print("\nperf-smoke regression guard passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
