#!/usr/bin/env python3
"""Parent/change A/B gate over the benchmark in BENCHMARK.json.

Runs `python3 <tree>/perfbench/run.py --trace 0` on two source trees as
interleaved pairs, per workload, and fails when the change is worse than
the parent:

    python3 tools/perf_ab.py PARENT_TREE CHANGE_TREE

Each tree builds its own `.bench_build/`. The workloads, end-to-end
metrics and bounds come from the parent's BENCHMARK.json, so a change
cannot loosen the bounds it is judged by. Pair i runs both sides on
seed SEEDS[i]; even pairs run the parent first, odd pairs the change.

The verdict fails when any run is incorrect, when the change's failed
share (failed / attempted, summed over its runs) is higher than the
parent's, or when a metric's change median is worse than the parent
median by more than the metric's relative bound. Exit status: 0 pass,
1 fail, 2 bad spec or samples.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SECONDS = 5
SEEDS = tuple(range(20, 20 + PAIRS))


class SpecError(Exception):
    """The spec or the samples do not describe the same benchmark."""


def run_once(tree, workload, seed):
    """One run.py result line; a run that prints none counts as failed."""
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    cmd = [sys.executable, str(Path(tree) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def collect(parent, change, spec):
    """{"parent": {workload: [result]}, "change": {...}} over all pairs."""
    samples = {"parent": {}, "change": {}}
    trees = {"parent": parent, "change": change}
    for w in spec["workloads"]:
        name = w["name"]
        for i, seed in enumerate(SEEDS):
            order = ("parent", "change")
            for side in order if i % 2 == 0 else reversed(order):
                result = run_once(trees[side], name, seed)
                samples[side].setdefault(name, []).append(result)
                wall = result["metrics"].get("wall_s", {}).get("value")
                print(f"{name} pair {i} {side}: correct={result['correct']}"
                      f" wall_s={wall}", file=sys.stderr, flush=True)
    return samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def metric_values(runs, metric, side, workload):
    values = []
    for r in runs:
        if not r["correct"]:
            continue
        if metric not in r["metrics"]:
            raise SpecError(f"{workload}: a {side} run lacks {metric}")
        values.append(r["metrics"][metric]["value"])
    return values


def spec_items(spec):
    """(workload names, end-to-end metrics) of a spec that gates."""
    workloads = [w["name"] for w in spec.get("workloads", [])]
    metrics = spec.get("end_to_end", [])
    if not workloads or not metrics:
        raise SpecError("spec names no workloads or no end-to-end metrics")
    for m in metrics:
        if "bound" not in m or m.get("better") not in ("lower", "higher"):
            raise SpecError(f"spec metric {m.get('name')} has no bound "
                            "or direction")
    return workloads, metrics


def verdict(spec, parent, change):
    """Compares {workload: [result]} sample lists under the spec.

    Returns (failures, rows): failures is a list of messages, empty when
    the change passes; rows hold (workload, metric, parent quartiles,
    change quartiles) for the report. Raises SpecError when the spec
    lacks a workload or bound the samples need, or the reverse.
    """
    workloads, metrics = spec_items(spec)
    for side, samples in (("parent", parent), ("change", change)):
        if set(samples) != set(workloads):
            raise SpecError(f"{side} workloads {sorted(samples)} are not "
                            f"the spec's {sorted(workloads)}")
    failures, rows = [], []
    for w in workloads:
        for side, runs in (("parent", parent[w]), ("change", change[w])):
            if not runs:
                raise SpecError(f"{w}: no {side} runs")
            bad = sum(not r["correct"] for r in runs)
            if bad:
                failures.append(f"{w}: {bad} incorrect {side} run(s)")
        share = {side: sum(r["failed"] for r in runs) /
                 max(sum(r["attempted"] for r in runs), 1)
                 for side, runs in (("parent", parent[w]),
                                    ("change", change[w]))}
        if share["change"] > share["parent"]:
            failures.append(f"{w}: failed share {share['parent']:.3g} -> "
                            f"{share['change']:.3g}")
        for m in metrics:
            a = metric_values(parent[w], m["name"], "parent", w)
            b = metric_values(change[w], m["name"], "change", w)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            rows.append((w, m["name"], qa, qb))
            if m["better"] == "lower":
                worse = qb[1] > qa[1] * (1 + m["bound"])
            else:
                worse = qb[1] < qa[1] * (1 - m["bound"])
            if worse:
                failures.append(f"{w}: {m['name']} median {qa[1]:.4g} -> "
                                f"{qb[1]:.4g} {m['unit']}, past the "
                                f"{m['bound']:g} bound")
    return failures, rows


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (str(Path(t).resolve()) for t in argv[1:])
    with open(Path(parent) / "BENCHMARK.json") as f:
        spec = json.load(f)
    try:
        spec_items(spec)
        samples = collect(parent, change, spec)
        failures, rows = verdict(spec, samples["parent"], samples["change"])
    except SpecError as e:
        print(f"perf_ab: {e}", file=sys.stderr)
        return 2
    print(f"{PAIRS} pairs, {SECONDS} s runs, seeds {SEEDS[0]}-{SEEDS[-1]};"
          " median [q1, q3]")
    for w, name, qa, qb in rows:
        print(f"{w:12s} {name:12s} parent {qa[1]:.4g} [{qa[0]:.4g}, "
              f"{qa[2]:.4g}]  change {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]"
              f"  x{qb[1] / qa[1] if qa[1] else float('nan'):.3f}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("PASS" if not failures else "FAIL")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
