#!/usr/bin/env python3
"""memstream benchmark runner.

Builds the in-process benchmark (perfbench/CMakeLists.txt) from the
checkout's sources, runs one workload, checks every deterministic output
against perfbench/expected.json, and prints the metrics BENCHMARK.json
lists. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload sim_faults --seed 1 --seconds 36 \
        --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the span tree next to the build). --threads sets the worker
threads (default 2). --record rewrites this seed's expected outputs
instead of checking them. The command exits 1 on any output mismatch.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
WORKLOADS = ("sim_paper", "sim_faults", "farm_zipf", "admit_churn")
# A workload run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target).resolve()


def build():
    """Configures (once) and builds memstream_bench; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "memstream_bench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "memstream_bench"


def run_binary(binary, workload, seed, seconds, trace, threads=2, spans=None):
    """Runs one workload; returns the binary's raw measurement document."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--threads", str(threads)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected():
    with open(EXPECTED) as f:
        return json.load(f)


def expected_items(expected, workload, seed):
    """Item name -> expected fields known for this workload and seed."""
    items = {}
    if workload in ("sim_paper", "sim_faults"):
        # The seven paper configs do not depend on the seed, and the
        # traced (event-scheduled) path must match the eager one.
        items.update(expected["sim_configs"])
    if workload != "sim_paper":
        items.update(expected[workload].get(str(seed), {}))
    return items


def check(doc, expected):
    """Returns the list of problems: errors, non-determinism, mismatches."""
    problems = []
    reps = doc["reps"] + doc["traced_reps"]
    first = doc["reps"][0]["outputs"]
    want = expected_items(expected, doc["workload"], doc["seed"])
    for i, rep in enumerate(reps):
        if rep["error"]:
            problems.append(f"rep {i}: {rep['error']}")
        if rep["outputs"] != first:
            problems.append(f"rep {i}: outputs differ from rep 0")
    for item, fields in want.items():
        got = first.get(item)
        if got != fields:
            problems.append(f"{item}: expected {fields}, got {got}")
    if doc["extras_error"]:
        problems.append(doc["extras_error"])
    return problems


def rep_failures(doc, problems):
    """(attempted, failed) over every repetition; a repetition that
    errors or fails the output check counts as failed in full."""
    attempted = failed = 0
    for rep in doc["reps"] + doc["traced_reps"]:
        attempted += rep["attempted"]
        bad = rep["error"] or problems
        failed += max(rep["attempted"], 1) if bad else rep["failed"]
    return max(attempted, 1), failed


def median_rate(reps, key):
    rates = [r[key] / r["wall_s"] for r in reps
             if r[key] > 0 and r["wall_s"] > 0]
    return statistics.median(rates) if rates else 0.0


def metrics(doc, spec, trace, attempted, failed):
    """The metric values BENCHMARK.json names, for this run mode."""
    reps = doc["reps"]
    if not trace:
        values = {
            "setup_s": statistics.median(doc["setup_s"]),
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        names = spec["end_to_end"]
    else:
        values = dict(doc["layers"])
        untraced = statistics.median(r["wall_s"] for r in reps)
        traced = statistics.median(r["wall_s"] for r in doc["traced_reps"])
        values["trace.overhead_share"] = traced / untraced - 1
        values["sim_ios_per_s"] = median_rate(reps, "sim_ios")
        values["farm_admitted_per_s"] = median_rate(reps, "farm_admitted")
        values["admit_decisions_per_s"] = median_rate(reps, "admit_decisions")
        values["failed_share"] = failed / attempted
        names = spec["per_layer"]
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in names}


def record(doc, expected):
    """Stores this run's outputs as the expected values for its seed."""
    outputs = doc["reps"][0]["outputs"]
    workload, seed = doc["workload"], str(doc["seed"])
    if workload == "sim_paper":
        expected["sim_configs"] = outputs
        return
    if workload == "sim_faults":
        outputs = {k: v for k, v in outputs.items()
                   if k not in expected["sim_configs"]}
    expected[workload][seed] = outputs


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=2)
    p.add_argument("--record", action="store_true")
    args = p.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    spans = None
    if args.trace:
        spans = build_dir() / f"spans_{args.workload}_{args.seed}.json"
    try:
        doc = run_binary(binary, args.workload, args.seed, args.seconds,
                         args.trace, args.threads, spans)
    except (subprocess.SubprocessError, ValueError, IndexError) as e:
        log(f"{args.workload} failed: {e}")
        return 1

    expected = load_expected()
    if args.record:
        record(doc, expected)
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
    problems = check(doc, expected)
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    attempted, failed = rep_failures(doc, problems)
    values = metrics(doc, spec, args.trace, attempted, failed)

    print(f"# {args.workload} seed={args.seed} reps={len(doc['reps'])}"
          f" traced_reps={len(doc['traced_reps'])}"
          f" setups={len(doc['setup_s'])}")
    for name, m in values.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": values}
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
