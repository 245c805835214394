#!/usr/bin/env python3
"""Fails when a library function is linked into no binary.

    python3 tests/src_symbols_reached.py WORK_DIR [REPO_ROOT]
        [--cxx COMPILER] [--launcher LAUNCHER]

Builds the bench, example and tool executables of the main project and
perfbench's memstream_bench in two trees under WORK_DIR, at -O0 with
-ffunction-sections -fdata-sections -Wl,--gc-sections: nothing is
inlined, and the linker drops every function no binary calls. A
memstream:: function defined in a libmemstream_*.a that no binary keeps
is dead code, and the check names it and exits 1. The few functions
that only tests call on purpose are listed in ALLOWED; an entry that
matches no unlinked function is stale and fails the check too.

A rerun over the same WORK_DIR rebuilds incrementally.
"""

import argparse
import fnmatch
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from src_headers_reached import ROOT_DIRS

# Demangled-name patterns ([abi:...] tags dropped) of library functions
# that no binary links and that stay; each names its kind and the tests
# that need it.
ALLOWED = (
    # test hook: profiler_test fixes the profiler's clock
    "memstream::prof::Profiler::SetClockForTesting(*",
    # test hook: profiler_test and cycle_alloc_test count allocations
    "memstream::prof::Profiler::SetAllocCounter(*",
    # test hook: logging_test captures the formatted lines
    "memstream::SetLogSink(*",
    # oracle: incremental_model_test checks the memoized cache sizing
    "memstream::model::CacheTotalBuffer(*",
    # oracle: mems_cache_test checks Corollary 4's bank against one device
    "memstream::model::ScaledBankProfile(*",
    # oracle: planner_test checks the closed-form T_disk optimum
    "memstream::GoldenSectionMinimize(*",
    # oracle: admission_test and incremental_model_test recompute the DRAM
    "memstream::server::AdmissionController::CurrentDramRequirement(*",
    # oracle: degradation_test and incremental_model_test check shed plans
    # (the pattern takes its lambdas and their memo instantiation too)
    "*memstream::fault::DegradationManager::MaxSustainable(*",
    # oracle: degradation_test checks the disk-absorb bound of a plan
    "memstream::fault::DegradationManager::DiskCanAbsorb(*",
    # observer: metrics_registry_test and sweep_runner_test read metrics
    "memstream::obs::MetricsRegistry::Find*(*",
    # observer: slo_test, journal_slo_e2e_test and completion_path_test
    "memstream::obs::SloMonitor::Find(*",
    "memstream::obs::SloMonitor::Snapshot(*",
    "memstream::obs::SloMonitor::StatusJson(*",
    # observer: timecycle_server_test and completion_path_test read traces
    "memstream::sim::TraceLog::Count(*",
    "memstream::sim::TraceLog::Filter(*",
    # observer: timeline_test checks the recorded point count
    "memstream::obs::TimelineRecorder::total_points(*",
    # observer: report_diff_test looks up one metric's diff row
    "memstream::obs::RunPairDiff::Find(*",
    # observer: qos_auditor_test and timecycle_server_test compare a
    # reused auditor with a fresh one
    "memstream::obs::QosAuditor::Summary(*",
    # exporter: metrics_registry_test, sweep_runner_test and
    # completion_path_test; with its label input and number format
    "memstream::obs::MetricsRegistry::ToPrometheusText(*",
    "memstream::obs::MetricsRegistry::ToCsvText(*",
    "memstream::obs::MetricsRegistry::WriteCsv(*",
    "memstream::obs::MetricsRegistry::SetLabel(*",
    "memstream::obs::Prometheus*(*",
    "memstream::obs::(anonymous namespace)::FormatDouble(*",
)

# Functions in namespace memstream, with their local entities (lambdas),
# by mangled name: a template of std:: instantiated on a memstream type
# does not match.
MEMSTREAM_FUNCTION = re.compile(r"_ZZ?N[rVK]*[RO]?9memstream")


def run(cmd):
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def configure_and_build(source, build, cmake_args, select):
    """Builds the executables `select(name, source_dir)` picks and every
    static library of the project at `source`; returns their paths as
    (executables, libraries)."""
    query = build / ".cmake" / "api" / "v1" / "query" / "codemodel-v2"
    query.parent.mkdir(parents=True, exist_ok=True)
    query.touch()
    run(["cmake", "-S", str(source), "-B", str(build)] + cmake_args)

    reply = build / ".cmake" / "api" / "v1" / "reply"
    index = json.loads(max(reply.glob("index-*.json")).read_text())
    model = json.loads(
        (reply / index["reply"]["codemodel-v2"]["jsonFile"]).read_text())
    config = model["configurations"][0]
    executables, libraries, targets = [], [], []
    for target in config["targets"]:
        info = json.loads((reply / target["jsonFile"]).read_text())
        source_dir = config["directories"][target["directoryIndex"]]["source"]
        if info["type"] == "EXECUTABLE" and select(target["name"], source_dir):
            executables.append(build / info["artifacts"][0]["path"])
        elif info["type"] == "STATIC_LIBRARY":
            libraries.append(build / info["artifacts"][0]["path"])
        else:
            continue
        targets.append(target["name"])

    jobs = str(os.cpu_count() or 1)
    run(["cmake", "--build", str(build), "--parallel", jobs, "--target"]
        + targets)
    return executables, libraries


def functions(path, types):
    """Demangled names, [abi:...] tags dropped, of the memstream functions
    that `path` defines with an nm symbol type in `types`."""
    out = subprocess.run(["nm", "--defined-only", str(path)], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    mangled = []
    for line in out.splitlines():
        fields = line.split()
        if (len(fields) == 3 and fields[1] in types
                and MEMSTREAM_FUNCTION.match(fields[2])):
            mangled.append(fields[2])
    names = subprocess.run(["c++filt"], input="\n".join(mangled), check=True,
                           stdout=subprocess.PIPE, text=True).stdout
    return {re.sub(r"\[abi:\w+\]", "", n) for n in names.splitlines()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("work_dir", type=Path)
    parser.add_argument("repo", type=Path, nargs="?",
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--cxx", default="")
    parser.add_argument("--launcher", default="")
    args = parser.parse_args()
    repo = args.repo.resolve()
    work = args.work_dir.resolve()

    cmake_args = [
        "-DCMAKE_BUILD_TYPE=Debug",
        "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
        "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
        "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
    ]
    if args.cxx:
        cmake_args.append(f"-DCMAKE_CXX_COMPILER={args.cxx}")
    if args.launcher:
        cmake_args.append(f"-DCMAKE_CXX_COMPILER_LAUNCHER={args.launcher}")

    main_bins, libraries = configure_and_build(
        repo, work / "main", cmake_args + ["-DMEMSTREAM_WERROR=OFF"],
        lambda name, source_dir: source_dir.split("/")[0] in ROOT_DIRS)
    bench_bins, _ = configure_and_build(
        repo / "perfbench", work / "perfbench", cmake_args,
        lambda name, source_dir: name == "memstream_bench")
    binaries = main_bins + bench_bins

    # Out-of-line definitions only: an inline function or template
    # instantiation (W) is emitted wherever it is used, so it is dead
    # exactly when its users are.
    defined = set()
    for library in libraries:
        if library.name.startswith("libmemstream_"):
            defined |= functions(library, {"T", "t"})
    linked = set()
    for binary in binaries:
        linked |= functions(binary, {"T", "t", "W"})
    unlinked = defined - linked

    allowed = {p: [n for n in unlinked if fnmatch.fnmatchcase(n, p)]
               for p in ALLOWED}
    dead = sorted(unlinked - {n for names in allowed.values() for n in names})
    stale = [p for p, names in allowed.items() if not names]

    print(f"{len(binaries)} binaries link {len(defined) - len(unlinked)} of "
          f"{len(defined)} library functions; "
          f"{len(unlinked) - len(dead)} more are allowed")
    if dead:
        print("library functions that no bench, example, tool or perfbench "
              "binary links:")
        for name in dead:
            print(f"  {name}")
    if stale:
        print("allowlist entries that match no unlinked function:")
        for pattern in stale:
            print(f"  {pattern}")
    return 1 if dead or stale else 0


if __name__ == "__main__":
    sys.exit(main())
