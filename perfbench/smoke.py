#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py [WORKLOAD ...]

Runs every workload of BENCHMARK.json and spectra_sweep (or the ones named)
once at the smallest run length, untraced and traced, and asserts that each
run exits 0, prints a correct result as its last line, and emits every
metric BENCHMARK.json names with its unit.  Then it checks that the benchmark refuses to run in a directory
that holds only BENCHMARK.json and perfbench/.  Takes about six minutes,
most of it in the traced runs, which all run the validate suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=200)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # spectra_sweep is not in BENCHMARK.json (see README.md) but is checked all the same
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]] + ["spectra_sweep"]
    failures = []
    for workload in workloads:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                failures.append(f"{label}: exit code {done.returncode}: {done.stderr[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                failures.append(f"{label}: not correct ({result.get('failed')} failed): "
                                f"{done.stdout.strip().splitlines()[-2][-300:]}")
            metrics = result.get("metrics", {})
            for metric in spec[group]:
                got = metrics.get(metric["name"])
                if got is None:
                    failures.append(f"{label}: metric {metric['name']} missing")
                elif got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
                    failures.append(f"{label}: metric {metric['name']} reported as {got}")
            extra = sorted(set(metrics) - {m["name"] for m in spec[group]})
            if extra:
                failures.append(f"{label}: metrics not in BENCHMARK.json: {extra}")
            print(f"{label}: {len(metrics)} metrics, {result.get('attempted')} operations", flush=True)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, workloads[0], 0)
        if done.returncode == 0 or done.stdout.strip():
            failures.append("benchmark did not refuse a directory without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass                      # a benchmark run is still using it

    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke check passed" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
