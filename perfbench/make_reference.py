#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/make_reference.py

Run from the root of a checkout of the commit whose outputs define
"correct" (the benchmark's seed commit).  It runs the CLI jobs of every
workload over the whole input pools (all waiting times in common.T_POOL,
every spectra_sweep parameter set) and writes perfbench/reference.json: for
each data file its sha256 and value fingerprints, for each ``peaks`` report
its fingerprints and labels, and the names of the validate checks.  Takes
about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import common  # noqa: E402
from perfbench.run import CHILD, t_arg, t_stem  # noqa: E402


def cli(argv: list[str]) -> str:
    done = subprocess.run([sys.executable, "-m", "polariton2dcs.cli", *argv], env=common.child_env(),
                          cwd=common.ROOT, capture_output=True, text=True, check=True)
    return done.stdout


def record_file(files: dict, key: str, path: Path) -> None:
    files[key] = {"sha256": common.sha256(path),
                  "values": common.fingerprints(common.parse_file(path))}


def main() -> int:
    problem = common.checkout_problem()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    files: dict = {}
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=common.ROOT))
    try:
        shipped = str(common.SHIPPED_CONFIG)
        t_all = t_arg(list(common.T_POOL))
        cli(["twod", "--config", shipped, "--out", str(work / "twod"), "--t-list", t_all,
             "--format", "csv,json"])
        for t in common.T_POOL:
            for fmt in ("csv", "json"):
                name = f"twod_T{t_stem(t)}fs.{fmt}"
                record_file(files, f"twod/{name}", work / "twod" / name)
                arrays, labels = common.parse_json_values(cli(["peaks", str(work / "twod" / name)]))
                files[f"peaks/{name}"] = {"values": common.fingerprints(arrays), "labels": labels}
        cli(["absorption", "--config", shipped, "--out", str(work / "abs")])
        record_file(files, "absorption/absorption.csv", work / "abs" / "absorption.csv")
        cli(["pump-probe", "--config", shipped, "--out", str(work / "pp"), "--t-list", t_all])
        for t in common.T_POOL:
            name = f"pump_probe_T{t_stem(t)}fs.csv"
            record_file(files, f"pump_probe/{name}", work / "pp" / name)
        for n in (10, 20):
            config = work / f"config_n{n}.json"
            config.write_text(json.dumps(common.config_with_n(n)))
            cli(["slices", "--config", str(config), "--out", str(work / f"slices{n}")])
            record_file(files, f"slices_n{n}/slices.json", work / f"slices{n}" / "slices.json")
        cli(["validate", "--out", str(work / "validate")])
        checks = [r["name"] for r in json.loads((work / "validate" / "validate.json").read_text())]
        sweep = subprocess.run([sys.executable, str(CHILD), "sweep", "0", "--record"],
                               env=common.child_env(), cwd=common.ROOT, capture_output=True,
                               text=True, check=True)
        for item in json.loads(sweep.stdout.splitlines()[-1])["items"]:
            files[f"sweep/{item['key']}/{item['kind']}"] = {"values": item["values"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"files": files, "validate_checks": checks}
    common.REFERENCE.write_text(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {common.REFERENCE} with {len(files)} entries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
