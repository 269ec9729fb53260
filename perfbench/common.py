"""Shared pieces of the benchmark: checkout paths, seeded inputs, output checks.

Imported by ``run.py`` (the orchestrator), ``child.py`` (the fresh processes
it spawns) and ``make_reference.py``.  Only the standard library and numpy
are used, and importing this module has no side effects.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "polariton2dcs"
SHIPPED_CONFIG = ROOT / "configs" / "cyanine_n10.json"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORK_ROOT = ROOT / ".perfbench_work"

# Output values must match the recorded seed values to this relative
# tolerance (max norm over the array, as the oracle checks in validate.py).
RTOL = 1e-10

# Waiting times (fs) whose 2D and pump-probe outputs are recorded; a seed
# draws the T lists of its jobs from this pool.
T_POOL = (0.0, 125.0, 250.0, 375.0, 500.0, 625.0, 750.0, 875.0)

# spectra_sweep parameter pool: SWEEP_STRATA values of lambda, each with one
# variant per N.  A seed picks one variant per stratum, so every run covers
# the same lambda (and so m_max) spread while N, detuning, rates and T vary.
SWEEP_POOL_SEED = 221013366
SWEEP_STRATA = 24
SWEEP_N = (1, 10, 1000, 1000000)
SWEEP_AXES = {  # (start, stop, count), absolute cm^-1, as in the shipped config
    "omega1": (13000.0, 19000.0, 300),
    "omega3": (13000.0, 19000.0, 300),
    "absorption": (13000.0, 19000.0, 2000),
    "pump_probe": (12000.0, 19000.0, 2000),
}


def checkout_problem() -> str | None:
    """Why this directory cannot be benchmarked, or None when it can."""
    for need in (PACKAGE / "__init__.py", PACKAGE / "cli.py", SHIPPED_CONFIG):
        if not need.is_file():
            return f"missing {need.relative_to(ROOT)}: run from the root of a full checkout"
    return None


def child_env() -> dict:
    """Environment of every spawned process: the checkout's sources first.

    BLAS threading is left at the machine default on purpose.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# seeded inputs


def shipped_config() -> dict:
    return json.loads(SHIPPED_CONFIG.read_text())


def config_with_n(n: int) -> dict:
    """Shipped config at N molecules with the collective coupling kept (g = 1800/sqrt(N))."""
    cfg = shipped_config()
    cfg["system"]["n_molecules"] = n
    cfg["system"]["g"] = 1800.0 / math.sqrt(n)
    return cfg


def pick_t(seed: int, count: int, salt: int) -> list[float]:
    """``count`` distinct waiting times from T_POOL, sorted, fixed by seed and salt."""
    rng = np.random.default_rng([seed, salt])
    return sorted(float(t) for t in rng.choice(T_POOL, size=count, replace=False))


def sweep_pool() -> dict[str, dict]:
    """Every recorded spectra_sweep parameter set, keyed '<stratum>-<variant>'."""
    rng = np.random.default_rng(SWEEP_POOL_SEED)
    pool = {}
    for s, lam in enumerate(np.linspace(0.2, 3.0, SWEEP_STRATA)):
        for v, n in enumerate(SWEEP_N):
            # detuning and rates span the ranges of validate._random_params;
            # the collective coupling g*sqrt(N) is drawn so that large N stays physical
            collective = rng.uniform(200.0, 1800.0)
            pool[f"{s}-{v}"] = {
                "system": {
                    "n_molecules": n,
                    "g": float(collective / math.sqrt(n)),
                    "delta_x": float(rng.uniform(-300.0, 300.0)),
                    "delta_c": float(rng.uniform(-300.0, 300.0)),
                    "gamma_x": float(rng.uniform(0.3, 3.0)),
                    "gamma_c": float(rng.uniform(0.3, 3.0)),
                    "omega_v": float(rng.uniform(600.0, 1600.0)),
                    "gamma_v": float(rng.uniform(5.0, 40.0)),
                    "lambda_hr": float(lam),
                    "omega_ref": 16113.0,
                },
                "t_wait": float(rng.uniform(0.0, 1000.0)),
            }
    return pool


def sweep_keys(seed: int) -> list[str]:
    """The parameter sets one spectra_sweep pass computes, in order."""
    rng = np.random.default_rng([seed, 3])
    variants = rng.integers(0, len(SWEEP_N), size=SWEEP_STRATA)
    return [f"{s}-{variants[s]}" for s in rng.permutation(SWEEP_STRATA)]


# ---------------------------------------------------------------------------
# output checks


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _collect(node, path: str, arrays: dict, labels: list) -> None:
    """Group numeric leaves by key path (list positions dropped), in document order."""
    if isinstance(node, dict):
        for key in sorted(node):
            _collect(node[key], f"{path}.{key}" if path else str(key), arrays, labels)
    elif isinstance(node, list):
        for item in node:
            _collect(item, path, arrays, labels)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        arrays.setdefault(path, []).append(float(node))
    else:
        labels.append([path, node])


def parse_json_values(text: str) -> tuple[dict[str, np.ndarray], list]:
    """Numeric arrays by key path, and the non-numeric leaves as [path, value] labels."""
    arrays: dict = {}
    labels: list = []
    _collect(json.loads(text), "", arrays, labels)
    return {k: np.asarray(v, dtype=float) for k, v in arrays.items()}, labels


def parse_file(path: Path) -> dict[str, np.ndarray]:
    """Numeric arrays of a file the CLI wrote: CSV columns by header name, JSON by key path."""
    text = path.read_text()
    if path.suffix != ".csv":
        return parse_json_values(text)[0]
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    data = np.loadtxt(body[1:], delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(body[0].split(","))}


def _weights(n: int) -> np.ndarray:
    """Four random-sign projection vectors for an array of n values; fixed by n alone."""
    return np.random.default_rng(n).choice((-1.0, 1.0), size=(4, n))


def fingerprint(values: np.ndarray) -> dict:
    """Values at 32 seeded and the 8 largest-magnitude indices, plus projections.

    A change larger than RTOL * max|values| at a recorded index, or at any
    single index through the four random-sign projections, moves the
    fingerprint beyond its tolerance.  Rounding-level differences spread
    over the array sum to about sqrt(n) * 1e-16 * max, far below it.
    """
    values = np.asarray(values, dtype=float).ravel()
    n = values.size
    sampled = np.random.default_rng([n, 1]).choice(n, size=min(n, 32), replace=False)
    top = np.argsort(-np.abs(values), kind="stable")[:8]
    idx = np.unique(np.concatenate([sampled, top]))
    return {
        "n": n,
        "max": float(np.max(np.abs(values))) if n else 0.0,
        "idx": idx.tolist(),
        "at_idx": values[idx].tolist(),
        "proj": (_weights(n) @ values).tolist(),
    }


def fingerprints(arrays: dict[str, np.ndarray]) -> dict[str, dict]:
    return {name: fingerprint(arr) for name, arr in arrays.items()}


def compare(arrays: dict[str, np.ndarray], ref: dict[str, dict], labels: list | None = None,
            ref_labels: list | None = None) -> list[str]:
    """Mismatches of parsed values against recorded fingerprints (empty = match).

    Every recorded field must be present and match; fields the reference
    does not know are ignored.
    """
    problems = []
    for name, fp in ref.items():
        if name not in arrays:
            problems.append(f"{name}: missing")
            continue
        values = np.asarray(arrays[name], dtype=float).ravel()
        if values.size != fp["n"]:
            problems.append(f"{name}: {values.size} values, recorded {fp['n']}")
            continue
        scale = RTOL * fp["max"]
        err = float(np.max(np.abs(values[fp["idx"]] - np.asarray(fp["at_idx"])), initial=0.0))
        if not err <= scale:
            problems.append(f"{name}: sampled values differ by {err:.3e} > {scale:.3e}")
        diff = np.abs(_weights(values.size) @ values - np.asarray(fp["proj"]))
        if not np.all(diff <= scale):
            problems.append(f"{name}: projections differ by {float(np.max(diff)):.3e}")
    if ref_labels is not None and labels != ref_labels:
        problems.append("non-numeric fields differ")
    return problems


def check_file(path: Path, ref: dict | None) -> list[str]:
    """Mismatches of one written data file against its reference (empty = match)."""
    if ref is None:
        return [f"no reference recorded for {path.name}"]
    if not path.is_file():
        return [f"{path.name} was not written"]
    try:
        arrays = parse_file(path)
    except (ValueError, IndexError) as exc:
        return [f"{path.name}: cannot parse: {exc}"]
    return compare(arrays, ref["values"])


def check_report(stdout: str, ref: dict | None) -> list[str]:
    """Mismatches of a ``peaks`` report (its stdout) against the recorded one."""
    if ref is None:
        return ["no reference recorded"]
    try:
        arrays, labels = parse_json_values(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    return compare(arrays, ref["values"], labels, ref["labels"])
