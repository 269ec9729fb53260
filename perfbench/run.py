#!/usr/bin/env python3
"""Benchmark of polariton-2dcs: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client runs one job at a time (a
closed loop).  With ``--trace 0`` the workload's pass repeats until the next
pass would end after ``--seconds``, and the end-to-end metrics of
BENCHMARK.json are reported.  With ``--trace 1`` one untraced and one traced
pass run, then the CLI jobs of the other workloads run traced, so that every
per-layer metric is measured on every workload; ``--seconds`` is not used.

Every output is checked against the values recorded from the seed commit in
``reference.json`` (see make_reference.py).  The last stdout line is the
result object; the line before it holds the details: environment, inputs,
sample counts, workload-scoped metrics and byte identity.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import common  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
RUN_LIMIT_S = 170.0          # a run must exit within 180 s
SETUP_REPEATS = 3
TWOD_FORMATS = ("csv", "json")


class Job(NamedTuple):
    wall: float
    code: int
    stdout: str
    stderr: str


class Run:
    """State of one benchmark run: counters, samples, spans and its scratch directory."""

    def __init__(self, workload: str, seed: int, refs: dict):
        self.workload, self.seed, self.refs = workload, seed, refs
        self.started = time.perf_counter()
        self.work = common.WORK_ROOT / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = common.child_env()
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.byte_identical = self.byte_checked = 0
        self.max_rss_kb = 0
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.span_sets: list[list] = []
        self._verified: dict[str, str] = {}   # output key -> bytes already checked
        self._count = 0

    # -- bookkeeping -------------------------------------------------------

    def op(self, problems: list[str], what: str) -> bool:
        """Count one operation; it failed if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {problems[0]}")
        return not problems

    def path(self, name: str) -> Path:
        self._count += 1
        return self.work / f"{self._count:04d}-{name}"

    def write_config(self, name: str, config: dict) -> Path:
        path = self.work / name
        if not path.exists():
            path.write_text(json.dumps(config))
        return path

    # -- processes ---------------------------------------------------------

    def spawn(self, argv: list[str], label: str) -> Job:
        """Run one process to its end; wall time is spawn to exit, RSS from its rusage."""
        budget = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if budget <= 0:
            self.op(["run time limit reached"], label)
            raise TimeoutError(f"{RUN_LIMIT_S:g} s run limit reached before {label}")
        out, err = self.path("stdout"), self.path("stderr")
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fout, stderr=ferr, env=self.env, cwd=common.ROOT)
            killer = threading.Timer(budget, proc.kill)   # a hung job ends the run in time
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        job = Job(wall, proc.returncode, out.read_text(), err.read_text())
        tail = job.stderr.strip().splitlines()[-1:] or [""]
        self.op([] if job.code == 0 else [f"exit code {job.code} {tail[0]}"], label)
        return job

    def cli(self, argv: list[str], traced: bool) -> Job:
        """One polariton-2dcs CLI job; traced jobs also record per-layer spans."""
        if not traced:
            return self.spawn([sys.executable, "-m", "polariton2dcs.cli", *argv], argv[0])
        spans = self.path("spans.json")
        job = self.spawn([sys.executable, str(CHILD), "cli", str(spans), "--", *argv],
                         f"traced {argv[0]}")
        self.load_spans(spans)
        return job

    def load_spans(self, path: Path) -> None:
        if path.is_file():
            self.span_sets.append(json.loads(path.read_text())["spans"])

    # -- output checks -----------------------------------------------------

    def check_file(self, path: Path, key: str) -> None:
        """One operation; bytes already verified in this run are not parsed again."""
        digest = common.sha256(path) if path.is_file() else None
        ref = self.refs["files"].get(key)
        if digest is not None and self._verified.get(key) == digest:
            problems = []
        else:
            problems = common.check_file(path, ref)
            if not problems:
                self._verified[key] = digest
        self.byte_checked += 1
        self.byte_identical += bool(ref) and digest == ref["sha256"]
        self.op(problems, key)

    def check_report(self, job: Job, key: str) -> None:
        if job.code != 0:
            return
        if self._verified.get(key) == job.stdout:
            self.op([], key)
        elif self.op(common.check_report(job.stdout, self.refs["files"].get(key)), key):
            self._verified[key] = job.stdout

    def check_validate(self, out: Path) -> None:
        """Each oracle check is one operation, failed unless validate.json says it passed."""
        try:
            results = {r["name"]: r["passed"] for r in
                       json.loads((out / "validate.json").read_text())}
        except (OSError, ValueError, KeyError, TypeError):
            results = {}
        for name in self.refs["validate_checks"]:
            self.op([] if results.get(name) is True else ["check did not pass"], f"validate {name}")


# ---------------------------------------------------------------------------
# workloads: one pass each, returning the wall time of its jobs


def t_arg(t_list: list[float]) -> str:
    return ",".join(f"{t:g}" for t in t_list)


def t_stem(t_wait: float) -> str:
    """File-name stem the CLI uses for a waiting time."""
    return f"{t_wait:g}".replace("-", "m").replace(".", "p")


def twod_job(run: Run, t_list: list[float], traced: bool, peaks_on: int) -> tuple[float, float]:
    """twod on the shipped config (csv and json), then peaks on the files of the first
    ``peaks_on`` maps; returns the wall time of the twod job and of all jobs."""
    out = run.path("twod")
    start = time.perf_counter()
    job = run.cli(["twod", "--config", str(common.SHIPPED_CONFIG), "--out", str(out),
                   "--t-list", t_arg(t_list), "--format", ",".join(TWOD_FORMATS)], traced)
    run.samples["twod_job_s"].append(job.wall)
    names = [f"twod_T{t_stem(t)}fs.{fmt}" for t in t_list for fmt in TWOD_FORMATS]
    reports = []
    for name in names[:len(TWOD_FORMATS) * peaks_on]:
        report = run.cli(["peaks", str(out / name)], traced)
        run.samples["peaks_job_s"].append(report.wall)
        reports.append((name, report))
    wall = time.perf_counter() - start
    for name in names:
        run.check_file(out / name, f"twod/{name}")
    for name, report in reports:
        run.check_report(report, f"peaks/{name}")
    shutil.rmtree(out, ignore_errors=True)
    return job.wall, wall


def pass_twod_series(run: Run, traced: bool) -> float:
    t_list = common.pick_t(run.seed, 4, salt=0)
    job_wall, wall = twod_job(run, t_list, traced, peaks_on=len(t_list))
    run.samples["job_s"].append(job_wall)
    return wall


def pass_spectra_sweep(run: Run, traced: bool) -> float:
    spans = run.path("spans.json")
    argv = [sys.executable, str(CHILD), "sweep", str(run.seed)] + ([str(spans)] if traced else [])
    job = run.spawn(argv, "sweep")
    run.samples["job_s"].append(job.wall)
    if traced:
        run.load_spans(spans)
    if job.code == 0:
        for item in json.loads(job.stdout.splitlines()[-1])["items"]:
            kind = "map2d_ms" if item["kind"] == "twod" else "spectrum1d_ms"
            run.samples[kind].append(1e3 * item["seconds"])
            run.op(item["problems"], f"sweep {item['key']} {item['kind']}")
    return job.wall


def validate_job(run: Run, traced: bool) -> float:
    out = run.path("validate")
    job = run.cli(["validate", "--out", str(out)], traced)
    run.check_validate(out)
    shutil.rmtree(out, ignore_errors=True)
    return job.wall


def pass_oracle_suite(run: Run, traced: bool) -> float:
    wall = validate_job(run, traced)
    run.samples["job_s"].append(wall)
    return wall


def slices_job(run: Run, n: int, traced: bool) -> float:
    config = run.write_config(f"config_n{n}.json", common.config_with_n(n))
    out = run.path("slices")
    job = run.cli(["slices", "--config", str(config), "--out", str(out)], traced)
    run.check_file(out / "slices.json", f"slices_n{n}/slices.json")
    shutil.rmtree(out, ignore_errors=True)
    return job.wall


def pass_slices_n20(run: Run, traced: bool) -> float:
    wall = slices_job(run, 20, traced)
    run.samples["job_s"].append(wall)
    return wall


def one_spectrum_job(run: Run, mode: str, t_list: list[float] | None) -> None:
    out = run.path(mode)
    argv = [mode, "--config", str(common.SHIPPED_CONFIG), "--out", str(out)]
    if t_list:
        argv += ["--t-list", t_arg(t_list)]
    run.cli(argv, traced=True)
    stem = mode.replace("-", "_")
    names = [f"{stem}_T{t_stem(t)}fs.csv" for t in t_list] if t_list else [f"{stem}.csv"]
    for name in names:
        run.check_file(out / name, f"{stem}/{name}")
    shutil.rmtree(out, ignore_errors=True)


# CLI jobs a traced run adds so that it measures the layers its own pass does not reach
PROBES = {
    "twod": lambda run: twod_job(run, common.pick_t(run.seed, 2, salt=1), True, peaks_on=1),
    "absorption": lambda run: one_spectrum_job(run, "absorption", None),
    "pump_probe": lambda run: one_spectrum_job(run, "pump-probe", common.pick_t(run.seed, 1, salt=2)),
    "slices_n10": lambda run: slices_job(run, 10, True),
    "slices_n20": lambda run: slices_job(run, 20, True),
    "validate": lambda run: validate_job(run, True),
}

WORKLOADS = {
    # name: (pass, setup config, setup mode, probes of the traced run)
    "twod_series": (pass_twod_series, "shipped", "twod",
                    ("absorption", "pump_probe", "slices_n10", "slices_n20", "validate")),
    "spectra_sweep": (pass_spectra_sweep, "shipped", "twod",
                      ("twod", "slices_n10", "slices_n20", "validate")),
    "oracle_suite": (pass_oracle_suite, "shipped", "validate",
                     ("twod", "absorption", "pump_probe", "slices_n10", "slices_n20")),
    "slices_n20": (pass_slices_n20, "n20", "slices",
                   ("twod", "absorption", "pump_probe", "slices_n10", "validate")),
}


# ---------------------------------------------------------------------------
# metrics


def median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    rank = n - 11
    return ordered[rank], 100.0 * rank / (n - 1), n


def measure_setup(run: Run, config_kind: str, mode: str) -> float:
    config = (common.SHIPPED_CONFIG if config_kind == "shipped"
              else run.write_config("config_n20.json", common.config_with_n(20)))
    for _ in range(SETUP_REPEATS):
        job = run.spawn([sys.executable, str(CHILD), "setup", str(config), mode], "setup")
        if job.code == 0:
            run.samples["setup_s"].append(json.loads(job.stdout)["setup_s"])
    return median(run.samples["setup_s"])


def layer_metrics(span_sets: list[list], checks: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of every traced process of a run."""
    calls: dict[str, list] = defaultdict(list)     # name -> [(seconds, tag)]
    maps = []                                      # one entry per traced 2D map
    for spans in span_sets:
        first = True
        for index, (name, start, end, _, tag) in enumerate(spans):
            calls[name].append((end - start, tag))
            if name == "signals.twod_signal":
                blocks = sum(e - s for n, s, e, parent, _ in spans
                             if parent == index and n.startswith("propagator.fourier"))
                m_max, n1, n3 = tag
                maps.append({"s": end - start, "blocks": blocks, "first": first,
                             "evals": (3 * m_max + 1) * (n1 + n3)})
                first = False

    def med(name, keep=None, value=lambda d, t: d):
        """Median over calls of ``name`` whose tag equals ``keep`` (or passes it, if callable)."""
        picked = [value(d, t) for d, t in calls.get(name, [])
                  if keep is None or (keep(t) if callable(keep) else t == keep)]
        return statistics.median(picked) if picked else None

    def grid2d(tag):                # writes of 2D maps only, not of 1D spectra
        return tag[1]

    suites = max(1, sum(1 for _, t in calls.get("validate.check", []) if t == checks[0]))
    warm = [m for m in maps if not m["first"]] or maps
    out = {
        "cli.import_s": (med("import.cli"), "s"),
        "peaks.import_s": (med("import.peaks"), "s"),
        "cli.build_jobspec_s": (med("cli.build_jobspec"), "s"),
        "cli.write_csv_s": (med("cli.write_csv", grid2d), "s"),
        "cli.write_csv_bytes": (med("cli.write_csv", grid2d, lambda d, t: t[0]), "bytes"),
        "cli.write_json_grid_s": (med("cli.write_json_grid", grid2d), "s"),
        "cli.write_json_grid_bytes": (med("cli.write_json_grid", grid2d, lambda d, t: t[0]), "bytes"),
        "cli.write_manifest_s": (med("cli.write_manifest"), "s"),
        "peaks.load_grid_csv_s": (med("peaks.load_grid", "csv"), "s"),
        "peaks.load_grid_json_s": (med("peaks.load_grid", "json"), "s"),
        "peaks.grid_peak_report_s": (med("peaks.grid_peak_report"), "s"),
        "propagator.decompose_s": (med("propagator.decompose"), "s"),
        "vibrations.kernel_from_params_s": (med("vibrations.kernel_from_params"), "s"),
        "propagator.transform_blocks_s": (statistics.median(m["blocks"] for m in warm) if maps else None, "s"),
        "propagator.transform_evals.computed": (statistics.median(m["evals"] for m in maps) if maps else None, "count"),
        "signals.twod_signal_s": (statistics.median(m["s"] for m in warm) if maps else None, "s"),
        "signals.twod_rest_s.derived": (statistics.median(m["s"] - m["blocks"] for m in warm) if maps else None, "s"),
        "signals.twod_signal_first_s": (statistics.median(m["s"] for m in maps if m["first"]) if maps else None, "s"),
        "signals.linear_absorption_s": (med("signals.linear_absorption"), "s"),
        "signals.pump_probe_s": (med("signals.pump_probe"), "s"),
        "signals.pump_probe_slices_n10_s": (med("signals.pump_probe_slices", 10), "s"),
        "signals.pump_probe_slices_n20_s": (med("signals.pump_probe_slices", 20), "s"),
        "propagator.quadrature_fourier_s": (med("propagator.quadrature_fourier"), "s"),
        "propagator.quadrature_fourier_calls": (len(calls.get("propagator.quadrature_fourier", [])) / suites, "count"),
        "signals.twod_signal_direct_s": (med("signals.twod_signal_direct"), "s"),
        "signals.twod_signal_direct_tuples.computed": (
            sum(t ** 4 * (t + 1) for _, t in calls.get("signals.twod_signal_direct", [])) / suites, "count"),
        "signals.pump_probe_direct_s": (med("signals.pump_probe_direct"), "s"),
        "signals.pump_probe_direct_tuples.computed": (
            sum(t ** 4 for _, t in calls.get("signals.pump_probe_direct", [])) / suites, "count"),
        "vibrations.fock_correlator_s": (med("vibrations.fock_correlator"), "s"),
    }
    for check in checks:
        out[f"validate.{check}_s"] = (med("validate.check", check), "s")
    return out


def environment() -> dict:
    """Versions, BLAS threading in effect and CPU count of the machine running the jobs."""
    import numpy as np

    blas = {"threads": None, "config": None,
            "env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS") if k in os.environ}}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and blas["threads"] is None:
                    get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                    blas["threads"] = get_threads()
                if get_config is not None and blas["config"] is None:
                    get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                    blas["config"] = get_config().decode()

    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def inputs(workload: str, seed: int) -> dict:
    """What the seed gives the workload: N, m_max, grid sizes and T lists."""
    sys.path.insert(0, str(common.SRC))
    from polariton2dcs.model import validate_params
    from polariton2dcs.vibrations import kernel_from_params

    def system(config: dict) -> dict:
        params = validate_params(config["system"])
        return {"n_molecules": params.n_molecules, "lambda_hr": params.lambda_hr,
                "m_max": kernel_from_params(params).m_max}

    shipped = common.shipped_config()
    if workload == "twod_series":
        return {**system(shipped), "t_list": common.pick_t(seed, 4, salt=0),
                "grids": {k: shipped["grids"][k]["count"] for k in ("omega1", "omega3")},
                "formats": list(TWOD_FORMATS)}
    if workload == "spectra_sweep":
        pool = common.sweep_pool()
        return {"grids": {k: v[2] for k, v in common.SWEEP_AXES.items()},
                "sets": [{"key": k, **system(pool[k]), "t_wait": pool[k]["t_wait"]}
                         for k in common.sweep_keys(seed)]}
    if workload == "oracle_suite":
        return {"suite": "validate.ALL_CHECKS with their fixed seeds"}
    n20 = common.config_with_n(20)
    return {**system(n20), "t_list": n20["t_wait"], "stokes_orders": n20["stokes_orders"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    problem = common.checkout_problem()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    refs = json.loads(common.REFERENCE.read_text())
    one_pass, setup_config, setup_mode, probes = WORKLOADS[args.workload]
    run = Run(args.workload, args.seed, refs)
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "inputs": inputs(args.workload, args.seed), "environment": environment()}
    metrics: dict[str, tuple[float | None, str]] = {}
    try:
        setup_s = measure_setup(run, setup_config, setup_mode)
        if args.trace == 0:
            start = time.perf_counter()
            passes = []
            while True:
                began = time.perf_counter()
                passes.append(one_pass(run, False))
                now = time.perf_counter()
                if now + (now - began) > start + args.seconds:
                    break
            metrics = {
                "setup_s": (setup_s, "s"),
                "run_s": (statistics.median(passes), "s"),
                "job_s": (median(run.samples["job_s"]), "s"),
                "peak_rss_mb": (run.max_rss_kb / 1024.0, "MiB"),
            }
            detail["passes"] = len(passes)
        else:
            untraced = one_pass(run, False)
            traced = one_pass(run, True)
            for name in probes:
                PROBES[name](run)
            metrics = layer_metrics(run.span_sets, refs["validate_checks"])
            metrics.update({"trace.run_untraced_s": (untraced, "s"),
                            "trace.run_traced_s": (traced, "s"),
                            "trace.overhead_s": (traced - untraced, "s")})
    except TimeoutError as exc:
        run.problems.append(str(exc))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            common.WORK_ROOT.rmdir()
        except OSError:
            pass                      # another run is still using it

    missing = sorted(name for name, (value, _) in metrics.items() if value is None)
    for name in missing:
        run.problems.append(f"metric {name} was not measured")
    scoped = {}
    for name in ("peaks_job_s", "twod_job_s", "map2d_ms", "spectrum1d_ms"):
        values = run.samples.get(name)
        if values:
            scoped[name] = {"median": statistics.median(values), "samples": len(values)}
            high = tail(values)
            if high:
                scoped[f"{name}_tail"] = {"value": high[0], "percentile": high[1], "samples": high[2]}
    detail.update({
        "workload_metrics": scoped,
        "samples": {k: len(v) for k, v in run.samples.items()},
        "job_s_samples": run.samples["job_s"],
        "failed_frac": run.failed / max(run.attempted, 1),
        "byte_identical": {"files": run.byte_identical, "checked": run.byte_checked},
        "problems": run.problems[:20],
    })
    print(json.dumps({"detail": detail}))
    result = {
        "correct": run.failed == 0 and bool(metrics) and not missing and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
