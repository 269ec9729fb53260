"""Command-line front end: config ingestion, job orchestration, serialization.

Exit codes: 0 success, 1 failed validation check, 2 config error, 3 numeric
failure, 4 I/O failure.  Every mode writes its files, then the manifest, and
only then prints.  ``twod`` and ``pump-probe`` compute one batch of waiting
times per round, one per CPU of the affinity set, and write the batch with
:func:`parallel.fork_map`: the first grid in this process, each other one in
a forked child.  ``validate`` shares the CPUs the same way, inside its heavy
checks (see :mod:`validate`).

Each process imports only the layers its mode runs (see :func:`_load`):
``peaks`` reads a grid and finds its peaks without the spectrum kernels.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import MalformedGrid, NonFiniteResult, ParameterError, PolaritonError, TooLarge
from .grids import Axis, SpectrumGrid, finite, integral, load_grid, write_csv, write_json_grid

# The layers of the package that the modes run, each with the names cli uses from it.  _load
# binds these names as globals, which the code below looks up at call time.
_LAYERS = {
    "model": ("RAD_PER_CM_FS", "validate_params"),
    "vibrations": ("CutoffTooLarge", "kernel_from_params"),
    "propagator": ("build_matrix", "decompose"),
    "signals": ("linear_absorption", "pump_probe", "pump_probe_slices", "twod_signal"),
    "parallel": ("cpu_count", "fork_map"),
    "validate": ("reference_params", "run_suite"),
    "peaks": ("grid_peak_report",),
}
_STACK = ("model", "vibrations", "propagator", "signals", "parallel")


def _load(layers) -> None:
    """Import ``layers`` and bind the names cli uses from each; a name already bound stays,
    so a wrapper set on cli from outside is kept."""
    bound = globals()
    for layer in layers:
        # from .<layer> import <names>; unlike importlib.import_module, -X importtime sees it
        module = __import__(f"{__package__}.{layer}", fromlist=_LAYERS[layer])
        for name in _LAYERS[layer]:
            bound.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    """A layer name looked up on cli from outside binds every layer, so that code which
    reads or wraps names on cli (tests, ``perfbench/child.py``) finds the whole stack."""
    if not any(name in names for names in _LAYERS.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_LAYERS)
    return globals()[name]


class ConfigError(ValueError):
    """Bad job configuration; maps to exit code 2."""


@dataclass(frozen=True)
class Mode:
    """What a mode computes on; every rule that differs between modes is read from it."""
    axes: tuple[str, ...] = ()  # the grids.* axes of its spectra
    waits: bool = False         # whether it takes waiting times
    power: int = 0              # the power of m_max its phonon tables cost per spectrum; 0: none
    layers: tuple[str, ...] = _STACK   # the _LAYERS it runs


_MODES = {"absorption": Mode(("absorption",)), "twod": Mode(("omega1", "omega3"), True, 3),
          "pump-probe": Mode(("pump_probe",), True, 2), "slices": Mode((), True, 2),
          "eig": Mode(), "validate": Mode(layers=_STACK + ("validate",))}
_TOP_KEYS = {"system", "kernel", "grids", "t_wait", "stokes_orders", "output"}
_KERNEL_KEYS = {"tail_eps"}
_GRID_KEYS = {"start", "stop", "count"}
_GRID_SECTIONS = {"absorption", "omega1", "omega3", "pump_probe"}
_OUTPUT_KEYS = {"directory", "formats"}
_FORMATS = {"csv", "json"}


@dataclass
class JobSpec:
    mode: str
    params: SystemParams
    kernel: VibKernel
    grids: dict[str, Axis]
    t_list: list[float]
    stokes_orders: tuple[int, ...]
    out_dir: Path
    formats: tuple[str, ...]
    config_echo: dict = field(default_factory=dict)
    stems: tuple[str, ...] = ()     # the grid files' stems, in waiting-time order
    outputs: tuple[str, ...] = ()   # the data files, in write order


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {value!r}")
    return value


def _list(value, key: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a JSON list, got {value!r}")
    return list(value)


def _integer(value, key: str) -> int:
    """A config count, by :func:`grids.integral`."""
    number = integral(value)
    if number is None:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return number


def _number(value, key: str) -> float:
    """Any other config number, by :func:`grids.finite`."""
    number = finite(value)
    if number is None:
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def _once(key: str, named, clash: str = "{1!r} is named twice") -> None:
    """Refuse two (output, entry) pairs of ``key`` with one output; ``clash`` words the error
    from the two entries and the output."""
    seen: dict = {}
    for name, entry in named:
        if name in seen:
            raise ConfigError(f"{key}: " + clash.format(seen[name], entry, name))
        seen[name] = entry


def _axis(section: dict, name: str, offset: float) -> Axis:
    _object(section, f"grids.{name}")
    _reject_unknown(section, _GRID_KEYS, f"grids.{name}")
    missing = sorted(_GRID_KEYS - set(section))
    if missing:
        raise ConfigError(f"grids.{name} missing key(s): {', '.join(missing)}")
    count = _integer(section["count"], f"grids.{name}.count")
    start = _number(section["start"], f"grids.{name}.start")
    stop = _number(section["stop"], f"grids.{name}.stop")
    try:
        return Axis(start, stop, count, offset, name)
    except ValueError as exc:
        raise ConfigError(f"grids.{name}: {exc}") from exc


# The largest array, in elements, that absorption, twod and pump-probe may
# allocate (see _check_grid_size).  At the bound, one waiting time of the
# shipped system (2-vCPU x86_64): a 2048 x 2048 twod map takes 9.9 s and
# 245 MiB as csv (356 MB), about 11 s and 456 MiB as json (201 MB); absorption
# and pump-probe at count 113 359 take 0.5 s and 304 MiB, 1.1 s and 553 MiB.
GRID_MAX_ELEMENTS = 2 ** 22

# The most phonon-table operations one spectrum may take (see
# _check_grid_size): 15 index classes times m_max^3 for a twod map, times
# m_max^2 for a pump-probe spectrum, which slices evaluates at each point.
# At kernel.tail_eps = 1e-10 the bound is system.lambda_hr = 17.29 (m_max =
# 415) for twod and 88.82 (m_max = 8460) for the other two.
# At the bound, on the shipped system (2-vCPU x86_64): one 300 x 300 twod
# map at m_max = 415 takes 7.2 s and 282 MiB; slices at m_max = 8460 takes
# 2.4 s and 40 MiB; one pump-probe spectrum at m_max = 8460 and count 165
# takes 1.3 s and 547 MiB.
WORK_MAX_OPS = 2 ** 30


def _check_grid_size(mode: str, grids: dict[str, Axis], kernel: VibKernel) -> None:
    """Refuse a job whose largest array would hold more than GRID_MAX_ELEMENTS,
    or whose phonon tables would take more than WORK_MAX_OPS per spectrum.

    Every spectrum kernel evaluates the transform at each point of its axes
    times each phonon shift, at most 3 m_max + 1 of them; twod also holds the
    map itself and (3 m_max + 1)^2 weight tables.  twod builds each of its 15
    class tables from m_max outer products of (2 m_max + 1)^2 elements; a
    pump-probe spectrum, which slices evaluates at every trace point,
    convolves m_max-long weight vectors for each class."""
    m_max = kernel.m_max
    cutoff = (f"m_max = {m_max} from system.lambda_hr = {kernel.lambda_hr:g} "
              f"at kernel.tail_eps = {kernel.tail_eps:g}")
    width, axes, power = 3 * m_max + 1, _MODES[mode].axes, _MODES[mode].power
    arrays = [(grids[name].count * width, f"grids.{name}.count x (3 m_max + 1)") for name in axes]
    if len(axes) == 2:
        arrays += [(grids[axes[0]].count * grids[axes[1]].count,
                    f"grids.{axes[0]}.count x grids.{axes[1]}.count"),
                   (width * width, "(3 m_max + 1)^2")]
    size, what = max(arrays, default=(0, ""))
    if size > GRID_MAX_ELEMENTS:
        raise TooLarge(f"{mode} would allocate {what} = {_estimate(size)} elements "
                       f"({cutoff}), more than GRID_MAX_ELEMENTS = {GRID_MAX_ELEMENTS}")
    if power and 15 * m_max ** power > WORK_MAX_OPS:
        raise TooLarge(f"{mode} would take 15 x m_max^{power} = {_estimate(15 * m_max ** power)} "
                       f"operations per spectrum ({cutoff}), "
                       f"more than WORK_MAX_OPS = {WORK_MAX_OPS}")


def _estimate(n: int) -> str:
    """``n`` to three digits; an integer past the float range is not converted."""
    return f"{n:.3g}" if n < 1e300 else "more than 1e300"


def build_jobspec(mode: str, config: dict, out_override: str | None = None,
                  formats_override: str | None = None,
                  t_list_override: str | None = None) -> JobSpec:
    if mode not in _MODES:
        raise ConfigError(f"unknown mode '{mode}'")
    uses = _MODES[mode]
    # an override the mode does not read would be echoed as if it had run; the parser
    # refuses the flag, and so does this
    for value, flag, read in ((formats_override, "--format", uses.axes),
                              (t_list_override, "--t-list", uses.waits)):
        if value is not None and not read:
            raise ConfigError(f"mode '{mode}' takes no {flag}")
    _load(uses.layers)
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(config, _TOP_KEYS, "config")
    if "system" not in config:
        raise ConfigError("config needs a 'system' section")
    try:
        params = validate_params(_object(config["system"], "system"))
    except ParameterError as exc:
        raise ConfigError(f"system section invalid: {exc}") from exc

    grids_cfg = _object(config.get("grids", {}), "grids")
    _reject_unknown(grids_cfg, _GRID_SECTIONS, "grids")
    grids = {name: _axis(sec, name, params.axis_offset) for name, sec in grids_cfg.items()}

    for name in uses.axes:
        if name not in grids:
            raise ConfigError(f"mode '{mode}' needs grids.{name}")

    kernel_cfg = _object(config.get("kernel", {}), "kernel")
    _reject_unknown(kernel_cfg, _KERNEL_KEYS, "kernel")
    tail_eps = _number(kernel_cfg.get("tail_eps", 1e-10), "kernel.tail_eps")
    try:
        kernel = kernel_from_params(params, tail_eps)
    except CutoffTooLarge as exc:
        raise ConfigError(f"system.lambda_hr: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"kernel.tail_eps: {exc}") from exc
    _check_grid_size(mode, grids, kernel)

    # a key that a flag replaces is still read by its type rule; the mode's rules below
    # apply to the value that runs
    raw_t = config.get("t_wait", 0.0)
    tokens = raw_t if isinstance(raw_t, (list, tuple)) else [raw_t]
    t_key = "t_wait" if t_list_override is None else "--t-list"
    t_list = [_number(t, "t_wait") + 0.0 for t in tokens]     # -0.0 + 0.0 is 0.0
    if t_list_override is not None:
        try:
            tokens = [float(tok) for tok in t_list_override.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --t-list: {exc}") from exc
        t_list = [_number(t, t_key) + 0.0 for t in tokens]
    if uses.waits:
        if not t_list:
            raise ConfigError(f"{t_key}: mode '{mode}' needs at least one waiting time")
        if any(t < 0.0 for t in t_list):
            raise ConfigError(f"{t_key} must be >= 0, got {min(t_list)}")
    # a grid mode writes one grid named after it, or one per waiting time named by its stem
    prefix = mode.replace("-", "_")
    stems = (tuple(f"{prefix}_T{t:g}fs".replace("-", "m").replace(".", "p") for t in t_list)
             if uses.waits else (prefix,)) if uses.axes else ()
    _once(t_key, zip(stems, t_list), "the waiting times {0!r} and {1!r} share the file stem {2}")

    orders = tuple(_integer(m, "stokes_orders")
                   for m in _list(config.get("stokes_orders", (1, 2)), "stokes_orders"))
    if any(m < 1 for m in orders):
        raise ConfigError("stokes_orders must be >= 1")
    _once("stokes_orders", zip(orders, orders))
    for m in orders if mode == "slices" else ():
        try:
            line = params.axis_offset + params.delta_x - m * params.omega_v
        except OverflowError:   # an integer past the float range
            line = math.inf
        if not math.isfinite(line):
            raise ConfigError(f"stokes_orders: the Stokes line of order {_estimate(m)}, "
                              f"axis_offset + delta_x - order x omega_v, is past the float range")

    out_cfg = _object(config.get("output", {}), "output")
    _reject_unknown(out_cfg, _OUTPUT_KEYS, "output")
    directory = out_cfg.get("directory", ".")
    if not isinstance(directory, str):
        raise ConfigError(f"output.directory must be a string, got {directory!r}")
    directory_key = "output.directory"
    if out_override is not None:
        directory, directory_key = out_override, "--out"
    if not directory:
        raise ConfigError(f"{directory_key} must name a directory, got an empty string")
    out_dir = Path(directory)
    formats = tuple(_list(out_cfg.get("formats", ("csv",)), "output.formats"))
    formats_key = "output.formats" if formats_override is None else "--format"
    if formats_override is not None:
        formats = tuple(tok.strip() for tok in formats_override.split(",") if tok.strip())
    if not formats or any(not isinstance(f, str) or f not in _FORMATS for f in formats):
        raise ConfigError(f"{formats_key} must be a nonempty subset of {sorted(_FORMATS)}")
    _once(formats_key, zip(formats, formats))

    echo, echo_output = dict(config), dict(out_cfg)   # what ran: each flag's value at its key
    if t_list_override is not None:
        echo["t_wait"] = t_list
    if out_override is not None:
        echo_output["directory"] = directory
    if formats_override is not None:
        echo_output["formats"] = list(formats)
    if echo_output != out_cfg:
        echo["output"] = echo_output

    outputs = tuple(f"{stem}.{fmt}" for stem in stems for fmt in formats) or (f"{mode}.json",)
    return JobSpec(mode=mode, params=params, kernel=kernel, grids=grids,
                   t_list=t_list, stokes_orders=orders, out_dir=out_dir,
                   formats=formats, config_echo=echo, stems=stems, outputs=outputs)


# ---------------------------------------------------------------------------
# serialization


def params_hash(spec: JobSpec) -> str:
    """The first 16 hex digits of the sha256 of every SystemParams field and the truncation."""
    import hashlib   # here, not at the top: peaks never hashes

    payload = {
        "system": asdict(spec.params),
        "kernel": {"m_max": spec.kernel.m_max, "tail_eps": spec.kernel.tail_eps},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_grid(spec: JobSpec, grid: SpectrumGrid, stem: str) -> None:
    """Write ``<stem>.<fmt>`` for each format of the job."""
    grid.metadata["params_hash"] = params_hash(spec)
    grid.metadata["code_version"] = __version__
    for fmt in spec.formats:
        (write_csv if fmt == "csv" else write_json_grid)(spec.out_dir / f"{stem}.{fmt}", grid)


def _write_grids(spec: JobSpec, jobs: list) -> tuple[float, int]:
    """Compute and write the grids of ``jobs``, (stem, computation) pairs, k at a time.

    k is :func:`parallel.cpu_count`.  Each batch is computed here and written by
    :func:`parallel.fork_map`, one grid per process, so at most k grids are held at once.
    Returns the seconds spent writing and the number of processes that wrote at once."""
    k = cpu_count()
    write_s = 0.0
    for at in range(0, len(jobs), k):
        grids = [(stem, compute()) for stem, compute in jobs[at:at + k]]
        for stem, grid in grids:
            if not np.isfinite(grid.values).all():
                raise NonFiniteResult(f"{', '.join(f'{stem}.{fmt}' for fmt in spec.formats)} "
                                      f"not written: the {grid.signal} values hold a NaN or an infinity")
        began = time.perf_counter()
        spec.out_dir.mkdir(parents=True, exist_ok=True)   # here: a refused job leaves none
        fork_map(lambda job: _write_grid(spec, job[1], job[0]), grids)
        write_s += time.perf_counter() - began
        del grids   # the next batch is computed with this one released
    return write_s, min(k, len(jobs))


def _write_doc(spec: JobSpec, doc) -> None:
    """Write ``doc`` as indented json, arrays as lists.  A validate report keeps its check
    order and may hold a NaN error (a failed check); any other document must be finite."""
    validate, name = spec.mode == "validate", spec.outputs[0]
    try:
        text = json.dumps(doc, indent=2, sort_keys=not validate, allow_nan=validate,
                          default=np.ndarray.tolist)
    except ValueError:   # a NaN or an infinity
        raise NonFiniteResult(f"{name} not written: it would hold a NaN or an infinity") from None
    spec.out_dir.mkdir(parents=True, exist_ok=True)   # here: a refused job leaves none
    (spec.out_dir / name).write_text(text + "\n")


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """Python, numpy and BLAS versions, the BLAS thread variables that are set, and the CPUs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):   # numpy < 1.26 has no mode="dicts"
        blas = None
    return {
        "python": "%d.%d.%d" % _sys.version_info[:3],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in _THREAD_VARS if var in os.environ},
        "cpus": cpu_count(),
    }


def write_manifest(spec: JobSpec, wall_time: float, extra: dict) -> Path:
    manifest = {
        "environment": _environment(),
        "mode": spec.mode,
        "config": spec.config_echo,
        "params_hash": params_hash(spec),
        "code_version": __version__,
        "wall_time_s": wall_time,
        "truncation": {"m_max": spec.kernel.m_max, "tail_eps": spec.kernel.tail_eps},
        "unit_bridge_rad_per_cm_fs": RAD_PER_CM_FS,
        "outputs": spec.outputs,
        "created_unix": time.time(),
        **extra,
    }
    path = spec.out_dir / "manifest.json"
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


# ---------------------------------------------------------------------------
# job execution


def _grid_jobs(spec: JobSpec, dec) -> list:
    """(file stem, computation) of each grid of a spectrum mode, in waiting-time order."""
    uses = _MODES[spec.mode]
    compute = {"absorption": linear_absorption, "twod": twod_signal,
               "pump-probe": pump_probe}[spec.mode]   # at each call: a wrapper on cli is seen
    axes = [spec.grids[name] for name in uses.axes]
    waits = [(t,) for t in spec.t_list] if uses.waits else [()]
    return [(stem, lambda wait=wait: compute(spec.params, dec, spec.kernel, *axes, *wait))
            for stem, wait in zip(spec.stems, waits)]


@np.errstate(all="ignore")   # a NaN or an infinity is refused by name before it is written
def run_job(spec: JobSpec) -> tuple[str, bool]:
    """Compute the mode's outputs and write every data file, then the manifest.

    Returns the stdout text and a pass flag; prints nothing."""
    start = time.perf_counter()
    dec = decompose(build_matrix(spec.params))
    extra: dict = {}
    text, passed = "", True

    if _MODES[spec.mode].axes:
        write_s, writers = _write_grids(spec, _grid_jobs(spec, dec))
    else:
        if spec.mode == "slices":
            doc = asdict(pump_probe_slices(spec.params, dec, spec.kernel, spec.t_list,
                                           spec.stokes_orders))
            doc["stokes"] = {str(m): trace for m, trace in doc["stokes"].items()}
        elif spec.mode == "eig":
            doc = _eig_record(spec, dec)
        else:   # validate; build_jobspec admits no other mode
            results = run_suite()
            doc = extra["oracle_results"] = [
                {"name": r.name, "max_err": r.max_err, "tol": r.tol, "passed": r.passed}
                for r in results]
            # wall times go to the manifest only: validate.json stays deterministic
            extra["oracle_seconds"] = {r.name: r.seconds for r in results}
            text = "".join(f"{r.line()}\n" for r in results)
            passed = all(r.passed for r in results)
        began = time.perf_counter()
        _write_doc(spec, doc)
        write_s, writers = time.perf_counter() - began, 1

    elapsed = time.perf_counter() - start
    extra["stage_seconds"] = {"compute": elapsed - write_s, "write": write_s}
    extra["writer_processes"] = writers
    write_manifest(spec, elapsed, extra)
    return text, passed


# eig.json lists every mode: at N = 10^5 it holds 4.5 MB and the job takes 0.9 s,
# at N = 10^6 46 MB, 4.5 s and 570 MiB (2-vCPU x86_64).
EIG_MAX_N = 100_000


def _eig_record(spec: JobSpec, dec) -> dict:
    if spec.params.n_molecules > EIG_MAX_N:
        raise TooLarge(f"eig lists every mode and is limited to N <= {EIG_MAX_N}, "
                       f"got system.n_molecules = {spec.params.n_molecules:g}")
    params = spec.params
    offset, gn = params.axis_offset, params.collective_coupling
    return {
        "labels": list(dec.labels),
        "decay_rates": [mu.real for mu in dec.eigenvalues],
        "frequencies_rotating": [mu.imag for mu in dec.eigenvalues],
        "frequencies_absolute": [mu.imag + offset for mu in dec.eigenvalues],
        "rabi_splitting": 2.0 * gn,
        # the bright lines delta_x -/+ g sqrt(N) on the absolute axis
        "bright_absolute": [offset + params.delta_x - gn, offset + params.delta_x + gn],
        "polaron_shift": 2.0 * params.lambda_hr ** 2 * params.omega_v,
        "params_hash": params_hash(spec),
    }


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polariton-2dcs",
        description="Linear, two-dimensional and pump-probe spectra of vibronic cavity polaritons.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, uses in _MODES.items():     # each mode takes the flags it reads, no other
        p = sub.add_parser(mode)
        p.set_defaults(config=None, format=None, t_list=None)
        if mode != "validate":    # validate runs on its own reference sets
            p.add_argument("--config", required=True, help="JSON job configuration")
        p.add_argument("--out", default=None, help="output directory")
        if uses.axes:
            p.add_argument("--format", default=None, help="comma-separated subset of csv,json")
        if uses.waits:
            p.add_argument("--t-list", default=None, help="comma-separated waiting times in fs")
    peaks_p = sub.add_parser("peaks")
    peaks_p.add_argument("grid_file", help="CSV or JSON grid produced by this tool")
    peaks_p.add_argument("--report", default=None, help="write the peak list to this JSON file")
    peaks_p.add_argument("--min-height", type=float, default=0.01,
                         help="discard peaks below this fraction of the maximum")
    return parser


def _read_config(args) -> dict:
    if args.config is None:     # validate, which takes no --config
        return {"system": asdict(reference_params())}
    try:
        return json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {args.config}: {exc}") from exc
    except ValueError as exc:   # invalid JSON or invalid UTF-8
        raise ConfigError(f"{args.config} is not valid JSON: {exc}") from exc


def _peaks_text(args) -> str:
    """The peak report of ``args.grid_file``; a ``--report`` file is written in full first."""
    if finite(args.min_height) is None:
        raise ConfigError(f"--min-height must be a finite number, got {args.min_height}")
    if args.report == "":
        raise ConfigError("--report must name a file, got an empty string")
    grid = load_grid(args.grid_file)
    if not np.all(np.isfinite(grid.values)):
        raise MalformedGrid(f"{args.grid_file}: the values hold a NaN or an infinity")
    text = json.dumps(grid_peak_report(grid, min_rel_height=args.min_height), indent=2) + "\n"
    if args.report is not None:
        Path(args.report).write_text(text)
    return text


def _print_stdout(text: str) -> None:
    try:
        print(text, end="", flush=True)     # a no-op when stdout is closed (`>&-`)
    except BrokenPipeError:
        # the reader stopped early, as in `validate | head`: stop quietly, and
        # send what is left to devnull so the flush at interpreter exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _load(_MODES[args.mode].layers if args.mode in _MODES else ("peaks",))
    try:
        if args.mode == "peaks":
            text, passed = _peaks_text(args), True
        else:
            spec = build_jobspec(args.mode, _read_config(args), out_override=args.out,
                                 formats_override=args.format, t_list_override=args.t_list)
            text, passed = run_job(spec)
    except (ConfigError, MalformedGrid) as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2
    except PolaritonError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return 4
    _print_stdout(text)
    if not passed:
        print("validation suite failed", file=_sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
