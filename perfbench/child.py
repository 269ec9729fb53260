"""Fresh-process entry points of the benchmark.

    python3 perfbench/child.py setup <config.json> <mode>
    python3 perfbench/child.py cli <spans.json> -- <polariton-2dcs arguments>
    python3 perfbench/child.py sweep <seed> [<spans.json>] [--record]

``setup`` prints the time to import ``polariton2dcs.cli``, build the job spec
and decompose the dynamics matrix.  ``cli`` runs one CLI job with spans
recorded around calls into each module's public functions.  ``sweep`` is the
spectra_sweep job: it computes the 2D map, absorption and pump-probe spectrum
of every parameter set the seed selects, checks each against reference.json
and prints the timings and mismatches as JSON; with a spans file it is
traced like ``cli``.  ``--record`` computes the whole pool and prints value
fingerprints instead, for make_reference.py.

Spans are kept in memory and written as JSON when the process ends.  The
module imports nothing from the package before the import itself is timed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


class Tracer:
    """Records one span per call of each wrapped function, with its parent span."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, tag]
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float, tag=None) -> None:
        self.spans.append([name, start, end, self._stack[-1] if self._stack else None, tag])

    def wrap(self, name: str, fn, tag=None):
        """Wrapped ``fn``; ``tag(args, result)`` adds a label or a count to the span."""
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = [name, start, end,
                                     self._stack[-1] if self._stack else None, None]
            if tag is not None:
                self.spans[index][4] = tag(args, result)
            return result
        return traced

    def dump(self, path: str) -> None:
        Path(path).write_text(json.dumps({"pid": os.getpid(), "spans": self.spans}))


def _timed_imports(tracer: Tracer) -> None:
    """cli.import_s covers the whole import of polariton2dcs.cli; peaks.import_s its peaks part."""
    start = time.perf_counter()
    import polariton2dcs.peaks  # noqa: F401  (scipy.ndimage comes in here)
    mid = time.perf_counter()
    import polariton2dcs.cli  # noqa: F401
    end = time.perf_counter()
    tracer.record("import.peaks", start, mid)
    tracer.record("import.cli", start, end)


def _check_source() -> None:
    import polariton2dcs

    src = Path(os.environ.get("PYTHONPATH", "").split(os.pathsep)[0]).resolve()
    if src not in Path(polariton2dcs.__file__).resolve().parents:
        raise SystemExit(f"polariton2dcs imported from {polariton2dcs.__file__}, not {src}")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each layer where their callers look them up.

    Only modules the process has already imported are touched, so tracing
    imports nothing the job would not.
    """
    def written(args, _):           # (bytes, is 2D) of write_csv / write_json_grid(path, grid)
        return [os.path.getsize(args[0]), args[1].axis2 is not None]

    def twod_shape(args, _):        # (m_max, n1, n3) of twod_signal(sys, dec, kernel, ax1, ax3, T)
        return [args[2].m_max, args[3].count, args[4].count]

    def n_molecules(args, _):
        return args[0].n_molecules

    table = [
        ("cli", "build_jobspec", "cli.build_jobspec", None),
        ("cli", "write_csv", "cli.write_csv", written),
        ("cli", "write_json_grid", "cli.write_json_grid", written),
        ("cli", "write_manifest", "cli.write_manifest", None),
        ("cli", "load_grid", "peaks.load_grid", lambda a, _: Path(a[0]).suffix.lstrip(".")),
        ("cli", "grid_peak_report", "peaks.grid_peak_report", None),
        ("cli", "decompose", "propagator.decompose", None),
        ("propagator", "decompose", "propagator.decompose", None),
        ("cli", "kernel_from_params", "vibrations.kernel_from_params", None),
        ("vibrations", "kernel_from_params", "vibrations.kernel_from_params", None),
        ("cli", "twod_signal", "signals.twod_signal", twod_shape),
        ("signals", "twod_signal", "signals.twod_signal", twod_shape),
        ("signals", "fourier_entries", "propagator.fourier_entries", None),
        ("signals", "fourier_conj_entries", "propagator.fourier_conj_entries", None),
        ("cli", "linear_absorption", "signals.linear_absorption", None),
        ("signals", "linear_absorption", "signals.linear_absorption", None),
        ("cli", "pump_probe", "signals.pump_probe", None),
        ("signals", "pump_probe", "signals.pump_probe", None),
        ("cli", "pump_probe_slices", "signals.pump_probe_slices", n_molecules),
        ("validate", "quadrature_fourier", "propagator.quadrature_fourier", None),
        ("validate", "twod_signal_direct", "signals.twod_signal_direct", n_molecules),
        ("validate", "pump_probe_direct", "signals.pump_probe_direct", n_molecules),
        ("validate", "fock_correlator", "vibrations.fock_correlator", None),
    ]
    for module_name, attr, name, tag in table:
        module = sys.modules.get(f"polariton2dcs.{module_name}")
        if module is not None:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), tag))
    validate = sys.modules.get("polariton2dcs.validate")
    if validate is not None:
        validate.ALL_CHECKS = tuple(tracer.wrap("validate.check", check, lambda _, res: res.name)
                                    for check in validate.ALL_CHECKS)


def main_setup(config_path: str, mode: str) -> None:
    start = time.perf_counter()
    from polariton2dcs import cli

    spec = cli.build_jobspec(mode, json.loads(Path(config_path).read_text()))
    cli.decompose(cli.build_matrix(spec.params))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def main_cli(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    _timed_imports(tracer)
    _check_source()
    install(tracer)
    from polariton2dcs import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


def main_sweep(seed: int, spans_path: str | None, record: bool) -> None:
    tracer = Tracer()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import common
    from polariton2dcs import propagator, signals, vibrations
    from polariton2dcs.model import validate_params

    _check_source()
    if spans_path:
        install(tracer)
    pool = common.sweep_pool()
    keys = sorted(pool) if record else common.sweep_keys(seed)
    refs = {} if record else json.loads(common.REFERENCE.read_text())["files"]
    items = []
    try:
        for key in keys:
            entry = pool[key]
            params = validate_params(entry["system"])
            dec = propagator.decompose(propagator.build_matrix(params))
            kernel = vibrations.kernel_from_params(params)
            axes = {name: signals.Axis(start, stop, count, params.axis_offset, name)
                    for name, (start, stop, count) in common.SWEEP_AXES.items()}
            t_wait = entry["t_wait"]
            jobs = {
                "twod": lambda: signals.twod_signal(params, dec, kernel, axes["omega1"],
                                                    axes["omega3"], t_wait),
                "absorption": lambda: signals.linear_absorption(params, dec, kernel,
                                                                axes["absorption"]),
                "pump_probe": lambda: signals.pump_probe(params, dec, kernel,
                                                         axes["pump_probe"], t_wait),
            }
            for kind, job in jobs.items():
                start = time.perf_counter()
                grid = job()
                elapsed = time.perf_counter() - start
                values = {"re": grid.values.real}
                if kind == "twod":          # 1D spectra are real
                    values["im"] = grid.values.imag
                item = {"key": key, "kind": kind, "seconds": elapsed, "m_max": kernel.m_max}
                if record:
                    item["values"] = common.fingerprints(values)
                else:
                    ref = refs.get(f"sweep/{key}/{kind}")
                    item["problems"] = (common.compare(values, ref["values"]) if ref
                                        else ["no reference recorded"])
                items.append(item)
    finally:
        if spans_path:
            tracer.dump(spans_path)
    print(json.dumps({"items": items}))


if __name__ == "__main__":
    command, rest = sys.argv[1], sys.argv[2:]
    if command == "setup":
        main_setup(rest[0], rest[1])
    elif command == "cli":
        sys.exit(main_cli(rest[0], rest[rest.index("--") + 1:]))
    elif command == "sweep":
        args = [a for a in rest if a != "--record"]
        main_sweep(int(args[0]), args[1] if len(args) > 1 else None, "--record" in rest)
    else:
        sys.exit(f"unknown command {command!r}")
