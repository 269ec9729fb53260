#!/usr/bin/env python3
"""Pump-probe spectra and fixed-frequency waiting-time traces.

The zero-delay spectrum resolves the polariton doublet plus the Stokes-shifted
phonon sidebands; the traces monitor how the upper-polariton line and the
sideband lines relax on different timescales.
"""

import sys
from pathlib import Path

import numpy as np

from polariton2dcs.grids import Axis, write_csv
from polariton2dcs.peaks import find_peaks_1d
from polariton2dcs.propagator import build_matrix, decompose
from polariton2dcs.signals import pump_probe, pump_probe_slices
from polariton2dcs.validate import reference_params
from polariton2dcs.vibrations import kernel_from_params

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/pump_probe")
T_LIST = tuple(np.linspace(0.0, 750.0, 26))


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    sys_params = reference_params()
    dec = decompose(build_matrix(sys_params))
    kernel = kernel_from_params(sys_params)
    axis = Axis(12000.0, 19000.0, 2000, sys_params.axis_offset)

    for t_wait in (0.0, 250.0, 750.0):
        grid = pump_probe(sys_params, dec, kernel, axis, t_wait)
        path = OUT / f"pump_probe_T{t_wait:g}fs.csv"
        write_csv(path, grid)
        peaks = find_peaks_1d(axis.values(), grid.display(), min_rel_height=0.01)
        print(f"T={t_wait:4.0f} fs -> {path.name}   peaks: " +
              ", ".join(f"{p.refined:.0f}" for p in sorted(
                  peaks, key=lambda q: q.refined)))

    report = pump_probe_slices(sys_params, dec, kernel, T_LIST, stokes_orders=(1, 2))
    rows = ["t_wait,up_exact,up_formula,stokes1_exact,stokes1_formula,stokes2_exact,stokes2_formula"]
    for i, t_wait in enumerate(report.t_list):
        rows.append(",".join(f"{v:.10g}" for v in (
            t_wait,
            report.upper_polariton.exact[i], report.upper_polariton.formula[i],
            report.stokes[1].exact[i], report.stokes[1].formula[i],
            report.stokes[2].exact[i], report.stokes[2].formula[i])))
    trace_path = OUT / "slice_traces.csv"
    trace_path.write_text("\n".join(rows) + "\n")
    print(f"\nslice traces -> {trace_path.name}")
    print(f"  upper polariton: fitted scale {report.upper_polariton.fitted_scale:.4g}, "
          f"residual {report.upper_polariton.residual:.2e}")
    for order, trace in report.stokes.items():
        print(f"  {order}-phonon Stokes line at {trace.omega_abs:.0f} cm^-1: "
              f"fitted scale {trace.fitted_scale:.4g}, residual {trace.residual:.2e}")


if __name__ == "__main__":
    main()
