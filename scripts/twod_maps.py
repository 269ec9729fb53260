#!/usr/bin/env python3
"""Two-dimensional coherent spectra over a waiting-time series.

Writes one 300x300 map per waiting time for the N=10 ensemble and the single
molecule at the same Rabi splitting, then follows the polariton-to-sideband
cross peak whose intensity recovers after an initial dephasing dip.
"""

import sys
from pathlib import Path

import numpy as np

from polariton2dcs.grids import Axis, write_csv
from polariton2dcs.peaks import find_peaks_2d
from polariton2dcs.propagator import build_matrix, decompose
from polariton2dcs.signals import twod_prefactor, twod_signal, twod_values
from polariton2dcs.validate import reference_params
from polariton2dcs.vibrations import kernel_from_params

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/twod")
T_LIST = (0.0, 250.0, 500.0, 750.0)
CROSS_PEAK = (17913.0, 14913.0)   # pump at the upper polariton, emit one phonon below


def cross_peak_height(sys_params, dec, kernel, t_wait, half=60.0, points=61):
    w1 = np.linspace(CROSS_PEAK[0] - half, CROSS_PEAK[0] + half, points) - sys_params.axis_offset
    w3 = np.linspace(CROSS_PEAK[1] - half, CROSS_PEAK[1] + half, points) - sys_params.axis_offset
    vals = twod_values(dec, kernel, w1, w3, t_wait, twod_prefactor(sys_params))
    return float(np.abs(vals.imag).max())


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for n, g in ((10, 569.2099788303083), (1, 1800.0)):
        sys_params = reference_params(n_molecules=n, collective=g * n**0.5)
        dec = decompose(build_matrix(sys_params))
        kernel = kernel_from_params(sys_params)
        axis = Axis(13000.0, 19000.0, 300, sys_params.axis_offset)
        print(f"N = {n}:")
        for t_wait in T_LIST:
            grid = twod_signal(sys_params, dec, kernel, axis, axis, t_wait)
            path = OUT / f"twod_n{n}_T{t_wait:g}fs.csv"
            write_csv(path, grid)
            peaks = find_peaks_2d(axis.values(), axis.values(), grid.display(),
                                  omega_v=sys_params.omega_v, min_rel_height=0.05)
            tags = ", ".join(
                f"({p.omega1:.0f},{p.omega3:.0f}){p.classification[0]}"
                for p in peaks[:6])
            print(f"  T={t_wait:4.0f} fs  ->  {path.name}   top peaks: {tags}")
        trace = {t: cross_peak_height(sys_params, dec, kernel, t) for t in T_LIST}
        print(f"  cross peak {CROSS_PEAK}: " +
              "  ".join(f"T={t:.0f}:{v:.2e}" for t, v in trace.items()))
        print()


if __name__ == "__main__":
    main()
