#!/usr/bin/env python3
"""Linear absorption of the N=10 dye-in-cavity reference set.

Sweeps the vibronic displacement to show the one-phonon shoulder between the
polariton doublet appearing once the displacement is strong, and compares the
measured peak-height ratio against the closed-form law.
"""

import sys
from pathlib import Path

from polariton2dcs.grids import Axis, write_csv
from polariton2dcs.peaks import find_peaks_1d
from polariton2dcs.propagator import build_matrix, decompose
from polariton2dcs.signals import linear_absorption, peak_ratios
from polariton2dcs.validate import reference_params
from polariton2dcs.vibrations import kernel_from_params

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/absorption")


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for lam in (0.2, 1.0):
        sys_params = reference_params(lambda_hr=lam)
        dec = decompose(build_matrix(sys_params))
        kernel = kernel_from_params(sys_params)
        axis = Axis(13000.0, 19000.0, 2000, sys_params.axis_offset)
        grid = linear_absorption(sys_params, dec, kernel, axis)
        path = OUT / f"absorption_lam{lam:g}.csv"
        write_csv(path, grid)

        peaks = find_peaks_1d(axis.values(), grid.display(), min_rel_height=0.01)
        print(f"displacement lambda = {lam:g}  ->  {path}")
        for p in peaks[:5]:
            print(f"  peak {p.refined:9.1f} cm^-1   height {p.height:.4f}")
        ratios = peak_ratios(sys_params, dec, m_max=2)
        print(f"  closed-form one-phonon/LP ratio: {ratios.eds_over_lp[0]:.5f}"
              f"{'  (equal-rate approximation)' if ratios.approximate else ''}")
        print()


if __name__ == "__main__":
    main()
