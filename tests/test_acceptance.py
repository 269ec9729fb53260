"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with its measured figure against the pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest

from polariton2dcs.cli import main
from polariton2dcs.grids import Axis
from polariton2dcs.peaks import find_peaks_1d, find_peaks_2d
from polariton2dcs.propagator import build_matrix, decompose
from polariton2dcs.signals import linear_absorption, twod_prefactor, twod_signal, twod_values
from polariton2dcs.validate import (
    check_fock_four_point,
    check_propagator_expm,
    check_pump_probe_direct,
    check_ratio_law,
    check_transform_quadrature,
    check_truncation_stability,
    check_twod_direct,
    check_franck_condon_sums,
    reference_params,
)
from polariton2dcs.vibrations import kernel_from_params

ABSORPTION_TARGETS = (14313.0, 17313.0, 17913.0)
KNOWN_LINES = (14313.0, 17913.0, 16113.0, 14913.0, 17313.0, 13713.0, 18513.0, 12513.0, 19713.0)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def reference():
    sys = reference_params()
    dec = decompose(build_matrix(sys))
    return sys, dec, kernel_from_params(sys)


def test_criterion_1_absorption_three_peaks(reference):
    sys, dec, kernel = reference
    axis = Axis(13000.0, 19000.0, 2000, sys.axis_offset)
    start = time.perf_counter()
    grid = linear_absorption(sys, dec, kernel, axis)
    elapsed = time.perf_counter() - start

    dominant = find_peaks_1d(axis.values(), grid.display(), min_rel_height=0.05)
    positions = sorted(p.refined for p in dominant)
    placed = (len(positions) == 3
              and all(abs(p - t) <= 5.0 for p, t in zip(positions, ABSORPTION_TARGETS)))

    sys_weak = reference_params(lambda_hr=0.2)
    grid_weak = linear_absorption(sys_weak, decompose(build_matrix(sys_weak)),
                                  kernel_from_params(sys_weak), axis)
    peaks_weak = find_peaks_1d(axis.values(), grid_weak.display())
    lp_height = max(p.height for p in peaks_weak if abs(p.refined - 14313.0) < 60.0)
    eds = [p.height for p in peaks_weak if abs(p.refined - 17313.0) < 60.0]
    suppressed = (not eds) or eds[0] < 0.05 * lp_height

    report(
        "criterion 1 (three-peak absorption)",
        placed and suppressed and elapsed < 1.0,
        f"peaks={['%.1f' % p for p in positions]}, weak-coupling EDS/LP="
        f"{(eds[0] / lp_height if eds else 0.0):.4f}, runtime={elapsed:.2f}s",
    )


def test_criterion_2_peak_ratio_law():
    res = check_ratio_law()
    res_eq = check_ratio_law(equal_rates=True)
    report(
        "criterion 2 (closed-form peak ratios)",
        res.passed and res_eq.passed,
        f"reference set err={res.max_err:.2e} (tol 5e-2); "
        f"equal rates err={res_eq.max_err:.2e} (tol 1e-2)",
    )


def test_criterion_3_eigenstructure():
    res = check_propagator_expm()
    structure_ok = True
    detail = []
    for n in (2, 4, 6):
        sys = reference_params(n_molecules=n, gamma_c=1.0)
        dec = decompose(build_matrix(sys))
        t = dec.t_dense()
        structure_ok &= sum(lbl.startswith("D") for lbl in dec.labels) == n - 1
        structure_ok &= float(np.max(np.abs(t[:n, 2:].sum(axis=0)))) < 1e-13
        structure_ok &= float(np.max(np.abs(dec.tinv_dense() - t.conj().T))) < 1e-12
    report(
        "criterion 3 (eigenstructure vs dense reference)",
        res.passed and structure_ok,
        f"G vs expm max_err={res.max_err:.2e} (tol 1e-10); dark structure ok={structure_ok}",
    )


def test_criterion_4_correlator_oracle():
    start = time.perf_counter()
    res = check_fock_four_point()
    elapsed = time.perf_counter() - start
    report(
        "criterion 4 (Fock-space correlator oracle)",
        res.passed and elapsed < 30.0,
        f"max_err={res.max_err:.2e} (tol 1e-8), runtime={elapsed:.1f}s",
    )


def test_criterion_5_class_enumeration():
    res_2d = check_twod_direct()
    res_pp = check_pump_probe_direct()
    report(
        "criterion 5 (class enumeration vs direct loops)",
        res_2d.passed and res_pp.passed,
        f"2D max_rel={res_2d.max_err:.2e}, pump-probe max_rel={res_pp.max_err:.2e} (tol 1e-10)",
    )


def test_criterion_6_twod_structure(reference):
    sys, dec, kernel = reference
    axis = Axis(13000.0, 19000.0, 300, sys.axis_offset)
    t_values = (0.0, 100.0, 250.0, 500.0, 750.0)

    start = time.perf_counter()
    grids = {t: twod_signal(sys, dec, kernel, axis, axis, t) for t in t_values}
    elapsed = time.perf_counter() - start

    # every reported peak sits on the phonon ladder or is a coherence peak
    # between known polariton/phonon-shifted lines
    tol = 3.0 * axis.step
    peaks = find_peaks_2d(axis.values(), axis.values(), grids[0.0].display(),
                          omega_v=sys.omega_v, min_rel_height=0.02, tol=tol)
    structure_ok = bool(peaks)
    for p in peaks:
        on_ladder = p.classification in ("diagonal", "cross")
        at_known_pair = (min(abs(p.refined1 - x) for x in KNOWN_LINES) <= tol
                         and min(abs(p.refined3 - x) for x in KNOWN_LINES) <= tol)
        structure_ok &= on_ladder or at_known_pair

    # waiting-time behavior of the polariton-to-phonon-sideband cross peak,
    # measured as the local maximum on a fine patch around (17913, 14913)
    def patch_peak(t_wait):
        w1 = np.linspace(17913.0 - 60.0, 17913.0 + 60.0, 61) - sys.axis_offset
        w3 = np.linspace(14913.0 - 60.0, 14913.0 + 60.0, 61) - sys.axis_offset
        vals = twod_values(dec, kernel, w1, w3, t_wait, twod_prefactor(sys))
        return float(np.abs(vals.imag).max())

    trace = [patch_peak(t) for t in t_values]
    diffs = np.diff(trace)
    non_monotone = bool(np.any(diffs > 0) and np.any(diffs < 0))

    # fine scan: a dip inside (0, 250) fs below both endpoints
    scan = {t: patch_peak(t) for t in np.arange(10.0, 250.0, 20.0)}
    dip = min(scan.values())
    dip_ok = dip < trace[0] and dip < trace[-1]

    report(
        "criterion 6 (2D structure and waiting-time dynamics)",
        structure_ok and non_monotone and dip_ok and elapsed < 120.0,
        f"peaks_on_ladder_or_known_pairs={structure_ok}, "
        f"trace={['%.2e' % v for v in trace]}, dip={dip:.2e}, "
        f"5x300x300 runtime={elapsed:.1f}s",
    )


def test_criterion_7_transform_quadrature():
    res = check_transform_quadrature()
    report(
        "criterion 7 (transform vs quadrature)",
        res.passed,
        f"max_rel={res.max_err:.2e} (tol 1e-6), 100 random frequencies",
    )


def test_criterion_8_truncation():
    sums = check_franck_condon_sums()
    stability = check_truncation_stability()
    report(
        "criterion 8 (Franck-Condon truncation)",
        sums.passed and stability.passed,
        f"tail={sums.max_err:.2e} (tol 1e-10); doubled-cutoff grid shift="
        f"{stability.max_err:.2e} (tol 1e-6)",
    )


def test_criterion_9_deterministic_output(tmp_path):
    config = {
        "system": {
            "n_molecules": 10, "g": 1800.0 / math.sqrt(10), "delta_x": 0.0,
            "delta_c": 0.0, "gamma_x": 1.0, "gamma_c": 0.9, "omega_v": 1200.0,
            "gamma_v": 20.0, "lambda_hr": 1.0, "omega_ref": 16113.0,
        },
        "grids": {
            "absorption": {"start": 13000.0, "stop": 19000.0, "count": 500},
            "omega1": {"start": 13000.0, "stop": 19000.0, "count": 90},
            "omega3": {"start": 13000.0, "stop": 19000.0, "count": 90},
        },
        "t_wait": [0.0, 250.0],
        "output": {"formats": ["csv"]},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outputs = {}
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        assert main(["twod", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["absorption", "--config", str(cfg), "--out", str(out)]) == 0
        outputs[run] = [(out / name).read_bytes()
                        for name in ("twod_T0fs.csv", "twod_T250fs.csv", "absorption.csv")]
    identical = outputs[1] == outputs[2]
    report(
        "criterion 9 (two runs write byte-identical files)",
        identical,
        f"3 data files compared, identical={identical}",
    )
