"""Self-check suite pairing every fast path with its independent reference.

Each check returns a :class:`CheckResult`; the CLI prints one line per check
and fails if any tolerance is exceeded.  The acceptance tests reuse the same
functions, so there is exactly one implementation of every comparison.

A check's error is the worst over its cases, taken by :func:`_worst`, which
keeps a NaN.  The three heaviest checks (the 2D, pump-probe and slice loop
oracles) draw all their cases first, in the order of the seeded draws, then
share them among the CPUs with :func:`parallel.fork_map`.  A maximum does not
depend on the order of its terms, so every result is bit-identical to a
one-process run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .grids import Axis
from .model import SystemParams, validate_params
from .parallel import fork_map
from .propagator import (
    build_matrix,
    decompose,
    expm_propagator,
    fourier_conj_entries,
    propagator_G,
    propagator_fourier,
    quadrature_fourier,
)
from .signals import (
    linear_absorption,
    peak_ratios,
    pump_probe_direct,
    pump_probe_prefactor,
    pump_probe_slices,
    pump_probe_slices_direct,
    pump_probe_values,
    twod_prefactor,
    twod_signal_direct,
    twod_values,
)
from .vibrations import (
    TimeQuadruple,
    four_point_correlator,
    fock_correlator,
    franck_condon_cutoff,
    franck_condon_weights,
    kernel_from_params,
)


def reference_params(lambda_hr: float = 1.0, n_molecules: int = 10,
                     collective: float = 1800.0, **overrides) -> SystemParams:
    """Demo dye-in-cavity parameter set used across checks and docs."""
    raw = {
        "n_molecules": n_molecules,
        "g": collective / math.sqrt(n_molecules),
        "delta_x": 0.0,
        "delta_c": 0.0,
        "gamma_x": 1.0,
        "gamma_c": 0.9,
        "omega_v": 1200.0,
        "gamma_v": 20.0,
        "lambda_hr": lambda_hr,
        "omega_ref": 16113.0,
    }
    raw.update(overrides)
    return validate_params(raw)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float
    tol: float
    detail: str = ""
    seconds: float = 0.0   # wall time of the check, set by run_suite

    @property
    def passed(self) -> bool:
        return self.max_err < self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: max_err={self.max_err:.3e} tol={self.tol:.0e} {self.detail}"


def _result(name: str, max_err: float, tol: float, detail: str) -> CheckResult:
    return CheckResult(name, float(max_err), tol, detail)


def _worst(errors) -> float:
    """The largest of ``errors`` and 0; NaN if any error is NaN, which ``max`` would drop."""
    errors = [float(err) for err in errors]
    if any(math.isnan(err) for err in errors):
        return math.nan
    return max([0.0, *errors])


def _relative_error(fast, slow) -> float:
    return abs(fast - slow) / max(abs(fast), abs(slow))


def _random_params(rng: np.random.Generator, n: int) -> SystemParams:
    return validate_params({
        "n_molecules": n,
        "g": float(rng.uniform(5.0, 600.0)),
        "delta_x": float(rng.uniform(-300.0, 300.0)),
        "delta_c": float(rng.uniform(-300.0, 300.0)),
        "gamma_x": float(rng.uniform(0.3, 3.0)),
        "gamma_c": float(rng.uniform(0.3, 3.0)),
        "omega_v": float(rng.uniform(600.0, 1600.0)),
        "gamma_v": float(rng.uniform(5.0, 40.0)),
        "lambda_hr": float(rng.uniform(0.0, 1.5)),
        "omega_ref": 16113.0,
    })


def check_propagator_expm() -> CheckResult:
    """Closed-form arrowhead propagator against dense scaling-and-squaring."""
    rng = np.random.default_rng(101)
    errors = []
    for n in range(1, 7):
        for _ in range(20):
            sys = _random_params(rng, n)
            m = build_matrix(sys)
            dec = decompose(m)
            t = float(rng.uniform(0.0, 300.0))
            errors.append(np.max(np.abs(propagator_G(dec, t) - expm_propagator(m, t))))
    return _result("propagator_expm", _worst(errors), 1e-10, "N=1..6 random parameter sets")


def check_eigenstructure() -> CheckResult:
    """Dark-space structure and the unitary resonant limit of the transform."""
    rng = np.random.default_rng(102)
    errors = []
    for n in range(2, 7):
        sys = _random_params(rng, n)
        dec = decompose(build_matrix(sys))
        t = dec.t_dense()
        tinv = dec.tinv_dense()
        errors.append(np.max(np.abs(t @ tinv - np.eye(n + 1))))
        dark_cols = t[:, 2:]
        errors.append(np.max(np.abs(dark_cols[-1, :])))          # photon weight
        errors.append(np.max(np.abs(dark_cols[:-1, :].sum(0))))  # zero-sum
        errors.append(np.max(np.abs(np.abs(dark_cols[:-1, :]) ** 2 - 1.0 / n)))
        if len(dec.eigenvalues) != n + 1 or sum(lbl.startswith("D") for lbl in dec.labels) != n - 1:
            errors.append(1.0)
        # resonant equal-rate case: inverse equals conjugate transpose
        res = reference_params(n_molecules=n, gamma_c=1.0)
        dres = decompose(build_matrix(res))
        errors.append(np.max(np.abs(dres.tinv_dense() - dres.t_dense().conj().T)))
    return _result("eigenstructure", _worst(errors), 1e-12, "dark basis + resonant unitarity")


def check_transform_quadrature() -> CheckResult:
    """Pole-sum transform against composite Gauss-Legendre panel quadrature.

    The panels are equal in width and sized to the oscillation frequency of
    each target; :func:`quadrature_fourier` integrates them per eigenmode.
    """
    rng = np.random.default_rng(103)
    sys = reference_params()
    dec = decompose(build_matrix(sys))
    cases = []      # (omega, conjugated)
    for _ in range(100):
        omega = complex(rng.uniform(-2400.0, 2400.0), 0.0)
        if rng.uniform() < 0.2:
            omega += 1j * sys.gamma_v * rng.integers(1, 3)
        cases.append((omega, False))
    # a few conjugate-transform points
    cases += [(complex(rng.uniform(-2400.0, 2400.0), -sys.gamma_v), True) for _ in range(10)]

    def error(case) -> float:
        omega, conjugated = case
        if conjugated:      # the conjugate transform at z is conj of the plain one at conj(z)
            exact = fourier_conj_entries(dec, omega).to_dense(sys.n_molecules)
            quad = np.conj(quadrature_fourier(dec, np.conj(omega)))
        else:
            exact = propagator_fourier(dec, omega)
            quad = quadrature_fourier(dec, omega)
        return float(np.max(np.abs(exact - quad)) / np.max(np.abs(exact)))

    return _result("transform_quadrature", _worst(map(error, cases)), 1e-6,
                   "relative, reference set")


def check_fock_four_point() -> CheckResult:
    """Closed-form undamped correlator against truncated Fock-space mechanics."""
    rng = np.random.default_rng(104)
    lambdas = (0.3, 0.7, 1.0, 1.2)
    errors = []
    for lam in lambdas:
        kernel = replace(kernel_from_params(reference_params(lambda_hr=lam)), gamma_v=0.0)
        for _ in range(50):
            quad = TimeQuadruple(
                times=tuple(float(t) for t in rng.uniform(0.0, 120.0, size=4)),
                sites=tuple(int(s) for s in rng.integers(0, 4, size=4)),
            )
            errors.append(abs(four_point_correlator(quad, kernel) - fock_correlator(quad, kernel)))
    return _result("fock_four_point", _worst(errors), 1e-8, f"lambdas={lambdas}, all orderings")


def _loop_cases(rng, lambda_hr: float, m_max: int, draw) -> list[tuple]:
    """The loop oracles' arguments (dec, kernel, *draw(rng, sys)), 20 per N = 2..5."""
    cases = []
    for n in (2, 3, 4, 5):
        sys = reference_params(lambda_hr=lambda_hr, n_molecules=n)
        dec = decompose(build_matrix(sys))
        kernel = kernel_from_params(sys, m_max=m_max)
        cases += [(dec, kernel, *draw(rng, sys)) for _ in range(20)]
    return cases


def check_twod_direct() -> CheckResult:
    """Class-collapsed 2D kernel against the literal quintuple loop."""
    # w1_rot, w3_rot, T, prefactor; w1_rot negates its draw, the kernel-side frequency
    cases = _loop_cases(np.random.default_rng(105), 0.9, 4, lambda rng, sys: (
        -float(rng.uniform(-2400.0, 2400.0)), float(rng.uniform(-2400.0, 2400.0)),
        float(rng.uniform(0.0, 400.0)), twod_prefactor(sys)))

    def error(case) -> float:
        return _relative_error(complex(twod_values(*case)[0, 0]), twod_signal_direct(*case))

    return _result("twod_direct", _worst(fork_map(error, cases)), 1e-10, "N=2..5, relative")


def check_pump_probe_direct() -> CheckResult:
    """Class-collapsed pump-probe kernel against the literal quadruple loop."""
    # w_rot, T, scale
    cases = _loop_cases(np.random.default_rng(106), 0.8, 5, lambda rng, sys: (
        float(rng.uniform(12000.0, 20000.0)) - sys.axis_offset, float(rng.uniform(0.0, 500.0)),
        pump_probe_prefactor(sys)))

    def error(case) -> float:
        return _relative_error(float(pump_probe_values(*case)[0]), pump_probe_direct(*case))

    return _result("pump_probe_direct", _worst(fork_map(error, cases)), 1e-10, "N=2..5, relative")


def check_slices_grid() -> CheckResult:
    """Exact slice values against the literal pump-probe loop at the slice lines."""
    t_list = [0.0, 100.0, 250.0, 500.0]
    errors = []
    for n in (2, 3, 4, 5):
        sys = reference_params(n_molecules=n)
        dec = decompose(build_matrix(sys))
        kernel = kernel_from_params(sys, m_max=5)
        report = pump_probe_slices(sys, dec, kernel, t_list, stokes_orders=(1,))
        for trace in [report.upper_polariton, *report.stokes.values()]:
            for exact, t_wait in zip(trace.exact, t_list):
                slow = pump_probe_direct(dec, kernel, trace.omega_abs - sys.axis_offset, t_wait,
                                         pump_probe_prefactor(sys))
                errors.append(abs(exact - slow) / max(abs(slow), 1e-300))
    return _result("slices_grid", _worst(errors), 1e-8,
                   "N=2..5 vs the literal pump-probe loop, relative")


def check_slices_direct() -> CheckResult:
    """Array slice formula traces against the literal site loops."""
    rng = np.random.default_rng(107)
    cases = [(reference_params(n_molecules=n), [0.0, 100.0, 250.0, 500.0]) for n in (2, 3, 4, 5)]
    cases += [(_random_params(rng, n), [0.0] + list(rng.uniform(0.0, 600.0, size=2)))
              for n in (1, 2, 3, 4)]

    def error(case) -> float:
        sys, t_list = case
        dec = decompose(build_matrix(sys))
        kernel = kernel_from_params(sys)
        fast = pump_probe_slices(sys, dec, kernel, t_list, stokes_orders=(1, 2, 3))
        up, stokes = pump_probe_slices_direct(sys, dec, kernel, t_list, stokes_orders=(1, 2, 3))
        pairs = [(fast.upper_polariton.formula, up)]
        pairs += [(fast.stokes[m].formula, stokes[m]) for m in stokes]
        errors = []
        for a, b in pairs:
            scale = float(np.max(np.abs(b)))
            if scale != 0.0:    # a NaN scale is kept, as a NaN error
                errors.append(float(np.max(np.abs(a - b))) / scale)
        return _worst(errors)

    return _result("slices_direct", _worst(fork_map(error, cases)), 1e-10,
                   "N=2..5 reference, N=1..4 random, relative")


def _local_peak_height(sys, dec, kernel, center_abs: float) -> float:
    """Largest absorption value on 801 points within 8 cm^-1 of ``center_abs``."""
    axis = Axis(center_abs - 8.0, center_abs + 8.0, 801, sys.axis_offset)
    grid = linear_absorption(sys, dec, kernel, axis)
    return float(grid.display().max())


def check_ratio_law(equal_rates: bool = False) -> CheckResult:
    """Numerical absorption peak ratio against the closed-form law."""
    sys = reference_params(gamma_c=1.0) if equal_rates else reference_params()
    dec = decompose(build_matrix(sys))
    kernel = kernel_from_params(sys)
    ratios = peak_ratios(sys, dec, m_max=1)
    lp_abs = sys.axis_offset + dec.mu_lp.imag
    eds_abs = sys.axis_offset + sys.delta_x + sys.omega_v
    lp_height = _local_peak_height(sys, dec, kernel, lp_abs)
    eds_height = _local_peak_height(sys, dec, kernel, eds_abs)
    numeric = eds_height / lp_height
    closed = ratios.eds_over_lp[0]
    err = abs(numeric - closed) / closed
    tol = 0.01 if equal_rates else 0.05
    name = "ratio_law_equal_rates" if equal_rates else "ratio_law"
    return _result(name, err, tol, f"numeric={numeric:.5f} closed={closed:.5f}")


def check_truncation_stability() -> CheckResult:
    """Doubling the phonon cutoff must not move the reference 2D grid."""
    sys = reference_params()
    dec = decompose(build_matrix(sys))
    base = kernel_from_params(sys)
    doubled = kernel_from_params(sys, m_max=2 * base.m_max)
    w1 = np.linspace(13000.0, 19000.0, 40) - sys.axis_offset
    w3 = np.linspace(13000.0, 19000.0, 40) - sys.axis_offset
    a = twod_values(dec, base, w1, w3, 0.0)
    b = twod_values(dec, doubled, w1, w3, 0.0)
    err = float(np.max(np.abs(a - b)) / np.max(np.abs(a)))
    return _result("truncation_stability", err, 1e-6, f"m_max {base.m_max} -> {2 * base.m_max}")


def check_franck_condon_sums() -> CheckResult:
    """Truncated weight sums stay within the advertised tail bound."""
    errors = []
    for lam in (0.0, 0.5, 1.0, 2.0, 3.0):
        m_max = franck_condon_cutoff(lam, 1e-10)
        total = franck_condon_weights(lam, m_max).sum()
        errors.append(1.0 - float(total))
    return _result("franck_condon_sums", _worst(errors), 1e-10, "lambda in {0,0.5,1,2,3}")


ALL_CHECKS = (
    check_propagator_expm,
    check_eigenstructure,
    check_transform_quadrature,
    check_fock_four_point,
    check_twod_direct,
    check_pump_probe_direct,
    check_slices_grid,
    check_slices_direct,
    check_ratio_law,
    lambda: check_ratio_law(equal_rates=True),
    check_truncation_stability,
    check_franck_condon_sums,
)


def run_suite() -> list[CheckResult]:
    """Run every oracle pair with fixed seeds; deterministic output order.

    Each result carries the wall time of its check in ``seconds``.
    """
    results = []
    for check in ALL_CHECKS:
        start = time.perf_counter()
        res = check()
        results.append(replace(res, seconds=time.perf_counter() - start))
    return results
