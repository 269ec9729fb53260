import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polariton2dcs
from polariton2dcs.errors import TruncationWarning
from polariton2dcs.model import RAD_PER_CM_FS
from polariton2dcs.propagator import matrix_exp
from polariton2dcs.signals import index_classes
from polariton2dcs.validate import check_fock_four_point, reference_params
from polariton2dcs.vibrations import (
    TimeQuadruple,
    VibKernel,
    _lowering,
    displacement_matrix,
    fock_correlator,
    four_point_correlator,
    franck_condon,
    franck_condon_cutoff,
    franck_condon_weights,
    kernel_from_params,
    mode_commutator,
)

OMEGA_V = 1200.0
GAMMA_V = 20.0


def make_kernel(lam, gamma_v=GAMMA_V, m_max=None):
    if m_max is None:
        m_max = max(1, franck_condon_cutoff(lam, 1e-10)) if lam > 0 else 0
    return VibKernel(lambda_hr=lam, omega_v=OMEGA_V, gamma_v=gamma_v, m_max=m_max, tail_eps=1e-10)


class TestFranckCondon:
    def test_zero_phonon_weight(self):
        assert franck_condon(1.0, 0) == pytest.approx(0.3678794412)

    def test_no_displacement(self):
        assert franck_condon(0.0, 0) == 1.0
        assert franck_condon(0.0, 3) == 0.0

    def test_poisson_values(self):
        assert franck_condon(1.0, 1) == pytest.approx(0.3678794412)
        assert franck_condon(1.0, 2) == pytest.approx(0.1839397206)
        assert abs(franck_condon_weights(1.0, 20).sum() - 1.0) < 1e-14

    def test_log_space_large_arguments(self):
        w = franck_condon(3.0, 60)
        assert 0.0 < w < 1e-20 and math.isfinite(w)

    def test_cutoff_examples(self):
        assert franck_condon_cutoff(0.0, 1e-10) == 0
        assert franck_condon_cutoff(1.0, 1e-10) == 12

    @pytest.mark.parametrize("lam_pair", [(0.2, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 3.0)])
    def test_cutoff_monotone_in_lambda(self, lam_pair):
        lo, hi = lam_pair
        assert franck_condon_cutoff(lo, 1e-10) <= franck_condon_cutoff(hi, 1e-10)

    @pytest.mark.parametrize("tail_eps, cutoffs", [(1e-10, [5, 12, 34, 1097]),
                                                   (1e-15, [7, 17, 41, 1128])])
    def test_cutoffs_up_to_large_lambda(self, tail_eps, cutoffs):
        # at lambda = 30 the leading weights underflow to 0 before the search reaches the mode
        assert [franck_condon_cutoff(lam, tail_eps) for lam in (0.2, 1.0, 3.0, 30.0)] == cutoffs

    @pytest.mark.parametrize("tail_eps", [1e-17, 1e-300])
    def test_cutoff_below_float_resolution_raises(self, tail_eps):
        with pytest.raises(ValueError, match="float resolution"):
            franck_condon_cutoff(1.0, tail_eps)

    @pytest.mark.parametrize("lam", [1e-300, 1e-200, 1e-163, 5e-324])
    def test_underflowing_square_is_no_displacement(self, lam):
        assert lam * lam == 0.0
        assert franck_condon(lam, 0) == 1.0
        assert franck_condon(lam, 1) == 0.0
        assert franck_condon_cutoff(lam, 1e-10) == 0

    @pytest.mark.parametrize("lam", [1e-160, 1e-100, 1e-8, 0.2, 1.0, 3.0, 30.0, 99.0])
    def test_weights_bit_identical_where_the_square_is_nonzero(self, lam):
        def reference(lam, m):      # the weight as computed before the underflow guard
            if lam == 0.0:
                return 1.0 if m == 0 else 0.0
            if not m:
                return math.exp(-lam * lam)
            return math.exp(-lam * lam + m * math.log(lam * lam) - math.lgamma(m + 1))

        for m in (0, 1, 2, 7, 60, 1000):
            assert franck_condon(lam, m) == reference(lam, m)

    @pytest.mark.parametrize("lam", [100.0, 150.0, 1e300])
    def test_cutoff_past_the_term_cap_raises_value_error(self, lam):
        with pytest.raises(ValueError, match="lambda_hr"):
            franck_condon_cutoff(lam, 1e-10)


class TestPhononShift:
    def test_zero_order(self):
        assert make_kernel(1.0).shift(0) == 0.0

    def test_definition(self):
        assert make_kernel(1.0).shift(2) == pytest.approx(2400.0 + 40.0j)

    def test_conjugate_use(self):
        omega = 500.0
        shifted = omega - np.conj(make_kernel(1.0).shift(1))
        assert shifted == pytest.approx(500.0 - 1200.0 + 20.0j)


class TestModeCommutator:
    def test_equal_times(self):
        assert mode_commutator(13.0, 13.0, OMEGA_V, GAMMA_V) == 1.0

    @given(t=st.floats(-200.0, 200.0), tp=st.floats(-200.0, 200.0))
    def test_undamped_unit_magnitude(self, t, tp):
        assert abs(mode_commutator(t, tp, OMEGA_V, 0.0)) == pytest.approx(1.0)

    def test_one_damping_time(self):
        dt = 1.0 / (GAMMA_V * RAD_PER_CM_FS)
        assert abs(mode_commutator(dt, 0.0, OMEGA_V, GAMMA_V)) == pytest.approx(math.exp(-1.0), abs=1e-12)

    @given(t=st.floats(-150.0, 150.0), tp=st.floats(-150.0, 150.0))
    def test_bounded_by_unity(self, t, tp):
        assert abs(mode_commutator(t, tp, OMEGA_V, GAMMA_V)) <= 1.0 + 1e-12


def ordered_segment_reference(q: TimeQuadruple, lam: float) -> complex:
    """Six-exponential closed form valid only for times[0] <= ... <= times[3]."""
    jp, j, l, i = q.sites
    t0, t1, t2, t3 = q.times
    lam2 = lam * lam

    def rise(b, a):  # exp((i*w - G)(t_b - t_a)) for t_b >= t_a
        return np.exp((1j * OMEGA_V - GAMMA_V) * RAD_PER_CM_FS * (b - a))

    expo = (
        (jp == j) * rise(t1, t0)
        + (i == l) * rise(t3, t2)
        - (j == l) * rise(t2, t1)
        + (jp == l) * rise(t2, t0)
        + (i == j) * rise(t3, t1)
        - (i == jp) * rise(t3, t0)
    )
    return np.exp(-2.0 * lam2) * np.exp(lam2 * expo)


class TestFourPointCorrelator:
    def test_no_displacement_is_unity(self):
        kernel = make_kernel(0.0)
        q = TimeQuadruple(times=(5.0, 1.0, 9.0, 3.0), sites=(0, 1, 2, 3))
        assert four_point_correlator(q, kernel) == pytest.approx(1.0)

    def test_paired_sites_across_distinct(self):
        # j'=j on one site, l=i on another: only the two intra-pair terms survive
        lam = 0.8
        kernel = make_kernel(lam)
        t = (12.0, 4.0, 33.0, 21.0)
        q = TimeQuadruple(times=t, sites=(0, 0, 1, 1))
        expected = math.exp(-2 * lam**2) * np.exp(lam**2 * (
            mode_commutator(t[0], t[1], OMEGA_V, GAMMA_V)
            + mode_commutator(t[2], t[3], OMEGA_V, GAMMA_V)))
        assert four_point_correlator(q, kernel) == pytest.approx(expected, rel=1e-14)

    def test_ordered_segment_closed_form(self):
        rng = np.random.default_rng(42)
        kernel = make_kernel(1.0)
        for _ in range(100):
            times = tuple(sorted(rng.uniform(0.0, 150.0, size=4)))
            sites = tuple(int(s) for s in rng.integers(0, 3, size=4))
            q = TimeQuadruple(times=times, sites=sites)
            ref = ordered_segment_reference(q, 1.0)
            assert abs(four_point_correlator(q, kernel) - ref) < 1e-12

    def test_two_point_reduction_both_orderings(self):
        rng = np.random.default_rng(9)
        lam = 1.1
        kernel = make_kernel(lam)
        for _ in range(50):
            t, tp = rng.uniform(0.0, 120.0, size=2)
            for a, b in ((t, tp), (tp, t)):
                # collapse the second operator pair to the identity on a bystander site
                q = TimeQuadruple(times=(a, b, 7.0, 7.0), sites=(0, 0, 2, 2))
                expected = math.exp(-lam**2) * np.exp(
                    lam**2 * mode_commutator(a, b, OMEGA_V, GAMMA_V))
                assert four_point_correlator(q, kernel) == pytest.approx(expected, rel=1e-13)

    def test_all_times_equal_is_real_pattern_sum(self):
        lam = 0.9
        kernel = make_kernel(lam)
        q = TimeQuadruple(times=(5.0,) * 4, sites=(0, 0, 0, 0))
        val = four_point_correlator(q, kernel)
        # all six commutators equal 1: pattern sum is 1+1-1+1+1-1 = 2
        assert val.imag == 0.0
        assert val.real == pytest.approx(math.exp(-2 * lam**2) * math.exp(2 * lam**2))

    @settings(deadline=None, max_examples=60)
    @given(
        times=st.tuples(*[st.floats(-100.0, 100.0)] * 4),
        sites=st.tuples(*[st.integers(0, 3)] * 4),
        lam=st.floats(0.0, 1.5),
    )
    def test_magnitude_bound(self, times, sites, lam):
        kernel = make_kernel(lam, m_max=1)
        val = four_point_correlator(TimeQuadruple(times=times, sites=sites), kernel)
        assert abs(val) <= math.exp(-2 * lam**2) * math.exp(6 * lam**2) * (1 + 1e-12)

    def test_series_resums_to_closed_form(self):
        lam = 1.0
        m_max = franck_condon_cutoff(lam, 1e-12)
        weights = franck_condon_weights(lam, m_max)
        c = mode_commutator(31.0, 8.0, OMEGA_V, GAMMA_V)
        series = np.sum(weights * c ** np.arange(m_max + 1))
        closed = math.exp(-lam**2) * np.exp(lam**2 * c)
        assert abs(series - closed) < 1e-10

    def test_zero_damping_limit_continuity(self):
        lam = 1.0
        q = TimeQuadruple(times=(3.0, 44.0, 12.0, 29.0), sites=(0, 1, 0, 1))
        tiny = four_point_correlator(q, make_kernel(lam, gamma_v=1e-6))
        zero = four_point_correlator(q, make_kernel(lam, gamma_v=0.0))
        assert abs(tiny - zero) < 1e-6


def reference_fock_correlator(q: TimeQuadruple, lam: float, omega_v: float,
                              n_max: int = 40) -> complex:
    """Truncated-Fock-space correlator with one matrix exponential per operator.

    The reference for :func:`fock_correlator`, which exponentiates once per
    lambda and rotates the result to each operator's time.
    """
    if n_max < 30:
        raise ValueError("n_max must be >= 30 for a trustworthy truncation")
    b = _lowering(n_max)
    bdag = b.conj().T
    daggered = (False, True, True, False)

    result = 1.0 + 0.0j
    for site in sorted(set(q.sites)):
        ops = [(q.times[k], daggered[k]) for k in range(4) if q.sites[k] == site]
        state = np.zeros(n_max, dtype=complex)
        state[0] = 1.0
        for time, dagger in reversed(ops):  # rightmost operator acts first
            phase = np.exp(-1j * omega_v * RAD_PER_CM_FS * time)
            gen = lam * (phase * b - np.conj(phase) * bdag)
            if dagger:
                gen = -gen
            state = matrix_exp(gen) @ state
            leak = float(np.sum(np.abs(state[-3:]) ** 2))
            if leak > 1e-10:
                warnings.warn(
                    f"Fock truncation leaked {leak:.2e} into the top levels",
                    TruncationWarning,
                    stacklevel=2,
                )
        result *= state[0]
    return complex(result)


class TestFockCorrelator:
    @pytest.mark.parametrize("lam", [0.3, 1.0, 1.2])
    def test_matches_reference_on_every_site_pattern(self, lam):
        rng = np.random.default_rng(round(100 * lam))
        kernel = make_kernel(lam, gamma_v=0.0)
        for cls in index_classes():
            for _ in range(3):
                q = TimeQuadruple(times=tuple(float(t) for t in rng.uniform(0.0, 120.0, size=4)),
                                  sites=cls.assignment)
                with warnings.catch_warnings(record=True) as ref_leaks:
                    warnings.simplefilter("always")
                    ref = reference_fock_correlator(q, lam, OMEGA_V)
                with warnings.catch_warnings(record=True) as leaks:
                    warnings.simplefilter("always")
                    value = fock_correlator(q, kernel)
                assert abs(value - ref) <= 1e-11 * abs(ref)
                # the same operators leak into the top levels (some do at lambda = 1.2)
                assert len(leaks) == len(ref_leaks)

    def test_displacement_matrix_is_memoised_read_only(self):
        disp = displacement_matrix(1.0, 40)
        assert displacement_matrix(1.0, 40) is disp
        assert not disp.flags.writeable
        with pytest.raises(ValueError):
            disp[0, 0] = 0.0
        # real orthogonal: the transpose undoes the displacement
        assert np.max(np.abs(disp.T @ disp - np.eye(40))) < 1e-13

    def test_fock_check_catches_a_scaled_correlator(self, monkeypatch):
        # scale the closed-form side only; the Fock-space reference is untouched
        from polariton2dcs import validate

        exact = validate.four_point_correlator
        monkeypatch.setattr(validate, "four_point_correlator",
                            lambda *args: exact(*args) * (1.0 + 1e-6))
        result = check_fock_four_point()
        assert not result.passed, result.line()

    def test_no_displacement(self):
        q = TimeQuadruple(times=(4.0, 8.0, 1.0, 9.0), sites=(0, 1, 2, 3))
        assert fock_correlator(q, make_kernel(0.0, gamma_v=0.0)) == pytest.approx(1.0)

    def test_equal_time_pairs_are_unitary(self):
        # D(t)D^+(t) on one site and D^+(u)D(u) on another multiply to identity
        q = TimeQuadruple(times=(6.0, 6.0, 15.0, 15.0), sites=(0, 0, 1, 1))
        kernel = make_kernel(1.0, gamma_v=0.0)
        assert fock_correlator(q, kernel) == pytest.approx(1.0, abs=1e-12)
        assert four_point_correlator(q, kernel) == pytest.approx(1.0, abs=1e-12)

    def test_matches_analytic_sample(self):
        rng = np.random.default_rng(11)
        kernel = make_kernel(1.0, gamma_v=0.0)
        for _ in range(10):
            q = TimeQuadruple(
                times=tuple(float(t) for t in rng.uniform(0.0, 100.0, size=4)),
                sites=tuple(int(s) for s in rng.integers(0, 4, size=4)),
            )
            assert abs(fock_correlator(q, kernel, n_max=40)
                       - four_point_correlator(q, kernel)) < 1e-8

    def test_suite_check(self):
        result = check_fock_four_point()
        assert result.passed, result.line()

    def test_truncation_warning_on_aligned_displacements(self):
        # half a vibrational period between the daggered pair aligns all four
        # displacement amplitudes: coherent amplitude 4*lam overflows n_max=30
        half_period = math.pi / (OMEGA_V * RAD_PER_CM_FS)
        q = TimeQuadruple(times=(0.0, half_period, half_period, 0.0), sites=(0, 0, 0, 0))
        with pytest.warns(TruncationWarning):
            fock_correlator(q, make_kernel(2.0, gamma_v=0.0), n_max=30)

    def test_damped_kernel_rejected(self):
        # the truncated Fock space models the undamped mode only
        q = TimeQuadruple(times=(0.0, 1.0, 2.0, 3.0), sites=(0, 0, 0, 0))
        with pytest.raises(ValueError, match="gamma_v"):
            fock_correlator(q, make_kernel(1.0))

    def test_small_truncation_rejected(self):
        q = TimeQuadruple(times=(0.0, 1.0, 2.0, 3.0), sites=(0, 0, 0, 0))
        with pytest.raises(ValueError):
            fock_correlator(q, make_kernel(1.0, gamma_v=0.0), n_max=10)


class TestVibKernel:
    def test_policy_enforces_minimum_order(self):
        sys = reference_params(lambda_hr=1e-4)
        kernel = kernel_from_params(sys)
        assert kernel.m_max >= 1

    def test_explicit_m_max_records_actual_tail(self):
        sys = reference_params()
        kernel = kernel_from_params(sys, m_max=3)
        assert kernel.m_max == 3
        assert kernel.tail_eps == pytest.approx(1.0 - franck_condon_weights(1.0, 3).sum())

    def test_weight_sum_within_tail(self, dye_kernel):
        assert dye_kernel.weights.sum() >= 1.0 - dye_kernel.tail_eps

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            VibKernel(lambda_hr=1.0, omega_v=-5.0, gamma_v=1.0, m_max=3, tail_eps=1e-8)
        with pytest.raises(ValueError):
            VibKernel(lambda_hr=-1.0, omega_v=5.0, gamma_v=1.0, m_max=3, tail_eps=1e-8)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["lambda_hr", "omega_v", "gamma_v"])
    def test_non_finite_parameters_rejected(self, name, value):
        fields = dict(lambda_hr=1.0, omega_v=OMEGA_V, gamma_v=GAMMA_V, m_max=3, tail_eps=1e-10)
        fields[name] = value
        with pytest.raises(ValueError, match=name):
            VibKernel(**fields)

    def test_invariant_checks_survive_python_O(self):
        # -O strips assert statements; both checks must still raise
        script = """
from polariton2dcs.errors import DivergentTransform
from polariton2dcs.propagator import build_matrix, decompose
from polariton2dcs.signals import pump_probe_values
from polariton2dcs.validate import reference_params
from polariton2dcs.vibrations import VibKernel, kernel_from_params
sys = reference_params()
dec = decompose(build_matrix(sys))
kernel = kernel_from_params(sys)
print(__debug__)
for call in (lambda: VibKernel(1.0, 1200.0, float("nan"), 3, 1e-10),
             lambda: pump_probe_values(dec, kernel, [0.0], float("nan"))):
    try:
        call()
        print("accepted")
    except (ValueError, DivergentTransform) as exc:
        print(type(exc).__name__)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(polariton2dcs.__file__).resolve().parents[1]))
        result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                                text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False", "ValueError", "DivergentTransform"]

    def test_wait_factor_never_grows(self, dye_kernel):
        for t in (0.0, 10.0, 500.0):
            assert abs(dye_kernel.wait_factor(t)) <= 1.0

    def test_quadruple_validation(self):
        with pytest.raises(ValueError):
            TimeQuadruple(times=(0.0, 1.0, float("inf"), 2.0), sites=(0, 0, 0, 0))
        with pytest.raises(ValueError):
            TimeQuadruple(times=(0.0, 1.0, 2.0, 3.0), sites=(0, -1, 0, 0))
