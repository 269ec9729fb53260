import inspect
import json
import math
import os
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polariton2dcs import signals, validate
from polariton2dcs.cli import build_jobspec
from polariton2dcs.errors import NegativeWaitingTime, TooLarge
from polariton2dcs.grids import Axis, SpectrumGrid
from polariton2dcs.model import validate_params
from polariton2dcs.peaks import find_peaks_1d, find_peaks_2d
from polariton2dcs.propagator import (
    build_matrix,
    decompose,
    expm_propagator,
    fourier_conj_entries,
    fourier_entries,
    propagator_G,
    propagator_fourier,
    quadrature_fourier,
)
from polariton2dcs.signals import (
    I_,
    J_,
    JP_,
    L_,
    SLICES_MAX_N,
    IndexClass,
    _batches,
    _formula_traces,
    _pp_class_weights,
    _slice_sums_direct,
    _wait_factor,
    _weight_table,
    index_classes,
    linear_absorption,
    peak_ratios,
    pump_probe,
    pump_probe_direct,
    pump_probe_prefactor,
    pump_probe_slices,
    pump_probe_slices_direct,
    pump_probe_values,
    twod_prefactor,
    twod_signal,
    twod_signal_direct,
    twod_values,
)
from polariton2dcs.validate import (
    _random_params,
    check_pump_probe_direct,
    check_slices_direct,
    check_slices_grid,
    check_twod_direct,
    reference_params,
)
from polariton2dcs.vibrations import (
    TimeQuadruple,
    VibKernel,
    fock_correlator,
    four_point_correlator,
    franck_condon_cutoff,
    kernel_from_params,
)

SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "cyanine_n10.json"
POLARITON_LINES = (14313.0, 17913.0)
ORACLE_RTOL = 1e-10


def random_detuned_case(seed: int, n: int):
    """Detuned parameter set with unequal rates, drawn from the ranges of the
    validate suite's random sets, with a small random phonon cutoff."""
    rng = np.random.default_rng(seed)
    sys = validate_params({
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
    kernel = kernel_from_params(sys, m_max=int(rng.integers(1, 4)))
    return sys, decompose(build_matrix(sys)), kernel, rng


def assert_oracle_match(fast, slow):
    assert abs(fast - slow) <= ORACLE_RTOL * max(abs(fast), abs(slow))


def full_axis(count=300, offset=16113.0):
    return Axis(13000.0, 19000.0, count, offset)


def reference_twod_signal_direct(dec, kernel, w1_rot: float, w3_rot: float, t_wait: float,
                                 prefactor: complex = 1j) -> complex:
    """Literal quintuple-index sum with one phonon sum per (i, l, j, j', p).

    The reference for :func:`twod_signal_direct`, which forms the phonon sums
    of all p of one index tuple in one reduction.
    """
    n = dec.n_molecules
    if n > 6:
        raise TooLarge("direct 2D oracle limited to N <= 6")
    z = _wait_factor(kernel, t_wait)
    s = kernel.weights
    mm = kernel.m_max
    g_wait = propagator_G(dec, t_wait)
    dim = 3 * mm + 1
    # [shift, row, column]
    trans_a = np.stack([fourier_entries(dec, w3_rot + kernel.shift(a)).to_dense(n)
                        for a in range(dim)])
    trans_b = np.stack([fourier_conj_entries(dec, w1_rot - kernel.shift(k)).to_dense(n)
                        for k in range(dim)])
    full = np.arange(mm + 1)
    pinned = np.arange(1)
    tables = {}   # (weight, alpha, kappa) by the Kronecker-delta pattern of the tuple
    total = 0.0 + 0.0j
    for i, l, j, jp in product(range(n), repeat=4):
        deltas = ((jp == j), (i == l), (j == l), (jp == l), (i == j), (i == jp))
        if deltas not in tables:
            m1, m2, m3, m4, m5, m6 = np.ix_(*[full if eq else pinned for eq in deltas])
            weight = (s[m1] * s[m2] * s[m3] * s[m4] * s[m5] * s[m6]
                      * (-1.0) ** (m3 + m6) * z ** (m3 + m4 + m5 + m6))
            tables[deltas] = (weight, m2 + m5 + m6, m1 + m4 + m6)
        weight, alpha, kappa = tables[deltas]
        weighted_a = weight * trans_a[:, i, l][alpha]
        for p in range(n + 1):
            total += np.conj(g_wait[l, p]) * g_wait[l, j] * np.sum(
                weighted_a * trans_b[:, p, jp][kappa]
            )
    return complex(prefactor * total)


# The loop oracles as they were before their products were batched over the index tuples;
# the batched oracles must reproduce them exactly.


def loop_twod_signal_direct(dec, kernel, w1_rot: float, w3_rot: float, t_wait: float,
                            prefactor: complex = 1j) -> complex:
    """:func:`twod_signal_direct` as a loop over the index tuples, one tuple at a time.

    The batched oracle must give the same complex number, bit for bit.
    """
    n = dec.n_molecules
    if n > 6:
        raise TooLarge("direct 2D oracle limited to N <= 6")
    z = _wait_factor(kernel, t_wait)
    s = kernel.weights
    mm = kernel.m_max
    g_wait = propagator_G(dec, t_wait)
    dim = 3 * mm + 1
    # [shift, row, column]
    trans_a = np.stack([fourier_entries(dec, w3_rot + kernel.shift(a)).to_dense(n)
                        for a in range(dim)])
    # [column, row, shift]: the rows p of one column j' sit next to each other
    trans_b = np.stack([fourier_conj_entries(dec, w1_rot - kernel.shift(k)).to_dense(n).T
                        for k in range(dim)], axis=-1)
    full = np.arange(mm + 1)
    pinned = np.arange(1)
    tables = {}   # (weight, alpha, kappa) by the Kronecker-delta pattern of the tuple
    total = 0.0 + 0.0j
    for i, l, j, jp in product(range(n), repeat=4):
        deltas = ((jp == j), (i == l), (j == l), (jp == l), (i == j), (i == jp))
        if deltas not in tables:
            m1, m2, m3, m4, m5, m6 = np.ix_(*[full if eq else pinned for eq in deltas])
            weight = (s[m1] * s[m2] * s[m3] * s[m4] * s[m5] * s[m6]
                      * (-1.0) ** (m3 + m6) * z ** (m3 + m4 + m5 + m6))
            tables[deltas] = (weight, m2 + m5 + m6, m1 + m4 + m6)
        weight, alpha, kappa = tables[deltas]
        weighted_a = weight * trans_a[:, i, l][alpha]
        # the phonon sums of every p at once: order="C" keeps each p's terms in
        # one contiguous row, so each row is summed pairwise like a flat array
        terms = np.multiply(weighted_a, trans_b[jp][:, kappa], order="C")
        sums = terms.reshape(n + 1, -1).sum(axis=1)
        # add the p terms one at a time, in p order
        for term in (np.conj(g_wait[l]) * g_wait[l, j] * sums).tolist():
            total += term
    return complex(prefactor * total)


def loop_pump_probe_direct(dec, kernel, w_rot: float, t_wait: float,
                           scale: float = 1.0) -> float:
    """:func:`pump_probe_direct` as a loop over the index tuples, one tuple at a time."""
    n = dec.n_molecules
    if n > 6:
        raise TooLarge("direct pump-probe oracle limited to N <= 6")
    z = _wait_factor(kernel, t_wait)
    s = kernel.weights
    mm = kernel.m_max
    g_wait = propagator_G(dec, t_wait)
    # [shift, row, column]
    trans = np.stack([fourier_entries(dec, w_rot + kernel.shift(x)).to_dense(n)
                      for x in range(2 * mm + 1)])
    full = np.arange(mm + 1)
    pinned = np.arange(1)
    tables = {}   # (weight, m1 + m3) by the Kronecker-delta pattern of the tuple
    total = 0.0 + 0.0j
    for i, l, j, jp in product(range(n), repeat=4):
        d2 = float(jp == l) - float(j == l)
        d3 = float(i == j) - float(i == jp)
        deltas = (i == l, d2, d3)
        if deltas not in tables:
            m1, m2, m3 = np.ix_(full if i == l else pinned, full, full)
            weight = (s[m1] * s[m2] * s[m3] * d2 ** m2 * d3 ** m3 * z ** (m2 + m3))
            tables[deltas] = (weight, m1 + m3)
        weight, m13 = tables[deltas]
        total += np.conj(g_wait[l, jp]) * g_wait[l, j] * (weight * trans[:, i, l][m13]).sum()
    return float(scale * np.real(total))


def loop_slice_sums_direct(s, z, zp, gg, dark_weight, stokes_orders) -> tuple[float, dict]:
    """:func:`_slice_sums_direct` as literal site loops, one phonon sum per kept term."""
    n = gg.shape[0]
    mm = s.size - 1
    accum = 0.0
    for l, jp, j in product(range(n), repeat=3):
        d = float(jp == l) - float(j == l)
        accum += float((s * d ** np.arange(mm + 1) * zp * gg[l, jp, j]).sum().real)
    stokes = {}
    for order in stokes_orders:
        acc = 0.0
        m_idx = np.arange(mm + 1)
        for site, l in product(range(n), repeat=2):
            dw = dark_weight[site, l]
            if dw == 0.0:
                continue
            for jp, j in product(range(n), repeat=2):
                d2 = float(jp == l) - float(j == l)
                d3 = float(site == j) - float(site == jp)
                for m1 in range(order + 1):
                    m3 = order - m1
                    if m1 > mm or m3 > mm:
                        continue
                    if m1 > 0 and site != l:
                        continue
                    w13 = s[m1] * s[m3] * (d3 ** m3)
                    if w13 == 0.0:
                        continue
                    inner = (s * d2 ** m_idx * zp * gg[l, jp, j]).sum() * (z ** m3)
                    acc += w13 * float(np.real(dw * inner))
        stokes[order] = acc
    return accum, stokes


class TestIndexClasses:
    def test_fifteen_partitions(self):
        assert len(index_classes()) == 15

    @given(n=st.integers(1, 8))
    def test_multiplicities_tile_the_index_space(self, n):
        assert sum(cls.multiplicity(n) for cls in index_classes()) == n ** 4

    def test_multiplicity_vanishes_when_blocks_exceed_n(self):
        all_distinct = next(cls for cls in index_classes() if cls.blocks == 4)
        assert all_distinct.multiplicity(3) == 0
        assert all_distinct.multiplicity(4) == 24

    def test_free_mask_of_fully_merged_class(self):
        merged = next(cls for cls in index_classes() if cls.blocks == 1)
        assert merged.free_mask == (True,) * 6

    def test_falling_factorial(self):
        # the all-distinct class is realized by N (N-1) (N-2) (N-3) tuples
        all_distinct = IndexClass((0, 1, 2, 3))
        assert all_distinct.multiplicity(10) == 5040
        assert all_distinct.multiplicity(3) == 0


class TestGridTypes:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            Axis(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Axis(2.0, 1.0, 50)
        for start, stop in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                Axis(start, stop, 50)

    def test_axis_rotating_frame(self):
        axis = Axis(13000.0, 19000.0, 4, offset=16113.0)
        assert axis.rotating()[0] == pytest.approx(-3113.0)

    def test_grid_shape_enforced(self):
        axis = Axis(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            SpectrumGrid("absorption", axis, None, None, np.zeros(3, dtype=complex))


class TestLinearAbsorption:
    def test_zero_displacement_two_lorentzians(self):
        sys = reference_params(lambda_hr=0.0)
        dec = decompose(build_matrix(sys))
        kernel = kernel_from_params(sys)
        axis = full_axis(2000)
        grid = linear_absorption(sys, dec, kernel, axis)
        peaks = find_peaks_1d(axis.values(), grid.display(), min_rel_height=0.001)
        assert len(peaks) == 2
        for peak, target in zip(sorted(p.refined for p in peaks), POLARITON_LINES):
            assert abs(peak - target) < 5.0
        # dark contributions cancel exactly: the spectrum equals the all-pairs
        # sum of the dense transform, which has no dark pole left
        w = axis.rotating()[::100]
        dense_sum = np.array([propagator_fourier(dec, om)[:10, :10].sum() for om in w])
        assert np.max(np.abs(grid.display()[::100] - dense_sum.real)) < 1e-10

    def test_reference_three_peak_structure(self, dye_system, dye_dec, dye_kernel):
        axis = full_axis(2000)
        grid = linear_absorption(dye_system, dye_dec, dye_kernel, axis)
        peaks = find_peaks_1d(axis.values(), grid.display(), min_rel_height=0.05)
        positions = sorted(p.refined for p in peaks)
        assert len(positions) == 3
        for pos, target in zip(positions, (14313.0, 17313.0, 17913.0)):
            assert abs(pos - target) < 5.0

    def test_decoupled_limit_matches_bare_vibronic_progression(self):
        sys = reference_params(lambda_hr=1.0, collective=1e-6)
        dec = decompose(build_matrix(sys))
        kernel = kernel_from_params(sys)
        axis = Axis(14000.0, 22000.0, 1500, sys.axis_offset)
        grid = linear_absorption(sys, dec, kernel, axis)
        w = axis.rotating()
        bare = np.zeros_like(w)
        for m in range(kernel.m_max + 1):
            weight = math.exp(-1.0) / math.factorial(m)
            width = sys.gamma_x + m * sys.gamma_v
            bare += sys.n_molecules * weight * width / (width**2 + (w - m * sys.omega_v) ** 2)
        assert np.max(np.abs(grid.display() - bare)) / bare.max() < 1e-10

    def test_output_is_real(self, dye_system, dye_dec, dye_kernel):
        grid = linear_absorption(dye_system, dye_dec, dye_kernel, full_axis(64))
        assert np.all(grid.values.imag == 0.0)


class TestPeakRatios:
    def test_reference_first_order_ratio(self, dye_system, dye_dec):
        ratios = peak_ratios(dye_system, dye_dec, m_max=1)
        assert ratios.eds_over_lp[0] == pytest.approx(0.9 * 2.0 * 0.95 / 21.0, rel=1e-6)
        assert ratios.eds_over_lp[0] == pytest.approx(0.08143, abs=5e-5)
        assert ratios.approximate  # gamma_x != gamma_c in the reference set

    def test_large_n_limit(self):
        sys = reference_params(n_molecules=10**6)
        dec = decompose(build_matrix(sys))
        ratios = peak_ratios(sys, dec, m_max=1)
        # exact N -> infinity value of the closed form
        exact_limit = 2.0 * dec.mu_lp.real / (dec.mu_dark.real + 20.0)
        assert ratios.eds_over_lp[0] == pytest.approx(exact_limit, rel=1e-5)
        # the common wide-phonon-line shorthand drops the dark width entirely
        assert ratios.eds_over_lp[0] == pytest.approx(2.0 * dec.mu_lp.real / 20.0, rel=0.06)

    def test_sideband_barely_observable(self, dye_system, dye_dec):
        ratios = peak_ratios(dye_system, dye_dec, m_max=1)
        assert ratios.sideband_over_lp[0] == pytest.approx(0.95 / (10 * 20.95), rel=1e-6)
        assert ratios.sideband_over_lp[0] == pytest.approx(0.004535, abs=5e-6)


class TestTwodSignal:
    def test_single_molecule_single_class(self):
        sys = reference_params(n_molecules=1, collective=1800.0, lambda_hr=0.7)
        dec = decompose(build_matrix(sys))
        kernel = kernel_from_params(sys, m_max=3)
        active = [cls for cls in index_classes() if cls.multiplicity(1) > 0]
        assert len(active) == 1
        args = (dec, kernel, 1800.0, 1800.0, 120.0, twod_prefactor(sys))
        fast = complex(twod_values(*args)[0, 0])
        slow = twod_signal_direct(*args)
        assert fast == pytest.approx(slow, rel=1e-11)

    @pytest.mark.parametrize("t_wait", [0.0, 250.0, 500.0])
    def test_groups_by_distinct_sites_sum_to_the_map(self, monkeypatch, t_wait):
        # the classes with b distinct sites give the map S_b of the pathways through b
        # molecules; the four maps interfere (max|S_b| reaches 5 max|S| at 250 fs), and S_4
        # vanishes at T = 0, where the propagator has no entry between two sites
        from polariton2dcs import signals

        spec = build_jobspec("twod", json.loads(SHIPPED_CONFIG.read_text()))
        args = (decompose(build_matrix(spec.params)), spec.kernel, spec.grids["omega1"].rotating(),
                spec.grids["omega3"].rotating(), t_wait, twod_prefactor(spec.params))
        full = twod_values(*args)
        classes = index_classes()
        groups = []
        for b in (1, 2, 3, 4):
            monkeypatch.setattr(signals, "index_classes",
                                lambda b=b: tuple(cls for cls in classes if cls.blocks == b))
            groups.append(twod_values(*args))
        assert np.abs(sum(groups) - full).max() <= 1e-14 * sum(np.abs(g).max() for g in groups)
        if t_wait == 0.0:
            assert np.abs(groups[3]).max() <= 1e-15 * np.abs(full).max()

    def test_direct_loop_agreement_sample(self):
        result = check_twod_direct()
        assert result.passed, result.line()

    def test_direct_check_catches_a_broken_fast_path(self, monkeypatch):
        # scale the class-collapsed 2D values only; the literal loop is untouched
        values = validate.twod_values
        monkeypatch.setattr(validate, "twod_values", lambda *args: values(*args) * (1.0 + 1e-6))
        result = check_twod_direct()
        assert not result.passed, result.line()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_direct_loop_random_detuned_sets(self, n):
        sys, dec, kernel, rng = random_detuned_case(300 + n, n)
        for _ in range(3):
            om1, om3 = rng.uniform(-2400.0, 2400.0, size=2)
            t_wait = float(rng.uniform(0.0, 400.0))
            args = (dec, kernel, -om1, om3, t_wait, twod_prefactor(sys))
            assert_oracle_match(twod_values(*args)[0, 0], twod_signal_direct(*args))

    def test_direct_loop_matches_reference_on_reference_set(self):
        rng = np.random.default_rng(205)
        for n in (2, 3, 4, 5):
            sys = reference_params(lambda_hr=0.9, n_molecules=n, collective=1800.0)
            dec = decompose(build_matrix(sys))
            kernel = kernel_from_params(sys, m_max=4)
            for _ in range(2):
                om1, om3 = rng.uniform(-2400.0, 2400.0, size=2)
                t_wait = float(rng.uniform(0.0, 400.0))
                args = (dec, kernel, -om1, om3, t_wait, twod_prefactor(sys))
                ref = reference_twod_signal_direct(*args)
                new = twod_signal_direct(*args)
                assert abs(new - ref) <= 1e-11 * abs(ref)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_direct_loop_matches_reference_on_random_sets(self, n):
        rng = np.random.default_rng(500 + n)
        sys = _random_params(rng, n)
        dec = decompose(build_matrix(sys))
        kernel = kernel_from_params(sys, m_max=3)
        for _ in range(3):
            om1, om3 = rng.uniform(-2400.0, 2400.0, size=2)
            t_wait = float(rng.uniform(0.0, 400.0))
            args = (dec, kernel, -om1, om3, t_wait, twod_prefactor(sys))
            ref = reference_twod_signal_direct(*args)
            new = twod_signal_direct(*args)
            assert abs(new - ref) <= 1e-11 * abs(ref)

    def test_direct_loop_size_guard(self, dye_dec, dye_kernel):
        with pytest.raises(TooLarge):
            twod_signal_direct(dye_dec, dye_kernel, 0.0, 0.0, 0.0)

    def test_negative_waiting_time_rejected(self, dye_system, dye_dec, dye_kernel):
        axis = full_axis(8)
        with pytest.raises(NegativeWaitingTime):
            twod_signal(dye_system, dye_dec, dye_kernel, axis, axis, -5.0)

    def test_zero_displacement_pure_polariton_grid(self):
        sys = reference_params(lambda_hr=0.0)
        dec = decompose(build_matrix(sys))
        kernel = kernel_from_params(sys)
        axis = full_axis(300)
        grid = twod_signal(sys, dec, kernel, axis, axis, 0.0)
        peaks = find_peaks_2d(axis.values(), axis.values(), grid.display(),
                              omega_v=sys.omega_v, min_rel_height=0.02)
        assert peaks
        for p in peaks:
            assert min(abs(p.refined1 - x) for x in POLARITON_LINES) < 60.0
            assert min(abs(p.refined3 - x) for x in POLARITON_LINES) < 60.0

    def test_zero_phonon_term_reproduces_zero_displacement_signal(self):
        lam = 1.0
        sys_l = reference_params(lambda_hr=lam)
        sys_0 = reference_params(lambda_hr=0.0)
        dec_l = decompose(build_matrix(sys_l))
        dec_0 = decompose(build_matrix(sys_0))
        zero_phonon = VibKernel(lambda_hr=lam, omega_v=1200.0, gamma_v=20.0, m_max=0, tail_eps=1.0)
        kernel_0 = kernel_from_params(sys_0)
        w = np.linspace(-3000.0, 3000.0, 9)
        a = twod_values(dec_l, zero_phonon, w, w, 85.0) / math.exp(-lam**2) ** 6
        b = twod_values(dec_0, kernel_0, w, w, 85.0)
        # exact identity; last-bit weight rounding passes through a strongly
        # canceling contraction, so allow ~1e3 ulp relative to the grid scale
        assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-9

    def test_reference_cross_peaks_at_phonon_offsets(self, dye_system, dye_dec, dye_kernel):
        axis = full_axis(300)
        grid = twod_signal(dye_system, dye_dec, dye_kernel, axis, axis, 0.0)
        peaks = find_peaks_2d(axis.values(), axis.values(), grid.display(),
                              omega_v=dye_system.omega_v, min_rel_height=0.02)

        def present(w1, w3, tol=80.0):
            return any(abs(p.omega1 - w1) < tol and abs(p.omega3 - w3) < tol
                       for p in peaks)

        assert present(17313.0, 14913.0)   # one-phonon emission below the pump line
        assert present(17313.0, 13713.0)   # two-phonon emission

    def test_emission_marginal_matches_absorption(self):
        sys = reference_params(lambda_hr=0.0)
        dec = decompose(build_matrix(sys))
        kernel = kernel_from_params(sys)
        axis = full_axis(400)
        grid = twod_signal(sys, dec, kernel, axis, axis, 0.0)
        marginal = np.abs(grid.display()).max(axis=0)
        twod_peaks = sorted(p.omega for p in find_peaks_1d(axis.values(), marginal, 0.05))
        absorption = linear_absorption(sys, dec, kernel, axis)
        abs_peaks = sorted(p.omega for p in
                           find_peaks_1d(axis.values(), absorption.display(), 0.05))
        assert len(twod_peaks) == len(abs_peaks)
        for a, b in zip(twod_peaks, abs_peaks):
            assert abs(a - b) <= axis.step

    def test_sign_flip_canary(self, monkeypatch):
        # forcing the phonon-exchange sign positive must break the oracle match
        sys = reference_params(lambda_hr=0.9, n_molecules=3)
        dec = decompose(build_matrix(sys))
        kernel = kernel_from_params(sys, m_max=3)
        args = (dec, kernel, 1700.0, 1100.0, 90.0, twod_prefactor(sys))
        scale = abs(twod_signal_direct(*args))
        baseline = abs(twod_values(*args)[0, 0] - twod_signal_direct(*args))
        assert baseline < 1e-12 * scale

        def unsigned_weight_table(kernel, free, z):
            """:func:`_weight_table` with the sign (-1)^(m3+m6) taken as +1."""
            s = kernel.weights
            w1, w2, w3, w4, w5, w6 = (s if flag else s[:1] for flag in free)
            zp = z ** np.arange(len(s))
            f3 = np.sum(w3 * zp[: len(w3)])
            u = np.convolve(w2, w5 * zp[: len(w5)])
            v = np.convolve(w1, w4 * zp[: len(w4)])
            table = np.zeros((3 * kernel.m_max + 1,) * 2, dtype=complex)
            for m6 in range(len(w6)):
                table[m6:m6 + len(u), m6:m6 + len(v)] += w6[m6] * zp[m6] * f3 * np.outer(u, v)
            return table

        monkeypatch.setattr(signals, "_weight_table", unsigned_weight_table)
        broken = abs(twod_values(*args)[0, 0] - twod_signal_direct(*args))
        assert broken > 1e-2 * scale


class TestPumpProbe:
    def test_direct_loop_agreement_sample(self):
        result = check_pump_probe_direct()
        assert result.passed, result.line()

    def test_direct_check_catches_a_broken_fast_path(self, monkeypatch):
        # scale the class-collapsed pump-probe weights only; the literal loop is untouched
        from polariton2dcs import signals

        weights = signals._pp_class_weights

        def scaled(*args):
            w13, f2 = weights(*args)
            return w13, f2 * (1.0 + 1e-6)

        monkeypatch.setattr(signals, "_pp_class_weights", scaled)
        result = check_pump_probe_direct()
        assert not result.passed, result.line()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_direct_loop_random_detuned_sets(self, n):
        sys, dec, kernel, rng = random_detuned_case(400 + n, n)
        omegas = rng.uniform(12000.0, 20000.0, size=3)
        for omega, t_wait in zip(omegas, rng.uniform(0.0, 500.0, size=3)):
            args = (dec, kernel, omega - sys.axis_offset, t_wait, 4.0 * sys.dipole ** 4)
            assert_oracle_match(pump_probe_values(*args)[0], pump_probe_direct(*args))

    def test_direct_loop_size_guard(self, dye_dec, dye_kernel):
        with pytest.raises(TooLarge):
            pump_probe_direct(dye_dec, dye_kernel, 0.0, 0.0)

    def test_stokes_side_peaks(self, dye_system, dye_dec, dye_kernel):
        axis = Axis(12000.0, 19000.0, 2500, dye_system.axis_offset)
        grid = pump_probe(dye_system, dye_dec, dye_kernel, axis, 0.0)
        peaks = find_peaks_1d(axis.values(), grid.display(), min_rel_height=0.01)
        positions = sorted(p.refined for p in peaks)
        targets = (13713.0, 14313.0, 14913.0, 17913.0)  # two Stokes lines, LP, UP
        assert len(positions) == len(targets)
        for pos, ref in zip(positions, targets):
            assert abs(pos - ref) < 5.0

    def test_zero_displacement_rabi_transient(self):
        sys = reference_params(lambda_hr=0.0)
        dec = decompose(build_matrix(sys))
        kernel = kernel_from_params(sys)
        w_up = np.array([dec.mu_up.imag])
        # with no phonon sums left the trace is a pure polariton interference
        trace = np.array([float(pump_probe_values(dec, kernel, w_up, t)[0])
                          for t in np.linspace(0.0, 12.0, 13)])
        assert trace.std() > 0.05 * np.abs(trace).max()   # Rabi beats
        late = float(pump_probe_values(dec, kernel, w_up, 8.0e4)[0])
        assert abs(late) < 1e-6 * np.abs(trace).max()

    def test_output_is_real(self, dye_system, dye_dec, dye_kernel):
        axis = Axis(12000.0, 19000.0, 64, dye_system.axis_offset)
        grid = pump_probe(dye_system, dye_dec, dye_kernel, axis, 30.0)
        assert np.all(grid.values.imag == 0.0)

    def test_negative_waiting_time_rejected(self, dye_system, dye_dec, dye_kernel):
        axis = Axis(12000.0, 19000.0, 16, dye_system.axis_offset)
        with pytest.raises(NegativeWaitingTime):
            pump_probe(dye_system, dye_dec, dye_kernel, axis, -1.0)

    def test_identical_molecule_relabeling_invariance(self, dye_dec):
        # any molecule permutation fixes the dense propagator entries, hence
        # every literal index sum is invariant under relabeling
        rng = np.random.default_rng(5)
        perm = np.concatenate([rng.permutation(10), [10]])
        g = propagator_G(dye_dec, 55.0)
        assert np.array_equal(g[np.ix_(perm, perm)], g)
        f = propagator_fourier(dye_dec, 432.0)
        assert np.array_equal(f[np.ix_(perm, perm)], f)


class TestSlices:
    def test_zero_displacement_zero_delay_counts_molecules(self):
        sys = reference_params(lambda_hr=0.0)
        dec = decompose(build_matrix(sys))
        kernel = kernel_from_params(sys)
        report = pump_probe_slices(sys, dec, kernel, [0.0], stokes_orders=(1,))
        value = report.upper_polariton.formula[0] * 2.0 * dec.mu_up.real
        assert value == pytest.approx(10.0, rel=1e-12)

    def test_exact_values_match_grid(self):
        result = check_slices_grid()
        assert result.passed, result.line()

    def test_exact_values_check_catches_a_broken_fast_path(self, monkeypatch):
        # scale the class-collapsed pump-probe weights only; the literal loop is untouched
        from polariton2dcs import signals

        weights = signals._pp_class_weights

        def scaled(*args):
            w13, f2 = weights(*args)
            return w13, f2 * (1.0 + 1e-6)

        monkeypatch.setattr(signals, "_pp_class_weights", scaled)
        result = check_slices_grid()
        assert not result.passed, result.line()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("broken", ["upper_polariton", "stokes"])
    def test_formula_check_catches_a_broken_fast_path(self, monkeypatch, broken, cpus):
        # scale one of the array sums only; the literal site loops are untouched
        from polariton2dcs import signals

        sums = signals._slice_sums

        def scaled(*args):
            accum, stokes = sums(*args)
            if broken == "upper_polariton":
                return accum * (1.0 + 1e-9), stokes
            return accum, {m: acc * (1.0 + 1e-9) for m, acc in stokes.items()}

        monkeypatch.setattr(signals, "_slice_sums", scaled)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        result = check_slices_direct()
        assert not result.passed, result.line()

    def test_long_delay_decay(self, dye_system, dye_dec, dye_kernel):
        report = pump_probe_slices(dye_system, dye_dec, dye_kernel,
                                   [0.0, 40000.0], stokes_orders=(1,))
        up = report.upper_polariton
        assert abs(up.exact[1]) < 1e-4 * abs(up.exact[0])
        assert abs(up.formula[1]) < 1e-4 * abs(up.formula[0])

    def test_formula_tracks_exact_up_to_constant(self, dye_system, dye_dec, dye_kernel):
        t_list = [0.0, 60.0, 130.0, 260.0, 420.0, 700.0]
        report = pump_probe_slices(dye_system, dye_dec, dye_kernel, t_list, stokes_orders=(1,))
        assert report.upper_polariton.residual < 0.01
        assert report.stokes[1].residual < 0.05
        # the fitted constant is the kernel-side normalization left out of the
        # resonance form: 4 * exp(-lambda^2)
        assert report.upper_polariton.fitted_scale == pytest.approx(4 * math.exp(-1.0), rel=1e-2)

    @pytest.mark.parametrize("lambda_hr, n, dipole", [
        (1.0, 10, 1.0), (0.5, 10, 2.0), (1.5, 10, 1.0), (2.0, 10, 1.0), (1.0, 3, 1.0),
        (1.0, 40, 1.0)])
    def test_fitted_scale_is_the_constant_on_resonance(self, lambda_hr, n, dipole):
        # fitted_scale = 4 dipole^4 exp(-lambda^2) (1 + eps) at g sqrt(N) = 1800 on the shipped
        # waiting times; below lambda = 0.5 the order-2 eps grows (3.4e-2 at lambda = 0.3)
        sys = reference_params(lambda_hr=lambda_hr, n_molecules=n, dipole=dipole)
        report = pump_probe_slices(sys, decompose(build_matrix(sys)), kernel_from_params(sys),
                                   [0.0, 250.0, 500.0, 750.0], (1, 2))
        constant = pump_probe_prefactor(sys) * math.exp(-lambda_hr ** 2)
        assert abs(report.upper_polariton.fitted_scale / constant - 1.0) <= 5e-5
        for trace in report.stokes.values():
            assert abs(trace.fitted_scale / constant - 1.0) <= 1e-2

    @pytest.mark.parametrize("detuned", [dict(delta_x=300.0, gamma_c=5.0),
                                         dict(delta_c=-400.0, gamma_x=3.0, lambda_hr=0.7)])
    def test_fitted_scale_misses_the_constant_off_resonance(self, detuned):
        # the README's off-resonance domain: on the shipped set, detuned, the upper polariton's
        # eps is 0.0831 and 0.1104; this moves when the upper-polariton weight is mended
        sys = reference_params(**detuned)
        report = pump_probe_slices(sys, decompose(build_matrix(sys)), kernel_from_params(sys),
                                   [0.0, 250.0, 500.0, 750.0], (1, 2))
        constant = pump_probe_prefactor(sys) * math.exp(-sys.lambda_hr ** 2)
        assert 0.05 <= report.upper_polariton.fitted_scale / constant - 1.0 <= 0.15

    def test_negative_waiting_time_rejected(self, dye_system, dye_dec, dye_kernel):
        with pytest.raises(NegativeWaitingTime):
            pump_probe_slices(dye_system, dye_dec, dye_kernel, [-10.0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_direct_loop_bitwise_random_detuned_sets(self, n):
        sys, dec, kernel, rng = random_detuned_case(500 + n, n)
        t_list = [0.0] + list(rng.uniform(0.0, 600.0, size=3))
        fast = pump_probe_slices(sys, dec, kernel, t_list, stokes_orders=(1, 2, 3))
        slow = pump_probe_slices_direct(sys, dec, kernel, t_list, stokes_orders=(1, 2, 3))
        self.assert_same_report(fast, slow)

    @staticmethod
    def assert_same_report(fast, slow):
        """``fast``, a :class:`SliceReport`, has the formula traces ``slow``, bit for bit."""
        up, stokes = slow
        assert list(fast.stokes) == list(stokes)
        assert np.array_equal(fast.upper_polariton.formula, up)
        for m, formula in stokes.items():
            assert np.array_equal(fast.stokes[m].formula, formula)

    def assert_sums_match_the_loops(self, sys, dec, kernel, t_list, orders):
        """The array sums and the literal site loops give the same formula traces, bit for bit."""
        loops = _formula_traces(sys, dec, kernel, np.asarray(t_list, dtype=float), orders,
                                _slice_sums_direct)
        self.assert_same_report(pump_probe_slices(sys, dec, kernel, t_list, orders), loops)

    @pytest.mark.parametrize("n", [7, 8])
    def test_sums_bitwise_past_the_oracle_bound(self, n):
        # pump_probe_slices_direct refuses N > 6, so the loops' traces are built directly
        sys, dec, kernel, rng = random_detuned_case(500 + n, n)
        t_list = [0.0] + list(rng.uniform(0.0, 600.0, size=2))
        self.assert_sums_match_the_loops(sys, dec, kernel, t_list, (1, 2, 3))

    @pytest.mark.parametrize("n", [2, 5, 7])
    @pytest.mark.parametrize("m_max", [None, 2])
    def test_sums_bitwise_without_displacement(self, n, m_max):
        # lambda = 0: only the zero-phonon weight is nonzero
        sys = reference_params(n_molecules=n, lambda_hr=0.0, g=1800.0 / math.sqrt(n))
        kernel = kernel_from_params(sys, m_max=m_max)
        assert np.count_nonzero(kernel.weights) == 1
        self.assert_sums_match_the_loops(sys, decompose(build_matrix(sys)), kernel,
                                         [0.0, 250.0], (1, 2))

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_sums_bitwise_at_zero_delay(self, n):
        # at T = 0 the off-diagonal propagator entries vanish (exactly at N = 4 and 7, to
        # 1e-21 at N = 2), and patterns whose gg holds one of them share the value zero
        sys = reference_params(n_molecules=n, g=1800.0 / math.sqrt(n))
        dec = decompose(build_matrix(sys))
        g = propagator_G(dec, 0.0)[:n, :n]
        assert np.abs(g - np.eye(n)).max() < 1e-20
        assert n == 2 or np.array_equal(g, np.eye(n))
        self.assert_sums_match_the_loops(sys, dec, kernel_from_params(sys), [0.0], (1, 2))

    @pytest.mark.parametrize("n", [3, 8])
    def test_sums_bitwise_with_orders_past_the_cutoff(self, n):
        # at m_max = 1, order 2 keeps only m1 = m3 = 1 and order 3 keeps no term
        sys = reference_params(n_molecules=n, g=1800.0 / math.sqrt(n))
        kernel = kernel_from_params(sys, m_max=1)
        self.assert_sums_match_the_loops(sys, decompose(build_matrix(sys)), kernel,
                                         [0.0, 130.0], (1, 2, 3))

    @pytest.mark.parametrize("n", [3, 6])
    def test_sums_bitwise_with_orders_that_keep_the_top_of_the_cutoff(self, n):
        # at m_max = 3, orders 4 to 6 keep only m1 >= order - 3, and order 7 keeps no term
        sys = reference_params(n_molecules=n, g=1800.0 / math.sqrt(n))
        kernel = kernel_from_params(sys, m_max=3)
        self.assert_sums_match_the_loops(sys, decompose(build_matrix(sys)), kernel,
                                         [0.0, 130.0], tuple(range(1, 8)))

    def test_huge_order_keeps_no_term(self, dye_system, dye_dec, dye_kernel):
        # the literal loops would visit 10^12 values of m1; the sums size their table by m_max
        t_list = [0.0, 250.0]
        report = pump_probe_slices(dye_system, dye_dec, dye_kernel, t_list, (1, 10 ** 12))
        assert np.array_equal(report.stokes[10 ** 12].formula, np.zeros(2))
        alone = pump_probe_slices(dye_system, dye_dec, dye_kernel, t_list, (1,))
        assert np.array_equal(report.stokes[1].formula, alone.stokes[1].formula)

    @pytest.mark.parametrize("lambda_hr, order, n", [(0.0, 1, 3), (0.0, 2, 10), (1.0, 10 ** 12, 10)])
    def test_residual_of_a_zero_formula_is_relative(self, lambda_hr, order, n):
        # an all-zero formula trace fits with scale 0 and leaves all of exact as the misfit,
        # rms over max|exact| as for any trace; at N = 3, lambda_hr = 0, order 1 the residual
        # was rms(exact) alone, 1.41e-5, with exact peaking at 1.61e-5
        sys = reference_params(lambda_hr=lambda_hr, n_molecules=n)
        dec = decompose(build_matrix(sys))
        trace = pump_probe_slices(sys, dec, kernel_from_params(sys), [0.0, 250.0, 500.0, 750.0],
                                  (order,)).stokes[order]
        assert np.array_equal(trace.formula, np.zeros(4)) and trace.fitted_scale == 0.0
        assert np.all(trace.exact > 0.0)
        assert trace.residual == np.sqrt(np.mean(trace.exact ** 2)) / np.max(np.abs(trace.exact))
        assert 0.85 < trace.residual < 0.9

    def test_vectorized_dark_weight_product_is_the_scalar_product(self):
        # _slice_sums takes Re(dw * inner) over arrays, where the loops take it per scalar
        rng = np.random.default_rng(11)
        dw = rng.standard_normal(4000) * 10.0 ** rng.integers(-3, 3, 4000)
        inner = (rng.standard_normal(7) + 1j * rng.standard_normal(7)) * 10.0 ** rng.integers(-9, 3, 7)
        vectorized = np.real(dw[:, None] * inner)
        scalar = np.array([[float(np.real(d * c)) for c in inner] for d in dw])
        assert np.array_equal(vectorized.view(np.int64), scalar.view(np.int64))

    def test_direct_loop_size_guard(self, dye_system, dye_dec, dye_kernel):
        with pytest.raises(TooLarge):
            pump_probe_slices_direct(dye_system, dye_dec, dye_kernel, [0.0])

    def test_size_bound(self):
        sys = reference_params(n_molecules=SLICES_MAX_N + 1)
        dec = decompose(build_matrix(sys))
        with pytest.raises(TooLarge, match=str(SLICES_MAX_N)):
            pump_probe_slices(sys, dec, kernel_from_params(sys), [0.0])


def drawn_cases(monkeypatch, check) -> list:
    """The cases ``check`` draws, taken from its call to ``fork_map``, which computes none."""
    drawn = []
    monkeypatch.setattr(validate, "fork_map", lambda error, cases: drawn.extend(cases) or [0.0])
    check()
    return drawn


def leading_parameters(function, count: int) -> list[tuple]:
    """(name, kind, default) of the first ``count`` parameters of ``function``."""
    params = list(inspect.signature(function).parameters.values())[:count]
    return [(p.name, p.kind, p.default) for p in params]


class TestOraclesTakeTheArgumentsOfTheirFastPaths:
    """A reference takes its fast path's argument list, so a check calls both with one
    tuple and neither can see another N, frame or prefactor."""

    @pytest.mark.parametrize("fast, reference", [
        (twod_values, twod_signal_direct),
        (pump_probe_values, pump_probe_direct),
        (four_point_correlator, fock_correlator),
        (propagator_fourier, quadrature_fourier),
        (pump_probe_slices, pump_probe_slices_direct),
    ], ids=lambda f: f.__name__)
    def test_leading_parameters_are_the_fast_paths(self, fast, reference):
        count = len(inspect.signature(fast).parameters)
        assert leading_parameters(reference, count) == leading_parameters(fast, count)

    def test_expm_reference_alone_takes_the_matrix(self):
        # the dense exponential must not use the decomposition that propagator_G reads
        assert [name for name, *_ in leading_parameters(propagator_G, 2)] == ["dec", "t"]
        assert [name for name, *_ in leading_parameters(expm_propagator, 2)] == ["m", "t"]


class TestBatchedOraclesMatchTheLoops:
    """The loop oracles, batched over the index tuples, give the numbers of the literal
    loops bit for bit: the comparisons are ==, with no tolerance."""

    def test_twod_on_the_validate_cases(self, monkeypatch):
        cases = drawn_cases(monkeypatch, check_twod_direct)
        assert len(cases) == 80
        for case in cases:
            assert twod_signal_direct(*case) == loop_twod_signal_direct(*case)

    def test_pump_probe_on_the_validate_cases(self, monkeypatch):
        cases = drawn_cases(monkeypatch, check_pump_probe_direct)
        assert len(cases) == 80
        for case in cases:
            assert pump_probe_direct(*case) == loop_pump_probe_direct(*case)

    def test_batches_hold_at_most_the_budget(self, monkeypatch):
        members = list(range(10))
        assert list(_batches(members, 1)) == [members]
        monkeypatch.setattr(signals, "ORACLE_BATCH_VALUES", 7)
        assert list(_batches(members, 3)) == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
        # a tuple that alone needs more than the budget runs alone
        assert list(_batches(members[:3], 8)) == [[0], [1], [2]]
        monkeypatch.setattr(signals, "ORACLE_BATCH_VALUES", 1)
        assert list(_batches(members[:3], 1)) == [[0], [1], [2]]
        monkeypatch.setattr(signals, "ORACLE_BATCH_VALUES", 2 ** 40)
        assert list(_batches(members, 10 ** 6)) == [members]

    @pytest.mark.parametrize("budget", [1, 2 ** 40], ids=["tuple_alone", "pattern_whole"])
    def test_batch_boundaries_move_no_bit(self, monkeypatch, budget):
        # budget 1 puts every tuple in a batch of its own, 2^40 each pattern's tuples in one
        twod_cases = drawn_cases(monkeypatch, check_twod_direct)
        pp_cases = drawn_cases(monkeypatch, check_pump_probe_direct)
        monkeypatch.setattr(signals, "ORACLE_BATCH_VALUES", budget)
        for case in twod_cases:
            if case[0].n_molecules == 5:
                assert twod_signal_direct(*case) == loop_twod_signal_direct(*case)
        for case in pp_cases:
            if case[0].n_molecules == 5:
                assert pump_probe_direct(*case) == loop_pump_probe_direct(*case)
        # lambda = 2, m_max = 22: one tuple's pump-probe weights fill 23^3 values
        sys = reference_params(lambda_hr=2.0, n_molecules=4)
        kernel = kernel_from_params(sys)
        assert kernel.m_max == 22
        self.assert_pump_probe_matches(sys, decompose(build_matrix(sys)), kernel,
                                       np.random.default_rng(1002), 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_twod_on_random_detuned_sets(self, n):
        sys, dec, kernel, rng = random_detuned_case(700 + n, n)
        for _ in range(3):
            om1, om3 = rng.uniform(-2400.0, 2400.0, size=2)
            t_wait = float(rng.uniform(0.0, 400.0))
            args = (dec, kernel, -float(om1), float(om3), t_wait, twod_prefactor(sys))
            assert twod_signal_direct(*args) == loop_twod_signal_direct(*args)

    @staticmethod
    def assert_pump_probe_matches(sys, dec, kernel, rng, points: int):
        for _ in range(points):
            args = (dec, kernel, float(rng.uniform(12000.0, 20000.0)) - sys.axis_offset,
                    float(rng.uniform(0.0, 500.0)), pump_probe_prefactor(sys))
            assert pump_probe_direct(*args) == loop_pump_probe_direct(*args)

    @staticmethod
    def assert_slice_sums_match(sys, dec, kernel, t_list, orders=(1, 2, 3)):
        calls = []

        def both(*args):
            batched, loop = _slice_sums_direct(*args), loop_slice_sums_direct(*args)
            assert batched == loop
            calls.append(args)
            return batched

        _formula_traces(sys, dec, kernel, np.asarray(t_list, dtype=float), orders, both)
        assert len(calls) == len(t_list)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pump_probe_on_random_detuned_sets(self, n):
        sys, dec, kernel, rng = random_detuned_case(800 + n, n)
        self.assert_pump_probe_matches(sys, dec, kernel, rng, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_slice_sums_on_random_detuned_sets(self, n):
        sys, dec, kernel, rng = random_detuned_case(900 + n, n)
        self.assert_slice_sums_match(sys, dec, kernel, [0.0] + list(rng.uniform(0.0, 600.0, size=3)))

    def test_at_lambda_2_with_the_cutoff_from_tail_eps(self):
        # m_max = 22: one tuple's pump-probe products fill 23^3 values, so its batches
        # are split by ORACLE_BATCH_VALUES
        sys = reference_params(lambda_hr=2.0, n_molecules=4)
        dec = decompose(build_matrix(sys))
        kernel = kernel_from_params(sys)
        assert kernel.m_max == franck_condon_cutoff(2.0, 1e-10)
        self.assert_pump_probe_matches(sys, dec, kernel, np.random.default_rng(1002), 2)
        self.assert_slice_sums_match(sys, dec, kernel, [0.0, 120.0, 480.0])


def slot_sites(cls: IndexClass) -> tuple[int, ...]:
    """Sites of the correlator's operator slots (j', j, l, i) for one index class."""
    return tuple(cls.assignment[slot] for slot in (JP_, J_, L_, I_))


class TestPhononTablesAgainstCorrelator:
    """The class-collapsed phonon tables against the vacuum four-point correlator.

    With c(t) = exp(i shift(1) theta(t)) and z = c(T), the generating function
    of a class's 2D table is sum over (a, k) of W[a, k] c(t3)^a c(t1)^k; the
    correlator is taken at times (0, t1, t1 + T, t1 + T + t3) on the sites of
    the slots (j', j, l, i).  tail_eps 1e-14 keeps truncation below the tolerance.
    """

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.0])
    def test_twod_table_is_the_correlator_times_a_global_constant(self, lam):
        kernel = VibKernel(lam, 1200.0, 20.0, franck_condon_cutoff(lam, 1e-14), 1e-14)
        rng = np.random.default_rng(1101)
        for t1, t_wait, t3 in rng.uniform(0.0, 300.0, size=(5, 3)):
            c1, c3 = kernel.wait_factor(t1), kernel.wait_factor(t3)
            powers = np.arange(3 * kernel.m_max + 1)
            for cls in index_classes():
                table = _weight_table(kernel, cls.free_mask, kernel.wait_factor(t_wait))
                gen = c3 ** powers @ table @ c1 ** powers
                # the terms cancel heavily at large lambda: compare with their magnitudes
                scale = np.abs(c3 ** powers) @ np.abs(table) @ np.abs(c1 ** powers)
                quad = TimeQuadruple((0.0, t1, t1 + t_wait, t1 + t_wait + t3), slot_sites(cls))
                expected = math.exp(-4.0 * lam * lam) * four_point_correlator(quad, kernel)
                assert abs(gen - expected) <= 1e-10 * scale, (cls.assignment, t1, t_wait, t3)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.0])
    def test_pump_probe_factor_depends_on_the_class(self, lam):
        # Records the current pump-probe kernel, not the physics it should have:
        # against the correlator at t1 = 0 its factor is exp(-2 lambda^2) when
        # j = j' and exp(-lambda^2) when j != j', where the 2D table carries
        # exp(-4 lambda^2) for every class.
        kernel = VibKernel(lam, 1200.0, 20.0, franck_condon_cutoff(lam, 1e-14), 1e-14)
        rng = np.random.default_rng(1102)
        for t_wait, t3 in rng.uniform(0.0, 300.0, size=(5, 2)):
            c3 = kernel.wait_factor(t3)
            for cls in index_classes():
                w13, f2 = _pp_class_weights(cls, kernel, kernel.wait_factor(t_wait))
                gen = f2 * np.sum(w13 * c3 ** np.arange(w13.size))
                quad = TimeQuadruple((0.0, 0.0, t_wait, t_wait + t3), slot_sites(cls))
                factor = math.exp(-2.0 * lam * lam if cls.equal(J_, JP_) else -lam * lam)
                expected = factor * four_point_correlator(quad, kernel)
                assert abs(gen / expected - 1.0) <= 1e-10, (cls.assignment, t_wait, t3)
