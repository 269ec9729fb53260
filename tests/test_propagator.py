import cmath
import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polariton2dcs.errors import (
    BrightRateOutOfRange,
    DegenerateBright,
    DivergentTransform,
    NegativeTime,
    TooLarge,
)
from polariton2dcs.model import RAD_PER_CM_FS
from polariton2dcs.propagator import (
    _PATTERN_FIELDS,
    ModeDecomposition,
    PatternEntries,
    _assemble_entries,
    _mode_integral,
    build_matrix,
    decompose,
    expm_propagator,
    fourier_conj_entries,
    fourier_entries,
    matrix_exp,
    propagator_entries,
    propagator_G,
    propagator_fourier,
    quadrature_fourier,
)
from polariton2dcs.validate import (
    _random_params,
    check_eigenstructure,
    check_propagator_expm,
    check_transform_quadrature,
    reference_params,
)


def quadrature_range(dec: ModeDecomposition, omega: complex) -> float:
    """The upper end of the range of :func:`quadrature_fourier`, 40/(gamma_min + min(q, 0))."""
    return 40.0 / (dec.gamma_min + min(complex(omega).imag, 0.0))


def panel_count(dec: ModeDecomposition, omega: complex) -> int:
    """The number of equal panels :func:`quadrature_fourier` spreads over its range."""
    freq_scale = abs(complex(omega).real) + max(abs(dec.mu_lp.imag), abs(dec.mu_up.imag),
                                                abs(dec.mu_dark.imag)) + 1.0
    return max(64, int(math.ceil(quadrature_range(dec, omega) * freq_scale / math.pi)))


def reference_quadrature_fourier(dec: ModeDecomposition, omega: complex) -> np.ndarray:
    """Entry-wise panel quadrature: every pattern entry of G(u) sampled at every node.

    The reference for :func:`quadrature_fourier`, which integrates per eigenmode
    on the same panels.
    """
    omega = complex(omega)
    if omega.imag <= -dec.gamma_min:
        raise DivergentTransform("quadrature target does not converge")
    u_max, n_panels, panel_points = quadrature_range(dec, omega), panel_count(dec, omega), 10
    x, gl_w = np.polynomial.legendre.leggauss(panel_points)
    edges = np.linspace(0.0, u_max, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[:-1] + edges[1:])
    u = (mids[:, None] + half * x[None, :]).ravel()
    du = np.broadcast_to(half * gl_w[None, :], (n_panels, panel_points)).ravel()
    kernel = np.exp((1j * omega.real - omega.imag) * u) * du
    ent = _assemble_entries(dec, lambda mu: np.exp(-mu * u))
    vals = {name: complex(np.sum(getattr(ent, name) * kernel)) for name in _PATTERN_FIELDS}
    return PatternEntries(**vals).to_dense(dec.n_molecules)


def reference_matrix_exp(a: np.ndarray) -> np.ndarray:
    """exp(a) with a fresh identity on every Horner step; the reference for
    :func:`matrix_exp`, which builds the identity once."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    small = a / (2.0 ** squarings)
    out = np.eye(a.shape[0], dtype=complex)
    # Horner evaluation of the truncated series
    for k in range(20, 0, -1):
        out = np.eye(a.shape[0], dtype=complex) + small @ out / k
    for _ in range(squarings):
        out = out @ out
    return out


class TestBuildMatrix:
    def test_two_level_example(self):
        sys = reference_params(n_molecules=1, collective=2.0, gamma_c=1.0)
        dense = build_matrix(sys).to_dense()
        assert np.allclose(dense, np.array([[1.0, 2.0j], [2.0j, 1.0]]))

    def test_reference_arrowhead_structure(self, dye_system):
        m = build_matrix(dye_system)
        dense = m.to_dense()
        assert dense.shape == (11, 11)
        assert np.allclose(np.diag(dense)[:10], 1.0)
        assert dense[10, 10] == pytest.approx(0.9)
        g = dye_system.g
        assert np.allclose(dense[:10, 10], 1j * g) and np.allclose(dense[10, :10], 1j * g)
        off_arrow = dense[:10, :10] - np.diag(np.diag(dense))[:10, :10]
        assert np.all(off_arrow == 0)
        assert np.array_equal(dense, dense.T)

    def test_decoupled_block_diagonal(self):
        sys = reference_params(collective=0.0, delta_c=50.0)
        dec = decompose(build_matrix(sys))
        eig = sorted(dec.eigenvalues, key=lambda z: z.imag)
        assert eig[:10] == [complex(1.0, 0.0)] * 10
        assert eig[10] == pytest.approx(0.9 + 50.0j)


class TestDecompose:
    def test_reference_bright_modes(self, dye_dec):
        assert dye_dec.mu_lp.real == pytest.approx(0.95, abs=1e-6)
        assert dye_dec.mu_up.real == pytest.approx(0.95, abs=1e-6)
        assert dye_dec.mu_lp.imag == pytest.approx(-1800.0, abs=1e-3)
        assert dye_dec.mu_up.imag == pytest.approx(1800.0, abs=1e-3)
        assert dye_dec.mu_dark == 1.0 + 0.0j
        assert sum(lbl.startswith("D") for lbl in dye_dec.labels) == 9

    def test_single_molecule_resonant(self):
        sys = reference_params(n_molecules=1, collective=75.0, gamma_c=1.0)
        dec = decompose(build_matrix(sys))
        assert dec.mu_lp == pytest.approx(1.0 - 75.0j)
        assert dec.mu_up == pytest.approx(1.0 + 75.0j)

    def test_degenerate_bright_raises(self):
        sys = reference_params(collective=0.0, gamma_c=1.0)
        with pytest.raises(DegenerateBright):
            decompose(build_matrix(sys))

    def test_eigen_relation_dense(self, dye_dec, dye_system):
        m = build_matrix(dye_system).to_dense()
        t = dye_dec.t_dense()
        tinv = dye_dec.tinv_dense()
        assert np.max(np.abs(t @ tinv - np.eye(11))) < 1e-12
        rebuilt = t @ np.diag(dye_dec.eigenvalues) @ tinv
        assert np.max(np.abs(rebuilt - m)) / np.max(np.abs(m)) < 1e-10

    def test_trace_consistency(self, dye_dec, dye_system):
        m = build_matrix(dye_system)
        assert abs(dye_dec.eigenvalues.sum() - np.trace(m.to_dense())) < 1e-12

    def test_dark_columns(self, dye_dec):
        t = dye_dec.t_dense()
        dark = t[:, 2:]
        assert np.max(np.abs(dark[-1, :])) == 0.0            # no photon weight
        assert np.max(np.abs(dark[:-1, :].sum(axis=0))) < 1e-13
        assert np.allclose(np.abs(dark[:-1, :]) ** 2, 1.0 / 10)

    def test_bright_column_sums_resonant(self):
        sys = reference_params(gamma_c=1.0)
        t = decompose(build_matrix(sys)).t_dense()
        expected = math.sqrt(10 / 2)
        assert t[:10, 0].sum() == pytest.approx(expected)
        assert t[:10, 1].sum() == pytest.approx(expected)
        assert np.sum(np.abs(t[:10, 0]) ** 2) == pytest.approx(0.5)

    def test_resonant_inverse_is_adjoint(self):
        sys = reference_params(gamma_c=1.0)
        dec = decompose(build_matrix(sys))
        assert np.max(np.abs(dec.tinv_dense() - dec.t_dense().conj().T)) < 1e-12

    def test_suite_check(self):
        assert check_eigenstructure().passed


def exact_bright(sys, t: float, dps: int = 300):
    """The bright eigenvalues, slower first, and the pattern entries of G(t), by mpmath.

    The 2x2 block [[a, b], [b, c]] is solved by the textbook roots at ``dps`` digits, enough
    for rates 10^100 apart, and exp(-B theta) is the sum of exp(-mu theta) times the spectral
    projector (B - mu' I) / (mu - mu') of each root."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        n = sys.n_molecules
        a = mpmath.mpc(sys.gamma_x, sys.delta_x)
        c = mpmath.mpc(sys.gamma_c, sys.delta_c)
        b = mpmath.mpc(0, sys.g) * mpmath.sqrt(n)
        radical = mpmath.sqrt(((a - c) / 2) ** 2 + b * b)
        mus = sorted(((a + c) / 2 + radical, (a + c) / 2 - radical), key=lambda mu: mu.real)
        theta = mpmath.mpf(RAD_PER_CM_FS) * t
        block = [[a, b], [b, c]]
        e = [[sum(mpmath.exp(-mu * theta) * (block[i][j] - (i == j) * other) / (mu - other)
                  for mu, other in (mus, mus[::-1])) for j in range(2)] for i in range(2)]
        dark = mpmath.exp(-a * theta)
        entries = ((1 - mpmath.mpf(1) / n) * dark + e[0][0] / n, (e[0][0] - dark) / n,
                   e[0][1] / mpmath.sqrt(n), e[1][0] / mpmath.sqrt(n), e[1][1])
        return [complex(mu) for mu in mus], [complex(x) for x in entries]


class TestRatesFarApart:
    """A rate 10^6 or more above the other: the slower bright root and the eigenvector head
    cancel in the textbook formulas, and decompose takes them by their exact identities.
    At gamma_x = 1e12 the slower rate read 0.9000244 instead of 0.90000324, at 1e16 zero."""

    @pytest.mark.parametrize("value", [1e6, 1e12, 1e16, 1e100])
    @pytest.mark.parametrize("name", ["gamma_x", "gamma_c"])
    def test_eigenvalues_and_propagator_match_mpmath(self, name, value):
        sys = dataclasses.replace(reference_params(), **{name: value})
        dec = decompose(build_matrix(sys))
        mus = sorted((dec.mu_lp, dec.mu_up), key=lambda mu: mu.real)
        for t in (0.0, 10.0, 100.0):
            exact_mus, exact = exact_bright(sys, t)
            assert max(abs(x - y) for x, y in zip(mus, exact_mus)) <= 1e-12 * abs(exact_mus[1])
            assert abs(mus[0] - exact_mus[0]) <= 1e-9 * abs(exact_mus[0])
            got = propagator_entries(dec, t)
            err = max(abs(complex(getattr(got, f)) - x) for f, x in zip(_PATTERN_FIELDS, exact))
            assert err <= 1e-12 * max(abs(x) for x in exact), (t, err)

    @pytest.mark.parametrize("overrides", [
        {"gamma_x": 1e12, "delta_x": 1e13, "delta_c": 1e13},
        {"gamma_x": 1e12, "delta_x": 1e15, "delta_c": 1e15},
        {"gamma_c": 1e12, "delta_x": 1e14, "delta_c": 1e14},
    ])
    def test_common_detuning_keeps_the_slower_rate(self, overrides):
        # the detuning makes both roots large, so only the frame shifted by i*Im(half_sum)
        # shows the cancellation; the slower rate read 0.9000244 and 1.0 without it. |mu| is
        # the detuning here, so the slower rate is held to 1e-9 of itself, not of |mu|.
        sys = dataclasses.replace(reference_params(), **overrides)
        dec = decompose(build_matrix(sys))
        mus = sorted((dec.mu_lp, dec.mu_up), key=lambda mu: mu.real)
        for t in (0.0, 10.0, 100.0):
            exact_mus, exact = exact_bright(sys, t)
            assert max(abs(x - y) for x, y in zip(mus, exact_mus)) <= 1e-12 * abs(exact_mus[1])
            assert abs(mus[0].real - exact_mus[0].real) <= 1e-9 * exact_mus[0].real
            got = propagator_entries(dec, t)
            err = max(abs(complex(getattr(got, f)) - x) for f, x in zip(_PATTERN_FIELDS, exact))
            # exp(-mu theta) carries the rounding of the phase Im(mu) theta, about 1e11 rad
            phase = abs(exact_mus[1]) * RAD_PER_CM_FS * t
            assert err <= (1e-12 + 2 * np.finfo(float).eps * phase) * max(abs(x) for x in exact)

    @pytest.mark.parametrize("name", ["gamma_x", "gamma_c"])
    def test_rate_past_the_range_of_the_bare_rates_raises(self, name):
        # at 1e300 the square of half the rate difference overflows, and a root with it
        sys = dataclasses.replace(reference_params(), **{name: 1e300})
        with pytest.raises(BrightRateOutOfRange, match="bright decay rate inf lies outside"):
            decompose(build_matrix(sys))


class TestPropagator:
    def test_identity_at_zero(self, dye_dec):
        assert np.allclose(propagator_G(dye_dec, 0.0), np.eye(11))

    def test_negative_time_rejected(self, dye_dec):
        with pytest.raises(NegativeTime):
            propagator_G(dye_dec, -1.0)

    def test_single_molecule_closed_form(self):
        sys = reference_params(n_molecules=1, collective=120.0, gamma_c=1.0)
        dec = decompose(build_matrix(sys))
        for t in (3.0, 17.0, 61.0):
            theta = RAD_PER_CM_FS * t
            g00 = propagator_G(dec, t)[0, 0]
            assert g00 == pytest.approx(math.exp(-theta) * math.cos(120.0 * theta), abs=1e-12)

    def test_pattern_symmetry(self, dye_dec):
        g = propagator_G(dye_dec, 37.0)
        diag = np.diag(g)[:10]
        assert np.max(np.abs(diag - diag[0])) < 1e-14
        off = g[:10, :10][~np.eye(10, dtype=bool)]
        assert np.max(np.abs(off - off[0])) < 1e-14
        assert np.max(np.abs(g[:10, 10] - g[0, 10])) < 1e-14

    def test_expm_agreement_suite(self):
        result = check_propagator_expm()
        assert result.passed, result.line()

    def test_expm_matches_reference_bit_for_bit(self):
        # the parameter sets and times of check_propagator_expm
        rng = np.random.default_rng(101)
        for n in range(1, 7):
            for _ in range(20):
                m = build_matrix(_random_params(rng, n))
                t = float(rng.uniform(0.0, 300.0))
                ref = reference_matrix_exp(-m.to_dense() * (RAD_PER_CM_FS * t))
                assert np.array_equal(expm_propagator(m, t), ref)

    @settings(deadline=None, max_examples=25)
    @given(t1=st.floats(0.0, 500.0), t2=st.floats(0.0, 500.0))
    def test_semigroup(self, dye_dec, t1, t2):
        lhs = propagator_G(dye_dec, t1 + t2)
        rhs = propagator_G(dye_dec, t1) @ propagator_G(dye_dec, t2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_long_time_decay(self, dye_dec):
        t = (20.0 / dye_dec.gamma_min) / RAD_PER_CM_FS
        assert np.max(np.abs(propagator_G(dye_dec, t))) < 1e-6


class TestMatrixExp:
    def test_identity(self, dye_system):
        m = build_matrix(dye_system)
        assert np.allclose(expm_propagator(m, 0.0), np.eye(11))

    def test_nilpotent_exact(self):
        theta = 0.73
        a = np.array([[0.0, -theta], [0.0, 0.0]])
        assert np.array_equal(matrix_exp(a), np.array([[1.0, -theta], [0.0, 1.0]]))

    def test_negative_time_rejected(self, dye_system):
        with pytest.raises(NegativeTime):
            expm_propagator(build_matrix(dye_system), -0.5)

    def test_against_scipy_style_reference(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        from scipy.linalg import expm as scipy_expm

        assert np.max(np.abs(matrix_exp(a) - scipy_expm(a))) < 1e-11


class TestFourier:
    def test_on_resonance_dark_height(self, dye_dec, dye_system):
        # molecule diagonal minus off-diagonal isolates the dark pole exactly
        ent = fourier_entries(dye_dec, dye_system.delta_x)
        dark = ent.mm_diag - ent.mm_off
        assert dark == pytest.approx(1.0 / dye_system.gamma_x)

    def test_phonon_shift_widens_denominator(self, dye_dec, dye_system):
        m = 2
        omega = dye_system.delta_x + m * (dye_system.omega_v + 1j * dye_system.gamma_v)
        ent = fourier_entries(dye_dec, omega)
        dark = ent.mm_diag - ent.mm_off
        expected = 1.0 / (dye_system.gamma_x + m * dye_system.gamma_v + 1j * (-m * dye_system.omega_v))
        assert dark == pytest.approx(expected)

    def test_divergent_transform_raises(self, dye_dec):
        with pytest.raises(DivergentTransform):
            propagator_fourier(dye_dec, -2.0j)
        with pytest.raises(DivergentTransform):
            fourier_conj_entries(dye_dec, 2.0j)

    def test_quadrature_agreement(self, dye_dec):
        for omega in (0.0, 1234.5, -1800.0, 350.0 + 40.0j):
            exact = propagator_fourier(dye_dec, omega)
            quad = quadrature_fourier(dye_dec, omega)
            assert np.max(np.abs(exact - quad)) / np.max(np.abs(exact)) < 1e-6

    def test_conjugate_transform_quadrature(self, dye_dec):
        # the conjugate transform at z is conj of the plain one at conj(z)
        for omega in (432.1, -900.0 - 20.0j):
            exact = fourier_conj_entries(dye_dec, omega).to_dense(10)
            quad = np.conj(quadrature_fourier(dye_dec, np.conj(omega)))
            assert np.max(np.abs(exact - quad)) / np.max(np.abs(exact)) < 1e-6

    @pytest.mark.parametrize("omega", [
        0.0, 1234.5, -1800.0, 2400.0, 350.0 + 40.0j, -2100.0 + 20.0j,
        432.1, -900.0 + 20.0j, 1800.0 + 40.0j,
    ])
    def test_quadrature_matches_entrywise_reference(self, dye_dec, omega):
        quad = quadrature_fourier(dye_dec, omega)
        ref = reference_quadrature_fourier(dye_dec, omega)
        assert np.max(np.abs(quad - ref)) / np.max(np.abs(ref)) < 1e-10

    def test_quadrature_matches_entrywise_reference_detuned(self):
        rng = np.random.default_rng(17)
        for n in (1, 3):
            dec = decompose(build_matrix(_random_params(rng, n)))
            for _ in range(2):
                omega = complex(rng.uniform(-2400.0, 2400.0), 0.0)
                quad = quadrature_fourier(dec, omega)
                ref = reference_quadrature_fourier(dec, omega)
                assert np.max(np.abs(quad - ref)) / np.max(np.abs(ref)) < 1e-10

    # 3 - 0.9486i takes 1.64e7 panels, just below QUADRATURE_MAX_PANELS
    @pytest.mark.parametrize("omega", [3.0 - 0.9j, 3.0 - 0.94j, 3.0 - 0.9486j])
    def test_quadrature_of_a_damped_target(self, dye_dec, omega):
        # the range follows the slowest mode of the integrand, at rate gamma_min + Im(omega);
        # over a fixed [0, 40/gamma_min] the first two were 1.5e-2 and 8.0e-2 off
        exact = propagator_fourier(dye_dec, omega)
        quad = quadrature_fourier(dye_dec, omega)
        assert np.max(np.abs(exact - quad)) / np.max(np.abs(exact)) < 1e-10
        # the conjugate transform at conj(omega), through the identity
        exact = fourier_conj_entries(dye_dec, np.conj(omega)).to_dense(10)
        quad = np.conj(quadrature_fourier(dye_dec, omega))
        assert np.max(np.abs(exact - quad)) / np.max(np.abs(exact)) < 1e-10

    # at an undamped exponent r = i k every panel carries weight, so a panel left out shows
    @pytest.mark.parametrize("n_panels, expected", [
        (64, (8, 0)),           # the fewest panels: 8 blocks of 8
        (24179, (156, 155)),    # a prime: the longest tail, B - 1
        (56304, (238, 136)),    # the most the validate suite integrates
    ])
    def test_block_sum_covers_every_panel(self, n_panels, expected):
        block = math.ceil(math.sqrt(n_panels))
        assert (block, n_panels % block) == expected
        u_max = 0.37 * n_panels
        # no turn, a quarter turn over the range, and 1.1 and 3.0 rad a panel (at most pi)
        for k in (0.0, 0.5 * math.pi / u_max, 3.0, 8.1):
            exact = u_max if k == 0.0 else (cmath.exp(1j * k * u_max) - 1.0) / (1j * k)
            assert abs(_mode_integral(1j * k, u_max, n_panels) - exact) < 1e-10 * u_max

    def test_quadrature_refuses_a_divergent_target(self, dye_dec):
        # the envelope exp(-q u) of the kernel must not outgrow the slowest mode, q > -gamma_min
        edge = dye_dec.gamma_min
        for omega in (-1j * edge, 100.0 - 2j * edge):
            with pytest.raises(DivergentTransform):
                quadrature_fourier(dye_dec, omega)

    @pytest.mark.parametrize("omega", [
        3.0 - 0.9499j, 3.0 - 0.95j * (1.0 - 1e-9), 3.0 + 1j * np.nextafter(-0.95, 0.0), 1e15,
    ])
    def test_quadrature_refuses_a_target_past_the_panel_bound(self, dye_dec, omega):
        # near Im(omega) = -gamma_min the range 40/(gamma_min + Im(omega)) grows without limit
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=r"over \[0, 40/\(gamma_min \+ min\(Im\(omega\), 0\)\)\] = "
                                           r"\[0, 40/[0-9.e+-]+\] needs [0-9.e+]+ panels, "
                                           r"more than QUADRATURE_MAX_PANELS = 16777216$"):
            quadrature_fourier(dye_dec, omega)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("omega", [2400.0, -2400.0, 3.0 - 0.9486j])
    def test_quadrature_takes_order_sqrt_panels_exponentials(self, dye_dec, monkeypatch, omega):
        from polariton2dcs import propagator

        class CountingNumpy:
            """numpy, with the elements passed to exp counted."""
            exp_elements = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, z):
                self.exp_elements += np.size(z)
                return np.exp(z)

        n = panel_count(dye_dec, omega)
        counting = CountingNumpy()
        monkeypatch.setattr(propagator, "np", counting)
        quadrature_fourier(dye_dec, omega)
        # three eigenmodes (LP, UP, dark), each ~3 sqrt(n) panel and 10 node exponentials
        assert 0 < counting.exp_elements <= 3 * (3 * math.ceil(math.sqrt(n)) + 10)

    def test_check_takes_each_conjugate_point_through_the_identity(self, dye_dec, monkeypatch):
        # validate calls quadrature_fourier through its own name, once per case, and each of
        # its 10 conjugate points as conj(quadrature_fourier(dec, conj(omega)))
        from polariton2dcs import validate

        conjugate, targets = [], []
        conj_entries = validate.fourier_conj_entries

        def recorded_conjugate(dec, omega):
            conjugate.append(complex(omega))
            return conj_entries(dec, omega)

        def recorded(dec, omega):
            targets.append(complex(omega))
            return quadrature_fourier(dec, omega)

        monkeypatch.setattr(validate, "fourier_conj_entries", recorded_conjugate)
        monkeypatch.setattr(validate, "quadrature_fourier", recorded)
        assert check_transform_quadrature().passed
        assert len(targets) == 110
        assert len(conjugate) == 10 and all(omega.imag == -20.0 for omega in conjugate)
        assert targets[100:] == [omega.conjugate() for omega in conjugate]
        for omega in conjugate:
            exact = fourier_conj_entries(dye_dec, omega).to_dense(10)
            quad = np.conj(quadrature_fourier(dye_dec, omega.conjugate()))
            assert np.max(np.abs(exact - quad)) / np.max(np.abs(exact)) < 1e-10

    @pytest.mark.parametrize("target", ["propagator_fourier", "fourier_conj_entries"])
    def test_quadrature_check_catches_a_scaled_transform(self, monkeypatch, target):
        # scale the pole-sum side only; the quadrature is untouched
        from polariton2dcs import validate

        exact = getattr(validate, target)

        def scaled(dec, omega):
            out = exact(dec, omega)
            if isinstance(out, PatternEntries):
                return PatternEntries(**{name: getattr(out, name) * (1.0 + 1e-5)
                                         for name in _PATTERN_FIELDS})
            return out * (1.0 + 1e-5)

        monkeypatch.setattr(validate, target, scaled)
        result = check_transform_quadrature()
        assert not result.passed, result.line()

    def test_conjugate_transform_is_conjugate_at_conj_argument(self, dye_dec):
        z = 321.0 - 15.0j
        plain = fourier_entries(dye_dec, np.conj(z))
        conj = fourier_conj_entries(dye_dec, z)
        assert conj.mm_diag == pytest.approx(np.conj(plain.mm_diag))
        assert conj.ph_mol == pytest.approx(np.conj(plain.ph_mol))
