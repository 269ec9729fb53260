"""Dynamics matrix, closed-form arrowhead eigendecomposition and propagators.

For N identical molecules coupled to one cavity mode the generator is a
complex symmetric arrowhead matrix: a degenerate molecular diagonal ``a``,
a photon entry ``c`` and couplings ``i*g`` along the last row/column.  Its
eigensystem splits exactly into N-1 dark modes (discrete-Fourier molecular
vectors with zero photon weight, eigenvalue ``a``) and two bright modes from
the 2x2 block [[a, i*g*sqrt(N)], [i*g*sqrt(N), c]].  Everything downstream
consumes either this structured form or a handful of index-pattern entries
(molecule diagonal / molecule off-diagonal / molecule-photon / photon-photon),
which is what makes the signal kernels O(1) in N.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (BrightRateOutOfRange, DegenerateBright, DivergentTransform, NegativeTime,
                     TooLarge)
from .model import RAD_PER_CM_FS, SystemParams


@dataclass(frozen=True)
class DynamicsMatrix:
    """Structured arrowhead generator of the damped mode dynamics."""

    n_molecules: int
    mol_diag: complex     # i*delta_x + gamma_x
    photon_diag: complex  # i*delta_c + gamma_c
    coupling: float       # g

    def to_dense(self) -> np.ndarray:
        g = 1j * self.coupling
        return PatternEntries(self.mol_diag, 0.0, g, g, self.photon_diag).to_dense(self.n_molecules)


def build_matrix(sys: SystemParams) -> DynamicsMatrix:
    """Assemble the arrowhead generator from validated parameters."""
    return DynamicsMatrix(
        n_molecules=sys.n_molecules,
        mol_diag=sys.gamma_x + 1j * sys.delta_x,
        photon_diag=sys.gamma_c + 1j * sys.delta_c,
        coupling=sys.g,
    )


@dataclass(frozen=True)
class ModeDecomposition:
    """Eigensystem of the arrowhead generator in structured form.

    ``bright_t`` columns are the (LP, UP) eigenvectors expressed in the
    (uniform bright combination, photon) basis; ``bright_tinv`` is its exact
    2x2 inverse.  Dark eigenvectors are the discrete-Fourier molecular vectors
    T[s, k] = exp(-2j*pi*s*(k-1)/N)/sqrt(N) restricted to the zero-sum rows.
    """

    n_molecules: int
    mu_lp: complex
    mu_up: complex
    mu_dark: complex
    bright_t: np.ndarray
    bright_tinv: np.ndarray

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """All N+1 eigenvalues ordered (LP, UP, dark * (N-1))."""
        return np.array([self.mu_lp, self.mu_up] + [self.mu_dark] * (self.n_molecules - 1))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return ("LP", "UP") + tuple(f"D{q}" for q in range(1, self.n_molecules))

    @property
    def gamma_min(self) -> float:
        """Slowest decay rate; sets the convergence abscissa of the transform."""
        rates = [self.mu_lp.real, self.mu_up.real]
        if self.n_molecules > 1:
            rates.append(self.mu_dark.real)
        return min(rates)

    def _dense(self, bright: np.ndarray, sign: int) -> np.ndarray:
        """Columns LP, UP from the 2x2 ``bright``, then the dark exp(sign*2j*pi*s*q/N)/sqrt(N)."""
        n = self.n_molecules
        out = np.zeros((n + 1, n + 1), dtype=complex)
        root_n = math.sqrt(n)
        out[:n, :2] = bright[0] / root_n
        out[n, :2] = bright[1]
        s, q = np.ogrid[1:n + 1, 1:n]
        out[:n, 2:] = np.exp(sign * 2j * np.pi * s * q / n) / root_n
        return out

    def t_dense(self) -> np.ndarray:
        """Materialize the full (N+1)x(N+1) eigenvector matrix."""
        return self._dense(self.bright_t, -1)

    def tinv_dense(self) -> np.ndarray:
        """Materialize its inverse, the transpose of the same construction."""
        return np.ascontiguousarray(self._dense(self.bright_tinv.T, 1).T)


def decompose(m: DynamicsMatrix) -> ModeDecomposition:
    """Closed-form eigendecomposition of the identical-molecule arrowhead."""
    n = m.n_molecules
    a = complex(m.mol_diag)
    c = complex(m.photon_diag)
    b = 1j * m.coupling * math.sqrt(n)
    half_sum = 0.5 * (a + c)
    half_diff = 0.5 * (a - c)
    radical = cmath.sqrt(half_diff * half_diff + b * b)
    mu1, mu2 = half_sum + radical, half_sum - radical
    # a root far below the other cancels (rates 10^6 apart, say): det / the other gives it.
    # Both are taken in the frame shifted by i*Im(half_sum), which leaves every rate as it is,
    # so that a large common detuning cannot hide the cancellation of the real parts.
    shift = 1j * half_sum.imag
    nu1, nu2 = half_sum.real + radical, half_sum.real - radical
    shifted_det = (a - shift) * (c - shift) - b * b
    if abs(nu2) < 1e-6 * abs(nu1):
        mu2 = shifted_det / nu1 + shift
    elif abs(nu1) < 1e-6 * abs(nu2):
        mu1 = shifted_det / nu2 + shift
    scale = max(1.0, abs(mu1), abs(mu2))
    if abs(mu1 - mu2) < 1e-12 * scale:
        raise DegenerateBright(f"bright eigenvalues coincide: {mu1} ~ {mu2}")

    if m.coupling == 0.0:
        bright_t = np.eye(2, dtype=complex)
        mus = (a, c)
    else:
        # the eigenvector head cancels when half_diff, far larger than b, points against the
        # radical (gamma_c far above gamma_x, say); (radical + half_diff)(radical - half_diff)
        # = b^2 gives it without cancellation
        head = half_diff + radical
        if abs(head) < 1e-6 * abs(radical):
            head = b * b / (radical - half_diff)
        norm = cmath.sqrt(head * head + b * b)   # head ** 2 raises OverflowError past ~1e154
        bright_t = np.array(
            [[head / norm, -b / norm],
             [b / norm, head / norm]]
        )
        mus = (mu1, mu2)
    # the Hermitian part of the block is diag(gamma_x, gamma_c), so every rate lies between them
    low, high = sorted((a.real, c.real))
    for mu in mus:
        if not low - 1e-9 * high <= mu.real <= high + 1e-9 * high:
            raise BrightRateOutOfRange(f"bright decay rate {mu.real:g} lies outside the range "
                                       f"of gamma_x = {a.real:g} and gamma_c = {c.real:g}")

    # label by mode frequency (imaginary part): LP below UP
    order = (0, 1) if mus[0].imag <= mus[1].imag else (1, 0)
    bright_t = bright_t[:, order].copy()
    mu_lp, mu_up = mus[order[0]], mus[order[1]]
    # sign convention: bright-combination component of each column has Re >= 0
    for k in range(2):
        head = bright_t[0, k]
        if head.real < 0.0 or (head.real == 0.0 and head.imag < 0.0):
            bright_t[:, k] = -bright_t[:, k]
    det = bright_t[0, 0] * bright_t[1, 1] - bright_t[0, 1] * bright_t[1, 0]
    bright_tinv = np.array(
        [[bright_t[1, 1], -bright_t[0, 1]],
         [-bright_t[1, 0], bright_t[0, 0]]]
    ) / det
    bright_t.setflags(write=False)
    bright_tinv.setflags(write=False)
    return ModeDecomposition(
        n_molecules=n,
        mu_lp=mu_lp,
        mu_up=mu_up,
        mu_dark=a,
        bright_t=bright_t,
        bright_tinv=bright_tinv,
    )


_PATTERN_FIELDS = ("mm_diag", "mm_off", "mol_ph", "ph_mol", "ph_ph")


@dataclass(frozen=True)
class PatternEntries:
    """The five distinct entries of a permutation-symmetric (N+1)**2 matrix."""

    mm_diag: complex | np.ndarray
    mm_off: complex | np.ndarray
    mol_ph: complex | np.ndarray
    ph_mol: complex | np.ndarray
    ph_ph: complex | np.ndarray

    def to_dense(self, n: int) -> np.ndarray:
        out = np.full((n + 1, n + 1), self.mm_off, dtype=complex)
        out[np.arange(n), np.arange(n)] = self.mm_diag
        out[:n, n] = self.mol_ph
        out[n, :n] = self.ph_mol
        out[n, n] = self.ph_ph
        return out

    def conj(self) -> PatternEntries:
        """Entry-wise complex conjugate."""
        return PatternEntries(**{name: np.conj(getattr(self, name)) for name in _PATTERN_FIELDS})


def _assemble_entries(dec: ModeDecomposition, fn) -> PatternEntries:
    """Combine the dark scalar and the bright 2x2 filter into pattern entries.

    ``fn`` maps an eigenvalue to its scalar filter value (e.g. exp(-mu*theta)
    or 1/(mu - i*omega)); it may return arrays for vectorized frequency grids.
    """
    n = dec.n_molecules
    t, tinv = dec.bright_t, dec.bright_tinv
    f_lp = fn(dec.mu_lp)
    f_up = fn(dec.mu_up)
    eb = [[t[i, 0] * tinv[0, j] * f_lp + t[i, 1] * tinv[1, j] * f_up
           for j in range(2)] for i in range(2)]
    dark = fn(dec.mu_dark)
    root_n = math.sqrt(n)
    return PatternEntries(
        mm_diag=(1.0 - 1.0 / n) * dark + eb[0][0] / n,
        mm_off=-dark / n + eb[0][0] / n,
        mol_ph=eb[0][1] / root_n,
        ph_mol=eb[1][0] / root_n,
        ph_ph=eb[1][1],
    )


def propagator_entries(dec: ModeDecomposition, t: float) -> PatternEntries:
    """Index-pattern entries of the free propagator G(t), t in fs."""
    if t < 0:
        raise NegativeTime(f"propagator needs t >= 0, got {t}")
    theta = RAD_PER_CM_FS * t
    return _assemble_entries(dec, lambda mu: np.exp(-mu * theta))


def propagator_G(dec: ModeDecomposition, t: float) -> np.ndarray:
    """Dense free propagator G(t) = T exp(-mu*theta(t)) T^-1."""
    return propagator_entries(dec, t).to_dense(dec.n_molecules)


def fourier_entries(dec: ModeDecomposition, omega) -> PatternEntries:
    """Pattern entries of the half-line transform of G at Omega (may be an array).

    Converges for Im(Omega) > -gamma_min; each eigenmode contributes a pole
    term 1/(mu_k - i*Omega).
    """
    omega = np.asarray(omega, dtype=complex)
    if np.any(omega.imag <= -dec.gamma_min):
        raise DivergentTransform(
            f"need Im(omega) > {-dec.gamma_min:g} for convergence"
        )
    return _assemble_entries(dec, lambda mu: 1.0 / (mu - 1j * omega))


def propagator_fourier(dec: ModeDecomposition, omega: complex) -> np.ndarray:
    """Dense half-line Fourier transform of the propagator."""
    return fourier_entries(dec, omega).to_dense(dec.n_molecules)


def fourier_conj_entries(dec: ModeDecomposition, omega) -> PatternEntries:
    """Pattern entries of the conjugate transform.

    This is the half-line transform of the conjugated propagator,
    integral of conj(G(u)) * exp(-i*z*u), equal to conj of the plain
    transform evaluated at conj(z).  Converges for Im(z) < gamma_min.
    """
    omega = np.asarray(omega, dtype=complex)
    if np.any(omega.imag >= dec.gamma_min):
        raise DivergentTransform(
            f"need Im(omega) < {dec.gamma_min:g} for convergence"
        )
    return fourier_entries(dec, np.conj(omega)).conj()


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling-and-squaring with a Taylor series truncated after 20 terms."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    small = a / (2.0 ** squarings)
    eye = np.eye(a.shape[0], dtype=complex)
    out = eye
    # Horner evaluation of the truncated series
    for k in range(20, 0, -1):
        out = eye + small @ out / k
    for _ in range(squarings):
        out = out @ out
    return out


def expm_propagator(m: DynamicsMatrix, t: float) -> np.ndarray:
    """Dense exp(-M*theta(t)) reference, independent of the decomposition."""
    if t < 0:
        raise NegativeTime(f"propagator needs t >= 0, got {t}")
    if m.n_molecules > 64:
        raise TooLarge("dense reference limited to N <= 64")
    return matrix_exp(-m.to_dense() * (RAD_PER_CM_FS * t))


@cache
def _gauss_legendre_10() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ten-node Gauss-Legendre rule on [-1, 1], built on first use."""
    rule = np.polynomial.legendre.leggauss(10)
    for arr in rule:
        arr.setflags(write=False)     # one pair serves every caller
    return rule


# The most panels quadrature_fourier takes: 300 times the validate suite's largest target.
QUADRATURE_MAX_PANELS = 2 ** 24


def _mode_integral(r: complex, u_max: float, n_panels: int) -> complex:
    """Integral of exp(r*u) over [0, u_max] on n_panels equal ten-node Gauss-Legendre panels,
    as the panel sum of exp(r*(p + 1/2)*w), w = u_max/n_panels, times the weighted node sum of
    exp(r*(w/2)*x_j).  The panel sum goes in blocks of B = ceil(sqrt(n_panels)), p = a*B + b, as
    the sum of exp(r*a*B*w) over the full blocks times the sum of exp(r*(b + 1/2)*w) over b, plus
    the n_panels mod B panels past them: about 3*sqrt(n_panels) + 10 exponentials, not n + 10."""
    x, gl_w = _gauss_legendre_10()
    width = u_max / n_panels
    half = 0.5 * width
    block = math.ceil(math.sqrt(n_panels))
    n_blocks = n_panels // block
    starts = block * width * np.arange(n_blocks)
    offsets = width * (np.arange(block) + 0.5)
    tail = width * (np.arange(n_blocks * block, n_panels) + 0.5)
    panels = np.sum(np.exp(r * starts)) * np.sum(np.exp(r * offsets)) + np.sum(np.exp(r * tail))
    return complex(panels * np.sum(np.exp(r * half * x) * (half * gl_w)))


def quadrature_fourier(dec: ModeDecomposition, omega: complex) -> np.ndarray:
    """Numerical-quadrature transform of G, as a dense matrix.

    Independent cross-check of :func:`propagator_fourier`, and as
    conj(quadrature_fourier(dec, conj(z))) of :func:`fourier_conj_entries`:
    integrates G over [0, 40/(gamma_min + min(q, 0))] in theta units,
    q = Im(omega), where its slowest mode times the kernel has decayed by
    exp(-40), on equal ten-node Gauss-Legendre panels that hold at most half
    an oscillation period each; more than QUADRATURE_MAX_PANELS are refused.
    G(u) combines the modal exponentials exp(-mu*u) (LP, UP, dark), so each
    mode integrates the scalar exp((s - mu)*u) by :func:`_mode_integral`,
    s the kernel exponent, and the three integrals combine into pattern
    entries like the pole terms of the closed form.
    """
    omega = complex(omega)
    if omega.imag <= -dec.gamma_min:
        raise DivergentTransform("quadrature target does not converge")
    decay = dec.gamma_min + min(omega.imag, 0.0)
    u_max = 40.0 / decay
    freq_scale = abs(omega.real) + max(abs(dec.mu_lp.imag), abs(dec.mu_up.imag),
                                       abs(dec.mu_dark.imag)) + 1.0
    panels = u_max * freq_scale / math.pi
    if panels > QUADRATURE_MAX_PANELS:
        raise TooLarge(f"quadrature at omega = {omega} over [0, 40/(gamma_min + min(Im(omega), 0))]"
                       f" = [0, 40/{decay:g}] needs {panels:.3g} panels, "
                       f"more than QUADRATURE_MAX_PANELS = {QUADRATURE_MAX_PANELS}")
    n_panels = max(64, math.ceil(panels))
    s = 1j * omega.real - omega.imag
    entries = _assemble_entries(dec, lambda mu: _mode_integral(s - mu, u_max, n_panels))
    return entries.to_dense(dec.n_molecules)
