"""Phonon-side mathematics: Franck-Condon weights, damped-mode commutator,
displacement correlators and a truncated-Fock-space reference.

The damped vibrational mode has the two-branch commutator

    [b_n(t), b_m^+(t')] = delta_nm * exp(-(i*w + G)(t-t'))   for t >= t'
                          delta_nm * exp(+(i*w - G)(t'-t))   for t <  t'

which makes the four-point displacement correlator computable in closed form
for *any* time ordering.  Signal kernels only consume the fully time-ordered
expansion, but the general form keeps the oracle surface wide.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import TruncationWarning
from .model import RAD_PER_CM_FS, SystemParams
from .propagator import matrix_exp


def franck_condon(lam: float, m: int) -> float:
    """Poisson weight exp(-lam^2) lam^(2m) / m! of the m-phonon sideband."""
    if m < 0:
        raise ValueError("phonon number must be >= 0")
    lam2 = lam * lam
    if lam2 == 0.0:     # also lam ~ 1e-200, whose square underflows
        return 1.0 if m == 0 else 0.0
    # log-space keeps lam up to a few (Huang-Rhys ~ 10) overflow-free
    return math.exp(-lam2 + m * math.log(lam2) - math.lgamma(m + 1)) if m else math.exp(-lam2)


def franck_condon_weights(lam: float, m_max: int) -> np.ndarray:
    """Weights S_0..S_m_max as an array."""
    return np.array([franck_condon(lam, m) for m in range(m_max + 1)])


# Cap on the cutoff search; lambda_hr of about 100 (Poisson mode lam^2 = 10^4) passes it.
FC_MAX_TERMS = 10_000


class CutoffTooLarge(ValueError):
    """The Franck-Condon cutoff of lambda_hr lies beyond FC_MAX_TERMS."""


def franck_condon_cutoff(lam: float, tail_eps: float) -> int:
    """Smallest m_max whose truncated weight sum leaves a tail below tail_eps.

    A tail_eps below float resolution raises ``ValueError``: the sum stalls once a
    term past the Poisson mode lam^2 leaves it unchanged (S_0 underflows at lam 30).
    A cutoff past FC_MAX_TERMS raises :class:`CutoffTooLarge`."""
    if not (0.0 < tail_eps < 1.0):
        raise ValueError("tail_eps must lie in (0, 1)")
    if lam * lam == 0.0:
        return 0
    total = 0.0
    m = 0
    while True:
        before, total = total, total + franck_condon(lam, m)
        if 1.0 - total < tail_eps:
            return m
        if total == before and m > lam * lam:
            raise ValueError(f"tail_eps {tail_eps:g} is below the float resolution of the "
                             f"weight sum, whose tail stalls at {1.0 - total:.2g}")
        m += 1
        if m > FC_MAX_TERMS:
            raise CutoffTooLarge(f"lambda_hr {lam:g} needs more than {FC_MAX_TERMS} "
                                 f"Franck-Condon terms for tail_eps {tail_eps:g}")


def mode_commutator(t: float, t_other: float, omega_v: float, gamma_v: float) -> complex:
    """Same-site commutator of the damped mode at two times (fs)."""
    if t >= t_other:
        return np.exp(-(1j * omega_v + gamma_v) * RAD_PER_CM_FS * (t - t_other))
    return np.exp((1j * omega_v - gamma_v) * RAD_PER_CM_FS * (t_other - t))


@dataclass(frozen=True)
class VibKernel:
    """Franck-Condon truncation policy plus the phonon line parameters."""

    lambda_hr: float
    omega_v: float
    gamma_v: float
    m_max: int
    tail_eps: float

    def __post_init__(self):
        for name in ("lambda_hr", "omega_v", "gamma_v"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.omega_v <= 0.0:
            raise ValueError("omega_v must be > 0")
        if self.gamma_v < 0.0:
            raise ValueError("gamma_v must be >= 0")
        if self.lambda_hr < 0.0:
            raise ValueError("lambda_hr must be >= 0")
        if self.m_max < 0:
            raise ValueError("m_max must be >= 0")
        # the truncation policy never yields m_max = 0 for nonzero displacement
        # (see kernel_from_params); constructing one directly is allowed so the
        # zero-phonon term can be isolated in diagnostics.

    @cached_property
    def weights(self) -> np.ndarray:
        w = franck_condon_weights(self.lambda_hr, self.m_max)
        w.setflags(write=False)
        return w

    def shift(self, m):
        """Complex frequency shift m*(omega_v + i*gamma_v) of the m-phonon sideband; an
        integer array of orders gives an array."""
        return m * (self.omega_v + 1j * self.gamma_v)

    def wait_factor(self, t_wait: float) -> complex:
        """exp(i*shift(1)*theta(T)); |.| <= 1 whenever gamma_v, T >= 0."""
        return np.exp(1j * self.shift(1) * RAD_PER_CM_FS * t_wait)


def kernel_from_params(sys: SystemParams, tail_eps: float = 1e-10,
                       m_max: int | None = None) -> VibKernel:
    """Build the phonon kernel; m_max from the tail bound unless given."""
    if m_max is None:
        m_max = franck_condon_cutoff(sys.lambda_hr, tail_eps)
        if sys.lambda_hr > 0.0:
            m_max = max(m_max, 1)
        actual_eps = tail_eps
    else:
        actual_eps = max(1.0 - franck_condon_weights(sys.lambda_hr, m_max).sum(), 1e-300)
    return VibKernel(
        lambda_hr=sys.lambda_hr,
        omega_v=sys.omega_v,
        gamma_v=sys.gamma_v,
        m_max=m_max,
        tail_eps=actual_eps,
    )


@dataclass(frozen=True)
class TimeQuadruple:
    """Times (fs) and site indices of the four displacement operators.

    Operator order is fixed: D at times[0] on sites[0], then the two daggered
    operators at times[1], times[2], then D at times[3].  Any time ordering is
    allowed; sites index molecules from 0.
    """

    times: tuple[float, float, float, float]
    sites: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.times) != 4 or len(self.sites) != 4:
            raise ValueError("need exactly four times and four sites")
        if not all(math.isfinite(t) for t in self.times):
            raise ValueError("times must be finite")
        if any(s < 0 for s in self.sites):
            raise ValueError("site indices must be >= 0")


# (sign, operator slot pairs) of the six commutator exponents in the
# closed-form vacuum four-point correlator; slots follow TimeQuadruple order.
_FOUR_POINT_TERMS = (
    (+1.0, 0, 1),
    (+1.0, 2, 3),
    (-1.0, 1, 2),
    (+1.0, 0, 2),
    (+1.0, 1, 3),
    (-1.0, 0, 3),
)


def four_point_correlator(q: TimeQuadruple, kernel: VibKernel) -> complex:
    """Vacuum expectation of the four displacement operators, any ordering."""
    lam2 = kernel.lambda_hr ** 2
    total = 0.0 + 0.0j
    for sign, first, second in _FOUR_POINT_TERMS:
        if q.sites[first] != q.sites[second]:
            continue
        total += sign * mode_commutator(
            q.times[first], q.times[second], kernel.omega_v, kernel.gamma_v
        )
    return np.exp(-2.0 * lam2) * np.exp(lam2 * total)


def _lowering(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n_max, dtype=float)), 1).astype(complex)


@lru_cache(maxsize=32)
def displacement_matrix(lam: float, n_max: int) -> np.ndarray:
    """exp(lam*(b - b^+)) in the n_max-level truncation, read-only and memoised.

    b - b^+ is real and antisymmetric, so the matrix is real orthogonal and its
    transpose is the inverse displacement.
    """
    b = _lowering(n_max)
    out = matrix_exp(lam * (b - b.T))
    out.setflags(write=False)
    return out


# Levels per site of the Fock reference; a state that puts more than 1e-10 into
# the top three levels raises a TruncationWarning.
FOCK_LEVELS = 40


def fock_correlator(q: TimeQuadruple, kernel: VibKernel) -> complex:
    """Truncated-Fock-space evaluation of the four-point correlator at zero damping.

    Valid only for gamma_v = 0, where b(t) = exp(-i*w*theta(t)) b(0) is unitary
    Heisenberg evolution with a finite-dimensional faithful truncation; a kernel
    with gamma_v != 0 raises ``ValueError``.  Sites are independent tensor
    factors, so the vacuum expectation factorizes into per-site operator strings
    (cross-site operators commute), each truncated to FOCK_LEVELS levels.

    Each operator is the rotated displacement R E R^+ (R E^T R^+ for a daggered
    slot), with E = exp(lambda_hr*(b - b^+)) from :func:`displacement_matrix` and
    R = diag(exp(i*w*theta(t)*n)).  This is exact in the truncated space,
    where R b R^+ = exp(-i*w*theta(t)) b holds level by level, so one matrix
    exponential serves every time and site.
    """
    if kernel.gamma_v != 0.0:
        raise ValueError(f"the Fock reference is undamped; got kernel.gamma_v = {kernel.gamma_v}")
    disp = displacement_matrix(kernel.lambda_hr, FOCK_LEVELS)
    levels = np.arange(FOCK_LEVELS)
    daggered = (False, True, True, False)

    result = 1.0 + 0.0j
    for site in sorted(set(q.sites)):
        ops = [(q.times[k], daggered[k]) for k in range(4) if q.sites[k] == site]
        state = np.zeros(FOCK_LEVELS, dtype=complex)
        state[0] = 1.0
        for time, dagger in reversed(ops):  # rightmost operator acts first
            rot = np.exp(1j * kernel.omega_v * RAD_PER_CM_FS * time * levels)
            state = rot * ((disp.T if dagger else disp) @ (np.conj(rot) * state))
            leak = float(np.sum(np.abs(state[-3:]) ** 2))
            if leak > 1e-10:
                warnings.warn(
                    f"Fock truncation leaked {leak:.2e} into the top levels",
                    TruncationWarning,
                    stacklevel=2,
                )
        result *= state[0]
    return complex(result)
