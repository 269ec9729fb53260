"""Spectroscopy kernels: linear absorption, the two-dimensional coherent
signal, the pump-probe signal, analytic slice traces and brute-force oracles.

The third-order kernels sum over molecule indices (i, l, j, j') and an extra
propagation index p.  For identical molecules every propagator entry depends
only on the *equality pattern* of its indices, so the quadruple sum collapses
onto the 15 set partitions of (i, l, j, j') weighted by the number of index
tuples realizing each partition, with p contributing at most four extra cases
(p equal to l, equal to j', another molecule, or the photon slot).  This makes
grid evaluation O(1) in N.  The oracles kept alongside sum over every index
tuple, each with its own dense entries.  The 2D and pump-probe oracles group
the tuples in numpy by the shape of their phonon weight table and form each
group's products in batches of at most ``ORACLE_BATCH_VALUES`` values; every
oracle adds its terms in loop order.

Phonon sums use the Kronecker-power convention delta^0 == 1 (also for unequal
indices) and delta^(m>=1) == delta, so the m = 0 terms reproduce the
zero-displacement limit exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DivergentTransform, NegativeWaitingTime, TooLarge
from .grids import Axis, SpectrumGrid
from .model import RAD_PER_CM_FS, SystemParams
from .propagator import (
    ModeDecomposition,
    fourier_conj_entries,
    fourier_entries,
    propagator_G,
    propagator_entries,
)
from .vibrations import VibKernel

# element slots inside an index partition
I_, L_, J_, JP_ = 0, 1, 2, 3
# Kronecker pairs carried by the six phonon sums m1..m6
_M_PAIRS = ((JP_, J_), (I_, L_), (J_, L_), (JP_, L_), (I_, J_), (I_, JP_))


@dataclass(frozen=True)
class IndexClass:
    """One equality pattern of the molecule indices (i, l, j, j')."""

    assignment: tuple[int, int, int, int]  # block id per slot, restricted-growth form

    @property
    def blocks(self) -> int:
        return max(self.assignment) + 1

    def equal(self, x: int, y: int) -> bool:
        return self.assignment[x] == self.assignment[y]

    def multiplicity(self, n: int) -> int:
        """Number of index tuples in {1..N}^4 realizing this pattern."""
        return math.perm(n, self.blocks)

    @cached_property
    def free_mask(self) -> tuple[bool, ...]:
        """Which of m1..m6 range freely (pair equal); pinned pairs keep m = 0."""
        return tuple(self.equal(x, y) for x, y in _M_PAIRS)


_FLOAT_MAX = float(np.finfo(float).max)


def _check_index_counts(n: int, power: int) -> None:
    """Refuse an N whose index counts, up to N**power, pass the float range.

    The kernels multiply these exact integer counts into float arrays, and
    the conversion of a larger one raises ``OverflowError``."""
    if n ** power > _FLOAT_MAX:
        raise TooLarge(f"index counts up to N^{power} overflow a float beyond "
                       f"N = {_FLOAT_MAX ** (1.0 / power):.3g}, got system.n_molecules = {n:g}")


@cache
def index_classes() -> tuple[IndexClass, ...]:
    """The 15 set partitions of four elements, in a fixed enumeration order."""
    out = []

    def grow(assign: tuple[int, ...]) -> None:
        if len(assign) == 4:
            out.append(IndexClass(assign))
            return
        for b in range(max(assign, default=-1) + 2):
            grow(assign + (b,))

    grow(())
    return tuple(out)


# ---------------------------------------------------------------------------
# shared helpers


def _wait_factor(kernel: VibKernel, t_wait: float) -> complex:
    if t_wait < 0:
        raise NegativeWaitingTime(f"waiting time must be >= 0, got {t_wait}")
    z = kernel.wait_factor(t_wait)
    # one-phonon factor must never grow with T; a NaN fails this test too
    if not abs(z) <= 1.0 + 1e-12:
        raise DivergentTransform(
            f"one-phonon wait factor |z| = {abs(z)} exceeds 1 at T = {t_wait} fs")
    return z


def _sequential_sum(start: float, terms: np.ndarray) -> float:
    """start + terms[0] + terms[1] + ..., added one at a time in C order."""
    return np.add.accumulate(np.concatenate(([start], terms.ravel())))[-1]


# The most complex values one batch of a loop oracle's products holds (1 MiB).
ORACLE_BATCH_VALUES = 2 ** 16


def _batches(members: np.ndarray, per_tuple: int):
    """``members`` in runs that hold at most ``ORACLE_BATCH_VALUES`` values together,
    ``per_tuple`` each; a tuple that needs more than that alone runs alone."""
    step = max(1, ORACLE_BATCH_VALUES // per_tuple)
    return (members[start:start + step] for start in range(0, len(members), step))


def _weight_table(kernel: VibKernel, free: tuple[bool, ...], z: complex) -> np.ndarray:
    """Collapsed six-fold phonon sum for one index class.

    Returns W[a, k] = sum over allowed (m1..m6) of the product of
    Franck-Condon weights, the (-1)^(m3+m6) sign and the waiting-time factor
    z^(m3+m4+m5+m6), restricted to m2+m5+m6 = a and m1+m4+m6 = k.  Pinned
    sums (unequal index pairs) contribute only their m = 0 term.
    """
    s = kernel.weights
    w1, w2, w3, w4, w5, w6 = (s if flag else s[:1] for flag in free)
    zp = z ** np.arange(len(s))
    # m3 appears in no composite shift: it collapses to a scalar factor
    f3 = np.sum(w3 * (-1.0) ** np.arange(len(w3)) * zp[: len(w3)])
    u = np.convolve(w2, w5 * zp[: len(w5)])      # u[x] = sum_m5 w5 z^m5 w2[x-m5]
    v = np.convolve(w1, w4 * zp[: len(w4)])      # v[y] = sum_m4 w4 z^m4 w1[y-m4]
    dim = 3 * kernel.m_max + 1
    table = np.zeros((dim, dim), dtype=complex)
    for m6 in range(len(w6)):
        coeff = w6[m6] * (-1.0) ** m6 * zp[m6] * f3
        table[m6:m6 + len(u), m6:m6 + len(v)] += coeff * np.outer(u, v)
    return table


def _mm_pattern(cls: IndexClass, a: int, b: int) -> str:
    """The :class:`PatternEntries` field of a molecule-molecule entry at index slots a, b."""
    return "mm_diag" if cls.equal(a, b) else "mm_off"


def _p_cases(cls: IndexClass, n: int) -> list[tuple[int, str, str]]:
    """(count, G_lp pattern, transform_pj' pattern) for the propagation index.

    Patterns are :class:`PatternEntries` field names.
    """
    if cls.equal(L_, JP_):
        return [(1, "mm_diag", "mm_diag"), (max(n - 1, 0), "mm_off", "mm_off"),
                (1, "mol_ph", "ph_mol")]
    return [(1, "mm_diag", "mm_off"), (1, "mm_off", "mm_diag"),
            (max(n - 2, 0), "mm_off", "mm_off"), (1, "mol_ph", "ph_mol")]


def _twod_core(dec: ModeDecomposition, kernel: VibKernel, t_wait: float) -> dict:
    """Class-collapsed kernel matrices, keyed by the absorption-side pattern.

    For each pattern pair the emission-side table is folded in so that the
    grid evaluation reduces to one matrix product per absorption pattern.
    """
    n = dec.n_molecules
    _check_index_counts(n, 5)   # a class multiplicity N^4 times N - 2 propagation indices
    z = _wait_factor(kernel, t_wait)
    prop = propagator_entries(dec, t_wait)
    dim = 3 * kernel.m_max + 1
    core: dict[tuple[str, str], np.ndarray] = {}
    for cls in index_classes():
        mult = cls.multiplicity(n)
        if mult == 0:
            continue
        table = _weight_table(kernel, cls.free_mask, z)
        pat_il = _mm_pattern(cls, I_, L_)
        g_lj = getattr(prop, _mm_pattern(cls, L_, J_))
        for count, lp_pat, pj_pat in _p_cases(cls, n):
            if count == 0:
                continue
            coeff = mult * count * np.conj(getattr(prop, lp_pat)) * g_lj
            key = (pat_il, pj_pat)
            if key in core:
                core[key] = core[key] + coeff * table
            else:
                core[key] = coeff * table
    return core


def twod_prefactor(sys: SystemParams) -> complex:
    """Overall constant i * exp(i*phase) * dipole^4 of the 2D signal."""
    return 1j * cmath.exp(1j * sys.phase) * sys.dipole ** 4


def pump_probe_prefactor(sys: SystemParams) -> float:
    """Overall constant 4 * dipole^4 of the pump-probe signal."""
    return 4.0 * sys.dipole ** 4


def twod_values(dec: ModeDecomposition, kernel: VibKernel,
                w1_rot: np.ndarray, w3_rot: np.ndarray, t_wait: float,
                prefactor: complex = 1j) -> np.ndarray:
    """Complex 2D signal on rotating-frame axes; shape (len(w1), len(w3)).

    ``w1_rot`` is the user-facing absorption axis; the conjugated first
    interval makes the underlying kernel argument its negative.
    """
    w1_rot = np.atleast_1d(np.asarray(w1_rot, dtype=float))
    w3_rot = np.atleast_1d(np.asarray(w3_rot, dtype=float))
    core = _twod_core(dec, kernel, t_wait)
    shifts = kernel.shift(np.arange(3 * kernel.m_max + 1))
    # pattern blocks A[pat][t, a] at w3[t] + shift(a) and B[pat][u, k] at w1[u] - shift(k)
    emission = fourier_entries(dec, w3_rot[:, None] + shifts)
    absorption = fourier_conj_entries(dec, w1_rot[:, None] - shifts)
    # fold emission side: folded[pj][k, t] = sum_il A[il][t, a] core[(il, pj)][a, k]
    folded: dict[str, np.ndarray] = {}
    for (pat_il, pj_pat), mat in core.items():
        contrib = (getattr(emission, pat_il) @ mat).T
        folded[pj_pat] = folded.get(pj_pat, 0) + contrib
    out = None
    for pj_pat, mat in folded.items():
        part = getattr(absorption, pj_pat) @ mat
        if out is None:
            out = part
        else:
            out += part
    out *= prefactor
    return out


def twod_signal(sys: SystemParams, dec: ModeDecomposition, kernel: VibKernel,
                axis1: Axis, axis3: Axis, t_wait: float) -> SpectrumGrid:
    """Heterodyne-detected 2D signal on absolute axes; display is the Im part."""
    values = twod_values(dec, kernel, axis1.rotating(), axis3.rotating(),
                         t_wait, twod_prefactor(sys))
    meta = _base_metadata(sys, kernel)
    meta.update(display="imag", axis1_role="absorption", axis2_role="emission")
    return SpectrumGrid("twod", axis1, axis3, t_wait, values, meta)


def _twod_phonon_sums(weight: np.ndarray, side_a: np.ndarray, side_b: np.ndarray) -> np.ndarray:
    """The phonon sums [tuple, p] of weight * side_a * side_b, for a batch of index tuples.

    order="C" keeps each (tuple, p) row's terms contiguous, so each row is
    summed pairwise like a flat array.  The products live only in this call,
    so one batch's are freed before the next batch's are formed.
    """
    weighted_a = np.multiply(weight, side_a, order="C")
    products = np.multiply(weighted_a[:, None], side_b, order="C")
    return products.reshape(*side_b.shape[:2], -1).sum(axis=2)


def twod_signal_direct(dec: ModeDecomposition, kernel: VibKernel, w1_rot: float, w3_rot: float,
                       t_wait: float, prefactor: complex = 1j) -> complex:
    """:func:`twod_values` at one point as a literal quintuple-index sum with explicit
    Kronecker deltas (oracle).

    Every index tuple (i, l, j, j') reads its own dense transform and
    propagator entries.  The tuples whose six Kronecker deltas form one 6-bit
    code share a phonon weight table; each code's products are formed in
    batches (see :func:`_batches`), with the operand shapes of one tuple and a
    leading tuple axis.  The p terms are then added one at a time, in tuple
    and p order, so the sum is that of a loop over the tuples, bit for bit.
    Cost grows as N^4 (N+1) m_max^6 with pinned-m pruning; refuse N > 6.
    """
    n = dec.n_molecules
    if n > 6:
        raise TooLarge("direct 2D oracle limited to N <= 6")
    z = _wait_factor(kernel, t_wait)
    s = kernel.weights
    mm = kernel.m_max
    g_wait = propagator_G(dec, t_wait)
    dim = 3 * mm + 1
    # [row, column, shift]
    trans_a = np.stack([fourier_entries(dec, w3_rot + kernel.shift(a)).to_dense(n)
                        for a in range(dim)], axis=-1)
    # [column, row, shift]: the rows p of one column j' sit next to each other
    trans_b = np.stack([fourier_conj_entries(dec, w1_rot - kernel.shift(k)).to_dense(n).T
                        for k in range(dim)], axis=-1)
    full = np.arange(mm + 1)
    pinned = np.arange(1)
    index = np.indices((n,) * 4).reshape(4, -1)       # every index tuple, in loop order
    i, l, j, jp = index
    # each tuple's Kronecker-delta pattern as a 6-bit code, bit k - 1 for the pair of m_k
    codes = sum((index[x] == index[y]) << bit for bit, (x, y) in enumerate(_M_PAIRS))
    terms = np.empty((n ** 4, n + 1), dtype=complex)          # [tuple, p]
    for code in dict.fromkeys(codes.tolist()):      # in the order the loop first meets them
        m1, m2, m3, m4, m5, m6 = np.ix_(*[full if code >> bit & 1 else pinned for bit in range(6)])
        weight = (s[m1] * s[m2] * s[m3] * s[m4] * s[m5] * s[m6]
                  * (-1.0) ** (m3 + m6) * z ** (m3 + m4 + m5 + m6))
        alpha, kappa = m2 + m5 + m6, m1 + m4 + m6
        for pos in _batches(np.flatnonzero(codes == code), (n + 1) * weight.size):
            sums = _twod_phonon_sums(weight, trans_a[i[pos], l[pos]][:, alpha],
                                     trans_b[jp[pos]][:, :, kappa])
            terms[pos] = np.conj(g_wait[l[pos]]) * g_wait[l[pos], j[pos]][:, None] * sums
    # add the p terms one at a time, in tuple and p order
    return complex(prefactor * complex(_sequential_sum(0.0, terms)))


# ---------------------------------------------------------------------------
# linear absorption


def linear_absorption(sys: SystemParams, dec: ModeDecomposition, kernel: VibKernel,
                      axis: Axis) -> SpectrumGrid:
    """Linear absorption on the absolute axis (real spectrum).

    The zero-phonon term sums the transform over all molecule pairs (the
    delta^0 convention); every m >= 1 sideband only keeps the diagonal pairs.
    """
    n = dec.n_molecules
    _check_index_counts(n, 2)
    s = kernel.weights
    w_rot = axis.rotating()
    ent = fourier_entries(dec, w_rot[:, None] - np.conj(kernel.shift(np.arange(kernel.m_max + 1))))
    terms = s * n * ent.mm_diag
    terms[:, 0] = s[0] * (n * ent.mm_diag[:, 0] + n * (n - 1) * ent.mm_off[:, 0])
    # add the sidebands one order at a time, m = 1, 2, ...; a reduction
    # would round in another order
    acc = np.add.accumulate(terms, axis=1)[:, -1]
    values = sys.dipole ** 2 * np.real(acc) + 0.0j
    meta = _base_metadata(sys, kernel)
    meta.update(display="real", axis1_role="absorption")
    return SpectrumGrid("absorption", axis, None, None, values, meta)


# ---------------------------------------------------------------------------
# closed-form peak ratios


@dataclass(frozen=True)
class PeakRatios:
    """Closed-form absorption peak-height ratios (resonant cavity assumed).

    Exact for gamma_x == gamma_c; a documented approximation otherwise.
    """

    orders: tuple[int, ...]
    eds_over_lp: tuple[float, ...]
    sideband_over_lp: tuple[float, ...]
    approximate: bool


def peak_ratios(sys: SystemParams, dec: ModeDecomposition, m_max: int = 3) -> PeakRatios:
    lam2 = sys.lambda_hr ** 2
    n = sys.n_molecules
    g_lp, g_dark = dec.mu_lp.real, dec.mu_dark.real
    gv = sys.gamma_v
    orders = tuple(range(1, m_max + 1))
    return PeakRatios(
        orders=orders,
        eds_over_lp=tuple(lam2 ** m / math.factorial(m) * (1.0 - 1.0 / n) * 2.0 * g_lp
                          / (g_dark + m * gv) for m in orders),
        sideband_over_lp=tuple(lam2 ** m / (math.factorial(m) * n) * g_lp / (g_lp + m * gv)
                               for m in orders),
        approximate=not math.isclose(sys.gamma_x, sys.gamma_c, rel_tol=1e-12),
    )


# ---------------------------------------------------------------------------
# pump-probe


def _pp_class_weights(cls: IndexClass, kernel: VibKernel, z: complex):
    """(m1+m3)-resolved weight vector and the scalar m2 factor for one class."""
    s = kernel.weights
    m = np.arange(kernel.m_max + 1)
    w1 = s if cls.equal(I_, L_) else s[:1]
    d2 = float(cls.equal(JP_, L_)) - float(cls.equal(J_, L_))
    d3 = float(cls.equal(I_, J_)) - float(cls.equal(I_, JP_))
    w2 = s * d2 ** m          # d^0 == 1 covers the m = 0 convention
    w3 = s * d3 ** m
    f2 = np.sum(w2 * z ** m)
    w13 = np.convolve(w1, w3 * z ** m)   # index: x = m1 + m3
    return w13, f2


def pump_probe_values(dec: ModeDecomposition, kernel: VibKernel,
                      w_rot: np.ndarray, t_wait: float, scale: float = 1.0) -> np.ndarray:
    """Real pump-probe spectrum on a rotating-frame grid (class-collapsed)."""
    w_rot = np.atleast_1d(np.asarray(w_rot, dtype=float))
    n = dec.n_molecules
    _check_index_counts(n, 4)
    z = _wait_factor(kernel, t_wait)
    prop = propagator_entries(dec, t_wait)
    dim = 2 * kernel.m_max + 1
    wvec = {"mm_diag": np.zeros(dim, dtype=complex), "mm_off": np.zeros(dim, dtype=complex)}
    for cls in index_classes():
        mult = cls.multiplicity(n)
        if mult == 0:
            continue
        w13, f2 = _pp_class_weights(cls, kernel, z)
        g_lj = getattr(prop, _mm_pattern(cls, L_, J_))
        g_ljp = getattr(prop, _mm_pattern(cls, L_, JP_))
        pat_il = _mm_pattern(cls, I_, L_)
        coeff = mult * np.conj(g_ljp) * g_lj * f2
        wvec[pat_il][: w13.size] += coeff * w13
    ent = fourier_entries(dec, w_rot[:, None] + kernel.shift(np.arange(dim)))
    total = ent.mm_diag @ wvec["mm_diag"] + ent.mm_off @ wvec["mm_off"]
    return scale * np.real(total)


def pump_probe(sys: SystemParams, dec: ModeDecomposition, kernel: VibKernel,
               axis: Axis, t_wait: float) -> SpectrumGrid:
    """Pump-probe spectrum on the absolute axis (real values)."""
    values = pump_probe_values(dec, kernel, axis.rotating(), t_wait,
                               pump_probe_prefactor(sys)) + 0.0j
    meta = _base_metadata(sys, kernel)
    meta.update(display="real", axis1_role="detection")
    return SpectrumGrid("pump_probe", axis, None, t_wait, values, meta)


def pump_probe_direct(dec: ModeDecomposition, kernel: VibKernel, w_rot: float,
                      t_wait: float, scale: float = 1.0) -> float:
    """:func:`pump_probe_values` at one point as a literal quadruple-index sum (oracle);
    refuse N > 6.

    Every index tuple (i, l, j, j') reads its own dense transform and
    propagator entries.  Its weight table's shape depends on i == l alone, and
    d2 = (j' == l) - (j == l), d3 = (i == j) - (i == j') enter as per-tuple
    arrays; each of the two groups' weights and phonon sums are formed in
    batches (see :func:`_batches`).  Each sum is then weighted in Python
    scalars and the terms are added in tuple order (see :func:`_sequential_sum`),
    so the result is that of a loop over the tuples, bit for bit.
    """
    n = dec.n_molecules
    if n > 6:
        raise TooLarge("direct pump-probe oracle limited to N <= 6")
    z = _wait_factor(kernel, t_wait)
    s = kernel.weights
    mm = kernel.m_max
    g_wait = propagator_G(dec, t_wait)
    # [row, column, shift]
    trans = np.stack([fourier_entries(dec, w_rot + kernel.shift(x)).to_dense(n)
                      for x in range(2 * mm + 1)], axis=-1)
    full = np.arange(mm + 1)
    pinned = np.arange(1)
    i, l, j, jp = np.indices((n,) * 4).reshape(4, -1)       # every index tuple, in loop order
    # [tuple, m1, m2, m3]: the Kronecker deltas d2 and d3 of each tuple
    d2 = ((jp == l) - (j == l) * 1.0)[:, None, None, None]
    d3 = ((i == j) - (i == jp) * 1.0)[:, None, None, None]
    sums = np.empty(n ** 4, dtype=complex)
    for same_il in (True, False):       # m1 ranges freely where i == l and is 0 elsewhere
        m1, m2, m3 = np.ix_(full if same_il else pinned, full, full)
        fc, zp = s[m1] * s[m2] * s[m3], z ** (m2 + m3)
        # a batch holds each tuple's weights and its products, fc.size values each
        for pos in _batches(np.flatnonzero((i == l) == same_il), 2 * fc.size):
            weight = fc * d2[pos] ** m2 * d3[pos] ** m3 * zp
            # order="C" keeps each tuple's terms contiguous, summed pairwise like a flat array
            sums[pos] = np.multiply(weight, trans[i[pos], l[pos]][:, m1 + m3],
                                    order="C").reshape(len(pos), -1).sum(axis=1)
    conj_g, g = np.conj(g_wait).tolist(), g_wait.tolist()
    terms = np.array([conj_g[l_][jp_] * g[l_][j_] * part for l_, j_, jp_, part
                      in zip(l.tolist(), j.tolist(), jp.tolist(), sums.tolist())])
    return float(scale * np.real(_sequential_sum(0.0, terms)))


# ---------------------------------------------------------------------------
# pump-probe slice traces


@dataclass(frozen=True)
class SliceTrace:
    """One fixed-frequency waiting-time trace with its cross-validation."""

    omega_abs: float
    formula: np.ndarray      # closed-form resonance trace (own normalization)
    exact: np.ndarray        # full kernel evaluated at omega_abs
    fitted_scale: float      # least-squares constant mapping formula onto exact
    residual: float          # relative rms misfit after scaling


@dataclass(frozen=True)
class SliceReport:
    """The record of ``slices.json``, there with each Stokes order as a string key."""

    t_list: np.ndarray
    upper_polariton: SliceTrace
    stokes: dict[int, SliceTrace]


def _fit_scale(formula: np.ndarray, exact: np.ndarray) -> tuple[float, float]:
    denom = float(np.dot(formula, formula))
    scale = float(np.dot(exact, formula) / denom) if denom else 0.0
    resid = exact - scale * formula
    norm = max(float(np.max(np.abs(exact))), 1e-300)
    return scale, float(np.sqrt(np.mean(resid ** 2)) / norm)


# The Stokes sums keep O(N^2) of their N^3 terms per site, so their cost
# grows as N^3.  With four waiting times and two orders the traces take
# 0.02 s at N = 20, 0.09 s at N = 40 and 1.0 s at N = 100 (2-vCPU x86_64).
SLICES_MAX_N = 100


def _slice_sums_direct(s, z, zp, gg, dark_weight, stokes_orders) -> tuple[float, dict]:
    """Upper-polariton and Stokes sums of the slice formulas, term by term as in site loops.

    Each site triple (l, j', j) takes its phonon sum from its own entry
    gg[l, j', j], and the upper-polariton sum adds them in triple order.  Each
    Stokes order forms its terms over (site, l, j', j, m1), keeps those the
    loops keep, and adds them in that order (see :func:`_sequential_sum`).
    z^m3 times a phonon sum is a Python complex product, as in the loops, so
    each sum is that of the loops, bit for bit.
    """
    n = gg.shape[0]
    mm = s.size - 1
    eye = np.eye(n)
    d = (eye[:, :, None] - eye[:, None, :]).reshape(-1, 1)   # (j' == l) - (j == l) of each triple
    # order="C" keeps each triple's terms contiguous, summed pairwise like a flat array
    phonon = np.multiply(s * d ** np.arange(mm + 1) * zp, gg.reshape(-1, 1), order="C").sum(axis=1)
    accum = _sequential_sum(0.0, phonon.real)
    d3 = eye[:, None, :] - eye[:, :, None]     # [site, j', j] = (site == j) - (site == j')
    dw = dark_weight[:, :, None, None, None]   # [site, l, ...]
    stokes = {}
    for order in stokes_orders:
        # the m1 that keep m1 and m3 = order - m1 within the cutoff
        m1 = np.array(range(max(0, order - mm), min(order, mm) + 1), dtype=int)
        m3 = [order - m for m in m1.tolist()]               # Python ints: order may pass int64
        w13 = s[m1] * s[m3] * d3[..., None] ** m3           # [site, j', j, m1]
        z_m3 = [complex(z ** m) for m in m3]
        inner = np.array([part * zm for part in phonon.tolist() for zm in z_m3],
                         dtype=complex).reshape(n, n, n, m1.size)    # [l, j', j, m1]
        terms = w13[:, None] * np.real(dw * inner)
        # the loops skip a zero dark weight or w13, and every m1 but 0 off the site's row
        kept = ((dw != 0.0) & (w13[:, None] != 0.0)
                & ((m1 == 0) | (eye == 1.0)[:, :, None, None, None]))
        stokes[order] = _sequential_sum(0.0, terms[kept])
    return accum, stokes


def _slice_sums(s, z, zp, gg, dark_weight, stokes_orders) -> tuple[float, dict]:
    """The sums of :func:`_slice_sums_direct`, bit for bit, in O(N^3).

    The propagator holds one diagonal and one off-diagonal value, so d and gg
    depend only on the pattern 2 (j' == l) + (j == l) of (l, j', j), and the
    loops' phonon sum is evaluated once per pattern.  Each term is the loops'
    scalar product, and the terms the loops keep are added one at a time in
    the loops' order; the ones they skip would add an exact zero and are left
    out.  Off the site's own row l only m1 = 0 is kept, and only the 2(N - 1)
    pairs (j', j) with one index on the site have d3 != 0, so each site adds
    about 2 N^2 + N^2 (order + 1) terms instead of N^3 (order + 1).
    """
    n = gg.shape[0]
    mm = s.size - 1
    m_idx = np.arange(mm + 1)
    eye = np.eye(n, dtype=int)
    pattern = 2 * eye[:, :, None] + eye[:, None, :]     # [l, jp, j]
    phonon = np.zeros(4, dtype=complex)
    for p in (range(4) if n > 1 else (3,)):              # (l, j', j) = (0, j', j) of pattern p
        jp, j = 1 - p // 2, 1 - p % 2
        d = float(jp == 0) - float(j == 0)
        phonon[p] = (s * d ** m_idx * zp * gg[0, jp, j]).sum()
    accum = _sequential_sum(0.0, phonon.real[pattern])

    stokes = {}
    for order in stokes_orders:
        # w13[d3 + 1, m1 - lo] = s[m1] s[m3] d3^m3 over the m1 that keep m1 and
        # m3 = order - m1 within the cutoff; past order 2 m_max no term is kept
        lo, hi = max(0, order - mm), min(order, mm)
        if lo > hi:
            stokes[order] = 0.0
            continue
        m1 = np.arange(lo, hi + 1)
        w13 = s[m1] * s[order - m1] * np.array([[-1.0], [0.0], [1.0]]) ** (order - m1)
        w_off = w13[:, 0] if lo == 0 else np.zeros(3)   # m1 = 0, the only m1 off the site's row
        live = np.flatnonzero(w13.any(axis=0))          # the m1 with a nonzero weight
        inner = np.array([[phonon[p] * z ** (order - m) for m in m1[live].tolist()] for p in range(4)])
        # Re(dw phonon z^m3): off the site's row at m1 = 0, [site, l, p]; on it, [site, p, m1]
        re_off = np.real(dark_weight[:, :, None]
                         * np.array([phonon[p] * z ** order for p in range(4)]))
        re_on = np.real(np.diagonal(dark_weight)[:, None, None] * inner)
        w_live = w13[:, live]
        acc = 0.0
        for site in range(n):
            d3 = eye[site][None, :] - eye[site][:, None] + 1     # [jp, j] = (site == j) - (site == jp) + 1
            jp, j = np.nonzero(w_off[d3])
            rows = np.flatnonzero((dark_weight[site] != 0.0) & (eye[site] == 0))[:, None]
            off = w_off[d3[jp, j]] * re_off[site, rows, 2 * (jp == rows) + (j == rows)]
            w = w_live[d3]                                        # [jp, j, m1]
            on = (w * re_on[site][pattern[site]])[(w != 0.0) & (dark_weight[site, site] != 0.0)]
            split = np.count_nonzero(rows < site)
            acc = _sequential_sum(acc, np.concatenate((off[:split].ravel(), on, off[split:].ravel())))
        stokes[order] = acc
    return accum, stokes


def _formula_traces(sys: SystemParams, dec: ModeDecomposition, kernel: VibKernel,
                    t_list: np.ndarray, stokes_orders: tuple[int, ...],
                    sums) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The upper-polariton formula trace and the Stokes formula traces by order,
    with ``sums`` evaluating the formula sums at each T."""
    n = sys.n_molecules
    lam2 = kernel.lambda_hr ** 2
    s = kernel.weights
    # dark-basis phase vectors phi[s, q] for the Stokes traces
    q = np.arange(1, n)
    sites = np.arange(1, n + 1)
    phi = np.exp(-2j * np.pi * np.outer(sites, q) / n)
    dark_weight = (phi @ phi.conj().T).real     # sum over dark modes of phi_sk conj(phi_lk)
    up = np.empty(t_list.size)
    stokes = {m: np.empty(t_list.size) for m in stokes_orders}
    for it, t_wait in enumerate(t_list):
        z = _wait_factor(kernel, t_wait)
        g = propagator_G(dec, t_wait)[:n, :n]
        gg = np.conj(g)[:, :, None] * g[:, None, :]   # [l, jp, j]
        zp = z ** np.arange(kernel.m_max + 1)
        accum, stokes_acc = sums(s, z, zp, gg, dark_weight, stokes_orders)
        # polariton line: only the zero-phonon absorption/emission term resonates
        up[it] = math.exp(-lam2) / (2.0 * dec.mu_up.real) * accum
        for order in stokes_orders:
            gamma_res = dec.mu_dark.real + order * kernel.gamma_v
            stokes[order][it] = math.exp(lam2) / n * stokes_acc[order] / gamma_res
    return up, stokes


def pump_probe_slices(sys: SystemParams, dec: ModeDecomposition, kernel: VibKernel,
                      t_list, stokes_orders: tuple[int, ...] = (1, 2)) -> SliceReport:
    """Waiting-time traces at the upper polariton and the Stokes phonon lines.

    The closed-form traces use the resonance-dominated expressions (uniform
    bright weight for the polariton line; explicit discrete-Fourier dark
    phases for the Stokes lines) and are cross-validated against the full
    kernel up to a fitted constant, which is reported alongside.  The Stokes
    sums cost O(N^3) per waiting time; refuse N > SLICES_MAX_N.
    """
    if sys.n_molecules > SLICES_MAX_N:
        raise TooLarge(f"slices limited to N <= {SLICES_MAX_N} (cost grows as N^3), "
                       f"got system.n_molecules = {sys.n_molecules}")
    t_list = np.asarray(list(t_list), dtype=float)
    up_formula, stokes_formula = _formula_traces(sys, dec, kernel, t_list, stokes_orders,
                                                 _slice_sums)
    scale = pump_probe_prefactor(sys)

    def trace(omega_abs: float, formula: np.ndarray) -> SliceTrace:
        exact = np.array([pump_probe_values(dec, kernel, np.array([omega_abs - sys.axis_offset]),
                                            t_wait, scale)[0] for t_wait in t_list])
        return SliceTrace(omega_abs, formula, exact, *_fit_scale(formula, exact))

    return SliceReport(
        t_list=t_list,
        upper_polariton=trace(sys.axis_offset + dec.mu_up.imag, up_formula),
        stokes={m: trace(sys.axis_offset + sys.delta_x - m * kernel.omega_v, stokes_formula[m])
                for m in stokes_orders},
    )


def pump_probe_slices_direct(sys: SystemParams, dec: ModeDecomposition, kernel: VibKernel,
                             t_list, stokes_orders: tuple[int, ...] = (1, 2)
                             ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The formula traces of :func:`pump_probe_slices`, upper polariton and Stokes by
    order, with the formula sums as literal site loops (oracle); refuse N > 6."""
    if sys.n_molecules > 6:
        raise TooLarge("direct slices oracle limited to N <= 6")
    return _formula_traces(sys, dec, kernel, np.asarray(list(t_list), dtype=float),
                           stokes_orders, _slice_sums_direct)


# ---------------------------------------------------------------------------
# metadata


def _base_metadata(sys: SystemParams, kernel: VibKernel) -> dict:
    """Every :class:`SystemParams` field, the axis offset, the truncation and the unit bridge."""
    return {**asdict(sys), "axis_offset": sys.axis_offset, "m_max": kernel.m_max,
            "tail_eps": kernel.tail_eps, "rad_per_cm_fs": RAD_PER_CM_FS}
