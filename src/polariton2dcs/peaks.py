"""Local-maximum detection with sub-grid refinement, and the peak report of a grid."""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .grids import SpectrumGrid


@dataclass(frozen=True)
class Peak:
    """One local maximum of a 1D spectrum; its fields are its ``peaks`` report entry."""

    omega: float             # grid coordinate
    refined: float           # parabolic sub-grid estimate
    height: float            # refined magnitude
    classification: str = ""


@dataclass(frozen=True)
class Peak2D:
    """One local maximum of a 2D magnitude map; its fields are its ``peaks`` report entry."""

    omega1: float            # grid coordinates on axis1 and axis2
    omega3: float
    refined1: float          # parabolic sub-grid estimates
    refined3: float
    height: float
    classification: str = ""
    k: int | None = None     # integer phonon offset, if matched


def _parabolic(y_m: float, y_0: float, y_p: float) -> tuple[float, float]:
    """Vertex offset (in grid steps) and height of the parabola through 3 points."""
    denom = y_m - 2.0 * y_0 + y_p
    if denom == 0.0:
        return 0.0, y_0
    delta = 0.5 * (y_m - y_p) / denom
    delta = max(-0.5, min(0.5, delta))
    return delta, y_0 - 0.25 * (y_m - y_p) * delta


def _mean_3x3(mag: np.ndarray) -> np.ndarray:
    """3x3 moving average, the edge rows and columns repeated outward."""
    padded = np.pad(mag, 1, mode="edge")
    rows = padded[:-2] + padded[1:-1] + padded[2:]
    return (rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]) / 9.0


def _local_maxima(axes, values, min_rel_height: float) -> list[tuple[tuple, tuple, float]]:
    """Strict local maxima of |values| on a 1D or 2D grid, by height.

    |values| is smoothed by a 3-point mean with zeros past the ends (1D) or by
    :func:`_mean_3x3` (2D); a maximum exceeds its 2 or 8 smoothed neighbours.
    Each is (its grid coordinates, their parabolic refinement along each
    axis, the larger of the refined heights); those below ``min_rel_height``
    times the largest magnitude are dropped, and the sort by height is stable.
    """
    mag = np.abs(np.asarray(values))
    if min(mag.shape) < 3 or np.all(mag == mag.flat[0]):
        return []
    smooth = np.convolve(mag, np.ones(3) / 3.0, mode="same") if mag.ndim == 1 else _mean_3x3(mag)
    core = smooth[tuple(slice(1, n - 1) for n in mag.shape)]
    is_max = np.ones_like(core, dtype=bool)
    for shift in itertools.product((-1, 0, 1), repeat=mag.ndim):
        if any(shift):
            is_max &= core > smooth[tuple(slice(1 + s, n - 1 + s) for s, n in zip(shift, mag.shape))]
    floor = min_rel_height * float(mag.max())
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    found = []
    for idx in zip(*(k + 1 for k in np.nonzero(is_max))):
        fits = [_parabolic(mag[idx[:a] + (i - 1,) + idx[a + 1:]], mag[idx],
                           mag[idx[:a] + (i + 1,) + idx[a + 1:]]) for a, i in enumerate(idx)]
        height = max(h for _, h in fits)
        if height < floor:
            continue
        found.append((tuple(float(ax[i]) for ax, i in zip(axes, idx)),
                      tuple(float(ax[i] + d * (ax[1] - ax[0]))
                            for ax, i, (d, _) in zip(axes, idx, fits)),
                      float(height)))
    found.sort(key=lambda peak: -peak[2])
    return found


def find_peaks_1d(x: np.ndarray, values: np.ndarray, min_rel_height: float = 0.0) -> list[Peak]:
    """Strict local maxima of |values| after 3-point magnitude smoothing."""
    return [Peak(omega, refined, height)
            for (omega,), (refined,), height in _local_maxima((x,), values, min_rel_height)]


def classify_2d(omega1: float, omega3: float, omega_v: float, tol: float) -> tuple[str, int | None]:
    diff = omega1 - omega3
    quanta = diff / omega_v
    if not math.isfinite(quanta):   # omega_v so small that no integer offset exists
        return "coherence", None
    k = int(round(quanta))
    if abs(diff - k * omega_v) <= tol:
        return ("diagonal" if k == 0 else "cross"), k
    return "coherence", None


def find_peaks_2d(ax1: np.ndarray, ax2: np.ndarray, values: np.ndarray,
                  omega_v: float | None = None, min_rel_height: float = 0.0,
                  tol: float | None = None) -> list[Peak2D]:
    """Strict 8-neighbor local maxima of |values| after 3x3 smoothing.

    ``values`` is indexed [axis1, axis2].  With ``omega_v`` given, each peak
    is classified by whether its axis offset matches an integer number of
    vibrational quanta, within ``tol`` (two steps of the coarser axis if None).
    """
    found = _local_maxima((ax1, ax2), values, min_rel_height)
    if found and tol is None:
        tol = 2.0 * max(abs(ax1[1] - ax1[0]), abs(ax2[1] - ax2[0]))
    out = []
    for (omega1, omega3), (refined1, refined3), height in found:
        cls, k = ("", None) if omega_v is None else classify_2d(refined1, refined3, omega_v, tol)
        out.append(Peak2D(omega1, omega3, refined1, refined3, height, cls, k))
    return out


def grid_peak_report(grid: SpectrumGrid, min_rel_height: float = 0.01) -> list[dict]:
    """Peak list of a loaded grid, sorted by height, as plain dicts."""
    if grid.axis2 is None:
        found = find_peaks_1d(grid.axis1.values(), grid.display(), min_rel_height)
    else:
        found = find_peaks_2d(grid.axis1.values(), grid.axis2.values(), grid.display(),
                              omega_v=grid.metadata.get("omega_v"), min_rel_height=min_rel_height)
    return [asdict(p) for p in found]
