"""Local-maximum detection with sub-grid refinement, and the peak report of a grid."""

from __future__ import annotations

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


def find_peaks_1d(x: np.ndarray, values: np.ndarray, min_rel_height: float = 0.0) -> list[Peak]:
    """Strict local maxima of |values| after 3-point magnitude smoothing."""
    x = np.asarray(x, dtype=float)
    mag = np.abs(np.asarray(values))
    if mag.size < 3 or np.all(mag == mag.flat[0]):
        return []
    smooth = np.convolve(mag, np.ones(3) / 3.0, mode="same")
    interior = np.arange(1, mag.size - 1)
    is_max = (smooth[interior] > smooth[interior - 1]) & (smooth[interior] > smooth[interior + 1])
    floor = min_rel_height * float(mag.max())
    out = []
    step = x[1] - x[0]
    for idx in interior[is_max]:
        delta, height = _parabolic(mag[idx - 1], mag[idx], mag[idx + 1])
        if height < floor:
            continue
        out.append(Peak(float(x[idx]), float(x[idx] + delta * step), float(height)))
    out.sort(key=lambda p: -p.height)
    return out


def _mean_3x3(mag: np.ndarray) -> np.ndarray:
    """3x3 moving average, the edge rows and columns repeated outward."""
    padded = np.pad(mag, 1, mode="edge")
    rows = padded[:-2] + padded[1:-1] + padded[2:]
    return (rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]) / 9.0


def classify_2d(omega1: float, omega3: float, omega_v: float, tol: float) -> tuple[str, int | None]:
    diff = omega1 - omega3
    k = int(round(diff / omega_v))
    if abs(diff - k * omega_v) <= tol:
        return ("diagonal" if k == 0 else "cross"), k
    return "coherence", None


def find_peaks_2d(ax1: np.ndarray, ax2: np.ndarray, values: np.ndarray,
                  omega_v: float | None = None, min_rel_height: float = 0.0,
                  tol: float | None = None) -> list[Peak2D]:
    """Strict 8-neighbor local maxima of |values| after 3x3 smoothing.

    ``values`` is indexed [axis1, axis2].  With ``omega_v`` given, each peak
    is classified by whether its axis offset matches an integer number of
    vibrational quanta.
    """
    ax1 = np.asarray(ax1, dtype=float)
    ax2 = np.asarray(ax2, dtype=float)
    mag = np.abs(np.asarray(values))
    if mag.shape[0] < 3 or mag.shape[1] < 3 or np.all(mag == mag.flat[0]):
        return []
    smooth = _mean_3x3(mag)
    step1 = ax1[1] - ax1[0]
    step2 = ax2[1] - ax2[0]
    if tol is None:
        tol = 2.0 * max(abs(step1), abs(step2))
    floor = min_rel_height * float(mag.max())
    core = smooth[1:-1, 1:-1]
    neighbors = [smooth[1 + di:mag.shape[0] - 1 + di, 1 + dj:mag.shape[1] - 1 + dj]
                 for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    is_max = np.ones_like(core, dtype=bool)
    for nb in neighbors:
        is_max &= core > nb
    out = []
    for r, c in zip(*np.nonzero(is_max)):
        i, j = r + 1, c + 1
        d1, h1 = _parabolic(mag[i - 1, j], mag[i, j], mag[i + 1, j])
        d2, h2 = _parabolic(mag[i, j - 1], mag[i, j], mag[i, j + 1])
        height = max(h1, h2)
        if height < floor:
            continue
        ref1, ref2 = float(ax1[i] + d1 * step1), float(ax2[j] + d2 * step2)
        cls, k = ("", None)
        if omega_v is not None:
            cls, k = classify_2d(ref1, ref2, omega_v, tol)
        out.append(Peak2D(float(ax1[i]), float(ax2[j]), ref1, ref2, float(height), cls, k))
    out.sort(key=lambda p: -p.height)
    return out


def grid_peak_report(grid: SpectrumGrid, min_rel_height: float = 0.01) -> list[dict]:
    """Peak list of a loaded grid, sorted by height, as plain dicts."""
    if grid.axis2 is None:
        found = find_peaks_1d(grid.axis1.values(), grid.display(), min_rel_height)
    else:
        found = find_peaks_2d(grid.axis1.values(), grid.axis2.values(), grid.display(),
                              omega_v=grid.metadata.get("omega_v"), min_rel_height=min_rel_height)
    return [asdict(p) for p in found]
