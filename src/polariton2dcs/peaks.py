"""Local-maximum detection with sub-grid refinement, and the peak report of a grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import SpectrumGrid


@dataclass(frozen=True)
class Peak:
    """One detected local maximum (1D)."""

    index: int
    position: float          # grid coordinate
    refined_position: float  # parabolic sub-grid estimate
    height: float            # refined magnitude
    classification: str = ""


@dataclass(frozen=True)
class Peak2D:
    """One detected local maximum of a 2D magnitude map."""

    index: tuple[int, int]
    position: tuple[float, float]          # (axis1, axis2) grid coordinates
    refined_position: tuple[float, float]
    height: float
    classification: str = ""
    k_tag: int | None = None               # integer phonon offset, if matched


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
        out.append(Peak(
            index=int(idx),
            position=float(x[idx]),
            refined_position=float(x[idx] + delta * step),
            height=float(height),
        ))
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
        pos1, pos2 = float(ax1[i]), float(ax2[j])
        ref1, ref2 = float(ax1[i] + d1 * step1), float(ax2[j] + d2 * step2)
        cls, k = ("", None)
        if omega_v is not None:
            cls, k = classify_2d(ref1, ref2, omega_v, tol)
        out.append(Peak2D(
            index=(int(i), int(j)),
            position=(pos1, pos2),
            refined_position=(ref1, ref2),
            height=float(height),
            classification=cls,
            k_tag=k,
        ))
    out.sort(key=lambda p: -p.height)
    return out


def grid_peak_report(grid: SpectrumGrid, min_rel_height: float = 0.01) -> list[dict]:
    """Peak list of a loaded grid, sorted by height, as plain dicts."""
    omega_v = grid.metadata.get("omega_v")
    if grid.axis2 is None:
        found = find_peaks_1d(grid.axis1.values(), grid.display(), min_rel_height)
        return [
            {"omega": p.position, "refined": p.refined_position,
             "height": p.height, "classification": p.classification}
            for p in found
        ]
    found = find_peaks_2d(grid.axis1.values(), grid.axis2.values(), grid.display(),
                          omega_v=omega_v, min_rel_height=min_rel_height)
    return [
        {"omega1": p.position[0], "omega3": p.position[1],
         "refined1": p.refined_position[0], "refined3": p.refined_position[1],
         "height": p.height, "classification": p.classification, "k": p.k_tag}
        for p in found
    ]
