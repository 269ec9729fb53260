"""The spectrum grid, its axes and its files: the csv and json writers and their reader."""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import MalformedGrid


def integral(value) -> int | None:
    """``value`` as an int when it is an integral number (a numpy integer too), else None; a
    boolean is not one.  The rule for every count: ``system.n_molecules``, a config's grid
    counts, cutoffs and Stokes orders, a json grid's axis counts."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or (isinstance(value, float) and value.is_integer())):
        return None
    return int(value)


def finite(value) -> float | None:
    """``value`` as a float when it is a finite number, else None; a string, a boolean or an
    integer past the float range is not one.  The rule for every number that is not a count."""
    if isinstance(value, (str, bool)):
        return None
    try:
        return float(value) if math.isfinite(value) else None
    except (TypeError, OverflowError):   # None, a list, an integer past the float range
        return None


@dataclass(frozen=True)
class Axis:
    """Uniform frequency axis on the absolute scale (cm^-1)."""

    start: float
    stop: float
    count: int
    offset: float = 0.0   # absolute = rotating + offset
    label: str = "omega"

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"axis '{self.label}' needs count >= 2, got {self.count}")
        if finite(self.start) is None or finite(self.stop) is None:
            raise ValueError(f"axis '{self.label}' needs finite start and stop")
        if not (self.start < self.stop):
            raise ValueError(f"axis '{self.label}' needs start < stop")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    def rotating(self) -> np.ndarray:
        return self.values() - self.offset

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.count - 1)


@dataclass
class SpectrumGrid:
    """Computed spectrum with its axes and run metadata.

    1D grids store values of shape (axis1.count,); 2D grids are row-major with
    shape (axis1.count, axis2.count), axis1 being the absorption axis.
    """

    signal: str
    axis1: Axis
    axis2: Axis | None
    t_wait: float | None
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = (self.axis1.count,) if self.axis2 is None else (self.axis1.count, self.axis2.count)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != axes shape {expected}")

    def display(self) -> np.ndarray:
        """The measured quantity: Im part for the 2D signal, Re otherwise."""
        return self.values.imag if self.signal == "twod" else self.values.real


def write_csv(path: Path, grid: SpectrumGrid) -> None:
    """``# key=value`` metadata lines, a header, then one ``%.17g`` row per grid point.

    Each distinct number is formatted once.  A 2D map formats its omega3
    column once, into ``<w3>,%.17g,%.17g`` cells; each omega1 row joins the
    cells behind its ``<w1>,`` prefix and fills them with one ``%`` over the
    row's interleaved re/im values.  A 1D grid is one ``%`` over its
    interleaved (omega, value) pairs.  The metadata lines never pass through
    ``%``, so a ``%`` or ``{}`` in a value is written as it is.
    """
    with open(path, "w") as fh:
        fh.write(f"# signal={grid.signal}\n")
        if grid.t_wait is not None:
            fh.write(f"# t_wait={grid.t_wait:.17g}\n")
        fh.writelines(f"# {key}={grid.metadata[key]}\n" for key in sorted(grid.metadata))
        om1 = grid.axis1.values()
        if grid.axis2 is None:
            fh.write("omega,value\n")
            pairs = np.column_stack((om1, np.real(grid.values))).ravel().tolist()
            fh.write("%.17g,%.17g\n" * om1.size % tuple(pairs))
            return
        fh.write("omega1,omega3,re,im\n")
        cells = ["%.17g,%%.17g,%%.17g\n" % w3 for w3 in grid.axis2.values().tolist()]
        re_im = np.ascontiguousarray(grid.values, dtype=complex).view(float)   # re, im, re, ...
        for w1, row in zip(om1.tolist(), re_im):
            prefix = "%.17g," % w1
            fh.write((prefix + prefix.join(cells)) % tuple(row.tolist()))


def write_json_grid(path: Path, grid: SpectrumGrid) -> None:
    """The bytes of ``json.dumps(record, sort_keys=True)`` and a newline, one key at a time.

    Each top-level key of the grid record goes through its own ``json.dumps``,
    so only one of the two value lists and its text are held at once."""
    record = {"signal": grid.signal, "axis1": asdict(grid.axis1),
              "axis2": None if grid.axis2 is None else asdict(grid.axis2),
              "t_wait": grid.t_wait, "metadata": grid.metadata,
              "values_re": np.real(grid.values), "values_im": np.imag(grid.values)}
    with open(path, "w") as fh:
        for at, key in enumerate(sorted(record)):
            value = record[key]
            if isinstance(value, np.ndarray):
                value = value.tolist()
            fh.write(("{" if at == 0 else ", ") + json.dumps(key) + ": "
                     + json.dumps(value, sort_keys=True))
        fh.write("}\n")


def _meta_cast(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def load_grid(path) -> SpectrumGrid:
    """Read a spectrum grid written by :func:`write_csv` or :func:`write_json_grid`.

    Malformed content raises :class:`MalformedGrid`; a file that cannot be
    read raises the ``OSError``.  A 2D grid's ``omega_v``, by which the peak
    report classifies its peaks, must be a positive finite number.
    """
    path = Path(path)
    if not path.exists():
        raise MalformedGrid(f"no such file: {path}")
    try:
        grid = _load_json(path) if path.suffix.lower() == ".json" else _load_csv(path)
    except MalformedGrid:
        raise
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, OverflowError) as exc:
        raise MalformedGrid(f"cannot parse {path}: {exc}") from exc
    omega_v = grid.metadata.get("omega_v") if grid.axis2 is not None else None
    if omega_v is not None and (finite(omega_v) or 0.0) <= 0.0:
        raise MalformedGrid(f"{path}: omega_v must be a positive finite number, got {omega_v!r}")
    return grid


def _axis_of(path: Path, column: np.ndarray, offset: float, label: str) -> Axis:
    """The uniform axis from the first to the last value of ``column``, which must be that axis.

    :func:`write_csv` prints each axis value with ``%.17g``, so its files read
    back to the axis exactly; a millionth of a step is allowed for files
    written by other tools.
    """
    axis = Axis(float(column[0]), float(column[-1]), int(column.size), offset, label)
    if not np.all(np.abs(column - axis.values()) <= 1e-6 * axis.step):
        raise MalformedGrid(f"{path}: the {label} column is not a uniform axis in ascending order")
    return axis


def _load_csv(path: Path) -> SpectrumGrid:
    """The metadata and the header are read line by line, then ``np.loadtxt`` reads the
    rows from the open file, so the file's text is never held whole."""
    meta: dict = {}
    with path.open() as file:
        for line in iter(file.readline, ""):
            line = line.strip()
            if line.startswith("#"):
                key, eq, val = line[1:].partition("=")
                if eq:
                    meta[key.strip()] = _meta_cast(val.strip())
            elif line:
                break
        else:
            raise MalformedGrid(f"{path}: no data rows")
        header = [h.strip() for h in line.split(",")]
        # the first row that np.loadtxt does not skip as empty or a comment; it warns on none
        for row in iter(file.readline, ""):
            if row.partition("#")[0].rstrip("\n"):
                break
        else:
            raise MalformedGrid(f"{path}: no data rows")
        data = np.loadtxt(itertools.chain([row], file), delimiter=",", ndmin=2)
    offset = float(meta.get("axis_offset", 0.0))
    signal = str(meta.get("signal", "unknown"))
    t_wait = meta.get("t_wait")
    if header[:2] == ["omega1", "omega3"]:
        # the writer's order: one block of omega3 rows per omega1
        n3 = int(np.argmax(data[:, 0] != data[0, 0])) or data.shape[0]
        if data.shape[0] % n3:
            raise MalformedGrid(f"{path}: 2D grid is not a full product grid")
        om = data[:, :2].reshape(-1, n3, 2)
        if not (np.all(om[:, :, 0] == om[:, :1, 0]) and np.all(om[:, :, 1] == om[:1, :, 1])):
            raise MalformedGrid(f"{path}: 2D rows are not omega1-major over one omega3 axis")
        values = data[:, 2].astype(complex)   # not re + 1j*im: 1j*inf has a nan real part
        values.imag = data[:, 3]
        return SpectrumGrid(signal, _axis_of(path, om[:, 0, 0], offset, "omega1"),
                            _axis_of(path, om[0, :, 1], offset, "omega3"),
                            t_wait, values.reshape(om.shape[:2]), meta)
    if header[0] != "omega":
        raise MalformedGrid(f"{path}: unrecognized column layout {header}")
    values = data[:, 1].astype(complex)
    return SpectrumGrid(signal, _axis_of(path, data[:, 0], offset, "omega"),
                        None, t_wait, values, meta)


def _load_json(path: Path) -> SpectrumGrid:
    doc = json.loads(path.read_text())
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise MalformedGrid(f"{path}: metadata must be an object, got {meta!r}")

    def axis(key, label):
        rec = doc[key]
        count = integral(rec["count"])
        if count is None:
            raise MalformedGrid(f"{path}: {key}.count must be an integer, got {rec['count']!r}")
        return Axis(rec["start"], rec["stop"], count, rec.get("offset", 0.0), label)

    ax1 = axis("axis1", doc["axis1"].get("label", "omega"))
    ax2 = axis("axis2", "omega3") if doc.get("axis2") else None
    values = np.array(doc["values_re"], dtype=complex)
    values.imag = doc["values_im"]
    return SpectrumGrid(doc.get("signal", "unknown"), ax1, ax2,
                        doc.get("t_wait"), values, meta)
