"""Physical parameters and the unit bridge.

Conventions used throughout the package:

* frequencies, detunings and rates are wavenumbers (cm^-1),
* times and delays are femtoseconds,
* a phase exponent is a frequency times a time times ``RAD_PER_CM_FS``,
* internal kernels work in the rotating frame of the probe carrier; output
  axes are shifted onto the absolute axis by ``SystemParams.axis_offset``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping

from .errors import ParameterError, Violation
from .grids import finite, integral

#: radians accumulated per (cm^-1 * fs): 2*pi*c with c = 2.99792458e-5 cm/fs
RAD_PER_CM_FS = 2.0 * math.pi * 2.99792458e-5


@dataclass(frozen=True)
class SystemParams:
    """Immutable, validated parameter set consumed by every kernel.

    ``delta_x`` is the dressed exciton detuning in the rotating frame (the
    vibronic shift is already folded in, so it is taken as a direct input and
    never recomputed from a bare detuning).  ``omega_ref`` pins the absolute
    exciton frequency so spectra can be reported on an absolute axis.
    """

    n_molecules: int
    g: float            # single-molecule coupling; collective splitting is 2*g*sqrt(N)
    delta_x: float      # dressed exciton detuning, rotating frame
    delta_c: float      # cavity detuning
    gamma_x: float      # exciton dephasing/decay
    gamma_c: float      # cavity leakage
    omega_v: float      # vibrational frequency
    gamma_v: float      # vibrational damping
    lambda_hr: float    # dimensionless displacement; Huang-Rhys factor is lambda_hr**2
    omega_ref: float    # absolute exciton frequency (axis offset anchor)
    dipole: float = 1.0
    phase: float = 0.0  # global four-pulse phase, radians

    @property
    def collective_coupling(self) -> float:
        """g*sqrt(N), half the Rabi splitting."""
        return self.g * math.sqrt(self.n_molecules)

    @property
    def axis_offset(self) -> float:
        """Shift mapping rotating-frame frequencies onto the absolute axis."""
        return self.omega_ref - self.delta_x


_DEFAULTS = {"delta_x": 0.0, "delta_c": 0.0, "dipole": 1.0, "phase": 0.0}
_FIELD_NAMES = tuple(f.name for f in fields(SystemParams))


def validate_params(raw: Mapping) -> SystemParams:
    """Build a :class:`SystemParams` from a plain mapping.

    Missing optional fields take their documented defaults (``delta_x=0``,
    ``delta_c=0``, ``dipole=1``, ``phase=0``).  Every violated invariant is
    collected; the raised :class:`ParameterError` lists all of them.  Unknown
    keys are a hard error so typos in physics parameters cannot pass silently.
    """
    violations: list[Violation] = []
    for key in raw:
        if key not in _FIELD_NAMES:
            violations.append(Violation("UnknownField", key, "not a model parameter"))

    values = {}
    for name in _FIELD_NAMES:
        if name in raw:
            values[name] = raw[name]
        elif name in _DEFAULTS:
            values[name] = _DEFAULTS[name]
        else:
            violations.append(Violation("MissingField", name, "required parameter absent"))
    if violations:
        raise ParameterError(violations)

    n_raw = values["n_molecules"]
    n = integral(n_raw)
    if n is None or n < 1 or finite(n) is None:
        n = -1
        violations.append(Violation("NegativeCount", "n_molecules",
                                    f"need an integer >= 1 within the float range, got {n_raw!r}"))
    floats = {name: finite(values[name]) for name in _FIELD_NAMES if name != "n_molecules"}
    for name, number in floats.items():
        if number is None:   # reported here; as nan, the checks below pass it over
            floats[name] = math.nan
            violations.append(Violation("NonFinite", name, f"must be a finite number, got {values[name]!r}"))

    for name in ("gamma_x", "gamma_c", "gamma_v", "omega_v"):
        if math.isfinite(floats[name]) and floats[name] <= 0.0:
            violations.append(Violation("NonPositiveRate", name, f"must be > 0, got {floats[name]}"))
    if math.isfinite(floats["dipole"]) and floats["dipole"] <= 0.0:
        violations.append(Violation("NonPositiveRate", "dipole", f"must be > 0, got {floats['dipole']}"))
    if math.isfinite(floats["lambda_hr"]) and floats["lambda_hr"] < 0.0:
        violations.append(Violation("NonPositiveRate", "lambda_hr", f"must be >= 0, got {floats['lambda_hr']}"))
    if n >= 1 and math.isfinite(floats["g"]) and not math.isfinite(2.0 * floats["g"] * math.sqrt(n)):
        violations.append(Violation("NonFinite", "g", "Rabi splitting 2*g*sqrt(N) overflows"))
    try:
        floats["dipole"] ** 4   # the prefactor of the 2D and pump-probe signals
    except OverflowError:       # nan ** 4 and inf ** 4 do not raise: they are reported above
        violations.append(Violation("NonFinite", "dipole", "dipole**4 overflows"))

    if violations:
        raise ParameterError(violations)
    return SystemParams(n_molecules=n, **floats)
