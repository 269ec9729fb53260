"""Exception and warning types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class PolaritonError(Exception):
    """Base class for all package errors."""


@dataclass(frozen=True)
class Violation:
    """One violated parameter invariant."""

    kind: str       # NonPositiveRate | NegativeCount | NonFinite | MissingField | UnknownField
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}({self.field}): {self.message}"


class ParameterError(PolaritonError, ValueError):
    """Raised with the full list of violated invariants, not just the first."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class DegenerateBright(PolaritonError, ArithmeticError):
    """The two bright eigenvalues coincide; no perturbation is attempted."""


class BrightRateOutOfRange(PolaritonError, ArithmeticError):
    """A computed bright decay rate lies outside [min, max] of gamma_x and gamma_c."""


class NegativeTime(PolaritonError, ValueError):
    """Propagation requested for t < 0."""


class NegativeWaitingTime(NegativeTime):
    """Waiting time between pump and probe must be nonnegative."""


class DivergentTransform(PolaritonError, ArithmeticError):
    """Half-line Fourier transform evaluated outside its convergence domain."""


class TooLarge(PolaritonError, ValueError):
    """Brute-force oracle requested beyond its intended size limit."""


class NonFiniteResult(PolaritonError, ArithmeticError):
    """A computed spectrum or report holds a NaN or an infinity; it is not written."""


class MalformedGrid(PolaritonError, ValueError):
    """Spectrum grid file cannot be parsed."""


class TruncationWarning(UserWarning):
    """Truncated Fock space leaked weight into its highest levels."""
