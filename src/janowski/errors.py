"""Exception taxonomy shared across the package.

Two broad families matter to callers: bad inputs (parameter or domain
violations, detectable before any numerics run) and numerical failures
(an algorithm ran and could not meet its tolerance contract). The CLI
maps the first family to exit code 2 and the second to exit code 3.
"""

import cmath
import dataclasses
import operator


class JanowskiError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(JanowskiError, ValueError):
    """A precondition on the inputs is violated."""


def require_finite(params) -> None:
    """Raise ParameterError if a field of the dataclass `params` is NaN or infinite."""
    require_finite_args(type(params).__name__, **{f.name: getattr(params, f.name) for f in dataclasses.fields(params)})


def require_finite_args(owner: str, /, **args) -> None:
    """Raise ParameterError if one of the scalar arguments `args` of `owner` is NaN or infinite."""
    bad = [name for name, value in args.items() if not cmath.isfinite(complex(value))]
    if bad:
        raise ParameterError(f"{owner}: {', '.join(bad)} must be finite")


def require_index(name: str, value, lo: int, hi: int | None = None) -> int:
    """`value` as an int in [lo, hi), or in [lo, inf) when hi is None.

    Raises OutOfRangeError for an integer outside the range and for any
    non-integer, floats included even when integral: a count or seed that
    arrives as 1.5 or NaN is a caller's mistake, not something to round.
    """
    try:
        index = operator.index(value)
    except TypeError:
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}") from None
    if index < lo or (hi is not None and index >= hi):
        span = f"in [{lo}, {hi})" if hi is not None else f">= {lo}"
        raise OutOfRangeError(f"{name} must be an integer {span}, got {index}")
    return index


class DegenerateMapError(ParameterError):
    """Map parameters collapse the geometry (A = B, A = -b, and similar)."""


class PoleOnBoundaryError(ParameterError):
    """The requested circle passes through the pole of the first-order map."""


class BranchUndefinedError(ParameterError):
    """A power or argument is requested where no continuous branch exists.

    Raised when the origin is interior to the first-order image, so the
    image loops around 0 and no single-valued power can be anchored at 1.
    """


class OutOfRangeError(ParameterError):
    """A scalar parameter falls outside its admissible interval."""


class NegativeRealPartError(ParameterError):
    """A weight function fails the positive-real-part requirement."""


class ConditionFailedError(ParameterError):
    """A hypothesis inequality fails; carries the offending excess."""

    def __init__(self, message: str, excess: float = 0.0):
        super().__init__(message)
        self.excess = excess


class InvalidTheoremIdError(ParameterError):
    """Unknown trial identifier passed to the implication oracle."""


class NonCaratheodoryLambdaError(ParameterError):
    """A weight must have positive real part and value 1 at the origin."""


class NumericalError(JanowskiError):
    """An algorithm could not meet its accuracy contract."""


class NoRootError(NumericalError):
    """A bracketed solve has no root in the admissible interval."""


class NoConvergenceError(NumericalError):
    """A series or iteration exceeded its term/iteration budget."""


class QuadratureFailureError(NumericalError):
    """Quadrature hit its panel cap before the tolerance."""
