"""Exception taxonomy shared across the package.

Two broad families matter to callers: bad inputs (parameter or domain
violations, detectable before any numerics run) and numerical failures
(an algorithm ran and could not meet its tolerance contract). The CLI
maps the first family to exit code 2 and the second to exit code 3.
"""

import cmath
import dataclasses
import functools
import math
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


SCALAR = (complex, float, int)  # point types that skip numpy; numpy's float64 and complex128 are among them


def require_points(name: str, z) -> float:
    """Largest modulus of the points z, a SCALAR or a numpy array; raises
    ParameterError unless z is a non-empty set of finite points. A modulus
    beyond the largest double counts as infinite. An array is read through
    its own methods, so this module loads no numpy."""
    if isinstance(z, SCALAR):
        radius = math.hypot(z.real, z.imag)  # abs() of a complex raises OverflowError there
    else:
        radius = float(abs(z).max()) if z.size else math.nan  # max propagates NaN
    if not math.isfinite(radius):
        raise ParameterError(f"{name} must be a non-empty set of finite points")
    return radius


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


@functools.cache
def _interval(text: str) -> tuple[bool, float, float, bool]:
    """"(0, 1]" -> (False, 0.0, 1.0, True): whether each end is closed, and
    the ends; an upper end named by a formula reads NaN, which nothing passes."""
    lo, hi = text[1:-1].split(", ")
    return text[0] == "[", float(lo), float(hi) if hi[-1].isdigit() else math.nan, text[-1] == "]"


def require_range(name: str, value, interval: str, hi: float | None = None) -> None:
    """Raise OutOfRangeError unless `value` lies in `interval`, written as the
    message reads it, such as "(0, 1]" or "[-1, 0)"; NaN never lies in it.

    `hi` is the value of an upper end the text names by a formula, as in
    "(0, 1 - alpha]".
    """
    lo_closed, lo, top, hi_closed = _interval(interval)
    if hi is not None:
        top = hi
    above = lo <= value if lo_closed else lo < value
    below = value <= top if hi_closed else value < top
    if not (above and below):
        raise OutOfRangeError(f"{name} must lie in {interval}, got {value}")


def require_map(A, B, alpha, gamma, names: str = "A B alpha gamma") -> None:
    """Check the powered, shifted map (1 - gamma)((1 + A z)/(1 + B z))^alpha + gamma:
    A != B, |B| <= 1 (the pole stays off the open unit disk), alpha in (0, 1]
    and gamma != 1. `names` gives the four parameters' names for the messages."""
    a, b, power, shift = names.split()
    A, B = complex(A), complex(B)
    if cmath.isclose(A, B, rel_tol=0.0, abs_tol=1e-12):  # abs(A - B) overflows near 1.7e308
        raise DegenerateMapError(f"{a} and {b} must differ")
    b_abs = math.hypot(B.real, B.imag)
    if b_abs > 1.0 + 1e-12:
        raise OutOfRangeError(f"|{b}| must be <= 1, got {b_abs}")
    require_range(power, alpha, "(0, 1]")
    if cmath.isclose(complex(gamma), 1.0, rel_tol=0.0, abs_tol=1e-12):
        raise OutOfRangeError(f"{shift} = 1 collapses the shifted map to a constant")


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
