"""Radius formulas: how far one first-order class reaches into another.

The central quantity is the largest R such that a function subordinate
to the powered source map on the unit disk is subordinate to the powered
target map on |z| < R. A triangle-inequality estimate of the composed
map gives the closed form implemented by `subordination_radius`; R >= 1
is exactly the full-disk inclusion criterion of `class_inclusion`.

The starlike-radius pair solves, in closed form and independently by
bisection, the angle equation that marks where the argument bound of the
image sector hits the starlikeness threshold; the threshold power
alpha_star is the root of 2 a + (2/pi) atan(a) = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import (
    DegenerateMapError,
    NoRootError,
    NumericalError,
    OutOfRangeError,
    require_finite,
    require_finite_args,
    require_map,
    require_range,
)

# Orientation of the starlike-order chain implied by the inclusion
# criterion: with target order a1 (A = 1 - 2 a1, B = -1) and source order
# a2 (C = 1 - 2 a2, D = -1) the criterion holds iff a1 <= a2, i.e. the
# higher-order class is the smaller one. Some statements of the chain
# print the reverse orientation; the algebra here is authoritative.
INCLUSION_ORIENTATION_NOTE = (
    "starlike-order chain: the order-a2 class sits inside the order-a1 "
    "class iff a1 <= a2 (criterion algebra; reversed in some statements)"
)


@dataclass(frozen=True)
class RadiusProblem:
    """Subordination-radius instance: source (C, D, beta, delta) into target
    (A, B, alpha, gamma), each a powered, shifted first-order map. Every field
    must be finite, and each map passes the check of `JanowskiParams`:
    A != B, |B| <= 1 (the pole stays off the open disk), power in (0, 1], shift != 1."""

    A: complex
    B: complex
    alpha: float
    gamma: complex
    C: complex
    D: complex
    beta: float
    delta: complex

    def __post_init__(self):
        require_finite(self)
        require_map(self.A, self.B, self.alpha, self.gamma)
        require_map(self.C, self.D, self.beta, self.delta, "C D beta delta")


def _radius_terms(prob: RadiusProblem) -> tuple[float, float, int]:
    """(num, den, e): the radius quotient num / den, each term the printed one
    divided by 2^e |1 - gamma|^(1/alpha - 1). The printed num holds
    |1 - gamma|^(1/alpha) and den |1 - gamma|^(1/alpha - 1), so that factor
    cancels exactly and no power is formed, which would overflow or underflow
    at small alpha. (A, B) = 2^e1 (a, b) and (C, D) = 2^e2 (c, d), e = e1 + e2,
    so |A - B|, |C - D| and the cross term cannot overflow, and the power-of-two
    scale keeps every bit of a finite quotient and every verdict num >= den."""
    (A, B, e1), (C, D, e2) = _scaled_pair(prob.A, prob.B), _scaled_pair(prob.C, prob.D)
    gamma, delta = complex(prob.gamma), complex(prob.delta)
    num = math.ldexp(prob.alpha * abs(A - B) * _modulus(1.0 - gamma), -e2)
    cross = A * D * (gamma - 1.0) + B * (C * (1.0 - delta) + D * (delta - gamma))
    den = prob.beta * (math.ldexp(abs(C - D) * _modulus(delta - 1.0), -e1) + _modulus(cross))
    return num, den, e1 + e2


def _modulus(z: complex) -> float:
    """|z|, inf past the largest double, where abs() of a complex raises OverflowError."""
    return math.hypot(z.real, z.imag)


def subordination_radius(prob: RadiusProblem) -> float:
    """Radius (capped at 1) on which source-subordinate functions are
    target-subordinate: num / den of `_radius_terms`. Raises NumericalError
    when a term overflows, as at shifts near the largest double."""
    num, den, _ = _radius_terms(prob)
    if not (math.isfinite(num) and math.isfinite(den)):
        raise NumericalError("a subordination-radius term overflows a double")
    if den == 0.0:
        return 1.0
    return min(num / den, 1.0)


def class_inclusion(
    A: complex, B: complex, alpha: float, C: complex, D: complex, beta: float
) -> bool:
    """Whether every (C, D, beta)-subordinate function is (A, B, alpha)-subordinate
    on the whole disk: beta (|C - D| + |A D - B C|) <= alpha |A - B| + 1e-12, in the
    scaled `_radius_terms` at gamma = delta = 0. The arguments must be finite and
    pass the checks of `RadiusProblem`: A != B, C != D, |B|, |D| <= 1, alpha, beta in (0, 1]."""
    require_finite_args("class_inclusion", A=A, B=B, alpha=alpha, C=C, D=D, beta=beta)
    num, den, e = _radius_terms(RadiusProblem(A, B, alpha, 0.0, C, D, beta, 0.0))
    return den <= num + math.ldexp(1e-12, -e)


def _scaled_pair(A: complex, B: complex) -> tuple[complex, complex, int]:
    """(A 2^-e, B 2^-e, e) for the least e >= 0 that brings every real and
    imaginary part of A and B to at most 1 in modulus.

    A radius quotient divided through by 2^e cannot overflow in |A - B|,
    and as the scale is a power of two the quotient keeps its last bit
    wherever the unscaled one is finite."""
    A, B = complex(A), complex(B)
    m = max(abs(A.real), abs(A.imag), abs(B.real), abs(B.imag))
    e = math.frexp(m)[1] if m > 1.0 else 0
    return (
        complex(math.ldexp(A.real, -e), math.ldexp(A.imag, -e)),
        complex(math.ldexp(B.real, -e), math.ldexp(B.imag, -e)),
        e,
    )


def uralegaddi_radius(A: complex, B: complex, alpha: float, beta2: float) -> float:
    """Radius of membership in the Uralegaddi class Re(z f'/f) < beta2, beta2 > 1.

    Every argument must be finite, A != B and alpha in (0, 1]; |B| may exceed 1."""
    require_finite_args("uralegaddi_radius", A=A, B=B, alpha=alpha, beta2=beta2)
    A, B, e = _scaled_pair(A, B)
    if abs(A - B) <= math.ldexp(1e-12, -e):
        raise DegenerateMapError("A and B must differ")
    require_range("alpha", alpha, "(0, 1]")
    if beta2 <= 1.0:
        raise OutOfRangeError(f"beta2 must exceed 1, got {beta2}")
    den = math.ldexp(2.0 * (beta2 + 1.0), -e) + abs(A - B * (2.0 * beta2 - 1.0))
    return min(alpha * abs(A - B) / den, 1.0)


def reciprocal_radius(A: complex, B: complex, alpha: float, beta2: float) -> float:
    """Radius of reciprocal starlikeness Re(f/(z f')) > beta2, 0 <= beta2 < 1.

    Every argument must be finite, A != B and alpha in (0, 1]; |B| may exceed 1."""
    require_finite_args("reciprocal_radius", A=A, B=B, alpha=alpha, beta2=beta2)
    A, B, e = _scaled_pair(A, B)
    if abs(A - B) <= math.ldexp(1e-12, -e):
        raise DegenerateMapError("A and B must differ")
    require_range("alpha", alpha, "(0, 1]")
    require_range("beta2", beta2, "[0, 1)")
    den = math.ldexp(2.0 * beta2, -e) + abs(A - B * (2.0 * beta2 - 1.0))
    if den == 0.0:
        return 1.0
    return min(alpha * abs(A - B) / den, 1.0)


@functools.cache
def alpha_star() -> float:
    """Power threshold: the unique root of 2 a + (2/pi) atan(a) = 1 in (0, 1).

    Solved once, by bisection down to adjacent floats (54 halvings of
    [0, 1]), so the returned lower end lies within one ulp of the root.
    """
    f = lambda a: 2.0 * a + (2.0 / math.pi) * math.atan(a) - 1.0
    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class StarlikeRadius:
    """Radius of starlikeness with the angle theta that produced it."""

    value: float
    theta: float
    method: str


def starlike_radius(A: float, B: float, beta: float, method: str = "closed") -> StarlikeRadius:
    """Largest x with beta asin((A - B) x / (1 - A B x^2)) reaching the
    starlikeness threshold angle (1 - alpha_star) pi / 2.

    Requires A in (0, 1], B in [-1, 0) and beta >= 1 - alpha_star
    (about 0.61655), else the threshold angle is unreachable. `method`
    selects the quadratic closed form or an independent bisection on the
    angle equation; the two agree to 1e-9 and both report the smallest
    positive root.
    """
    require_finite_args("starlike_radius", A=A, B=B, beta=beta)
    require_range("A", A, "(0, 1]")
    require_range("B", B, "[-1, 0)")
    astar = alpha_star()
    if beta < (1.0 - astar) - 1e-9:
        raise OutOfRangeError(f"beta must be at least {1.0 - astar:.6f}, got {beta}")
    theta = (1.0 - astar) * math.pi / (2.0 * beta)
    s = math.sin(theta)
    # The angle map x -> (A - B) x / (1 - A B x^2) increases on (0, 1]
    # because A B < 0, so a root exists in (0, 1] iff the value at 1
    # clears s.
    if (A - B) / (1.0 - A * B) < s - 1e-14:
        raise NoRootError("threshold angle is not attained inside the disk")
    if method == "closed":
        disc = (A - B) ** 2 + 4.0 * A * B * s * s
        root = (-(A - B) + math.sqrt(max(0.0, disc))) / (2.0 * A * B * s)
        return StarlikeRadius(value=root, theta=theta, method=method)
    if method == "bisect":
        target = (1.0 - astar) * 0.5 * math.pi

        def g(x: float) -> float:
            arg = (A - B) * x / (1.0 - A * B * x * x)
            return beta * math.asin(min(1.0, arg)) - target

        lo, hi = 0.0, 1.0
        if g(hi) < 0.0:
            raise NoRootError("threshold angle is not attained inside the disk")
        while hi - lo > 1e-14:
            mid = 0.5 * (lo + hi)
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return StarlikeRadius(value=0.5 * (lo + hi), theta=theta, method=method)
    raise OutOfRangeError(f"unknown method {method!r}")
