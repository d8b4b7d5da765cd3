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
    at small alpha. (A, B) = 2^e1 (a, b), (C, D) = 2^e2 (c, d) and
    (gamma, delta) = 2^g (gamma', delta'), e = e1 + e2 + g, so 1 - gamma,
    1 - delta and delta - gamma enter as (2^-g - gamma') 2^g and so on, and
    no difference, modulus or cross term can overflow; the power-of-two
    scale keeps every bit of a finite quotient and every verdict num >= den."""
    (A, B, e1), (C, D, e2) = _scaled_pair(prob.A, prob.B), _scaled_pair(prob.C, prob.D)
    gamma, delta, g = _scaled_pair(prob.gamma, prob.delta)
    one = math.ldexp(1.0, -g)
    u, v, w = one - gamma, one - delta, delta - gamma
    num = math.ldexp(prob.alpha * abs(A - B) * _modulus(u), -e2)
    cross = -A * D * u + B * (C * v + D * w)
    den = prob.beta * (math.ldexp(abs(C - D) * _modulus(v), -e1) + _modulus(cross))
    return num, den, e1 + e2 + g


def _modulus(z: complex) -> float:
    """|z| by math.hypot, whose last bit can differ from that of abs() of a
    complex; the radius terms keep its rounding."""
    return math.hypot(z.real, z.imag)


def subordination_radius(prob: RadiusProblem) -> float:
    """Radius (capped at 1) on which source-subordinate functions are
    target-subordinate: num / den of `_radius_terms`, finite for every
    admitted problem, shifts near the largest double included."""
    num, den, _ = _radius_terms(prob)
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


def silverman_inclusion(A: complex, b: float, alpha: float, beta: float) -> bool:
    """Coefficient criterion placing the operator class inside the bounded-
    turning class: beta (1+b)^(alpha-1) (1+|A|)^(alpha+1) <= alpha |A + b|."""
    require_finite_args("silverman_inclusion", A=A, b=b, alpha=alpha, beta=beta)
    A = complex(A)
    require_range("b", b, "[0, 1]")
    require_range("alpha", alpha, "(0, 1]")
    if beta <= 0.0:
        raise OutOfRangeError(f"beta must be positive, got {beta}")
    # Both sides divided by s = max(1, |Re A|, |Im A|), so that no power or
    # modulus overflows for huge A; at s = 1 this is the printed inequality
    # to the last bit.
    s = max(1.0, abs(A.real), abs(A.imag))
    a = A / s
    gap = abs(a + b / s)  # |A + b| / s
    if gap < 1e-14 / s:
        raise DegenerateMapError("A + b = 0 leaves the criterion vacuous")
    lhs = beta * (1.0 + b) ** (alpha - 1.0) * s**alpha * (1.0 / s + abs(a)) ** (alpha + 1.0)
    return lhs <= alpha * gap + 1e-12 / s


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


def _checked_pair(name: str, A: complex, B: complex, alpha: float, beta2: float) -> tuple[complex, complex, int]:
    """`_scaled_pair`(A, B) once every argument is finite, A != B and alpha in (0, 1]."""
    require_finite_args(name, A=A, B=B, alpha=alpha, beta2=beta2)
    A, B, e = _scaled_pair(A, B)
    if abs(A - B) <= math.ldexp(1e-12, -e):
        raise DegenerateMapError("A and B must differ")
    require_range("alpha", alpha, "(0, 1]")
    return A, B, e


def uralegaddi_radius(A: complex, B: complex, alpha: float, beta2: float) -> float:
    """Radius of membership in the Uralegaddi class Re(z f'/f) < beta2, beta2 > 1.

    Every argument must be finite, A != B and alpha in (0, 1]; |B| may exceed 1."""
    A, B, e = _checked_pair("uralegaddi_radius", A, B, alpha, beta2)
    if beta2 <= 1.0:
        raise OutOfRangeError(f"beta2 must exceed 1, got {beta2}")
    den = math.ldexp(2.0 * (beta2 + 1.0), -e) + abs(A - B * (2.0 * beta2 - 1.0))
    return min(alpha * abs(A - B) / den, 1.0)


def reciprocal_radius(A: complex, B: complex, alpha: float, beta2: float) -> float:
    """Radius of reciprocal starlikeness Re(f/(z f')) > beta2, 0 <= beta2 < 1.

    Every argument must be finite, A != B and alpha in (0, 1]; |B| may exceed 1."""
    A, B, e = _checked_pair("reciprocal_radius", A, B, alpha, beta2)
    require_range("beta2", beta2, "[0, 1)")
    den = math.ldexp(2.0 * beta2, -e) + abs(A - B * (2.0 * beta2 - 1.0))
    if den == 0.0:
        return 1.0
    return min(alpha * abs(A - B) / den, 1.0)


def _bisect(f) -> float:
    """Of the adjacent floats lo < hi, f(lo) <= 0 < f(hi), that halving [0, 1]
    leaves, the one with the smaller |f| (an unevaluated end loses): within one
    ulp of the root of an increasing f with f(0) <= 0 < f(1), however small."""
    lo, hi, f_lo, f_hi = 0.0, 1.0, -math.inf, math.inf
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if (f_mid := f(mid)) <= 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if -f_lo <= f_hi else hi


@functools.cache
def alpha_star() -> float:
    """Power threshold: the unique root of 2 a + (2/pi) atan(a) = 1 in (0, 1),
    solved once by `_bisect` (54 halvings), so within one ulp of the root."""
    return _bisect(lambda a: 2.0 * a + (2.0 / math.pi) * math.atan(a) - 1.0)


def macgregor_gamma(beta: float) -> float:
    """Order of starlikeness guaranteed by Re f' > beta on the disk:
    (1 - 2 beta) / (2 (2^(1 - 2 beta) - 1)), continued by 1/(2 ln 2) at
    beta = 1/2."""
    require_range("beta", beta, "[0, 1)")
    u = 1.0 - 2.0 * beta
    if u == 0.0:
        return 1.0 / (2.0 * math.log(2.0))
    if abs(u) >= 0.25:
        # 2.0 ** u is correctly rounded here and keeps beta = 0 exactly 1/2.
        return u / (2.0 * (2.0 ** u - 1.0))
    return u / (2.0 * math.expm1(u * math.log(2.0)))


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
    selects the quadratic closed form, taken by its conjugate root, or an
    independent `_bisect` of the angle equation; both report the smallest
    positive root within a few ulps, for every finite beta.
    """
    require_finite_args("starlike_radius", A=A, B=B, beta=beta)
    require_range("A", A, "(0, 1]")
    require_range("B", B, "[-1, 0)")
    astar = alpha_star()
    if beta < (1.0 - astar) - 1e-9:
        raise OutOfRangeError(f"beta must be at least {1.0 - astar:.6f}, got {beta}")
    target = (1.0 - astar) * math.pi * 0.5
    theta = target / beta  # the bits of target / (2 beta) / 2 wherever 2 beta is finite
    s = math.sin(theta)
    # The angle map x -> (A - B) x / (1 - A B x^2) increases on (0, 1] because
    # A B < 0, so a root exists in (0, 1] iff the value at 1 clears s.
    if (A - B) / (1.0 - A * B) < s - 1e-14:
        raise NoRootError("threshold angle is not attained inside the disk")
    if method == "closed":
        # the conjugate of (-(A - B) + sqrt(disc)) / (2 A B s), which cancels at small s
        root = 2.0 * s / ((A - B) + math.sqrt(max(0.0, (A - B) ** 2 + 4.0 * A * B * s * s)))
        return StarlikeRadius(value=root, theta=theta, method=method)
    if method == "bisect":

        def g(x: float) -> float:
            arg = (A - B) * x / (1.0 - A * B * x * x)
            return beta * math.asin(min(1.0, arg)) - target

        if g(1.0) < 0.0:
            raise NoRootError("threshold angle is not attained inside the disk")
        return StarlikeRadius(value=_bisect(g), theta=theta, method=method)
    raise OutOfRangeError(f"unknown method {method!r}")
