"""Sector parameters for argument-transfer criteria.

A map confined to the sector |arg w - c| < s transfers control between a
function and its derivative quotient. The calculators here produce the
sector exponents mu_1 (lower edge) and mu_2 (upper edge) for two such
criteria, normalized so the admissible sector of the hypothesis dominant
((1 + e^{i mu pi} z)/(1 - z))^delta is exactly
[-mu_1 pi / 2, mu_2 pi / 2] with delta = (mu_1 + mu_2)/2 and tilt
mu = (mu_2 - mu_1)/(mu_1 + mu_2). The sector of that dominant itself
(`sector_image`), the tilt of a half-plane bound (`tilt_angle`) and the
nesting of powered images (`alpha_nesting`) are closed forms here too.

All angles are radians; inputs named `m` and `l` are angles in units of
pi (the usual parametrization of tilted sector maps).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    DegenerateMapError,
    NegativeRealPartError,
    OutOfRangeError,
    require_finite_args,
    require_range,
)


@dataclass(frozen=True)
class SectorImage:
    """Argument range of ((1 + e^{i m pi} z)/(1 - z))^a over the unit disk."""

    lo: float
    hi: float
    half_plane_tilt: float


def sector_image(alpha: float, m: float) -> SectorImage:
    """The powered tilted half-plane map covers the sector
    (-alpha (1 - m) pi / 2, alpha (1 + m) pi / 2); its 1/alpha-th root
    fills the rotated half-plane Re(e^{-i m pi / 2} w) > 0."""
    require_range("alpha", alpha, "(0, 1]")
    require_range("m", m, "(-1, 1)")
    return SectorImage(
        lo=-alpha * (1.0 - m) * 0.5 * math.pi,
        hi=alpha * (1.0 + m) * 0.5 * math.pi,
        half_plane_tilt=0.5 * m * math.pi,
    )


def tilt_angle(b: float, m: float) -> float:
    """Tilt lambda with Re(e^{-i lambda} h) > 0 for h subordinate to
    (1 + e^{i m pi} z)/(1 - b z); lambda = arg(1 + b e^{i m pi})."""
    require_finite_args("tilt_angle", b=b, m=m)
    require_range("b", b, "[0, 1]")
    require_range("m", m, "[-1, 1]")
    a = cmath.exp(1j * math.pi * m)
    if abs(b + a) <= 1e-12:
        raise DegenerateMapError("b + e^{i m pi} = 0 leaves no half-plane")
    return math.atan2(b * math.sin(math.pi * m), b * math.cos(math.pi * m) + 1.0)


def alpha_nesting(A: complex, B: complex, a1: float, a2: float) -> bool:
    """Whether the power-a1 image nests in the power-a2 image (true iff a1 <= a2).

    Valid for |A| <= 1, |B| <= 1, where the powered images grow with the
    exponent and the maps stay subordination-comparable.
    """
    require_finite_args("alpha_nesting", A=A, B=B)
    if abs(A) > 1.0 + 1e-12 or abs(B) > 1.0 + 1e-12:
        raise OutOfRangeError("nesting requires |A| <= 1 and |B| <= 1")
    for a in (a1, a2):
        require_range("powers", a, "(0, 1]")
    return a1 <= a2 + 1e-12


@dataclass(frozen=True)
class SectorParams:
    """Edges mu_1/mu_2 of an admissible hypothesis sector.

    `delta` is the dominant exponent (mu_1 + mu_2)/2, `mu` the tilt
    (mu_2 - mu_1)/(mu_1 + mu_2), and `a_mag` the modulus |tan(m pi / 4)|
    of the auxiliary point driving the edge correction. `beta0` is the
    smallest admissible weight for the weighted-product criterion and
    `eta` echoes the weight floor it was computed with.
    """

    mu1: float
    mu2: float
    mu: float
    delta: float
    a_mag: float
    beta0: float = 0.0
    eta: float | None = None


def _edges(mu1: float, mu2: float, a_mag: float, **extra) -> SectorParams:
    """The SectorParams of edges mu1, mu2: delta = (mu1 + mu2)/2, tilt mu = (mu2 - mu1)/(mu1 + mu2)."""
    return SectorParams(mu1=mu1, mu2=mu2, mu=(mu2 - mu1) / (mu1 + mu2), delta=0.5 * (mu1 + mu2), a_mag=a_mag, **extra)


def _edge_pair(alpha: float, m: float, atan1: float, atan2: float) -> tuple[float, float]:
    mu1 = 1.0 - m + (2.0 / (alpha * math.pi)) * atan1
    mu2 = 1.0 + m + (2.0 / (alpha * math.pi)) * atan2
    return mu1, mu2


def ratio_sector_params(alpha: float, m: float, beta: float, arg_ratio: float) -> SectorParams:
    """Sector edges for the derivative-quotient transfer criterion.

    `beta` is a lower bound on |g/(z g')| and `arg_ratio` the bound on
    arg(g/(z g')) supplied by the caller; both tighten the admissible
    sector of f'/g' that still forces f/g into the target sector
    [-alpha (1 - m) pi / 2, alpha (1 + m) pi / 2].
    """
    require_range("alpha", alpha, "(0, 1]")
    require_range("m", m, "[-1, 1)")
    require_range("beta", beta, "(0, 1]")
    if not -0.5 * math.pi < arg_ratio < 0.5 * math.pi:
        raise OutOfRangeError("arg_ratio must lie in (-pi/2, pi/2)")
    a_mag = abs(math.tan(0.25 * math.pi * m))
    c = alpha * beta * (1.0 - a_mag)
    num = c * math.cos(arg_ratio)
    den1 = 1.0 + a_mag + c * math.sin(arg_ratio)
    den2 = 1.0 + a_mag - c * math.sin(arg_ratio)
    if den1 <= 0.0 or den2 <= 0.0:
        raise OutOfRangeError("edge correction denominator is not positive")
    return _edges(*_edge_pair(alpha, m, math.atan2(num, den1), math.atan2(num, den2)), a_mag)


def derivative_sector_params(alpha: float, m: float) -> tuple[SectorParams, float]:
    """Specialized edges for g(z) = z, plus the raw bound on |arg(z f'/f)|.

    With the identity denominator the quotient bound is exact (beta = 1,
    zero argument) and the transferred sector yields
    |arg(z f'/f)| < alpha pi + atan(alpha (1 - a_mag)/(1 + a_mag)).
    """
    params = ratio_sector_params(alpha, m, beta=1.0, arg_ratio=0.0)
    arg_bound = alpha * math.pi + math.atan2(
        alpha * (1.0 - params.a_mag), 1.0 + params.a_mag
    )
    return params, arg_bound


def weighted_sector_params(
    alpha: float, beta: float, gamma: float, m: float, eta: float
) -> SectorParams:
    """Sector edges for the weighted-product criterion p^alpha (1 + lam z p'/p)^gamma.

    `eta` is a weight floor certified by `eta_infimum` (or any smaller
    nonnegative value). The smallest admissible beta is
    beta0 = max(0, -2 gamma atan(eta) / (alpha pi (1 - m))).
    """
    require_finite_args("weighted_sector_params", alpha=alpha, beta=beta, eta=eta)
    if alpha <= 0.0:
        raise OutOfRangeError(f"alpha must be positive, got {alpha}")
    require_range("gamma", gamma, "[0, 1]")
    require_range("m", m, "[-1, 1)")
    if eta < 0.0:
        raise OutOfRangeError(f"eta must be nonnegative, got {eta}")
    corr = (2.0 * gamma / math.pi) * math.atan(eta)
    beta0 = max(0.0, -corr / (alpha * (1.0 - m)))
    if beta <= beta0:
        raise OutOfRangeError(f"beta must exceed beta0 = {beta0}")
    mu1, mu2 = alpha * beta * (1.0 - m) + corr, alpha * beta * (1.0 + m) + corr
    return _edges(mu1, mu2, abs(math.tan(0.25 * math.pi * m)), beta0=beta0, eta=eta)


def eta_infimum(a: complex, c: complex, beta: float) -> float:
    """Infimum over the disk of g = beta Re(lam) / (1 + beta |Im lam|) for the weight lam = a + c z.

    The image is the disk |lam - a| <= |c| in Re lam >= 0. On Im lam >= 0,
    g = cot arg(lam + i/beta) with the argument in (0, pi/2], least where it is
    largest: at the tangent point T = a + i|c| e^{i phi}, phi = arg(a + i/beta) +
    asin(|c| / |a + i/beta|), seen from the pole -i/beta. If T falls below the
    axis, g(T) with |Im T| is smaller still, so g(T) bounds g on that half either
    way; g is even in Im lam, and the tangent point of conj(a) bounds the other
    half. Both points lie in the disk, so the smaller value is the infimum. With
    c = 0, T is a. Re a < |c| raises NegativeRealPartError.
    """
    require_finite_args("eta_infimum", a=a, c=c, beta=beta)
    if beta <= 0.0:
        raise OutOfRangeError(f"beta must be positive, got {beta}")
    a, rho = complex(a), abs(c)
    if a.real < rho:
        raise NegativeRealPartError(f"weight a + c z has negative real part: Re a = {a.real} < |c| = {rho}")
    values = []
    for b in (a, a.conjugate()):
        d = b + 1j / beta
        phi = cmath.phase(d) + math.asin(rho / abs(d)) if rho else 0.0  # c = 0 gives T = a, which may be the pole
        w = b + 1j * cmath.rect(rho, phi)
        values.append(beta * w.real / (1.0 + beta * abs(w.imag)))
    return min(values)


def reciprocal_order_sector(alpha: float, beta: float) -> float:
    """Sector parameter delta = (2/pi) asin(beta/(1 - alpha)) of the
    reciprocal-order conclusion; requires beta <= 1 - alpha."""
    require_range("alpha", alpha, "[0, 1)")
    require_range("beta", beta, "(0, 1 - alpha]", hi=1.0 - alpha)
    return (2.0 / math.pi) * math.asin(beta / (1.0 - alpha))


@dataclass(frozen=True)
class TiltReport:
    """Combined tilt of a two-sided subordination sandwich."""

    mu: float
    gamma: float
    holds: bool
    excess: float


def _half_tilt(x: float, y: float, cos_angle: float) -> float:
    num = x * x + y * y + 2.0 * x * y * cos_angle
    den = 1.0 + x * x * y * y + 2.0 * x * y * cos_angle
    return math.asin(math.sqrt(min(1.0, max(0.0, num / den))))


def double_subordination_tilt(
    a: float,
    b: float,
    c: float,
    d: float,
    l: float,
    m: float,
    alpha: float,
) -> TiltReport:
    """Total argument spread mu and tilt exponent gamma when a function is
    sandwiched between two tilted first-order maps.

    The sandwich forces |arg| <= mu; the conclusion needs mu <= alpha pi/2.
    The report says whether that holds and gives the excess mu - alpha pi / 2.
    """
    for name, val in (("a", a), ("b", b), ("c", c), ("d", d)):
        require_range(name, val, "[0, 1]")
    for name, val in (("l", l), ("m", m)):
        require_range(name, val, "[-1, 1]")
    require_finite_args("double_subordination_tilt", alpha=alpha)
    if alpha <= 0.0:
        raise OutOfRangeError(f"alpha must be positive, got {alpha}")
    cos_m, cos_l = math.cos(math.pi * m), math.cos(math.pi * l)
    if c * d * cos_m + 1.0 <= 0.0 or a * b * cos_l + 1.0 <= 0.0:
        raise DegenerateMapError("tilt denominator vanishes")
    mu = _half_tilt(c, d, cos_m) + _half_tilt(a, b, cos_l)
    big_a = c * d * math.sin(math.pi * m) / (c * d * cos_m + 1.0)
    big_b = a * b * math.sin(math.pi * l) / (a * b * cos_l + 1.0)
    gamma = (math.atan(big_a) - math.atan(big_b)) / mu if mu > 0.0 else 0.0
    excess = mu - 0.5 * alpha * math.pi
    return TiltReport(mu=mu, gamma=gamma, holds=excess <= 1e-12, excess=excess)
