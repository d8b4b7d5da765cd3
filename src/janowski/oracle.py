"""Randomized cross-checks for the subordination machinery.

Everything here argues from samples, never from symbols: random Schwarz
polynomials generate test functions, boundary grids estimate suprema, and
the inverse of the powered bilinear map (or a winding count, when the
comparison function is not univalent) decides membership questions.

Honesty conventions used throughout:

* ``hypothesis_holds`` is a conservative claim.  A trial only asserts the
  hypothesis after the sampled evidence clears an interior safety margin;
  anything ambiguous (branch-cut grazing, pole proximity, tiny margins)
  is reported as ``False`` so that a sound implication can never be
  blamed on a shaky premise.
* ``conclusion_holds`` is checked independently of how the test function
  was built, via the inverse map of the claimed dominant.
* Reports are plain data with one-line JSON serialization so long runs
  can be streamed and audited.

Winding containment (the poly-mode T5.7 and C5.12 trials, against a dominant
that need not be univalent) counts signed crossings of each sample's ray.
Each table row's 4096-point dominant curve is cached with an inscribed disk:
centred at the curve's mean, its radius is (1 - 1e-9) times the least distance
from the centre to an edge, less 4e-12, and its flag is the centre's crossing
count. A sample strictly inside that disk cannot be separated from the centre
by the curve, so it takes the centre's flag; only the others, NaN samples
among them, are counted. The flags are those of the full count, and the
disk takes 98 % of the 2048 samples of a trial over odd seeds 1-399 (71 %
at the least), which halves the cost of these trials.

Trial contract: a trial is a function of its seed alone.  The seed picks
the trial's parameters from fixed tables and its test function through
`_effective_schwarz`; the trial returns only its evidence, the tuple
(hypothesis, conclusion, margin, detail).  `implication_trial` checks the
seed, records the sampling mode in `detail` and builds the one
`TrialReport`, so a report depends only on (theorem id, seed).
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from ._json import jsonable
from .envelope import (
    _NO_ARG_FLOOR,
    BoundReport,
    ShiftedView,
    _circle_geometry,
    _curve_blocks,
    _invert_normalized,
    _power,
    _powers,
    _unit_circle,
    sector_image,
    tilt_angle,
)
from .errors import (
    BranchUndefinedError,
    InvalidTheoremIdError,
    OutOfRangeError,
    ParameterError,
    require_finite_args,
    require_index,
    require_range,
)
from .moebius import JanowskiParams, image_disk
from .sectors import eta_infimum, ratio_sector_params, reciprocal_order_sector, weighted_sector_params
from .special import DominantSpec, operator_dominant, silverman_inclusion

_HEADROOM = 1.0 - 1e-6
_N_SAMPLES = 4096  # unit-grid points on which a trial samples its test function
_SAFETY = 1e-5  # interior margin a sampled supremum must clear before a claim
_SEED_END = 2**64  # seeds are Philox key words, integers in [0, 2^64)
_STRIDES = (256, 16)  # subgrid strides of the two screen levels; a window reaches stride / 2 steps each way
_ROUNDING = 1e-12  # relative bound on the rounding of a computed sample, far above the 2e-15 measured


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream) pair.  The key is built
    as uint64 so that every seed below 2^64 gets its own key; a plain list
    would pass through float64 and merge seeds above 2^53.  numpy.random
    is imported here, by the first trial, so the CLI starts without it."""
    from numpy.random import Generator, Philox

    return Generator(Philox(key=np.array([seed, stream], dtype=np.uint64)))


@functools.lru_cache(maxsize=4)
def _uniforms(seed: int, stream: int) -> tuple[float, float]:
    """The first two draws of `_rng(seed, stream)`, once per seed: a generator costs more to build than to run."""
    return tuple(_rng(seed, stream).random(2))


# ---------------------------------------------------------------------------
# Schwarz polynomials


@dataclass(frozen=True)
class SchwarzPoly:
    """Polynomial Schwarz function w(z) = scale * z * sum_k c_k z^k.

    `coefficients` holds the unnormalized c_k; `scale` absorbs the
    normalization that pins the boundary supremum strictly below 1, checked on a
    4096-point grid only where the bound scale * sum |c_k| reaches 1.
    """

    coefficients: tuple[complex, ...]
    scale: float

    def __post_init__(self):
        coefs = {f"coefficients[{k}]": c for k, c in enumerate(self.coefficients)}
        require_finite_args("SchwarzPoly", scale=self.scale, **coefs)
        if not self.coefficients:
            raise ParameterError("at least one coefficient is required")
        if len(self.coefficients) > 16:
            raise OutOfRangeError("degree above 16 is not supported")
        if not 0.0 < self.scale:
            raise OutOfRangeError(f"scale must be positive, got {self.scale}")
        if self.scale * math.fsum(map(abs, self.coefficients)) * (1.0 + 2.0**-40) < 1.0:
            return  # |w| <= scale * sum |c_k| on the closed disk, certified past rounding
        sup = float(np.abs(self.value(_unit_circle(4096))).max())
        if sup >= 1.0:
            raise ParameterError(f"not a Schwarz function: boundary modulus reaches {sup}")

    @classmethod
    def scaled_identity(cls, c: complex) -> "SchwarzPoly":
        """The rotation-dilation w(z) = c z for 0 < |c| < 1."""
        mag = abs(c)
        require_range("|c|", mag, "(0, 1)")
        return cls((c / mag,), mag)

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    @property
    def linear_coefficient(self) -> complex | None:
        """c with w(z) = c z when the polynomial is linear, else None."""
        if len(self.coefficients) == 1:
            return self.scale * self.coefficients[0]
        return None

    def value(self, z):
        zz = np.asarray(z, dtype=complex)
        out = self._value(zz, self._poly(zz))
        return complex(out) if out.ndim == 0 else out

    def deriv(self, z):
        zz = np.asarray(z, dtype=complex)
        out = self._deriv(zz, self._poly(zz))
        return complex(out) if out.ndim == 0 else out

    def _poly(self, zz: np.ndarray) -> np.ndarray:
        """p(z) = sum_k c_k z^k, the one polynomial that value and deriv share."""
        return _horner(zz, self.coefficients)

    def _value(self, zz: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self.scale * zz * p

    def _deriv(self, zz: np.ndarray, p: np.ndarray) -> np.ndarray:
        coef = self.coefficients
        dp = _horner(zz, [k * c for k, c in enumerate(coef) if k]) if len(coef) > 1 else np.zeros_like(zz)
        return self.scale * (p + zz * dp)

    def dilated(self, rho: float) -> "SchwarzPoly":
        """Precompose with z -> rho z, pulling the image into |w| <= rho."""
        require_range("rho", rho, "(0, 1]")
        coef = tuple(c * rho**k for k, c in enumerate(self.coefficients))
        return SchwarzPoly(coef, self.scale * rho)


def _horner(x: np.ndarray, coef) -> np.ndarray:
    """sum_k coef_k x^k by Horner's rule in place, out *= x; out += coef_k: the
    bits of numpy's polyval, whose c_k + out * x differs only in the order of
    an addition, which commutes."""
    out = np.full(np.shape(x), coef[-1], dtype=complex)
    for c in coef[-2::-1]:
        out *= x
        out += c
    return out


def random_schwarz(seed: int, degree: int) -> SchwarzPoly:
    """Seeded random Schwarz polynomial of the given degree (1..16).

    Coefficients are drawn from the unit square via a counter-based
    generator, then rescaled so the boundary supremum is 1 - 1e-6.  The
    rescaling grid has 65536 points: every diagnostic grid used elsewhere
    divides it, and for trigonometric degree <= 16 the true supremum
    exceeds the grid maximum by less than a 1e-7 relative factor, so the
    normalized polynomial is rigorously Schwarz.  Degree 1 is the
    deterministic near-identity w(z) = (1 - 1e-6) z. The peak is screened
    by `_screened_peak`. Draws are shared, keyed by (seed, degree), through an
    LRU cache of 128, which holds criterion 7's 25 odd seeds run id-major;
    `verify` runs seed-major, so the ids of a seed draw once for any --seeds.
    """
    return _draw(require_index("seed", seed, 0, _SEED_END), require_index("degree", degree, 1, 17))


@functools.lru_cache(maxsize=128)
def _draw(seed: int, degree: int) -> SchwarzPoly:
    if degree == 1:
        return SchwarzPoly((1.0 + 0.0j,), _HEADROOM)
    rng = _rng(seed, 0)
    raw = rng.random((degree, 2))
    coef = raw[:, 0] + 1j * raw[:, 1]
    peak = _screened_peak(_unit_circle(65536), coef)
    if peak < 1e-12:
        return SchwarzPoly((1.0 + 0.0j,), _HEADROOM)
    return SchwarzPoly(tuple(coef), _HEADROOM / peak)


def _screened_peak(z: np.ndarray, coef: np.ndarray) -> float:
    """Largest |T| over the unit grid z, T(z) = z sum_k coef_k z^k. Only the
    samples `_screen` keeps are formed, as `_horner`(z, coef) times z in place,
    the order of the whole grid's elided z * polyval(z, coef); they keep their
    grid bits, so the result is the whole grid's maximum, the same float.

    T at z = e^{it} has degree d = len(coef), and V = z^{-(d//2 + 1)} T degree
    h = d // 2 with |V| = |T| <= S = sum |coef_k|, so by Bernstein |T| moves by
    at most h S rho within reach rho of t_j. (A second-order bound needs a
    second polynomial per level, which costs more than the samples it saves.)
    """
    size, h = float(np.abs(coef).sum()), coef.size // 2
    tiny = _ROUNDING * size

    def modulus(zk):
        v = _horner(zk, coef)
        return np.abs(np.multiply(v, zk, out=v))

    def bounds(j, half):
        T = modulus(z[j])
        return [(T - tiny, T + h * size * half * (2.0 * np.pi / z.size) + 2.0 * tiny)]

    return float(modulus(z[_screen(z.size, bounds)]).max())


def _screen(n: int, bounds) -> np.ndarray:
    """Sorted indices k < n of the samples that can hold the maximum of one of
    the quantities described by `bounds`, screened in two levels.

    `bounds(j, half)` takes subgrid indices j and returns a pair (low, high)
    of arrays per quantity: low_j is at most the grid sample at j, and high_j
    at least every grid sample within half steps of j (mod n). Pass -f for a
    minimum of f. Level 1 takes every 256th index with windows of +-128
    samples, level 2 the centres j + 16 i, i = -8 ... 8 (mod n), of each
    level-1 window that can hold a maximum, with windows of +-8 samples. A
    window can hold one unless its high lies below the largest low; a NaN
    keeps it.
    """
    centres = np.arange(0, n, _STRIDES[0])
    for stride, sub in zip(_STRIDES, _STRIDES[1:] + (1,)):
        half = stride // 2
        near = np.logical_or.reduce([~(high < low.max()) for low, high in bounds(centres, half)])
        kids = np.sort((centres[near][:, None] + np.arange(-half, half + 1, sub)) % n, axis=None)
        centres = kids[np.concatenate(([True], kids[1:] != kids[:-1]))]
    return centres


@functools.lru_cache(maxsize=4)
def _effective_schwarz(
    seed: int, rho: float, c_max: float, n: int = _N_SAMPLES, radii: tuple[float, ...] = (1.0,)
) -> tuple[SchwarzPoly, np.ndarray, np.ndarray, np.ndarray]:
    """Trial test function with its read-only samples (omega, z, omega(z), z omega'(z))
    on n points of each circle |z| = r, r in radii, shared by the trials of a seed
    that pass equal arguments (T3.3 and T5.4, T5.7 and C5.12).  Even seeds take a
    rotation-dilation (exact identities available), odd seeds a dilated polynomial."""
    u, v = _uniforms(seed, 2)
    if seed % 2 == 0:
        c = c_max * (0.25 + 0.75 * u) * cmath.exp(2j * math.pi * v)
        omega = SchwarzPoly.scaled_identity(c)
    else:
        degree = 2 + int(u * 12.0)
        omega = random_schwarz(seed, degree).dilated(rho)
    z = _unit_circle(n) if radii == (1.0,) else np.concatenate([r * _unit_circle(n) for r in radii])
    p = omega._poly(z)
    out = omega, z, omega._value(z, p), z * omega._deriv(z, p)
    for x in out[1:]:
        x.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# membership checks


def subordination_pullback(w, target: JanowskiParams) -> np.ndarray:
    """Moduli of the inverse powered map of `target` (`invert_powered`) at
    the points w.

    Values <= 1 certify membership in the image of the unit disk.  Points
    that land on the branch cut of the outer root raise BranchUndefined.
    Points with no preimage come back as inf: those swallowed by the pole
    of the inverse, and those at or past the ends |arg| = alpha pi of the
    sector that holds the target's image, base = (w - gamma)/(1 - gamma),
    which is w itself at gamma = 0.
    """
    base = np.atleast_1d(np.asarray(w, dtype=complex))
    if target.gamma != 0.0:
        base = (base - target.gamma) / (1.0 - target.gamma)
    if np.any((base.real <= 0.0) & (base.imag == 0.0)):
        raise BranchUndefinedError("sample on the branch cut of the inverse power")
    z, phi = _invert_normalized(target, base)
    q = np.abs(z)
    if phi is not None and (phi.max() >= math.pi or phi.min() <= -math.pi):  # two reductions, no mask
        q[np.abs(phi) >= math.pi] = math.inf
    if q.size and math.isnan(q.max()):  # a NaN preimage is none either; the max propagates NaN
        q[np.isnan(q)] = math.inf
    return q


def verify_subordination(p_samples, target: JanowskiParams, r: float = 1.0, tol: float = 1e-9) -> bool:
    """Do all sampled values lie in the target's image of |z| <= r?

    The target must be argument-safe, which makes its powered map
    univalent with a globally defined inverse; membership then reduces to
    a pullback modulus test, and a sample on the cut of the inverse is outside.
    """
    require_finite_args("verify_subordination", tol=tol)
    if not target.argument_safe:
        raise ParameterError("target must be argument-safe so the inverse map is single-valued")
    require_range("r", r, "(0, 1]")
    if np.size(p_samples) == 0:
        raise ParameterError("p_samples must not be empty")
    return _max_pullback(p_samples, target) <= r + tol


_ON_VERTEX = 1e-12  # a point this close to a curve vertex counts as contained
_PAIR_BLOCK = 1 << 16  # (point, edge) pairs tested at once, bounding the working memory
_Disk = tuple[complex, float, bool]  # (centre, radius, flag of the centre) of `_inscribed_disk`


def _winding_contains(points: np.ndarray, curve: np.ndarray, disk: _Disk | None = None) -> np.ndarray:
    """Nonzero-rule membership of the 1-d `points` w.r.t. the closed polygon
    through the samples `curve` (`_crossings`). With the curve's
    `_inscribed_disk` (centre, radius, flag), a point strictly inside the
    disk takes the centre's flag and only the others, NaN points among
    them, are counted: the flags are the same."""
    if disk is None:
        return _crossings(points, curve)
    centre, radius, flag = disk
    rest = ~(np.abs(points - centre) < radius)
    flags = np.full(points.size, flag)
    flags[rest] = _crossings(points[rest], curve)
    return flags


def _crossings(points: np.ndarray, curve: np.ndarray) -> np.ndarray:
    """Nonzero-rule membership of the 1-d `points` w.r.t. the closed polygon
    through the samples `curve`, by a crossing count.

    A point is inside when its winding number is nonzero, so a region the
    curve covers twice (winding 2) is inside too, where an even-odd count
    would put it outside.  Points within 1e-12 of a curve vertex count as
    contained; non-finite points are never inside.

    Winding numbers come from signed crossings of the ray from the point to
    +inf (Hormann and Agathos, "The point in polygon problem for arbitrary
    polygons", Comput. Geom. 20 (2001)): an upward edge with the point on
    its left adds 1, a downward edge with the point on its right subtracts
    1.  Only an edge whose y-range holds the point's y can cross its ray,
    and |point - vertex| < 1e-12 forces |dy| < 1e-12, so each edge is
    paired only with the points whose y lies in its y-range widened by
    twice that tolerance (the factor absorbs rounding at the window ends).
    With the points sorted by y once, each edge's points are one slice.
    """
    order = np.argsort(points.imag, kind="stable")
    pts = points[order]
    nxt = np.roll(curve, -1)
    y_lo = np.minimum(curve.imag, nxt.imag) - 2.0 * _ON_VERTEX
    y_hi = np.maximum(curve.imag, nxt.imag) + 2.0 * _ON_VERTEX
    first = np.searchsorted(pts.imag, y_lo, side="left")
    count = np.searchsorted(pts.imag, y_hi, side="right") - first
    ends = np.cumsum(count)  # pair k belongs to the edge e with ends[e-1] <= k < ends[e]
    shift = first - (ends - count)  # and tests the sorted point k + shift[e]
    winding = np.zeros(points.size, dtype=np.int64)
    hit = np.zeros(points.size, dtype=bool)
    for k0 in range(0, int(ends[-1]), _PAIR_BLOCK):
        k = np.arange(k0, min(k0 + _PAIR_BLOCK, int(ends[-1])))
        edge = np.searchsorted(ends, k, side="right")
        at = k + shift[edge]
        d0 = curve[edge] - pts[at]
        d1 = nxt[edge] - pts[at]
        left = d0.real * d1.imag - d0.imag * d1.real  # > 0: point left of the edge
        up = (d0.imag <= 0.0) & (d1.imag > 0.0) & (left > 0.0)
        down = (d1.imag <= 0.0) & (d0.imag > 0.0) & (left < 0.0)
        winding += np.bincount(at[up], minlength=points.size) - np.bincount(at[down], minlength=points.size)
        hit[at[np.abs(d0) < _ON_VERTEX]] = True
    flags = np.empty(points.size, dtype=bool)
    flags[order] = hit | (winding != 0)
    return flags


def _inscribed_disk(curve: np.ndarray) -> _Disk:
    """(centre, radius, flag): a disk about the mean of the closed polygon
    `curve` that no edge meets, and the `_crossings` flag of its centre.

    The radius is (1 - 1e-9) times the least distance from the centre to an
    edge, less 4e-12. Every point strictly inside then lies over 2e-12 from
    each edge, so no vertex is within 1e-12 of it, and the segment to the
    centre crosses no edge: its winding number, and so its flag, is the
    centre's. The factor absorbs the rounding of the distances, and of the
    crossing count of points that far from every edge. A NaN curve gives a
    NaN radius, which holds no point.
    """
    centre = complex(curve.mean())
    d = curve - centre
    edge = np.roll(curve, -1) - curve
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -(d.real * edge.real + d.imag * edge.imag) / (edge.real**2 + edge.imag**2)
    t = np.fmin(np.fmax(t, 0.0), 1.0)  # the nearest point of each edge; fmax maps a point edge's NaN to 0
    gap = float(np.abs(d + t * edge).min())
    flag = bool(_crossings(np.array([centre]), curve)[0])
    return centre, (1.0 - 1e-9) * gap - 4.0 * _ON_VERTEX, flag


def _sector_margin(args: np.ndarray, lo: float, hi: float) -> float:
    """Smallest signed slack of sampled arguments inside (lo, hi)."""
    return float(min(np.min(args - lo), np.min(hi - args)))


def _turns(steps: np.ndarray) -> int:
    """Net turns about 0 of principal arguments with these steps: a step below
    -pi crosses the cut (-inf, 0) counter-clockwise, one above pi clockwise."""
    return int(np.count_nonzero(steps < -math.pi)) - int(np.count_nonzero(steps > math.pi))


def empirical_bounds(p: JanowskiParams, r: float, n: int = 200_000) -> BoundReport:
    """Pure sampling twin of the analytic range report.

    Estimates every interval from n boundary samples; no root finding is
    involved, so this is an independent oracle for the analytic path.
    The critical-point block is absent by construction.

    The samples stream through `_curve_blocks`, whose points beyond the
    first 16384 are rotated copies of the first block, as close to the
    exact circle points as cos and sin of t_k are. Each block updates running
    minima and maxima, so no full-length array is held. Arguments are
    principal: the image of h (a <= 1) is convex and holds h(0) = 1, so its
    sample polygon meets the cut only when it winds about 0, and `_turns`
    counts the turns over the n closed steps, seams from the block ends.
    h = (1 - g) w^a + g is formed as (w^a) * (1 - g) + g with
    explicit in-place ops, the order numpy's temporary elision gave the
    whole-array expression from 16384 samples on; with FMA the other
    operand order of the complex product can differ in the last bit.

    With g = 0, h is w^a itself, which has no zero inside the disk (the
    branch guard keeps the origin out of the open image disk), so h is not
    formed: the shifted view restates the primary ranges, with no argument
    range once the modulus falls below `_NO_ARG_FLOOR`, as for any h. Only the samples
    kept by the two-level screen of `_screened` are formed, with their full
    grid bits, so the report is the same; its subgrid values are not reported.
    """
    n = require_index("n", n, 16)
    g = complex(p.gamma)
    shift = g != 0.0
    size = 8 if shift else 4
    lo, hi = np.full(size, np.inf), np.full(size, -np.inf)
    turns, ends = 0, []  # cut crossings inside blocks; first and last argument of each block
    for _, M, N in _curve_blocks(p, r, n, None if shift else _screened(p, r, n)):
        re = M * np.cos(N)
        im = M * np.sin(N)
        ranges = [N, M, re, im]  # arg, mod, re, im of the normalized map
        if shift:
            h = np.empty(N.size, dtype=complex)
            h.real, h.imag = re, im
            np.multiply(h, 1.0 - g, out=h)
            np.add(h, g, out=h)
            args = np.angle(h)
            turns += _turns(args[1:] - args[:-1])
            ends += [args[0], args[-1]]
            ranges += [h.real, h.imag, np.abs(h), args]  # re, im, mod, arg of h
        np.minimum(lo, [x.min() for x in ranges], out=lo)
        np.maximum(hi, [x.max() for x in ranges], out=hi)
    iv = [(float(a), float(b)) for a, b in zip(lo, hi)]
    if not shift:
        iv += [iv[2], iv[3], iv[1], iv[0]]
    hmin, harg = iv[6][0], None
    if hmin >= _NO_ARG_FLOOR:
        if shift and turns + _turns(np.subtract(ends[2::2] + ends[:1], ends[1::2])):  # seams, then last to first
            hmin = 0.0  # h turns about 0, so it has a zero inside the disk: no argument, modulus down to 0
        else:
            harg = iv[7]
    shifted = ShiftedView(re=iv[4], im=iv[5], mod=(hmin, iv[6][1]), arg=harg)
    return BoundReport(arg=iv[0], mod=iv[1], re=iv[2], im=iv[3], critical=None, shifted=shifted)


def _screened(p: JanowskiParams, r: float, n: int) -> np.ndarray | None:
    """Indices of the samples that can hold an extreme of arg, mod, Re or Im
    of W = w^a on the n-point curve, or None for all of them.

    `_screen` bounds each such F within reach rho of t_j by F_j + |F'_j| rho
    + K rho^2 / 2 + slack. On w = C + R e^{it}, q = (w - C) / w has q' =
    i q (1 - q) and |q| <= s = R / m_j, m_j the larger of |w_j| - R rho and
    |C| - R less 2 e, e = _ROUNDING (|C| + R) bounding a point's distance
    from the circle. So (a arg w)' = a Re q, W' = a W i q and |W|' = -a |W|
    Im q are at most D = a s, or D = a s P with P = (|w_j| + R rho + 2 e)^a
    >= |W|, and their derivatives at most K = a s (1 + s), or K = P (a s
    (1 + s) + (a s)^2). The subgrid points come from cos and sin of t_j, not
    from the rotated grid; as F moves by D / R and F' by K / R per unit of
    w, the slack adds (2 D + K rho) e / R, _ROUNDING (D rho + K rho^2) for
    the rounding of F' and K, and twice a value's rounding. Where |C| - R,
    the distance from the origin, is at most 2 e (a touch), or on a circle
    no wider than e, nothing is skipped.
    """
    C, R = _circle_geometry(p, r)
    a, err = p.alpha, _ROUNDING * (abs(C) + R)
    if not (abs(C) - R > 2.0 * err and R > err):
        return None
    step, gap, tiny = 2.0 * np.pi / n, err / R, 2.0 * _ROUNDING * (np.pi + (abs(C) + R) ** a)

    def bounds(j, half):
        rho = half * step
        u = R * np.exp(1j * (j * step))  # cos and sin of t_j
        w = u + C
        q = u / w
        mw = np.abs(w)
        arg_d = a * R / (np.maximum(mw - R * rho, abs(C) - R) - 2.0 * err)
        arg_k = arg_d * (1.0 + arg_d / a)
        top = (mw + R * rho + 2.0 * err) ** a
        pow_d, pow_k = top * arg_d, top * (arg_k + arg_d * arg_d)
        M, N = mw**a, a * np.angle(w)
        re, im = M * np.cos(N), M * np.sin(N)
        out = []
        powers = [(M, -a * M * q.imag), (re, -a * (re * q.imag + im * q.real)), (im, a * (re * q.real - im * q.imag))]
        for d, k, fs in ((arg_d, arg_k, [(N, a * q.real)]), (pow_d, pow_k, powers)):  # W, Re W, Im W share d and k
            slack = gap * (d * (2.0 + rho) + k * (rho + rho * rho)) + tiny  # gap >= _ROUNDING
            bend = k * (rho * rho / 2.0) + slack
            for f, df in fs:
                rise = np.abs(df) * rho + bend
                out += [(f - slack, f + rise), (-f - slack, rise - f)]
        return out

    return _screen(n, bounds)


# ---------------------------------------------------------------------------
# trial reports


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one randomized implication trial."""

    theorem_id: str
    seed: int
    hypothesis_holds: bool
    conclusion_holds: bool
    margin: float
    detail: Mapping[str, object] = field(default_factory=dict)

    @property
    def sound(self) -> bool:
        """False exactly on the fatal pattern: hypothesis true, conclusion false."""
        return not (self.hypothesis_holds and not self.conclusion_holds)

    def to_json(self) -> str:
        return json.dumps(jsonable(asdict(self)), sort_keys=True)


# ---------------------------------------------------------------------------
# individual trials
#
# Every trial builds the test function from the CONCLUSION side: compose the
# claimed dominant with a random Schwarz function, so the conclusion is true
# by design and verified independently, then evaluate the hypothesis
# expression honestly on a boundary grid.  A sound implication can therefore
# never produce hypothesis-true/conclusion-false; a buggy formula anywhere in
# the chain shows up as exactly that pattern.

_Evidence = tuple[bool, bool, float, dict]


def _ratio(target: JanowskiParams, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """With target's A and B: num = 1 + A w, den = 1 + B w, the base q = num / den
    and its log-derivative A / num - B / den. Powers of q are principal `_powers`."""
    num = 1.0 + target.A * w
    den = 1.0 + target.B * w
    return num, den, num / den, target.A / num - target.B / den


def _arg_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """arg num - arg den, the argument of q = num / den that stays principal for |arg q| < pi."""
    return np.arctan2(num.imag, num.real) - np.arctan2(den.imag, den.real)


def _max_pullback(samples: np.ndarray, target: JanowskiParams) -> float:
    """Largest pullback modulus of the samples under the map `target`; inf when a
    sample lies on the cut of its inverse, where it has no preimage to certify."""
    try:
        return float(np.max(subordination_pullback(samples, target)))
    except BranchUndefinedError:
        return math.inf


def _trial_ratio_sector(seed: int) -> _Evidence:
    """Sector transfer for quotients: derivative-quotient sector bound forces
    the function-quotient sector bound, with the comparison pole drawn at
    random inside an annulus."""
    alpha = (0.3, 0.5, 0.75, 1.0)[seed % 4]
    m = (0.0, -0.4, 0.3, 0.55)[(seed // 4) % 4]
    u = _uniforms(seed, 1)
    cg = complex((0.1 + 0.2 * u[0]) * cmath.exp(2j * math.pi * u[1]))
    beta = 0.98 * (1.0 - abs(cg))

    _, z, w, zdw = _effective_schwarz(seed, rho=0.2, c_max=0.25)
    target = JanowskiParams(cmath.exp(1j * math.pi * m), -1.0, alpha)
    num, den, base, dlog = _ratio(target, w)
    p = _power(base, alpha)
    zdp = alpha * p * dlog * zdw
    gratio = 1.0 - cg * z  # g/(z g') for the comparison g(z) = z/(1 - cg z)
    quotient = p + zdp * gratio  # f'/g' when f = g p

    # Narrowest admissible hypothesis sector over the realized arguments phi of
    # the comparison ratio: the strongest form of the premise, hence sound under
    # any reading of the quantifier. Each edge, atan2(c cos phi, d +- c sin phi)
    # with d = 1 + |a| > c >= 0, rises then falls on (-pi/2, pi/2) (its derivative
    # has the sign of -(c +- d sin phi)), so its minimum over the range is at an end.
    phis = np.angle(gratio)
    ends = [ratio_sector_params(alpha, m, beta, float(phi)) for phi in (phis.min(), phis.max())]
    mu1 = min(sp.mu1 for sp in ends)
    mu2 = min(sp.mu2 for sp in ends)
    hyp_margin = _sector_margin(np.angle(quotient), -alpha * mu1 * math.pi / 2.0, alpha * mu2 * math.pi / 2.0)
    ratio_ok = bool(np.all(np.abs(gratio) > beta))
    hypothesis = ratio_ok and hyp_margin > _SAFETY

    sector = sector_image(alpha, m)
    con_margin = _sector_margin(alpha * _arg_ratio(num, den), sector.lo, sector.hi)
    max_pull = _max_pullback(p, target)
    conclusion = con_margin >= -1e-4 and max_pull <= 1.0 + 1e-9
    return hypothesis, conclusion, con_margin, {
        "alpha": alpha,
        "m": m,
        "beta": beta,
        "g_pole": cg,
        "mu1": mu1,
        "mu2": mu2,
        "hyp_margin": hyp_margin,
        "max_pullback": max_pull,
    }


def _trial_weighted_sector(seed: int) -> _Evidence:
    """Sector transfer for the weighted product p^a (1 + lambda z p'/p)^g."""
    alpha = (0.5, 0.8, 1.0)[seed % 3]
    beta = (0.45, 0.7, 1.0)[(seed // 3) % 3]
    gamma = (0.3, 0.6, 1.0)[(seed // 9) % 3]
    m = (0.0, -0.35, 0.25)[(seed // 27) % 3]
    a, c = ((1.0, 0.0), (1.2 + 0.45j, 0.0), (1.0, 0.4))[(seed // 81) % 3]  # weight lambda = a + c z
    eta = 0.999 * eta_infimum(a, c, beta)
    sp = weighted_sector_params(alpha, beta, gamma, m, eta)

    _, z, w, zdw = _effective_schwarz(seed, rho=0.35, c_max=0.5)
    target = JanowskiParams(cmath.exp(1j * math.pi * m), -1.0, beta)
    num, den, base, dlog = _ratio(target, w)
    arg_base = _arg_ratio(num, den)
    # z p'/p for p = base^beta, evaluated without forming p first
    x = (a + c * z) * beta * (dlog * zdw)
    shifted = 1.0 + x
    safe = bool(np.all(shifted.real > 0.0))
    arg_expr = alpha * beta * arg_base + gamma * np.angle(shifted)
    hyp_margin = _sector_margin(arg_expr, -sp.mu1 * math.pi / 2.0, sp.mu2 * math.pi / 2.0)
    hypothesis = safe and hyp_margin > _SAFETY

    sector = sector_image(beta, m)
    con_margin = _sector_margin(beta * arg_base, sector.lo, sector.hi)
    max_pull = _max_pullback(_power(base, beta), target)
    conclusion = con_margin >= -1e-4 and max_pull <= 1.0 + 1e-9
    return hypothesis, conclusion, con_margin, {
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "m": m,
        "eta": eta,
        "delta": sp.delta,
        "hyp_margin": hyp_margin,
        "max_pullback": max_pull,
    }


def _trial_inverse_coefficient(seed: int) -> _Evidence:
    """Coefficient-criterion inclusion: small z p'/p^2 plus the printed
    parameter inequality force the powered tilted-disk bound."""
    A = complex((1.0, 0.85, 0.5 + 0.3j, 0.65 - 0.25j)[seed % 4])
    b = (1.0, 0.7, 0.35, 0.9)[(seed // 4) % 4]
    alpha = (1.0, 0.8, 0.5)[(seed // 16) % 3]
    cap = alpha * abs(A + b) / ((1.0 + b) ** (alpha - 1.0) * (1.0 + abs(A)) ** (alpha + 1.0))
    beta = 0.98 * min(1.0, cap)

    _, _, w, zdw = _effective_schwarz(seed, rho=0.2, c_max=0.25)
    target = JanowskiParams(A, -b, alpha)
    *_, base, dlog = _ratio(target, w)
    p = _power(base, alpha)
    coeff = alpha * dlog * zdw / p  # z p'/p^2
    criterion = silverman_inclusion(A, b, alpha, beta)
    sup_coeff = float(np.max(np.abs(coeff)))
    hypothesis = criterion and sup_coeff < beta * _HEADROOM

    max_pull = _max_pullback(p, target)
    margin = 1.0 - max_pull
    return hypothesis, margin >= -1e-4, margin, {
        "A": A,
        "b": b,
        "alpha": alpha,
        "beta": beta,
        "criterion": criterion,
        "sup_coefficient": sup_coeff,
        "max_pullback": max_pull,
    }


def _trial_reciprocal_sector(seed: int) -> _Evidence:
    """Reciprocal-order criterion: a small-derivative affine part pins the
    argument of p inside the arcsine sector."""
    order = (0.0, 0.25, 0.5)[seed % 3]
    beta = (0.5, 0.8, 0.98)[(seed // 3) % 3] * (1.0 - order)
    coef = beta / (1.0 - order)

    _, _, w, zdw = _effective_schwarz(seed, rho=0.6, c_max=0.9)
    p = 1.0 + coef * w
    sup_deriv = float(np.max(np.abs((1.0 - order) * coef * zdw)))
    inverse_part = np.abs(order + (1.0 - order) * p)
    hypothesis = sup_deriv < beta * _HEADROOM and float(inverse_part.min()) > 1e-9

    half_angle = reciprocal_order_sector(order, beta) * math.pi / 2.0
    con_margin = half_angle - float(np.max(np.abs(np.angle(p))))
    max_pull = _max_pullback(p, JanowskiParams(coef, 0.0))
    conclusion = con_margin >= -1e-4 and max_pull <= 1.0 + 1e-9
    return hypothesis, conclusion, con_margin, {
        "order": order,
        "beta": beta,
        "sup_derivative": sup_deriv,
        "half_angle": half_angle,
        "max_pullback": max_pull,
    }


_OPERATOR_TABLE_A = (
    # (A, b, alpha, gamma, mu, eta, delta, rho) with Re(1+Ab) >= |A+b|
    (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0),
    (1.0, 0.5, 0.5, 0.6, 1.0, 0.7, 1.0, 0.4),
    (0.7 + 0.3j, 0.8, 1.0, 0.9, 1.0 + 0.1j, 1.0, 1.2, 0.2),
    (0.5, 1.0, 0.8, 1.0, 2.0, 1.5, 0.8, 1.0),
)
_OPERATOR_TABLE_B = (
    # winding-friendly rows: real A, poles held off the sampling curve
    (0.8, 0.6, 1.0, 0.7, 1.0, 1.0, 1.0, 0.0),
    (0.6, 0.85, 0.5, 1.0, 1.0, 0.8, 1.0 + 0.2j, 0.3),
    (0.9, 0.4, 1.0, 0.5, 1.2, 1.0, 0.9, 0.5),
    (0.45, 0.75, 0.0, 0.8, 1.0, 1.0, 1.0, 0.0),
)


_CURVE_RADIUS = 0.99  # radius of the sampled dominant curve of a poly-mode operator trial
# Dilation of an operator trial's polynomial test function; it must stay below
# _CURVE_RADIUS. By the Schwarz lemma omega then maps the disk into |w| <= _OMEGA_RHO,
# whose first-order image lies inside that of |z| <= _CURVE_RADIUS, so its cut
# clearance |C| - R is never the smaller one and the trial takes only the outer disk's.
_OMEGA_RHO = 0.6


@functools.lru_cache(maxsize=8)  # the poly-mode operator tables hold 8 rows
def _dominant_curve(spec: DominantSpec) -> np.ndarray:
    """The dominant of `spec` at _N_SAMPLES points of |z| = _CURVE_RADIUS;
    built on first use, cached per spec and read-only."""
    curve = operator_dominant(spec, _CURVE_RADIUS * _unit_circle(_N_SAMPLES))
    curve.setflags(write=False)
    return curve


@functools.lru_cache(maxsize=8)
def _dominant_disk(spec: DominantSpec) -> _Disk:
    """The `_inscribed_disk` of `_dominant_curve(spec)`, cached per spec."""
    return _inscribed_disk(_dominant_curve(spec))


def _operator_trial(seed: int, spec: DominantSpec, detail: dict) -> _Evidence:
    """First-order operator subordination against its exact dominant.

    The operator is E = mu p^a (d + r p) + eta z p' p^(a-1) on the base power
    p.  Even seeds use w(z) = c z, for which E IS the dominant composed with
    c z; the trial then checks that exact identity through the standalone
    dominant evaluator.  Odd seeds use a genuine polynomial Schwarz function
    and fall back to a winding count against the sampled dominant curve,
    which depends only on the table row and is cached per row with its
    inscribed disk (`_dominant_curve`, `_dominant_disk`); the cut clearance
    is that of the image disk of |z| = _CURVE_RADIUS.  `detail` holds the
    calling id's own parameters; the trial adds its evidence to it.
    """
    radii = (1.0,) if seed % 2 == 0 else (0.35, 0.65, 0.9, 1.0)
    omega, z, w, zdw = _effective_schwarz(seed, _OMEGA_RHO, 0.88, 512, radii)
    target = JanowskiParams(spec.A, -spec.b, spec.gamma)
    *_, base, dlog = _ratio(target, w)
    p, p_alpha, p_alpha_m1 = _powers(base, (spec.gamma, spec.alpha * spec.gamma, (spec.alpha - 1.0) * spec.gamma))
    zdp = spec.gamma * p * dlog * zdw
    e_samples = complex(spec.mu) * p_alpha * (complex(spec.delta) + complex(spec.rho) * p) + complex(spec.eta) * zdp * p_alpha_m1
    if seed % 2 == 0:
        reference = operator_dominant(spec, omega.linear_coefficient * z)
        scale = 1.0 + float(np.max(np.abs(reference)))
        identity_gap = float(np.max(np.abs(e_samples - reference))) / scale
        hypothesis = identity_gap < 1e-9
        detail["identity_gap"] = identity_gap
    else:
        disk = image_disk(target, _CURVE_RADIUS)  # holds 1, so Re center > 1/2
        clearance = abs(disk.center) - disk.radius
        contained = _winding_contains(e_samples, _dominant_curve(spec), _dominant_disk(spec))
        hypothesis = bool(np.all(contained)) and clearance > 1e-9
        detail["contained_fraction"] = float(np.mean(contained))
        detail["cut_clearance"] = clearance

    max_pull = _max_pullback(p, target)
    margin = 1.0 - max_pull
    detail["max_pullback"] = max_pull
    return hypothesis, margin >= -1e-4, margin, detail


def _trial_operator_dominant(seed: int) -> _Evidence:
    """T5.7: the operator trial on a seed-chosen row of the operator tables."""
    table = _OPERATOR_TABLE_A if seed % 2 == 0 else _OPERATOR_TABLE_B
    A, b, alpha, gamma, mu, eta, delta, rho = table[(seed // 2) % 4]
    params = {"A": complex(A), "b": b, "alpha": alpha, "gamma": gamma,
              "mu": complex(mu), "eta": complex(eta), "delta": complex(delta), "rho": complex(rho)}
    return _operator_trial(seed, DominantSpec(**params), params)  # the detail starts as the spec's fields


_COMBO_TABLE_A = (
    # (m, b, lam, gamma)
    (0.0, 1.0, 0.5, 1.0),
    (0.3, 1.0, 0.25, 0.7),
    (-0.35, 0.8, 1.0, 1.0),
    (0.0, 0.6, 0.75, 0.5),
)
_COMBO_TABLE_B = (
    (0.0, 0.7, 0.5, 1.0),
    (0.25, 0.85, 0.4, 0.8),
    (-0.3, 0.5, 0.8, 0.6),
    (0.4, 0.9, 0.6, 1.0),
)


def _trial_convex_combination(seed: int) -> _Evidence:
    """C5.12: the affine combination (1-l) p + l z p', which is the operator
    trial at A = e^{i m pi}, alpha = delta = 1, mu = 1 - l, eta = l, rho = 0."""
    table = _COMBO_TABLE_A if seed % 2 == 0 else _COMBO_TABLE_B
    m, b, lam, gamma = table[(seed // 2) % 4]
    spec = DominantSpec(
        A=cmath.exp(1j * math.pi * m), b=b, alpha=1.0, gamma=gamma, mu=1.0 - lam, eta=lam, delta=1.0, rho=0.0
    )
    detail = {"m": m, "b": b, "lam": lam, "gamma": gamma, "tilt": tilt_angle(b, m)}
    return _operator_trial(seed, spec, detail)


_BRIOT_TABLE = (
    # (A, B, alpha, beta, gamma) with |A - B| <= 1 - Re(A conj(B))
    (1.0, 0.0, 1.0, 1.0, 0.0),
    (0.8, -0.2, 0.7, 1.0, 0.5),
    (0.6 + 0.2j, 0.0, 0.5, 0.8, 0.4),
    (0.5, -0.5, 1.0, 0.6, 0.25),
)


def _trial_first_order(seed: int) -> _Evidence:
    """Weighted first-order perturbation p + lambda z p'/(beta p + gamma)
    subordinate to the powered bilinear map implies the same for p."""
    A, B, alpha, beta, gamma = _BRIOT_TABLE[seed % 4]
    A, B, beta, gamma = complex(A), complex(B), complex(beta), complex(gamma)
    a, d = ((0.0, 0.0), (0.6, 0.0), (0.4, -0.4))[(seed // 4) % 3]  # weight lambda = (1 + a z)/(1 + d z)

    _, z, w, zdw = _effective_schwarz(seed, rho=0.3, c_max=0.45)
    target = JanowskiParams(A, B, alpha)
    *_, base, dlog = _ratio(target, w)
    p = _power(base, alpha)
    zdp = alpha * p * dlog * zdw
    denom = beta * p + gamma
    denom_clear = float(np.min(np.abs(denom)))
    e_samples = p + (1.0 + a * z) / (1.0 + d * z) * zdp / denom

    hyp_pull = _max_pullback(e_samples, target)
    hypothesis = hyp_pull <= _HEADROOM and denom_clear > 1e-9

    max_pull = _max_pullback(p, target)
    margin = 1.0 - max_pull
    return hypothesis, margin >= -1e-4, margin, {
        "A": A,
        "B": B,
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "hyp_pullback": hyp_pull,
        "denominator_clearance": denom_clear,
        "max_pullback": max_pull,
    }


_TRIALS: dict[str, Callable[[int], _Evidence]] = {
    "T3.3": _trial_ratio_sector,
    "T3.6": _trial_weighted_sector,
    "T5.4": _trial_inverse_coefficient,
    "T5.5": _trial_reciprocal_sector,
    "T5.7": _trial_operator_dominant,
    "C5.12": _trial_convex_combination,
    "T5.10": _trial_first_order,
}

THEOREM_IDS: tuple[str, ...] = tuple(_TRIALS)


def implication_trial(theorem_id: str, seed: int = 0) -> TrialReport:
    """Run one seeded implication trial for the given registry id.

    Trials are deterministic functions of (theorem_id, seed): the seed, an
    integer in [0, 2^64), picks every parameter and the test function.
    """
    fn = _TRIALS.get(theorem_id)
    if fn is None:
        raise InvalidTheoremIdError(f"unknown theorem id {theorem_id!r}; known ids: {', '.join(_TRIALS)}")
    seed = require_index("seed", seed, 0, _SEED_END)
    hypothesis, conclusion, margin, detail = fn(seed)
    detail["mode"] = "identity" if seed % 2 == 0 else "poly"
    return TrialReport(theorem_id, seed, hypothesis, conclusion, margin, detail)
