"""Sharp bounds for powered disk maps h(z) = (1-g)((1+Az)/(1+Bz))^a + g.

At radius r the first-order map sends |z| = r onto the circle
w(t) = C(r) + R(r) e^{it}, so the boundary of the powered image is the
curve w(t)^a, written M(t) e^{i N(t)} with M = |w|^a and N = a arg w.
Modulus and argument extremes have closed forms. Re and Im are the
objectives Re(e^{i phi} w^a) at phi = 0 and -pi/2, with

    d/dt Re(e^{i phi} w^a) = -a R |w|^{a-1} sin theta(t),
    theta(t) = t + phi + (a - 1) arg w(t).

While the origin lies outside the circle, Re(R e^{it} / w) < 1/2, so
theta' = 1 - (1 - a) Re(R e^{it} / w) > 1/2: theta increases strictly and
gains exactly 2 pi per turn. Each direction thus has exactly two critical
points, the maximum at theta = 0 and the minimum at theta = pi (mod 2 pi),
each found by a safeguarded Newton solve in a known bracket. When
|A| r = 1 the circle touches the origin; off the touch Re(R e^{it} / w) is
exactly 1/2, so theta is linear and the roots are closed-form, while the
touch (a cusp where w^a = 0) stays a candidate for both ends of each
interval.

Powers use the principal branch. With the argument-safe condition
|A - B| <= |1 - A conj(B)| and |A| r <= 1 the curve never meets the cut
(-inf, 0], so the principal branch is the continuous branch anchored at
value 1 for z = 0. An array base takes its powers from `_powers`, one
arctan2 and one abs for all its exponents; the exponents 0, 1/2 and 1 are
exact there (1, np.sqrt(w) and w itself), any other takes the polar form
|w|^a e^{i a arg w} from real kernels. The primary report describes
(h - g)/(1 - g); the shifted view of h restates its Re/Im exactly and takes
|h| and arg h from the convex image: tangents, nearest and a
chord-certified farthest point (`_shifted_view`), about 0.2 ms a call
against 0.03 ms with g = 0.

Scalars stay scalar: `eval_powered` evaluates a Python or numpy float or
complex z in Python complex arithmetic, h = (1 - g) q ** a + g with q from
`moebius._quotient`, as in `eval_map`, whose complex ** float is the polar
form from libm (exact at a = 1), and an array through `_power`, the array
power that `special.operator_dominant` shares. numpy may take arctan2,
hypot and pow from vector kernels and fuse the complex products Az and Bz
(FMA), so the two paths agree to within 16 eps (max(1, |h|) + kappa |h - g|),
where kappa = a (|Az|/|1 + Az| + |Bz|/|1 + Bz|) is the condition of q: at
most 4.1 eps on that scale over 60006 seeded draws (pole and zero
approaches, a down to 1e-3, a = 1, g != 0), and 6.5 eps max(1, |h|) where
kappa < 1. A scalar call takes about 0.9 us, against 13 us through 0-d
numpy arrays (one core of a 2-vCPU x86-64 machine).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchUndefinedError,
    NoConvergenceError,
    OutOfRangeError,
    require_index,
    require_points,
)
from .moebius import JanowskiParams, _points, _quotient, image_disk

_NEWTON_TOL = 1e-13  # final step length of a Newton solve
_NEWTON_CAP = 100
_TAU = 2.0 * math.pi
_NODE_CAP = 64  # support points after which a farthest-point search stops refining
_BLOCK = 1 << 14  # samples per block of a streamed curve, 256 KiB of complex values
_NO_ARG_FLOOR = 1e-9  # below this min |h| on the circle, a shifted view reports no argument range


# ---------------------------------------------------------------------------
# low-level powered evaluation


def _power(w, a: float) -> np.ndarray:
    """Principal-branch w^a, the one power of `_powers`."""
    return _powers(w, (a,))[0]


def _powers(w, exponents) -> list[np.ndarray]:
    """Principal-branch w^a for each a of `exponents`, from one arg w and one |w|.

    Exponents 0, 1/2 and 1 are exact: 1, np.sqrt(w) and w itself (not a
    copy; no caller writes into a power). Any other a takes the polar form
    |w|^a (cos phi + i sin phi), phi = a arg w, filled part by part from
    real kernels. arg w lies in (-pi, pi] and keeps the sign of a zero
    imaginary part, so w = -1 - 0j takes the -pi side, as np.log and
    np.sqrt do; 0^a = 0 for a > 0 needs no log(0). The real kernels cost
    about a quarter of numpy's complex log and are accurate to a few ulps,
    where exp(a log w) loses up to about 30 ulps at large |a log w|.
    """
    out, arg, mod = [], None, None
    for a in exponents:
        if a == 0.0:
            out.append(np.ones(np.shape(w), dtype=complex))
        elif a == 1.0:
            out.append(w)
        elif a == 0.5:
            out.append(np.sqrt(w))
        else:
            if arg is None:
                arg, mod = np.arctan2(w.imag, w.real), np.abs(w)  # np.angle's own kernel, without its wrapper
            out.append(_polar(mod**a, a * arg))
    return out


def _polar(mod, phi) -> np.ndarray:
    """mod (cos phi + i sin phi), filled part by part from real kernels."""
    out = np.empty(np.shape(phi), dtype=complex)
    np.multiply(mod, np.cos(phi), out=out.real)
    np.multiply(mod, np.sin(phi), out=out.imag)
    return out


@functools.lru_cache(maxsize=16)
def _unit_circle(n: int, size: int | None = None) -> np.ndarray:
    """The first `size` (default n) n-th roots of unity e^{i t_k}, t_k = k (2 pi / n)
    + 0.0 as np.linspace gives it, from real cos and sin; cached and read-only."""
    t = np.arange(n if size is None else size) * (2.0 * np.pi / n) + 0.0
    z = np.empty(t.size, dtype=complex)
    z.real, z.imag = np.cos(t), np.sin(t)
    z.setflags(write=False)
    return z


def eval_powered(p: JanowskiParams, z) -> complex | np.ndarray:
    """Value of the powered, shifted map at z (principal branch, anchored at 1).

    Requires a scalar or non-empty array z of finite points, the
    argument-safe flag and |A| |z| <= 1, so the origin is not interior to
    the first-order image at the working radius and a single-valued power
    exists. A point within 1e-14 of the pole -1/B raises, as in `eval_map`.
    A Python or numpy float or complex z is evaluated in Python complex
    arithmetic and returns a complex; other input goes through `_power`
    (see the module docstring for how far the two agree).
    """
    z, radius, scalar = _points("z", z)
    _branch_guard(p, radius)
    q = _quotient(p, z, radius, scalar)
    if scalar:  # complex ** float is the polar form, from libm
        return (1.0 - p.gamma) * q ** p.alpha + p.gamma
    out = (1.0 - p.gamma) * _power(q, p.alpha) + p.gamma
    return complex(out) if out.ndim == 0 else out


def invert_powered(p: JanowskiParams, w) -> np.ndarray:
    """Preimage of candidate values under the powered, shifted map:
    w -> (w~ - 1)/(A - B w~) with w~ = ((w - gamma)/(1 - gamma))^(1/alpha),
    at a scalar or non-empty array w of finite points, and inf for a value
    with no preimage (the rule of `_preimage`). `subordination_pullback`
    is the modulus of the same preimages."""
    w = np.asarray(w, dtype=complex)
    require_points("w", w)
    return _preimage(p, w)


def _preimage(p: JanowskiParams, w: np.ndarray) -> np.ndarray:
    """Preimages of the values w under the powered, shifted map, and inf
    for a value with none: with base = (w - gamma)/(1 - gamma), a base != 0
    with |arg base| >= alpha pi (at alpha = 1 the negative real axis, with
    either sign of zero), past the ends of the sector that holds the image
    of an argument-safe map, where the principal root w~ = base^(1/alpha)
    wraps round to a point that maps elsewhere; w~ = A/B (the image of
    z = infinity); a preimage too large for a double; NaN. base = 0 maps to
    -1/A. The root is `_polar` of (arg base) / alpha, not `_powers`, so it
    shares its phase with the no-preimage rule; the root for 1/alpha = 2 is
    base * base, exact as in `_powers`."""
    base = np.atleast_1d(w if p.gamma == 0.0 else (w - p.gamma) / (1.0 - p.gamma))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if p.alpha == 1.0:  # the power 1 is the identity, kept exact
            root, off = base, (base.real < 0.0) & (base.imag == 0.0)
        else:
            a = 1.0 / p.alpha
            phi = a * np.arctan2(base.imag, base.real)
            root = base * base if a == 2.0 else _polar(np.abs(base) ** a, phi)
            past = not -math.pi < phi.min() <= phi.max() < math.pi  # two reductions, and True on NaN
            off = (np.abs(phi) >= math.pi) & (base != 0.0) if past else False  # z[False] selects nothing
        z = (root - 1.0) / (p.A - p.B * root)
        z[off] = math.inf
        if not cmath.isfinite(z.sum()):  # one reduction; a finite sum has no inf or NaN term
            z[~np.isfinite(z)] = math.inf
    return z.reshape(np.shape(w))


def _branch_guard(p: JanowskiParams, r: float) -> None:
    if not p.argument_safe:
        raise BranchUndefinedError(
            "powers need |A - B| <= |1 - A conj(B)| so the origin is not interior"
        )
    if abs(p.A) * r > 1.0 + 1e-9:
        raise BranchUndefinedError(
            f"origin interior to the image at radius {r}: |A| r = {abs(p.A) * r:.6g} > 1"
        )


def _circle_geometry(p: JanowskiParams, r: float) -> tuple[complex, float]:
    geo = image_disk(p, r)
    if not geo.is_disk:
        raise OutOfRangeError("r must stay below 1/|B|; the image is a half-plane")
    _branch_guard(p, r)
    return geo.center, geo.radius


# ---------------------------------------------------------------------------
# boundary curve sampling


@dataclass(frozen=True)
class EnvelopeCurve:
    """Sampled boundary curve: parameters t, first-order u + iv, powered M e^{iN}."""

    r: float
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    M: np.ndarray
    N: np.ndarray


def sample_curve(p: JanowskiParams, r: float, n: int = 2048) -> EnvelopeCurve:
    """Uniform n-point sampling (n >= 1) of the boundary envelope at radius r.

    N = a arg w is principal and continuous: the circle holds w(0) = 1 and
    not 0, so Re C > 1/2 and it misses the cut (-inf, 0); at an origin touch
    the samples either side of 0 differ in argument by less than pi. The
    samples are the blocks of `_curve_blocks` joined, and t_k = k (2 pi / n)
    + 0.0 has the bytes of np.linspace. Up to _BLOCK samples the points are
    C + R e^{it} with e^{it} from `_unit_circle`; beyond it they are rotated
    (see `_curve_blocks`).
    """
    n = require_index("n", n, 1)
    w, M, N = (np.concatenate(parts) for parts in zip(*_curve_blocks(p, r, n)))
    t = np.arange(n) * (2.0 * np.pi / n) + 0.0
    return EnvelopeCurve(r=r, t=t, u=w.real, v=w.imag, M=M, N=N)


def _curve_blocks(p: JanowskiParams, r: float, n: int, keep: np.ndarray | None = None):
    """The n-point curve of `sample_curve` as blocks (w, M, N) of up to
    _BLOCK consecutive samples, so a consumer never holds a full-length array;
    with `keep`, sorted indices, only those samples, _BLOCK at a time.

    The block from index k0 on is the first min(n, _BLOCK) points of
    `_unit_circle(n)` times the scalar R e^{i k0 s}, s = 2 pi / n (math.cos
    and math.sin), plus C; a kept sample takes its block's factor as an array
    element, with the same bits. The first block is thus C + R e^{it} itself.
    At n = 200000 the rotated e^{it} lies within 1.14e-15 of e^{2 pi i k / n}
    (cos and sin of t_k: 1.26e-15, over 2028 indices with every block
    boundary); the tests bound each sample's distance from
    C + R e^{2 pi i k / n} by 2e-15 (|C| + R). No state joins the blocks.
    """
    C, R = _circle_geometry(p, r)
    step = 2.0 * np.pi / n
    base = _unit_circle(n, _BLOCK) if n > _BLOCK else _unit_circle(n)
    factor = np.array([R * complex(math.cos(k0 * step), math.sin(k0 * step)) for k0 in range(0, n, _BLOCK)])
    if keep is None:
        parts = ((base[: n - k0], factor[k0 // _BLOCK]) for k0 in range(0, n, _BLOCK))
    else:
        parts = ((base[k % _BLOCK], factor[k // _BLOCK]) for k in np.split(keep, range(_BLOCK, keep.size, _BLOCK)))
    for z, f in parts:
        w = z * f
        w += C
        yield w, np.abs(w) ** p.alpha, p.alpha * np.angle(w)


# ---------------------------------------------------------------------------
# critical points of the directional objectives


def _touch_parameter(C: complex, R: float) -> float | None:
    """Parameter where the circle meets the origin, if it does."""
    if abs(abs(C) - R) > 1e-9 * max(1.0, R):
        return None
    return cmath.phase(-C) % (2.0 * math.pi)


def _newton(f, t: float, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of f in [lo, hi] from t, where f_lo and f_hi are f at lo and hi,
    or numbers of their signs, and f(t) returns f and its derivative. A
    Newton step is kept when it stays in the bracket and is at most half the
    previous step; any other step bisects, so the iteration cannot cycle.
    Stops at a step of at most _NEWTON_TOL; raises NoConvergenceError on a
    bracket without a sign change or after _NEWTON_CAP steps."""
    if not f_lo * f_hi <= 0.0:
        raise NoConvergenceError(f"no sign change in [{lo}, {hi}]")
    rising, last = f_lo < f_hi, hi - lo
    for _ in range(_NEWTON_CAP):
        val, slope = f(t)
        lo, hi = (t, hi) if (val < 0.0) == rising else (lo, t)
        step = val / slope if slope else math.inf
        nxt = t - step
        if not lo <= nxt <= hi or abs(step) > 0.5 * last:
            nxt = 0.5 * (lo + hi)
        last, t = abs(nxt - t), nxt
        if last <= _NEWTON_TOL:
            return t
    raise NoConvergenceError(f"Newton solve not converged in {_NEWTON_CAP} steps")


def _critical_parameters(C: complex, R: float, alpha: float, phase: float, touch: float | None) -> list[float]:
    """Solutions of theta(t) = k pi for the two multiples k pi in
    (theta(0), theta(0) + 2 pi]; each is alone in [0, 2 pi], where
    theta(t) = t + phase + (alpha - 1) arg w(t) rises through it. At an
    origin touch they are closed-form, and the touch itself is appended:
    off the touch theta has slope (1 + alpha)/2 and equals mid + phase +
    (alpha - 1) tau at mid = touch + pi, where w = 2C. It sweeps only
    (1 + alpha) pi there, so a second root may be missing."""
    if touch is not None:
        s, mid = 0.5 * (1.0 + alpha), touch + math.pi
        theta_mid = mid + phase + (alpha - 1.0) * cmath.phase(C)
        k = math.floor((theta_mid - s * math.pi) / math.pi)
        ts = (mid + ((k + j) * math.pi - theta_mid) / s for j in (1.0, 2.0))
        return [t % (2.0 * math.pi) for t in ts if t < mid + math.pi] + [touch]

    def theta(t: float) -> tuple[float, float]:  # theta - k pi and its derivative
        u = cmath.rect(R, t)
        w = C + u
        return t + phase + (alpha - 1.0) * cmath.phase(w) - target, 1.0 - (1.0 - alpha) * (u / w).real

    theta0, roots = phase + (alpha - 1.0) * cmath.phase(C + R), []
    for k in (1.0, 2.0):
        target = (math.floor(theta0 / math.pi) + k) * math.pi
        t = _newton(theta, target - theta0, 0.0, 2.0 * math.pi, -1.0, 1.0)  # exact when alpha = 1
        roots.append(t % (2.0 * math.pi))
    return roots


def _directional_extremes(C: complex, R: float, alpha: float, phases) -> tuple[tuple, tuple, tuple, tuple]:
    """Per phase, min and max of Re(e^{i phase} w^a) and the parameters of the min and the max."""
    touch = _touch_parameter(C, R)

    def extremes(phase: float) -> tuple[float, float, float, float]:
        cand = _critical_parameters(C, R, alpha, phase, touch)
        vals = [(cmath.exp(1j * phase) * (C + cmath.rect(R, t)) ** alpha).real for t in cand]
        if touch is not None:
            vals[-1] = 0.0  # w^a vanishes at the touch
        i, k = vals.index(min(vals)), vals.index(max(vals))
        return vals[i], vals[k], cand[i], cand[k]

    return tuple(zip(*map(extremes, phases)))


@dataclass(frozen=True)
class CriticalPoints:
    """Boundary parameters of the extremes: t1 for Re, t2 for Im, tau for modulus."""

    t1: float
    t2: float
    tau: float


def critical_points(p: JanowskiParams, r: float) -> CriticalPoints:
    """Critical parameters of Re, Im and modulus along the envelope at radius r."""
    C, R = _circle_geometry(p, r)
    _, _, _, t_max = _directional_extremes(C, R, p.alpha, (0.0, -0.5 * math.pi))
    return CriticalPoints(t1=t_max[0], t2=t_max[1], tau=cmath.phase(C))


# ---------------------------------------------------------------------------
# bound reports


@dataclass(frozen=True)
class ShiftedView:
    """Ranges of the shifted map h itself (Re/Im exact, modulus/argument from the convex image)."""

    re: tuple[float, float]
    im: tuple[float, float]
    mod: tuple[float, float]
    arg: tuple[float, float] | None


@dataclass(frozen=True)
class BoundReport:
    """Sharp ranges of the normalized powered map over |z| <= r.

    `arg`, `mod`, `re`, `im` are closed intervals for (h - g)/(1 - g);
    `critical` carries the extremal boundary parameters (None for purely
    sampled reports), and `shifted` restates ranges for h itself.
    """

    arg: tuple[float, float]
    mod: tuple[float, float]
    re: tuple[float, float]
    im: tuple[float, float]
    critical: CriticalPoints | None
    shifted: ShiftedView


def envelope_bounds(p: JanowskiParams, r: float) -> BoundReport:
    """Sharp Re/Im/modulus/argument intervals of the powered map at radius r.

    ||C| - R| <= 1e-9 max(1, R) counts as an origin touch (`_touch_parameter`):
    arg is a (arg C -/+ pi/2), the modulus starts at 0 and a shifted view takes
    the corner W = 0 as a node. Outside that band the half-width is asin(R/|C|).
    """
    C, R = _circle_geometry(p, r)
    a = p.alpha
    tau = cmath.phase(C)
    if _touch_parameter(C, R) is None:
        zeta, gap = math.asin(min(1.0, R / abs(C))), max(0.0, abs(C) - R)
    else:
        zeta, gap = 0.5 * math.pi, 0.0
    arg_iv = (a * (tau - zeta), a * (tau + zeta))
    mod_iv = (gap ** a, (abs(C) + R) ** a)

    g = p.gamma
    phases = [0.0, -0.5 * math.pi]
    if g != 0.0:
        phases += [cmath.phase(1.0 - g), cmath.phase(1.0 - g) - 0.5 * math.pi]
    lo, hi, t_min, t_max = _directional_extremes(C, R, a, phases)
    re_iv, im_iv = (lo[0], hi[0]), (lo[1], hi[1])
    crit = CriticalPoints(t1=t_max[0], t2=t_max[1], tau=tau)
    shifted = (ShiftedView(re=re_iv, im=im_iv, mod=mod_iv, arg=arg_iv) if g == 0.0
               else _shifted_view(p, C, R, phases, lo, hi, t_min, t_max))
    return BoundReport(arg=arg_iv, mod=mod_iv, re=re_iv, im=im_iv, critical=crit, shifted=shifted)


def _shifted_view(p: JanowskiParams, C: complex, R: float, phases, lo, hi, t_min, t_max) -> ShiftedView:
    """Ranges of h = (1 - g)(W - c), c = -g / (1 - g), over the convex image K of
    the disk under W = w^a, from the support points of the four phases (normal
    -phase at a max, pi - phase at a min; their values give Re/Im). h vanishes
    iff |arg c| < a pi and |c^{1/a} - C| <= R. Else the sign changes of
    m = Re(e^{-i psi}(W - c)) (hidden from c where m > 0; if no node is visible,
    the exit of the segment from W(z = 0) = 1 to c is) bracket the tangents,
    roots of Im(h'/h), and min |h| is the root of Re(conj(h) h') between them.
    At an origin touch the corner W = 0 is a node with the normals of its
    edges, h = g a candidate for every end, and nearest iff c is in its normal cone."""
    g, a, scale, c = p.gamma, p.alpha, abs(1.0 - p.gamma), -p.gamma / (1.0 - p.gamma)
    re, im = (g.real + scale * lo[2], g.real + scale * hi[2]), (g.imag + scale * lo[3], g.imag + scale * hi[3])
    zero = (abs(cmath.phase(c)) < a * math.pi and abs(c) <= (abs(C) + R) ** a  # max |W| over K, before the root
            and abs(cmath.rect(abs(c) ** (1.0 / a), cmath.phase(c) / a) - C) <= R)
    touch = _touch_parameter(C, R)
    nodes = [_node(C, R, a, c, touch, t, s * math.pi - phase)
             for phase, t0, t1 in zip(phases, t_min, t_max) for s, t in ((0.0, t1), (1.0, t0))]
    edges = [a * (cmath.phase(C) + s * 0.5 * math.pi) + s * 0.5 * math.pi for s in (1.0, -1.0)]  # corner edges
    nodes += [_node(C, R, a, c, touch, touch, psi) for psi in edges if touch is not None]
    far = scale * _farthest(C, R, a, c, nodes, touch)[0]
    if zero:
        return ShiftedView(re=re, im=im, mod=(0.0, far), arg=None)

    def exit_gap(s: float) -> tuple[float, float]:  # |P^{1/a} - C| - R, P = 1 + s (c - 1), or 1 off |arg P| < a pi
        P = 1.0 + s * (c - 1.0)
        u = P ** (1.0 / a) - C if P and abs(cmath.phase(P)) < a * math.pi else None
        return (1.0, 0.0) if u is None else (abs(u) - R, (u.conjugate() * (u + C) / P * (c - 1.0)).real / (a * abs(u)))

    seen = None
    if all(node[3].real > 0.0 for node in nodes):
        P = 1.0 + _newton(exit_gap, 0.5, 0.0, 1.0, -1.0, 1.0) * (c - 1.0)
        seen = _node(C, R, a, c, touch, cmath.phase(P ** (1.0 / a) - C) % _TAU)
        nodes = sorted(nodes + [seen], key=lambda node: node[0])
    m = [node[3].real if node is not seen else min(node[3].real, 0.0) for node in nodes]
    ends = {m[j - 1] > 0.0: _root(C, R, a, c, True, nodes[j - 1][1], nodes[j][1], m[j - 1], m[j])
            for j in range(len(nodes)) if (m[j - 1] > 0.0) != (m[j] > 0.0)}  # True: where arg h is largest
    cusp = [] if touch is None else [g]
    corner = touch is not None and (cmath.phase(c) - edges[0]) % _TAU <= (edges[1] - edges[0]) % _TAU  # is nearest
    ts = [ends[False], ends[True]] + ([] if corner else [_root(C, R, a, c, False, ends[True], ends[False], -1.0, 1.0)])
    h = [(1.0 - g) * _node(C, R, a, c, touch, t)[2] for t in ts]
    least, args = min(map(abs, h[2:] + cusp)), [cmath.phase(v) for v in h[:2] + cusp]
    return ShiftedView(re=re, im=im, mod=(least, far),  # as in the oracle, no arg below _NO_ARG_FLOOR
                       arg=(min(args), max(args)) if least >= _NO_ARG_FLOOR else None)


def _node(C: complex, R: float, a: float, c: complex, touch: float | None, t: float, psi: float | None = None):
    """Node (psi, t, W - c, e^{-i psi}(W - c)) of W(t) = w^a (0 at the touch), psi = t + (a - 1) arg w if not given."""
    w = C + cmath.rect(R, t)
    psi = (t + (a - 1.0) * cmath.phase(w) if psi is None else psi) % _TAU
    y = (0j if t == touch else w ** a) - c
    return psi, t, y, y * cmath.rect(1.0, -psi)


def _root(C: complex, R: float, a: float, c: complex, of_arg: bool, t0: float, t1: float, f0: float, f1: float):
    """`_newton` root on t0 -> t1 of Im(W'/(W - c)) or Re(conj(W - c) W'), signed as f0, f1 there, from their secant.
    With w' = i R e^{it} = s w, W' = a W s and W'' = W' ((a - 1) s + i); W' is 0 at an origin touch."""
    span = (t1 - t0) % _TAU

    def slope(t: float) -> tuple[float, float]:
        u = cmath.rect(R, t)
        w = C + u
        s = 1j * u / w if w else 0j
        v = w ** a
        y, d, m = v - c, a * v * s, (a - 1.0) * s + 1j
        if of_arg:
            q = d / y if y else 0j  # d/dt log(W - c), 0 at a zero of h
            return q.imag, (q * (m - q)).imag
        return (y.conjugate() * d).real, abs(d) ** 2 + (y.conjugate() * d * m).real

    return _newton(slope, t0 + span * f0 / (f0 - f1), t0, t0 + span, f0, f1) if span else t0


def _farthest(C: complex, R: float, a: float, c: complex, nodes: list, touch: float | None):
    """max |W - c| = max m over K as (value, t, upper), value <= max <= upper, by
    branch and bound over the nodes (sorted in place, new ones added). As m'' + m
    = rho >= 0, the radius of curvature, m lies below the sinusoid through its
    values at two nodes, whose top is |Z| where their support lines meet at c + Z
    between them. An arc whose bound exceeds the best |W - c| by over 4 ulps has
    one peak where rho = a R |w|^{a-1} / (a + (1 - a) Re(C/w)), bounded at the
    points nearest arg C + pi and arg C, stays below |W_k - c| cos(|beta_k| + width)
    <= |W - c| from an end k (beta' = rho cos beta / |W - c| - 1 < 0): the root of
    Re(conj(W - c) W') if beta falls through 0, else an end. Other arcs split at
    their middle parameter; past _NODE_CAP nodes upper is the largest bound. At
    a = 1, K is the disk itself and the maximum is |C - c| + R at t = arg(C - c),
    within 4 rounding units. Either way upper adds 2^-50 relative for rounding."""
    if a == 1.0:
        value = abs(C - c) + R
        return value, cmath.phase(C - c) % _TAU, value * (1.0 + 2.0 ** -50)
    done = {}  # id of the first node of an arc whose maximum is known -> that maximum
    value, t_best = max((abs(node[2]), node[1]) for node in nodes)

    def bound(n0, n1) -> float:  # two nodes at one point bound their arc by it
        (p0, t0, y0, v0), (p1, t1, _, v1) = n0, n1
        width, top = (p1 - p0) % _TAU, max(v0.real, v1.real)
        Z = 1j * (v1.real * cmath.rect(1.0, p0) - v0.real * cmath.rect(1.0, p1)) / (math.sin(width) or math.inf)
        return abs(y0) if t0 == t1 else abs(Z) if Z and (cmath.phase(Z) - p0) % _TAU <= width else top

    def nearest(s: float, t0: float, span: float) -> complex:  # w at the point of the arc nearest s
        d = (s - t0) % _TAU
        return C + cmath.rect(R, s if d <= span else (t0 if _TAU - d < d - span else t0 + span))

    while True:
        nodes.sort(key=lambda node: node[0])
        arcs = list(zip(nodes, nodes[1:] + nodes[:1]))
        bounds = [done[id(n0)] if id(n0) in done else bound(n0, n1) for n0, n1 in arcs]
        live = [arc for arc, b in zip(arcs, bounds) if id(arc[0]) not in done and b > value * (1.0 + 2.0 ** -50)]
        if not live or len(nodes) >= _NODE_CAP:
            return value, t_best, max([value] + bounds) * (1.0 + 2.0 ** -50)
        for n0, n1 in live:
            t0, span, width = n0[1], (n1[1] - n0[1]) % _TAU, (n1[0] - n0[0]) % _TAU
            low = max(abs(n[2]) * math.cos(min(0.5 * math.pi, abs(cmath.phase(n[3])) + width)) for n in (n0, n1))
            w1, w2 = (nearest(cmath.phase(C) + s, t0, span) for s in (math.pi, 0.0))
            if not a * R < low * abs(w1) ** (1.0 - a) * (a + (1.0 - a) * (C / w2).real):
                nodes.append(_node(C, R, a, c, touch, t0 + 0.5 * span))
            elif n0[3].imag > 0.0 > n1[3].imag:
                t = _root(C, R, a, c, False, t0, n1[1], n0[3].imag, n1[3].imag)
                done[id(n0)] = abs(_node(C, R, a, c, touch, t)[2])
                value, t_best = max((value, t_best), (done[id(n0)], t))
            else:
                done[id(n0)] = max(abs(n0[2]), abs(n1[2]))
