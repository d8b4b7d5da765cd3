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
value 1 for z = 0. The affine shift g is handled after the fact: the
primary report describes (h - g)/(1 - g) and a shifted view restates
Re/Im ranges exactly (rotated critical points). Its modulus and argument
ranges come from a 4096-point grid plus a Newton root of the closed-form
derivative next to each best sample: about 0.4 ms a call, against 0.04 ms
with g = 0. With g = 0 the shifted view is the primary report itself.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchUndefinedError,
    DegenerateMapError,
    NoConvergenceError,
    OutOfRangeError,
    ParameterError,
    require_finite_args,
    require_index,
    require_range,
)
from .moebius import JanowskiParams, image_disk

_EPS = 1e-12
_NEWTON_TOL = 1e-13  # final step length of a Newton solve
_NEWTON_CAP = 100
_RESOLVED = 1e-3  # largest step from the best sample to a neighbour at a resolved extreme
_BLOCK = 1 << 14  # samples per block of a streamed curve, 256 KiB of complex values
_NO_ARG_FLOOR = 1e-9  # below this min |h| on the circle, a shifted view reports no argument range


# ---------------------------------------------------------------------------
# low-level powered evaluation


def _power(w, a: float) -> np.ndarray:
    """Principal-branch w^a in polar form, |w|^a (cos phi + i sin phi) with
    phi = a arg w, filled part by part from real kernels.

    arg w lies in (-pi, pi] and keeps the sign of a zero imaginary part, so
    w = -1 - 0j takes the -pi side, as np.log does; 0^a = 0 for a > 0
    needs no log(0). The real kernels cost about a quarter of numpy's
    complex log and are accurate to a few ulps, where exp(a log w) loses
    up to about 30 ulps at large |a log w|.
    """
    phi = a * np.arctan2(w.imag, w.real)  # np.angle's own kernel, without its wrapper
    mod = np.abs(w) ** a
    out = np.empty(np.shape(phi), dtype=complex)
    np.multiply(mod, np.cos(phi), out=out.real)
    np.multiply(mod, np.sin(phi), out=out.imag)
    return out


def _log(w) -> np.ndarray:
    """Principal log w = log|w| + i arg w from real kernels: branch and
    signed zeros as in np.log, at about a quarter of its cost. Re log w
    keeps a small absolute error but loses relative accuracy near
    |w| = 1, which log ratios and powers built on them do not feel."""
    w = np.asarray(w)
    out = np.empty(w.shape, dtype=complex)
    np.log(np.abs(w), out=out.real)
    np.arctan2(w.imag, w.real, out=out.imag)
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
    exists.
    """
    z = np.asarray(z, dtype=complex)
    radius = float(np.abs(z).max()) if z.size else math.nan  # NaN or inf: a non-finite point
    if not math.isfinite(radius):
        raise ParameterError("z must be a non-empty set of finite points")
    _branch_guard(p, radius)
    out = (1.0 - p.gamma) * _power((1.0 + p.A * z) / (1.0 + p.B * z), p.alpha) + p.gamma
    return complex(out) if out.ndim == 0 else out


def invert_powered(p: JanowskiParams, w) -> np.ndarray:
    """Preimage of candidate values under the powered, shifted map:
    w -> (w~ - 1)/(A - B w~) with w~ = ((w - gamma)/(1 - gamma))^(1/alpha)."""
    w = (np.asarray(w, dtype=complex) - p.gamma) / (1.0 - p.gamma)
    if p.alpha != 1.0:  # the power 1 is the identity, kept exact
        w = _power(w, 1.0 / p.alpha)
    return (w - 1.0) / (p.A - p.B * w)


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

    The curve avoids the cut, so principal arguments are already
    continuous; `_unwrap` (np.unwrap bit for bit) corrects the rare jump
    between samples straddling an origin touch. The samples are the
    blocks of `_curve_blocks` joined, and t_k = k (2 pi / n) + 0.0 has the
    bytes of np.linspace. Up to _BLOCK samples the points are C + R e^{it}
    with e^{it} from `_unit_circle`; beyond it they are rotated (see
    `_curve_blocks`).
    """
    n = require_index("n", n, 1)
    w, M, N = (np.concatenate(parts) for parts in zip(*_curve_blocks(p, r, n)))
    t = np.arange(n) * (2.0 * np.pi / n) + 0.0
    return EnvelopeCurve(r=r, t=t, u=w.real, v=w.imag, M=M, N=N)


def _curve_blocks(p: JanowskiParams, r: float, n: int, keep: np.ndarray | None = None):
    """The n-point curve of `sample_curve` as blocks (w, M, N) of up to
    _BLOCK consecutive samples, so a consumer never holds a full-length array;
    with `keep`, sorted indices, only those samples, with their full bits,
    visiting only the blocks that hold one.

    The block from index k0 on is the first min(n, _BLOCK) points of
    `_unit_circle(n)` (at the kept indices) times the scalar R e^{i k0 s},
    s = 2 pi / n (math.cos and math.sin), plus C. The first block is thus
    C + R e^{it} itself. At n = 200000 the rotated e^{it} lies within 1.14e-15
    of e^{2 pi i k / n} (cos and sin of t_k: 1.26e-15, over 2028 indices with
    every block boundary); the tests bound each sample's distance from
    C + R e^{2 pi i k / n} by 2e-15 (|C| + R). The unwrapped argument carries
    the last raw argument and running correction across block boundaries and
    gaps between kept samples.
    """
    C, R = _circle_geometry(p, r)
    step = 2.0 * np.pi / n
    base = _unit_circle(n, _BLOCK) if n > _BLOCK else _unit_circle(n)
    prev, carry = None, 0.0
    cuts = None if keep is None else np.searchsorted(keep, np.arange(0, n + _BLOCK, _BLOCK)).tolist()
    for b, k0 in enumerate(range(0, n, _BLOCK)):
        if keep is not None and cuts[b] == cuts[b + 1]:
            continue  # no kept index in this block
        at = slice(0, n - k0) if keep is None else keep[cuts[b]:cuts[b + 1]] - k0
        w = base[at] * (R * complex(math.cos(k0 * step), math.sin(k0 * step)))
        w += C
        arg = np.angle(w)
        N, carry = _unwrap(arg, prev, carry)
        prev = arg[-1]
        yield w, np.abs(w) ** p.alpha, p.alpha * N


def _unwrap(p: np.ndarray, prev: float | None = None, carry: float = 0.0) -> tuple[np.ndarray, float]:
    """np.unwrap(p) bit for bit for a 1-d float array, computing numpy's
    correction only at the jumps |p[i+1] - p[i]| >= pi (NaN counts as one).
    Every other correction is +0.0, so a jump-free p costs one diff.

    Returns the unwrapped p and the running correction after it. An array
    unwrapped in pieces, each passed with prev, the last raw value of the
    piece before, and carry, the correction that piece returned, joins to
    np.unwrap of the whole array: numpy's cumulative sum is sequential, so
    continuing it from carry adds in the same order.
    """
    out = np.empty_like(p)
    if prev is None:  # the first value of the whole array stays as it is
        if not p.size:
            return out, carry
        out[0], prev = p[0], p[0]
        p, rest = p[1:], out[1:]
    else:
        rest = out
    dd = np.empty_like(p)  # differences from prev on
    dd[:1] = p[:1] - prev
    np.subtract(p[1:], p[:-1], out=dd[1:])
    jumps = np.flatnonzero(~(np.abs(dd) < math.pi))
    if not jumps.size:
        np.add(p, carry, out=rest)  # numpy adds the correction, +0.0 too: -0.0 turns to +0.0
        return out, carry
    d = dd[jumps]
    ddmod = np.mod(d + math.pi, 2.0 * math.pi) - math.pi
    ddmod[(ddmod == -math.pi) & (d > 0.0)] = math.pi
    step = np.zeros_like(dd)
    step[jumps] = ddmod - d
    step[0] += carry  # corrections are never -0.0, so carry 0.0 leaves step[0] as it is
    np.cumsum(step, out=step)
    np.add(p, step, out=rest)
    return out, float(step[-1])


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


def _directional_extremes(C: complex, R: float, alpha: float, phases) -> tuple[tuple, tuple, tuple]:
    """Per phase, min and max of Re(e^{i phase} w^a) and the parameter of the max."""
    touch = _touch_parameter(C, R)

    def extremes(phase: float) -> tuple[float, float, float]:
        cand = _critical_parameters(C, R, alpha, phase, touch)
        vals = [(cmath.exp(1j * phase) * (C + cmath.rect(R, t)) ** alpha).real for t in cand]
        if touch is not None:
            vals[-1] = 0.0  # w^a vanishes at the touch
        k = vals.index(max(vals))
        return min(vals), vals[k], cand[k]

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
    _, _, t_max = _directional_extremes(C, R, p.alpha, (0.0, -0.5 * math.pi))
    return CriticalPoints(t1=t_max[0], t2=t_max[1], tau=cmath.phase(C))


# ---------------------------------------------------------------------------
# bound reports


@dataclass(frozen=True)
class ShiftedView:
    """Ranges of the shifted map h itself (Re/Im exact, modulus/argument refined)."""

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
    """Sharp Re/Im/modulus/argument intervals of the powered map at radius r."""
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
    lo, hi, t_max = _directional_extremes(C, R, a, phases)
    re_iv, im_iv = (lo[0], hi[0]), (lo[1], hi[1])
    crit = CriticalPoints(t1=t_max[0], t2=t_max[1], tau=tau)
    shifted = (ShiftedView(re=re_iv, im=im_iv, mod=mod_iv, arg=arg_iv) if g == 0.0
               else _shifted_view(p, C, R, lo[2:], hi[2:]))
    return BoundReport(arg=arg_iv, mod=mod_iv, re=re_iv, im=im_iv, critical=crit, shifted=shifted)


def _shifted_view(p: JanowskiParams, C: complex, R: float, lo, hi) -> ShiftedView:
    """Ranges of h: Re/Im from the extremes lo, hi at phases arg(1 - g) and
    arg(1 - g) - pi/2, modulus and argument from a 4096-point grid plus a
    Newton root of the closed-form derivative next to each best sample. As
    h = (1 - g)(w^a - c), c = -g / (1 - g), and w^a is one to one onto |arg| <
    a pi, h has a zero in the closed disk iff |arg c| < a pi and |w0 - C| <= R
    for w0 = |c|^{1/a} e^{i arg c / a}: then min |h| = 0 and no arg. As in
    the oracle, min |h| < _NO_ARG_FLOOR on the circle gives no arg either."""
    g, a, scale = p.gamma, p.alpha, abs(1.0 - p.gamma)
    re = (g.real + scale * lo[0], g.real + scale * hi[0])
    im = (g.imag + scale * lo[1], g.imag + scale * hi[1])
    c = -g / (1.0 - g)
    zero = abs(cmath.phase(c)) < a * math.pi and abs(cmath.rect(abs(c) ** (1.0 / a), cmath.phase(c) / a) - C) <= R

    def h_at(t: float) -> complex:
        return (1.0 - g) * (C + cmath.rect(R, t)) ** a + g

    def slope(t: float, of_arg: bool) -> tuple[float, float]:
        """d/dt arg h or d/dt |h|^2 / 2 = Re(conj(h) h') at t, and its derivative.
        With w' = i R e^{it} = s w, h' = (1 - g) a w^a s and h'' = h' m,
        m = (a - 1) s + i; h' is taken as 0 at an origin touch w = 0."""
        u = cmath.rect(R, t)
        w = C + u
        s = 1j * u / w if w else 0j
        v = (1.0 - g) * w ** a
        h, d, m = v + g, a * v * s, (a - 1.0) * s + 1j
        if of_arg:
            q = d / h  # d/dt log h
            return q.imag, (q * (m - q)).imag
        return (h.conjugate() * d).real, abs(d) ** 2 + (h.conjugate() * d * m).real

    hv = (1.0 - g) * _power(C + R * _unit_circle(4096), a) + g
    mods = np.abs(hv)
    touch = _touch_parameter(C, R)  # where h has a cusp at the value g
    mod = _polished_range(mods, lambda t: slope(t, False), lambda t: abs(h_at(t)),
                          None if touch is None else abs(g))
    if zero or mod[0] < _NO_ARG_FLOOR:
        return ShiftedView(re=re, im=im, mod=(0.0, mod[1]) if zero else mod, arg=None)
    args, _ = _unwrap(np.arctan2(hv.imag, hv.real))  # np.angle's kernel, without its wrapper

    def arg_at(t: float, h: complex) -> float:  # arg h on the branch of the grid sample nearest t
        i = round(t / (2.0 * math.pi) * hv.size) % hv.size
        return float(args[i]) + cmath.phase(h / complex(hv[i]))

    arg = _polished_range(args, lambda t: slope(t, True), lambda t: arg_at(t, h_at(t)),
                          None if touch is None else arg_at(touch, g))
    return ShiftedView(re=re, im=im, mod=mod, arg=arg)


def _polished_range(vals: np.ndarray, slope, value, cusp: float | None) -> tuple[float, float]:
    """Min and max of a smooth periodic function from its values vals at
    t_j = 2 pi j / n. Each end is the better of the best sample, cusp (a
    value where the derivative changes sign without vanishing) and value(t)
    at the `_newton` root t of slope(t), the derivative and its own, within
    one spacing. While the best sample's neighbours differ from it by more
    than _RESOLVED max(1, |best|), as next to a zero of h or an origin
    touch, a 17-point grid over the two spacings around it is sampled."""
    def end(i: int, better) -> float:
        width = 2.0 * math.pi / vals.size
        t, best, near = i * width, float(vals[i]), (vals[i - 1], vals[(i + 1) % vals.size])
        while max(abs(v - best) for v in near) > _RESOLVED * max(1.0, abs(best)) and width > _NEWTON_TOL:
            ts = t + width * np.linspace(-1.0, 1.0, 17)  # one-eighth the spacing
            fs = [value(s) for s in ts]
            k = fs.index(better(fs))
            width, t, best = width / 8.0, ts[k], better(best, fs[k])
            near = (fs[k - 1] if k else value(t - width), fs[k + 1] if k < 16 else value(t + width))
        lo, hi = t - width, t + width
        f_lo, f_hi = slope(lo)[0], slope(hi)[0]
        if f_lo * f_hi <= 0.0:
            best = better(best, value(_newton(slope, t, lo, hi, f_lo, f_hi)))
        return best if cusp is None else better(best, cusp)

    return end(int(np.argmin(vals)), min), end(int(np.argmax(vals)), max)


# ---------------------------------------------------------------------------
# sector geometry of the limit case b = 1


@dataclass(frozen=True)
class SectorImage:
    """Argument range of ((1 + e^{i m pi} z)/(1 - z))^a over the unit disk."""

    lo: float
    hi: float
    half_plane_tilt: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


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
    a = cmath.exp(1j * math.pi * m)
    if abs(b + a) <= _EPS:
        raise DegenerateMapError("b + e^{i m pi} = 0 leaves no half-plane")
    return math.atan2(b * math.sin(math.pi * m), b * math.cos(math.pi * m) + 1.0)


def alpha_nesting(A: complex, B: complex, a1: float, a2: float) -> bool:
    """Whether the power-a1 image nests in the power-a2 image (true iff a1 <= a2).

    Valid for |A| <= 1, |B| <= 1, where the powered images grow with the
    exponent and the maps stay subordination-comparable.
    """
    require_finite_args("alpha_nesting", A=A, B=B)
    if abs(A) > 1.0 + _EPS or abs(B) > 1.0 + _EPS:
        raise OutOfRangeError("nesting requires |A| <= 1 and |B| <= 1")
    for a in (a1, a2):
        require_range("powers", a, "(0, 1]")
    return a1 <= a2 + _EPS
