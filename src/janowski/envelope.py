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
Re/Im ranges exactly (rotated critical points) with modulus/argument
ranges refined numerically. With g = 0 the shifted view is the primary
report itself.
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
)
from .moebius import JanowskiParams, image_disk

_EPS = 1e-12
_NEWTON_TOL = 1e-13  # final step length of a critical-parameter solve
_NEWTON_CAP = 100
_POLISH_POINTS = 33  # local grid per polishing round, two coarse steps wide
_POLISH_ROUNDS = 5  # each round shrinks the spacing 16-fold


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


@functools.cache
def _unit_circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Parameters t_k = 2 pi k / n and the n-th roots of unity e^{i t_k},
    built once per n from real cos and sin and shared read-only."""
    t = 2.0 * np.pi * np.arange(n) / n
    z = np.empty(n, dtype=complex)
    z.real, z.imag = np.cos(t), np.sin(t)
    t.setflags(write=False)
    z.setflags(write=False)
    return t, z


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
    if not 0.0 < r <= 1.0:
        raise OutOfRangeError(f"r must lie in (0, 1], got {r}")
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
    between samples straddling an origin touch.
    """
    n = require_index("n", n, 1)
    C, R = _circle_geometry(p, r)
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    w = np.empty(n, dtype=complex)  # e^{it} from real cos and sin, then C + R e^{it}
    w.real, w.imag = np.cos(t), np.sin(t)
    w *= R
    w += C
    M = np.abs(w) ** p.alpha
    N = p.alpha * _unwrap(np.angle(w))
    return EnvelopeCurve(r=r, t=t, u=w.real, v=w.imag, M=M, N=N)


def _unwrap(p: np.ndarray) -> np.ndarray:
    """np.unwrap(p) bit for bit for a 1-d float array, computing numpy's
    correction only at the jumps |p[i+1] - p[i]| >= pi (NaN counts as one).
    Every other correction is +0.0, so a jump-free p costs one diff."""
    dd = np.diff(p)
    jumps = np.flatnonzero(~(np.abs(dd) < math.pi))
    out = np.empty_like(p)
    out[:1] = p[:1]
    if not jumps.size:
        np.add(p[1:], 0.0, out=out[1:])  # numpy adds +0.0 too: -0.0 turns to +0.0
        return out
    d = dd[jumps]
    ddmod = np.mod(d + math.pi, 2.0 * math.pi) - math.pi
    ddmod[(ddmod == -math.pi) & (d > 0.0)] = math.pi
    step = np.zeros_like(dd)
    step[jumps] = ddmod - d
    np.add(p[1:], np.cumsum(step), out=out[1:])
    return out


# ---------------------------------------------------------------------------
# critical points of the directional objectives


def _dir_objective(C: complex, R: float, alpha: float, phase, t: np.ndarray):
    return (np.exp(1j * phase) * _power(C + R * np.exp(1j * t), alpha)).real


def _touch_parameter(C: complex, R: float) -> float | None:
    """Parameter where the circle meets the origin, if it does."""
    if abs(abs(C) - R) > 1e-9 * max(1.0, R):
        return None
    return cmath.phase(-C) % (2.0 * math.pi)


def _theta(C: complex, R: float, alpha: float, phase, t):
    """theta(t) = t + phase + (alpha - 1) arg w(t) and its derivative."""
    u = R * np.exp(1j * t)
    w = C + u
    return t + phase + (alpha - 1.0) * np.angle(w), 1.0 - (1.0 - alpha) * (u / w).real


def _critical_parameters(C: complex, R: float, alpha: float, phases: np.ndarray) -> np.ndarray:
    """Solutions of theta(t) = k pi for the two multiples k pi in
    (theta(0), theta(0) + 2 pi], one row per phase; each is alone in [0, 2 pi].

    A Newton step is kept when it stays in the bracket and is at most half
    the previous step; any other step bisects, so the iteration cannot cycle.
    """
    theta0, _ = _theta(C, R, alpha, phases, 0.0)
    target = (np.floor(theta0 / math.pi)[:, None] + np.array([1.0, 2.0])) * math.pi
    t = target - theta0[:, None]  # exact when alpha = 1
    lo, hi = np.zeros_like(t), np.full_like(t, 2.0 * math.pi)
    last = hi
    done = np.zeros(t.shape, dtype=bool)
    for _ in range(_NEWTON_CAP):
        val, slope = _theta(C, R, alpha, phases[:, None], t)
        below = val < target
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
        step = (val - target) / slope
        newton = t - step
        bisect = (newton < lo) | (newton > hi) | (np.abs(step) > 0.5 * last)
        nxt = np.where(bisect, 0.5 * (lo + hi), newton)
        last = np.abs(nxt - t)
        t = np.where(done, t, nxt)
        done |= last <= _NEWTON_TOL
        if done.all():
            return t % (2.0 * math.pi)
    raise NoConvergenceError(f"critical parameters not converged in {_NEWTON_CAP} steps")


def _touch_critical_parameters(alpha: float, phases: np.ndarray, tau: float, touch: float) -> np.ndarray:
    """The same solutions in closed form when the circle touches the origin.
    Off the touch theta has slope (1 + alpha)/2 and equals mid + phase +
    (alpha - 1) tau at mid = touch + pi, where w = 2C. It sweeps only
    (1 + alpha) pi there, so a second root may be missing (NaN)."""
    s = 0.5 * (1.0 + alpha)
    mid = touch + math.pi
    theta_mid = mid + phases + (alpha - 1.0) * tau
    k = np.floor((theta_mid - s * math.pi) / math.pi)[:, None] + np.array([1.0, 2.0])
    t = mid + (k * math.pi - theta_mid[:, None]) / s
    return np.where(t < mid + math.pi, t % (2.0 * math.pi), np.nan)


def _directional_extremes(C: complex, R: float, alpha: float, phases):
    """Per phase, min and max of Re(e^{i phase} w^a) and the parameter of the max."""
    phases = np.asarray(phases, dtype=float)
    touch = _touch_parameter(C, R)
    if touch is None:
        cand = _critical_parameters(C, R, alpha, phases)
    else:
        roots = _touch_critical_parameters(alpha, phases, cmath.phase(C), touch)
        cand = np.column_stack([roots, np.full(phases.shape, touch)])
    vals = _dir_objective(C, R, alpha, phases[:, None], cand)
    if touch is not None:
        vals[:, -1] = 0.0  # w^a vanishes at the touch
    rows = np.arange(phases.size)
    i_max = np.nanargmax(vals, axis=1)
    return np.nanmin(vals, axis=1), vals[rows, i_max], cand[rows, i_max]


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
    return CriticalPoints(t1=float(t_max[0]), t2=float(t_max[1]), tau=cmath.phase(C))


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
    re_iv, im_iv = (float(lo[0]), float(hi[0])), (float(lo[1]), float(hi[1]))
    crit = CriticalPoints(t1=float(t_max[0]), t2=float(t_max[1]), tau=tau)
    shifted = (ShiftedView(re=re_iv, im=im_iv, mod=mod_iv, arg=arg_iv) if g == 0.0
               else _shifted_view(p, C, R, lo[2:], hi[2:]))
    return BoundReport(arg=arg_iv, mod=mod_iv, re=re_iv, im=im_iv, critical=crit, shifted=shifted)


def _unwrapped_turns(h: np.ndarray) -> tuple[np.ndarray, int]:
    """Continuous argument along a closed sampled curve h and its turns
    about 0: by the argument principle, the zeros of h inside the circle."""
    args = _unwrap(np.angle(h))
    closing = np.angle(h[0] / h[-1])
    return args, int(round((args[-1] + closing - args[0]) / (2.0 * math.pi)))


def _shifted_view(p: JanowskiParams, C: complex, R: float, lo, hi) -> ShiftedView:
    """Ranges of h: Re/Im from the extremes lo, hi at phases arg(1 - g) and
    arg(1 - g) - pi/2, modulus and argument from a 4096-point grid plus one
    joint polish. A zero of h inside the disk makes the modulus minimum 0;
    a zero inside or on the circle leaves no continuous argument."""
    g, scale = p.gamma, abs(1.0 - p.gamma)
    re = (g.real + scale * float(lo[0]), g.real + scale * float(hi[0]))
    im = (g.imag + scale * float(lo[1]), g.imag + scale * float(hi[1]))

    def h_at(e_it: np.ndarray) -> np.ndarray:
        return (1.0 - g) * _power(C + R * e_it, p.alpha) + g

    grid, circle = _unit_circle(4096)
    hv = h_at(circle)
    mods = np.abs(hv)
    # At an origin touch h has a cusp at the value g, which polishing in t
    # only approaches (w^a is still about dt^a at distance dt), so g is a
    # candidate for both ends of the modulus and argument ranges.
    touch = _touch_parameter(C, R)
    args, turns = (None, 0) if np.min(mods) < 1e-9 else _unwrapped_turns(hv)
    if args is None or turns:
        (mod,) = _refined_range(lambda t: np.abs(h_at(np.exp(1j * t))), grid, mods[None])
        if touch is not None:
            mod = _widened(mod, abs(g))
        return ShiftedView(re=re, im=im, mod=(0.0, mod[1]) if turns else mod, arg=None)

    def mod_arg(t: np.ndarray) -> np.ndarray:
        # rows 0-1 modulus, rows 2-3 continuous argument measured from the
        # nearest grid sample
        h = h_at(np.exp(1j * t))
        i = np.rint(t[2:] / grid[1]).astype(int) % grid.size
        return np.concatenate([np.abs(h[:2]), args[i] + np.angle(h[2:] / hv[i])])

    mod, arg = _refined_range(mod_arg, grid, np.stack([mods, args]))
    if touch is not None:
        i = int(np.rint(touch / grid[1])) % grid.size  # arg g on the branch of the nearest sample
        mod, arg = _widened(mod, abs(g)), _widened(arg, float(args[i] + np.angle(g / hv[i])))
    return ShiftedView(re=re, im=im, mod=mod, arg=arg)


def _widened(iv: tuple[float, float], v: float) -> tuple[float, float]:
    """The smallest interval holding iv and v."""
    return (min(iv[0], v), max(iv[1], v))


def _refined_range(fun, grid: np.ndarray, vals: np.ndarray) -> list[tuple[float, float]]:
    """Min/max of k smooth periodic functions from their values vals[j] on a
    uniform grid. fun maps parameters of shape (2k, m), a min row and a max
    row per function, to the values of those rows; each round samples both
    ends of every function within one spacing of its best point so far."""
    step = grid[1] - grid[0]
    rows = np.arange(2 * vals.shape[0])
    sign = np.where(rows % 2 == 0, 1.0, -1.0)  # minimize sign * fun: each min, then its max
    idx = np.stack([np.argmin(vals, axis=1), np.argmax(vals, axis=1)], axis=1).ravel()
    center, best = grid[idx], sign * vals[rows // 2, idx]
    offsets = np.linspace(-1.0, 1.0, _POLISH_POINTS)
    for _ in range(_POLISH_ROUNDS):
        t = center[:, None] + step * offsets
        f = sign[:, None] * fun(t)
        k = np.argmin(f, axis=1)
        center = t[rows, k]
        best = np.minimum(best, f[rows, k])
        step *= 2.0 / (_POLISH_POINTS - 1)
    return [(float(best[j]), float(-best[j + 1])) for j in range(0, rows.size, 2)]


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
    if not 0.0 < alpha <= 1.0:
        raise OutOfRangeError(f"alpha must lie in (0, 1], got {alpha}")
    if not -1.0 < m < 1.0:
        raise OutOfRangeError(f"m must lie in (-1, 1), got {m}")
    return SectorImage(
        lo=-alpha * (1.0 - m) * 0.5 * math.pi,
        hi=alpha * (1.0 + m) * 0.5 * math.pi,
        half_plane_tilt=0.5 * m * math.pi,
    )


def tilt_angle(b: float, m: float) -> float:
    """Tilt lambda with Re(e^{-i lambda} h) > 0 for h subordinate to
    (1 + e^{i m pi} z)/(1 - b z); lambda = arg(1 + b e^{i m pi})."""
    require_finite_args("tilt_angle", b=b, m=m)
    if not 0.0 <= b <= 1.0:
        raise OutOfRangeError(f"b must lie in [0, 1], got {b}")
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
        if not 0.0 < a <= 1.0:
            raise OutOfRangeError(f"powers must lie in (0, 1], got {a}")
    return a1 <= a2 + _EPS
