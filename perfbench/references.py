"""References the benchmark checks outputs against.

None of them reuses the code path it checks: envelopes are checked with
the benchmark's own numpy boundary sampler, special values with mpmath at
30 digits or with the same call at 100x tighter tolerance, and CLI
results with the in-process library call. Each function returns `None`
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math

import mpmath as mp
import numpy as np

import janowski as J

mp.mp.dps = 30

N_BOUNDARY = 8192  # boundary samples per envelope check
WINDOW = 8  # samples on each side that set the sampling resolution at an extreme
# At the origin touch the seed commit lets samples leave an interval by up
# to ~1e-4: Re(w^a) dips below 0 next to the cusp when a(tau -/+ pi/2) passes
# -/+pi/2, and asin(R/|C|) at R/|C| ~ 1 is off by ~1e-8. Larger excursions
# are not that defect.
TOUCH_SLACK = 1e-3


def _tol(*values: float) -> float:
    return 1e-9 * max(1.0, *(abs(v) for v in values))


# ---------------------------------------------------------------------------
# envelope


def image_disk_error(p: J.JanowskiParams, r: float, geo: J.DiskGeometry) -> str | None:
    """Boundary points of |z| = r must land on the reported circle."""
    if not geo.is_disk:
        return f"image reported as {geo.kind}, expected a disk at |B| r = {abs(p.B) * r:.6g} < 1"
    z = r * np.exp(2j * np.pi * np.arange(1024) / 1024)
    w = (1.0 + p.A * z) / (1.0 + p.B * z)
    residual = float(np.max(np.abs(np.abs(w - geo.center) - geo.radius)))
    if residual > 1e-10 * (1.0 + geo.radius):
        return f"boundary points miss the reported circle by {residual:.3g}"
    return None


def _resolution(s: np.ndarray, k: int) -> float:
    """How much s changes within WINDOW samples of sample k: the distance
    by which the sampled extreme may miss the true one. At a cusp, such as
    the origin touch |A| r = 1, it is far larger than at a smooth extreme."""
    idx = (k + np.arange(-WINDOW, WINDOW + 1)) % s.size
    return float(np.max(np.abs(s[idx] - s[k])))


def _interval_error(name: str, iv, s: np.ndarray, sharp_lo: bool = True) -> tuple[str | None, float]:
    """`iv` must contain every sample (one-sided, to 1e-9) and each end must
    lie within the sampling resolution of a sample; `sharp_lo=False` skips
    that for the lower end, when the extreme lies inside the disk. Returns
    the reason and how far the samples leave the interval (0 if they don't)."""
    lo, hi = float(iv[0]), float(iv[1])
    tol = _tol(lo, hi)
    kmin, kmax = int(np.argmin(s)), int(np.argmax(s))
    smin, smax = float(s[kmin]), float(s[kmax])
    excess = max(lo - smin, smax - hi, 0.0)
    if excess > tol:
        return f"{name}: samples span [{smin:.12g}, {smax:.12g}], outside [{lo:.12g}, {hi:.12g}]", excess
    if sharp_lo and lo < smin - _resolution(s, kmin) - tol:
        return f"{name}: lower end {lo:.12g} lies below the sampled minimum {smin:.12g}", 0.0
    if hi > smax + _resolution(s, kmax) + tol:
        return f"{name}: upper end {hi:.12g} lies above the sampled maximum {smax:.12g}", 0.0
    return None, 0.0


def boundary_samples(p: J.JanowskiParams, r: float, n: int = N_BOUNDARY):
    """w^a and its continuous argument on |z| = r, and h = (1-g) w^a + g.

    |A| r <= 1 and |B| r < 1 keep 1 + A z and 1 + B z in the closed right
    half-plane, so a (Arg(1 + A z) - Arg(1 + B z)) is continuous and the
    principal logarithms give the principal power."""
    z = r * np.exp(2j * np.pi * np.arange(n) / n)
    num, den = 1.0 + p.A * z, 1.0 + p.B * z
    with np.errstate(divide="ignore", invalid="ignore"):
        wa = np.exp(p.alpha * (np.log(num) - np.log(den)))
    wa = np.where(num == 0.0, 0.0, wa)
    arg = p.alpha * (np.angle(num) - np.angle(den))
    h = (1.0 - p.gamma) * wa + p.gamma
    return wa, arg, h


def winding_about_zero(h: np.ndarray) -> int:
    """Turns of the closed sampled curve h about 0: by the argument
    principle, the number of zeros of h inside |z| < r."""
    steps = np.angle(np.roll(h, -1) / h)
    return int(round(float(np.sum(steps)) / (2.0 * math.pi)))


def envelope_error(p: J.JanowskiParams, r: float, rep: J.BoundReport) -> tuple[str, str | None]:
    """Check every interval of an envelope report; returns (kind, reason).

    Kinds: "zero_inside" when h has a zero inside the disk that the report
    misses; "touch_cusp" when, at the origin touch |A| r = 1, samples leave
    an interval by at most TOUCH_SLACK; "wrong" for anything else."""
    touch = abs(abs(p.A) * r - 1.0) < 1e-12
    wa, arg, h = boundary_samples(p, r)
    hmod = np.abs(h)
    turns = winding_about_zero(h)
    checks = [
        ("arg", rep.arg, arg, True), ("mod", rep.mod, np.abs(wa), True),
        ("re", rep.re, wa.real, True), ("im", rep.im, wa.imag, True),
        ("shifted.re", rep.shifted.re, h.real, True), ("shifted.im", rep.shifted.im, h.imag, True),
        # with a zero inside, the modulus minimum over the disk is 0, not a boundary value
        ("shifted.mod", (0.0, rep.shifted.mod[1]) if turns else rep.shifted.mod, hmod, not turns),
    ]
    if not turns and rep.shifted.arg is not None:
        checks.append(("shifted.arg", rep.shifted.arg, np.unwrap(np.angle(h)), True))
    for name, iv, s, sharp_lo in checks:
        msg, excess = _interval_error(name, iv, s, sharp_lo)
        if msg:
            return ("touch_cusp" if touch and 0.0 < excess <= TOUCH_SLACK else "wrong"), msg
    if turns:
        if rep.shifted.mod[0] > 1e-12 or rep.shifted.arg is not None:
            return "zero_inside", (f"h has {turns} zero(s) inside |z| < {r:.6g} but shifted.mod[0] = "
                                   f"{rep.shifted.mod[0]:.6g} and shifted.arg = {rep.shifted.arg}")
    elif rep.shifted.arg is None:
        # no argument range is right only when h reaches 0 on the circle
        k = int(np.argmin(hmod))
        if hmod[k] > _resolution(hmod, k) + 1e-9:
            return "wrong", f"shifted.arg is None but |h| >= {hmod[k]:.6g} on |z| = {r:.6g}"
    return "wrong", None


def contained_in_closed_box(p: J.JanowskiParams, r: float, emp: J.BoundReport) -> str | None:
    """Every sampled interval must lie inside the closed-form one."""
    closed = J.envelope_bounds(p, r)
    pairs = [(name, getattr(emp, name), getattr(closed, name)) for name in ("arg", "mod", "re", "im")]
    pairs += [(f"shifted.{name}", getattr(emp.shifted, name), getattr(closed.shifted, name))
              for name in ("re", "im", "mod", "arg")]
    for name, inner, outer in pairs:
        if inner is None or outer is None:
            if inner is not outer:
                return f"{name}: sampled {inner} against closed {outer}"
            continue
        tol = _tol(*outer)
        if inner[0] < outer[0] - tol or inner[1] > outer[1] + tol:
            return f"{name}: sampled [{inner[0]:.12g}, {inner[1]:.12g}] leaves [{outer[0]:.12g}, {outer[1]:.12g}]"
    return None


# ---------------------------------------------------------------------------
# special values


def _alpha_star_mp():
    return mp.findroot(lambda a: 2 * a + (2 / mp.pi) * mp.atan(a) - 1, 0.38)


ALPHA_STAR = _alpha_star_mp()


def _close(name: str, got, want, tol: float) -> str | None:
    err = abs(complex(got) - complex(want))
    if not err <= tol:  # also catches NaN
        return f"{name}: got {complex(got):.15g}, reference {complex(want):.15g}, error {err:.3g} > {tol:.1g}"
    return None


def special_error(cls: str, call, value) -> str | None:
    args, kwargs = call.args, call.kwargs
    if cls == "kernel.quad_alpha_lt1":
        tight = J.kernel_integral(*args, tol=1e-12, method="quad")
        return _close(cls, value, tight, 1e-8 * max(1.0, abs(tight)))
    if cls in ("kernel.quad_alpha1", "kernel.closed"):
        other = "closed" if kwargs["method"] == "quad" else "quad"
        alt = J.kernel_integral(*args, method=other)
        return _close(cls, value, alt, 1e-8 * max(1.0, abs(alt)))
    if cls == "best_dominant":
        tight = J.best_dominant(*args, tol=1e-12)
        return _close(cls, value, tight, 1e-8 * max(1.0, abs(tight)))
    if cls.startswith("hyper_3f2."):
        want = complex(mp.hyp3f2(*args))
        return _close(cls, value, want, 1e-10 * max(1.0, abs(want)))
    if cls == "operator_dominant":
        spec, z = args
        want, scale = _operator_dominant_mp(spec, z)
        return _close(cls, value, want, 1e-11 * (1.0 + scale))
    if cls == "macgregor_gamma":
        (beta,) = args
        u = 1 - 2 * mp.mpf(beta)
        want = 1 / (2 * mp.log(2)) if u == 0 else u / (2 * (mp.power(2, u) - 1))
        return _close(cls, value, want, 1e-12)
    if cls.startswith("starlike."):
        return _starlike_error(cls, *args, value)
    if cls == "alpha_star":
        return _close(cls, value, ALPHA_STAR, 1e-12)
    if cls == "subordination_radius":
        (prob,) = args
        want = _subordination_radius_mp(prob)
        return _close(cls, value, want, 1e-12)
    if cls == "ratio_sector_params":
        return _sector_error(cls, value, *_ratio_edges_mp(*args))
    if cls == "weighted_sector_params":
        return _sector_error(cls, value, *_weighted_edges_mp(*args))
    raise ValueError(f"no reference for op class {cls!r}")


def _operator_dominant_mp(spec, z):
    """h(z) = Q^(a g) (mu delta + mu rho Q^g + eta g (A + b) z / ((1 + A z)(1 - b z))),
    Q = (1 + A z)/(1 - b z), principal logarithms; also the size of its terms."""
    A, b, z = mp.mpc(spec.A), mp.mpf(spec.b), mp.mpc(z)
    mu, eta, delta, rho = (mp.mpc(v) for v in (spec.mu, spec.eta, spec.delta, spec.rho))
    num, den = 1 + A * z, 1 - b * z
    qlog = mp.log(num) - mp.log(den)
    terms = (mu * delta, mu * rho * mp.exp(spec.gamma * qlog), eta * spec.gamma * (A + b) * z / (num * den))
    outer = mp.exp(spec.alpha * spec.gamma * qlog)
    return outer * sum(terms), float(abs(outer) * sum(abs(t) for t in terms))


def _starlike_error(cls: str, A: float, B: float, beta: float, value) -> str | None:
    """The radius must solve beta asin((A - B) x / (1 - A B x^2)) = (1 - alpha*) pi / 2."""
    target = (1 - ALPHA_STAR) * mp.pi / 2
    x = mp.mpf(value.value)
    if not 0 < x <= 1:
        return f"{cls}: radius {value.value} outside (0, 1]"
    residual = beta * mp.asin((A - B) * x / (1 - A * B * x * x)) - target
    if abs(residual) > 1e-9:
        return f"{cls}: angle equation residual {float(residual):.3g} at x = {value.value}"
    return _close(cls + ".theta", value.theta, target / beta, 1e-12)


def _subordination_radius_mp(prob):
    A, B, C, D = (mp.mpc(v) for v in (prob.A, prob.B, prob.C, prob.D))
    gamma, delta = mp.mpc(prob.gamma), mp.mpc(prob.delta)
    inv_a = 1 / mp.mpf(prob.alpha)
    num = prob.alpha * abs(A - B) * abs(1 - gamma) ** inv_a
    cross = A * D * (gamma - 1) + B * (C * (1 - delta) + D * (delta - gamma))
    den = prob.beta * abs(1 - gamma) ** (inv_a - 1) * (abs(C - D) * abs(delta - 1) + abs(cross))
    return 1 if den == 0 else min(num / den, 1)


def _ratio_edges_mp(alpha, m, beta, arg_ratio):
    a_mag = abs(mp.tan(mp.pi * m / 4))
    c = alpha * beta * (1 - a_mag)
    num = c * mp.cos(arg_ratio)
    mu1 = 1 - m + 2 / (alpha * mp.pi) * mp.atan2(num, 1 + a_mag + c * mp.sin(arg_ratio))
    mu2 = 1 + m + 2 / (alpha * mp.pi) * mp.atan2(num, 1 + a_mag - c * mp.sin(arg_ratio))
    return mu1, mu2, a_mag


def _weighted_edges_mp(alpha, beta, gamma, m, eta):
    corr = 2 * gamma / mp.pi * mp.atan(eta)
    return alpha * beta * (1 - m) + corr, alpha * beta * (1 + m) + corr, abs(mp.tan(mp.pi * m / 4))


def _sector_error(cls: str, sp, mu1, mu2, a_mag) -> str | None:
    for name, got, want in (
        ("mu1", sp.mu1, mu1), ("mu2", sp.mu2, mu2), ("a_mag", sp.a_mag, a_mag),
        ("delta", sp.delta, (mu1 + mu2) / 2), ("mu", sp.mu, (mu2 - mu1) / (mu1 + mu2)),
    ):
        msg = _close(f"{cls}.{name}", got, want, 1e-12 * max(1.0, abs(float(want))))
        if msg:
            return msg
    return None


# ---------------------------------------------------------------------------
# CLI


def cli_expected(cmd: str, d: dict):
    """The `result` block each CLI command must print, from the library."""
    if cmd == "geometry":
        return J.image_disk(J.JanowskiParams(d["A"], d["B"]), d["r"])
    if cmd == "bounds":
        return J.envelope_bounds(J.JanowskiParams(d["A"], d["B"], d["alpha"], 0.0), d["r"])
    if cmd == "radius":
        return J.starlike_radius(d["A"], d["B"], d["beta"], method="closed")
    if cmd == "special":
        return {"value": J.kernel_integral(d["A"], d["b"], d["alpha"], d["z"], tol=1e-10, method="quad")}
    if cmd == "verify":
        reports = [J.implication_trial(tid, seed=s)
                   for tid in J.THEOREM_IDS for s in range(d["first"], d["first"] + d["seeds"])]
        return {"trials": len(reports), "unsound": sum(not rep.sound for rep in reports),
                "reports": [json.loads(rep.to_json()) for rep in reports]}
    if cmd == "plot":
        return {"path": d["out"], "rows": d["n"]}
    raise ValueError(f"unknown CLI command {cmd!r}")


def plot_csv_error(d: dict, path) -> str | None:
    """The CSV must hold the library's boundary samples, row for row."""
    curve = J.sample_curve(J.JanowskiParams(d["A"], d["B"], d["alpha"], 0.0), d["r"], n=d["n"])
    want = ["t,u,v,M,N"] + [
        ",".join(format(v, ".15g") for v in (curve.t[k], curve.u[k], curve.v[k], curve.M[k], curve.N[k]))
        for k in range(d["n"])
    ]
    got = path.read_text().splitlines()
    if got != want:
        bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        return f"CSV differs from sample_curve at line {bad} ({len(got)} lines, expected {len(want)})"
    return None
