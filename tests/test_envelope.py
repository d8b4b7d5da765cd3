"""Boundary envelopes of the powered, shifted map: curve sampling, critical
angles, extreme Re/Im/modulus/argument, and the sector picture."""

import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import janowski
from janowski import (
    BranchUndefinedError,
    JanowskiError,
    JanowskiParams,
    alpha_nesting,
    critical_points,
    empirical_bounds,
    envelope_bounds,
    image_disk,
    sample_curve,
    sector_image,
    tilt_angle,
)
from janowski._json import jsonable
from janowski.envelope import _log, _power, _refined_range, _unit_circle, _unwrap
from tests.conftest import safe_params

SQRT2 = math.sqrt(2.0)
GOLDEN_ENVELOPE = Path(__file__).parent / "golden" / "envelope.jsonl"
ENVELOPE_GROUPS = ("gamma0", "shifted", "touch", "zero_inside")


def envelope_corpus_draws(per_group: int = 8) -> list[tuple[str, JanowskiParams, float]]:
    """Seeded acceptance-criterion-4 draws (|A| in [0.2, 1], |B| in [0, 0.9],
    |A - B| > 0.05, alpha in [0.3, 1], r in [0.2, 0.95]) in four groups:
    gamma = 0, a shift gamma with parts in [-0.9, 0.9], the origin touch
    A / |A| at r = 1, and (half as many) a shift that puts a zero of h at a
    point z0 inside |z| < r, so that h winds about 0."""
    rng = np.random.default_rng(20261018)
    draws = []
    for group in ENVELOPE_GROUPS:
        for _ in range(per_group // 2 if group == "zero_inside" else per_group):
            while True:
                A = complex(rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.uniform()))
                B = complex(rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform()))
                if abs(A - B) > 0.05:
                    break
            alpha, r, gamma = float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.2, 0.95)), 0j
            if group == "shifted":
                gamma = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            elif group == "touch":
                A, r = A / abs(A), 1.0
            elif group == "zero_inside":
                z0 = rng.uniform(0.3, 0.8) * r * np.exp(2j * np.pi * rng.uniform())
                w0 = ((1.0 + A * z0) / (1.0 + B * z0)) ** alpha
                gamma = complex(w0 / (w0 - 1.0))  # (1 - gamma) w0 + gamma = 0
            draws.append((group, JanowskiParams(A, B, alpha, gamma), r))
    return draws


def golden_envelope_line(group: str, p: JanowskiParams, r: float) -> str:
    """The corpus line of one draw: both range reports and the sha256 of the
    bytes of the 4096-point curve's N and M."""
    curve = sample_curve(p, r, 4096)
    return json.dumps({
        "group": group,
        "params": jsonable(asdict(p)),
        "r": r,
        "envelope_bounds": jsonable(asdict(envelope_bounds(p, r))),
        "empirical_bounds": jsonable(asdict(empirical_bounds(p, r, 200_000))),
        "curve_N_sha256": hashlib.sha256(curve.N.tobytes()).hexdigest(),
        "curve_M_sha256": hashlib.sha256(curve.M.tobytes()).hexdigest(),
    }, sort_keys=True)


def test_golden_envelope_corpus():
    golden = GOLDEN_ENVELOPE.read_text().splitlines()
    draws = envelope_corpus_draws()
    assert len(golden) == len(draws)
    for i, (draw, line) in enumerate(zip(draws, golden)):
        assert golden_envelope_line(*draw) == line, f"{GOLDEN_ENVELOPE.name} line {i + 1} ({draw[0]}) differs"


@pytest.fixture(scope="module")
def square_root_case():
    """(1+z)^(1/2) on the full boundary r = 1, a cusp at z = -1."""
    return JanowskiParams(1.0, 0.0, 0.5), 1.0


def test_critical_angles_of_square_root(square_root_case):
    p, r = square_root_case
    c = critical_points(p, r)
    assert c.t1 == pytest.approx(0.0, abs=1e-9)
    assert c.t2 == pytest.approx(2.0 * math.pi / 3.0, abs=1e-9)
    assert c.tau == pytest.approx(0.0, abs=1e-12)


def test_square_root_envelope_endpoints(square_root_case):
    p, r = square_root_case
    b = envelope_bounds(p, r)
    assert b.re[0] == pytest.approx(0.0, abs=1e-6)
    assert b.re[1] == pytest.approx(SQRT2, abs=1e-6)
    assert b.im[0] == pytest.approx(-0.5, abs=1e-6)
    assert b.im[1] == pytest.approx(0.5, abs=1e-6)
    assert abs(b.arg[0]) <= math.pi / 4.0 + 1e-9
    assert abs(b.arg[1]) <= math.pi / 4.0 + 1e-9


def test_im_derivative_vanishes_at_interior_critical_angle(square_root_case):
    # Im w(t)^alpha is stationary at t2, with w(t) = C + R e^{it} the image circle
    p, r = square_root_case
    t2 = critical_points(p, r).t2
    geo = image_disk(p, r)

    def im_power(t: float) -> float:
        return ((geo.center + geo.radius * cmath.exp(1j * t)) ** p.alpha).imag

    h = 1e-6
    assert abs(im_power(t2 + h) - im_power(t2 - h)) / (2.0 * h) < 1e-8


def test_sample_curve_polar_fields():
    p = JanowskiParams(0.8, -0.3, 0.6)
    curve = sample_curve(p, 0.7, n=512)
    assert curve.t.shape == (512,)
    w = curve.u + 1j * curve.v
    # u, v are the first-order components; M = |w|^alpha, N = alpha arg w
    assert np.abs(curve.M - np.abs(w) ** 0.6).max() < 1e-12
    assert np.abs(np.exp(1j * curve.N / 0.6) - w / np.abs(w)).max() < 1e-12
    # N is unwrapped, no 2 pi jumps between neighbors
    assert np.abs(np.diff(curve.N)).max() < 1.0


def _winding_shifted_h() -> np.ndarray:
    """The 4096-point grid values of h for a shift that puts a zero of h at
    z0 = -0.6 inside |z| < 0.8, so h winds once about 0."""
    A, B, alpha, r = 0.9, 0.3j, 0.7, 0.8
    w0 = ((1.0 + A * -0.6) / (1.0 + B * -0.6)) ** alpha
    g = w0 / (w0 - 1.0)
    geo = image_disk(JanowskiParams(A, B, alpha, g), r)
    t = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    return (1.0 - g) * _power(geo.center + geo.radius * np.exp(1j * t), alpha) + g


def _random_walk(seed: int, n: int = 5000) -> np.ndarray:
    # principal arguments of a walk with steps of about 1.5 rad: many 2 pi jumps
    rng = np.random.default_rng(seed)
    return np.angle(np.exp(1j * np.cumsum(rng.normal(0.0, 1.5, n))))


UNWRAP_CASES = {
    "smooth-line": np.linspace(-1.0, 3.0, 1000),
    "smooth-sine": 2.0 * np.sin(np.linspace(0.0, 20.0, 4096)),
    "walk-1": _random_walk(1),
    "walk-2": _random_walk(2),
    "uniform-wide": np.random.default_rng(3).uniform(-40.0, 40.0, 3000),
    "exact-plus-minus-pi": math.pi * np.array([0.0, 1.0, 2.0, 1.0, 0.0, -1.0, -2.0, 0.0, 3.0, -3.0]),
    "nan-inside": np.array([0.1, 0.2, 3.5, np.nan, -3.0, 0.4, 3.9]),
    "inf-inside": np.array([0.1, np.inf, 0.3, -np.inf, 0.5]),
    "minus-zero": np.array([-0.0, 0.1, -0.0, 3.5, -0.0, -0.0, -3.5]),
    "length-0": np.array([]),
    "length-1": np.array([-0.0]),
    "length-1-finite": np.array([2.5]),
    "length-2": np.array([-0.0, -0.0]),
    "length-2-jump": np.array([3.0, -3.0]),
    "winding-shifted-h": np.angle(_winding_shifted_h()),
}


@pytest.mark.parametrize("x", UNWRAP_CASES.values(), ids=UNWRAP_CASES.keys())
def test_unwrap_matches_numpy_bit_for_bit(x):
    with np.errstate(invalid="ignore"):  # inf - inf in the differences of "inf-inside"
        assert _unwrap(x).tobytes() == np.unwrap(x).tobytes()


def test_unwrap_cases_have_jumps():
    # the walks and the winding h exercise the correction path
    for name in ("walk-1", "walk-2", "winding-shifted-h", "exact-plus-minus-pi"):
        assert (np.abs(np.diff(UNWRAP_CASES[name])) >= math.pi).any(), name
    assert (np.abs(np.diff(UNWRAP_CASES["walk-1"])) >= math.pi).sum() > 500


@pytest.mark.parametrize("A,r", [(0.5 + 0.3j, 0.8), ((0.6 - 0.8j), 1.0)], ids=["gamma0", "touch"])
def test_sample_curve_circle_matches_complex_exp(A, r):
    # e^{it} is built from real cos and sin; it must equal exp(1j t) bit for bit
    p = JanowskiParams(A, -0.2 + 0.1j, 0.7)
    curve = sample_curve(p, r, n=200_000)
    geo = image_disk(p, r)
    w = geo.center + geo.radius * np.exp(1j * curve.t)
    assert curve.u.tobytes() == w.real.tobytes()
    assert curve.v.tobytes() == w.imag.tobytes()


# exponents alpha, roots 1/alpha down to alpha = 0.3, and the trials'
# negative (alpha - 1) gamma
HELPER_EXPONENTS = (0.3, 0.6, 1.0, 1.0 / 0.6, 1.0 / 0.3, -0.4, (0.5 - 1.0) * 0.6)
ULP = np.finfo(float).eps


def _helper_points() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(1318)
    mag = 10.0 ** rng.uniform(-6.0, 6.0, 600)
    near = 10.0 ** rng.uniform(-15.0, -3.0, 200)  # distance of arg w from +-pi
    cut = np.array([1e-6, 0.5, 1.0, 3.0, 1e6])
    return {
        "modulus-1e-6-to-1e6": mag[:400] * np.exp(1j * rng.uniform(-math.pi, math.pi, 400)),
        "arg-near-plus-minus-pi": -mag[400:] + 1j * mag[400:] * near * rng.choice([-1.0, 1.0], 200),
        "cut-plus-zero": -cut + 0.0j,
        "cut-minus-zero": np.array([complex(-x, -0.0) for x in cut]),
    }


HELPER_POINTS = _helper_points()


def _mp_log(w: complex) -> mp.mpc:
    """30-digit principal log; on the cut the sign of a zero imaginary part
    picks the side, as in np.log (mpmath has no signed zero)."""
    ref = mp.log(mp.mpc(w.real, w.imag))
    return mp.conj(ref) if w.imag == 0.0 and math.copysign(1.0, w.imag) < 0.0 and w.real < 0.0 else ref


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", HELPER_EXPONENTS)
@pytest.mark.parametrize("name", HELPER_POINTS)
def test_power_matches_30_digit_principal_power(name, a):
    w = HELPER_POINTS[name]
    got = _power(w, a)
    with mp.workdps(30):
        for wi, gi in zip(w, got):
            want = mp.exp(a * _mp_log(wi))
            assert abs(mp.mpc(gi) - want) <= 8 * ULP * abs(want), (wi, a)
    if name.startswith("cut"):  # the side of the cut follows np.log
        assert (np.signbit(got.imag) == np.signbit(np.exp(a * np.log(w)).imag)).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", HELPER_POINTS)
def test_log_matches_30_digit_principal_log(name):
    w = HELPER_POINTS[name]
    got = _log(w)
    with mp.workdps(30):
        for wi, gi in zip(w, got):
            want = _mp_log(wi)
            assert abs(mp.mpc(gi) - want) <= 4 * np.spacing(max(1.0, float(abs(want)))), wi
    assert (np.signbit(got.imag) == np.signbit(np.log(w).imag)).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [a for a in HELPER_EXPONENTS if a > 0.0])
def test_power_of_zero_is_exactly_zero(a):
    zeros = np.array([0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)])
    assert (_power(zeros, a) == 0.0).all()
    assert _power(0j, a) == 0.0


def test_unit_circle_is_shared_read_only_and_exact():
    # one cache for the shifted view and the trials; its points are the
    # n-th roots of unity exp(2 pi i k / n) bit for bit
    for n in (512, 4096, 16384):
        t, z = _unit_circle(n)
        assert _unit_circle(n)[1] is z
        assert not t.flags.writeable and not z.flags.writeable
        assert z.tobytes() == np.exp(2j * np.pi * np.arange(n) / n).tobytes()
        assert t.tobytes() == np.linspace(0.0, 2.0 * np.pi, n, endpoint=False).tobytes()


def _dense_shifted_draws() -> list[tuple[JanowskiParams, float]]:
    """Five shifted corpus draws and a shifted near-touch draw (|A| r = 0.999)."""
    draws = envelope_corpus_draws()
    shifted = [(p, r) for group, p, r in draws if group == "shifted"][:5]
    p = next(p for group, p, _ in draws if group == "touch")
    return shifted + [(JanowskiParams(p.A, p.B, p.alpha, 0.3 - 0.2j), 0.999)]


@pytest.mark.parametrize("p,r", _dense_shifted_draws())
def test_shifted_view_matches_two_million_samples(p, r):
    closed = envelope_bounds(p, r).shifted
    sampled = empirical_bounds(p, r, 2_000_000).shifted
    for name in ("mod", "arg"):
        (lo, hi), (slo, shi) = getattr(closed, name), getattr(sampled, name)
        assert abs(lo - slo) <= 1e-10 and abs(hi - shi) <= 1e-10, name
        assert slo >= lo - 1e-12 and shi <= hi + 1e-12, name


@pytest.mark.parametrize("p,r", _dense_shifted_draws())
def test_joint_polish_matches_one_polish_per_objective(p, r):
    """The shifted view polishes modulus and argument in one pass; that pass
    gives the same intervals, bit for bit, as one `_refined_range` each."""
    geo, g = image_disk(p, r), p.gamma
    grid, circle = _unit_circle(4096)

    def h_of(t):
        return (1.0 - g) * _power(geo.center + geo.radius * np.exp(1j * t), p.alpha) + g

    hv = (1.0 - g) * _power(geo.center + geo.radius * circle, p.alpha) + g
    args = _unwrap(np.angle(hv))

    def mod_of(t):
        return np.abs(h_of(t))

    def arg_of(t):
        i = np.rint(t / grid[1]).astype(int) % grid.size
        return args[i] + np.angle(h_of(t) / hv[i])

    joint = _refined_range(lambda t: np.concatenate([mod_of(t[:2]), arg_of(t[2:])]),
                           grid, np.stack([np.abs(hv), args]))
    single = _refined_range(mod_of, grid, np.abs(hv)[None]) + _refined_range(arg_of, grid, args[None])
    assert np.array(joint).tobytes() == np.array(single).tobytes()
    shifted = envelope_bounds(p, r).shifted
    assert np.array([shifted.mod, shifted.arg]).tobytes() == np.array(joint).tobytes()


@given(
    mag_a=st.floats(0.0, 1.0), th_a=st.floats(0.0, 2.0 * math.pi),
    mag_b=st.floats(0.0, 0.9), th_b=st.floats(0.0, 2.0 * math.pi),
    alpha=st.floats(0.0, 1.0, exclude_min=True),
    g_re=st.floats(-0.9, 0.9), g_im=st.floats(-0.9, 0.9),
    r=st.floats(0.0, 1.0, exclude_min=True), n=st.integers(16, 4096),
)
@settings(max_examples=60, deadline=settings.get_profile("default").deadline)
def test_sampled_reports_are_finite_or_raise(mag_a, th_a, mag_b, th_b, alpha, g_re, g_im, r, n):
    """Argument-safe finite inputs give all-finite sampled fields, or a
    JanowskiError; the sampled argument N never steps by pi or more."""
    try:
        p = JanowskiParams(mag_a * cmath.exp(1j * th_a), mag_b * cmath.exp(1j * th_b), alpha, complex(g_re, g_im))
        curve = sample_curve(p, r, n)
        report = empirical_bounds(p, r, n)
    except JanowskiError:
        return
    for field in (curve.t, curve.u, curve.v, curve.M, curve.N):
        assert np.isfinite(field).all()
    assert (np.abs(np.diff(curve.N)) < math.pi).all()
    intervals = [report.arg, report.mod, report.re, report.im, *vars(report.shifted).values()]
    assert report.shifted.arg is None or report.shifted.mod[0] > 0.0
    assert all(math.isfinite(x) for iv in intervals if iv is not None for x in iv)


@pytest.mark.parametrize(
    "A,B,alpha,gamma,r",
    [
        (1.0, 0.0, 0.5, 0.0, 0.9),
        (0.8 + 0.1j, -0.4 + 0.2j, 0.6, 0.0, 0.7),
        (0.9, -0.9, 1.0, 0.0, 0.5),
        # a Newton iteration guarded only by its bracket cycles here between
        # t ~ 2.44 and t ~ 3.10 and misses the maximum of Im h; h also has a
        # zero inside the disk
        pytest.param(0.4607964580479008 - 0.7886225574234497j, -0.7383561241086682 - 0.20567868197475034j,
                     0.6942909438417129, 0.8271889156340405 + 0.8784631602084269j, 0.8702285120764757,
                     id="oblique-shift"),
    ],
)
def test_closed_bounds_match_dense_sampling(A, B, alpha, gamma, r):
    p = JanowskiParams(A, B, alpha, gamma)
    closed = envelope_bounds(p, r)
    sampled = empirical_bounds(p, r, n=60000)
    pairs = [(getattr(closed, name), getattr(sampled, name)) for name in ("re", "im", "mod", "arg")]
    pairs += [(getattr(closed.shifted, name), getattr(sampled.shifted, name))
              for name in ("re", "im", "mod", "arg")]
    for iv, siv in pairs:
        if iv is None or siv is None:  # no argument range: h has a zero
            assert iv is None and siv is None
            continue
        assert iv[0] == pytest.approx(siv[0], abs=2e-5)
        assert iv[1] == pytest.approx(siv[1], abs=2e-5)


def test_origin_touch_keeps_the_minimum_beside_the_cusp():
    """|A| r = 1: Re(w^a) dips to about -6.3e-5 right next to the touch,
    and the argument range is a (tau -/+ pi/2) exactly."""
    A = (0.8006 - 0.5992j) / abs(0.8006 - 0.5992j)
    p = JanowskiParams(A, -0.564 + 0.497j, 0.982)
    closed = envelope_bounds(p, 1.0)
    sampled = empirical_bounds(p, 1.0, n=200_000)
    assert closed.re[0] == pytest.approx(-6.3194e-5, rel=1e-4)
    assert closed.mod[0] == 0.0
    assert closed.mod[1] == pytest.approx(sampled.mod[1], abs=2e-5)
    for name in ("re", "im", "arg"):
        lo, hi = getattr(closed, name)
        slo, shi = getattr(sampled, name)
        assert lo <= slo + 1e-12 and shi <= hi + 1e-12
        assert lo == pytest.approx(slo, abs=2e-5)
        assert hi == pytest.approx(shi, abs=2e-5)
    tau = critical_points(p, 1.0).tau
    assert closed.arg == pytest.approx((0.982 * (tau - math.pi / 2), 0.982 * (tau + math.pi / 2)), abs=1e-14)


def test_shifted_touch_reaches_the_cusp_value():
    """|A| r = 1 with gamma != 0: h = gamma at the touch, a cusp that the
    polish in t only approaches (it stopped at -0.5879969 on this draw).
    At 30 digits arg h stays above arg gamma on both sides of the touch
    and round the circle, so arg gamma is the argument minimum."""
    p = [p for group, p, _ in envelope_corpus_draws() if group == "touch"][1]
    p = JanowskiParams(p.A, p.B, p.alpha, 0.3 - 0.2j)
    shifted = envelope_bounds(p, 1.0).shifted
    with mp.workdps(30):
        A, B, g = (mp.mpc(v.real, v.imag) for v in (p.A, p.B, p.gamma))
        want, touch = mp.arg(g), mp.arg(-1 / A)

        def arg_h(t):
            z = mp.expj(t)
            return mp.arg((1 - g) * ((1 + A * z) / (1 + B * z)) ** p.alpha + g)

        near = [touch + s * mp.mpf(10) ** -k for s in (-1, 1) for k in range(1, 13)]
        assert all(arg_h(t) > want for t in near + [2 * mp.pi * k / 256 for k in range(256)])
        assert shifted.arg[0] == pytest.approx(float(want), abs=4e-16)
    assert shifted.mod[0] <= abs(p.gamma) <= shifted.mod[1]


def test_zero_inside_the_disk_has_no_argument_range():
    """gamma puts the zero of h at z = -0.6, inside |z| < 0.8."""
    A, B, alpha, r = 0.9, 0.3j, 0.7, 0.8
    wa = ((1.0 + A * -0.6) / (1.0 + B * -0.6)) ** alpha
    p = JanowskiParams(A, B, alpha, wa / (wa - 1.0))
    for report in (envelope_bounds(p, r), empirical_bounds(p, r)):
        assert report.shifted.mod[0] == 0.0
        assert report.shifted.mod[1] == pytest.approx(2.2533020596, abs=1e-8)
        assert report.shifted.arg is None


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(janowski.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, janowski; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@given(safe_params(), st.floats(0.1, 0.9))
@settings(max_examples=25)
def test_curve_stays_inside_reported_box(p, r):
    b = envelope_bounds(p, r)
    curve = sample_curve(p, r, n=2048)
    h = (1.0 - p.gamma) * curve.M * np.exp(1j * curve.N) + p.gamma
    assert h.real.min() >= b.re[0] - 1e-9
    assert h.real.max() <= b.re[1] + 1e-9
    assert h.imag.min() >= b.im[0] - 1e-9
    assert h.imag.max() <= b.im[1] + 1e-9


def test_bounds_reject_enclosed_origin():
    p = JanowskiParams(1.6, 0.0, 0.5)
    assert not p.argument_safe
    with pytest.raises(BranchUndefinedError):
        envelope_bounds(p, 0.9)


def test_sector_image_edges():
    s = sector_image(0.5, 0.25)
    assert s.lo == pytest.approx(-0.5 * 0.75 * math.pi / 2.0)
    assert s.hi == pytest.approx(0.5 * 1.25 * math.pi / 2.0)
    assert s.half_plane_tilt == pytest.approx(0.25 * math.pi / 2.0)


def test_tilt_angle_values():
    assert tilt_angle(1.0, 0.5) == pytest.approx(math.pi / 4.0)
    assert tilt_angle(0.6, 0.25) == pytest.approx(
        math.atan2(0.6 * math.sin(math.pi / 4.0), 1.0 + 0.6 * math.cos(math.pi / 4.0))
    )
    assert tilt_angle(0.0, 0.7) == 0.0


def test_alpha_nesting_orders_powers():
    assert alpha_nesting(1.0, -1.0, 0.3, 0.7)
    assert not alpha_nesting(1.0, -1.0, 0.7, 0.3)
    assert alpha_nesting(1.0, -1.0, 0.5, 0.5)


@given(st.floats(0.1, 1.0), st.floats(0.1, 1.0))
def test_alpha_nesting_matches_order(a1, a2):
    assert alpha_nesting(1.0, -1.0, a1, a2) == (a1 <= a2 + 1e-12)
