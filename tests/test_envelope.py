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
from operator import attrgetter
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import janowski
from janowski import envelope
from janowski import (
    BranchUndefinedError,
    JanowskiError,
    JanowskiParams,
    NoConvergenceError,
    OutOfRangeError,
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
from janowski.oracle import _STRIDES, _screen, _screened, _turns
from janowski.envelope import (
    _BLOCK,
    _NEWTON_CAP,
    _NO_ARG_FLOOR,
    BoundReport,
    ShiftedView,
    _curve_blocks,
    _newton,
    _power,
    _powers,
    _unit_circle,
)
from tests.conftest import assert_screen_bounds_hold, safe_params, screen_bounds

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
    # N is principal and continuous: no jump between neighbours
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
    # principal arguments of a walk with steps of about 1.5 rad: many cut crossings
    rng = np.random.default_rng(seed)
    return np.angle(np.exp(1j * np.cumsum(rng.normal(0.0, 1.5, n))))


PRINCIPAL_CASES = {
    "smooth-line": np.linspace(-1.0, 3.0, 1000),
    "smooth-sine": 2.0 * np.sin(np.linspace(0.0, 20.0, 4096)),
    "walk-1": _random_walk(1),
    "walk-2": _random_walk(2),
    "exact-plus-minus-pi": math.pi * np.array([0.0, 1.0, 0.0, -1.0, 1.0, -1.0, 0.0, 1.0]),
    "minus-zero": np.array([-0.0, 0.1, -0.0, 3.1, -0.0, -0.0, -3.1]),
    "length-0": np.array([]),
    "length-1": np.array([-0.0]),
    "length-1-finite": np.array([2.5]),
    "length-2": np.array([-0.0, -0.0]),
    "length-2-jump": np.array([3.0, -3.0]),
    "winding-shifted-h": np.angle(_winding_shifted_h()),
}


@pytest.mark.parametrize("name", PRINCIPAL_CASES)
def test_turns_match_numpy_unwrap(name):
    """On principal arguments every step lies in [-2 pi, 2 pi], so np.unwrap
    corrects a step by about +-2 pi exactly when it crosses the cut,
    |step| > pi: `_turns` of the steps is its total correction in turns. The
    walks, the exact +-pi steps and the winding h cross the cut."""
    x = PRINCIPAL_CASES[name]
    steps = x[1:] - x[:-1]
    assert _turns(steps) == round((np.unwrap(x) - x)[-1:].sum() / (2.0 * math.pi))
    crossings = int((np.abs(steps) > math.pi).sum())
    assert (crossings > 0) == (name in ("walk-1", "walk-2", "exact-plus-minus-pi", "length-2-jump", "winding-shifted-h"))
    assert crossings > 500 or not name.startswith("walk")


def _circle_check_indices(n: int) -> np.ndarray:
    """Both sides of every block boundary, the first and last samples, and
    random indices: at least 2000 of them."""
    starts = np.arange(0, n, _BLOCK)
    edges = np.concatenate([starts, starts - 1, starts + 1, [n - 1]])
    rng = np.random.default_rng(n)
    return np.unique(np.concatenate([edges[(edges >= 0) & (edges < n)], rng.integers(0, n, 2000)]))


@pytest.mark.parametrize("A,r", [(0.5 + 0.3j, 0.8), ((0.6 - 0.8j), 1.0)], ids=["gamma0", "touch"])
def test_sample_curve_circle_matches_30_digit_roots_of_unity(A, r):
    # rotated blocks beyond the first stay as close to C + R e^{2 pi i k / n}
    # as real cos and sin of t_k are
    n = 200_000
    p = JanowskiParams(A, -0.2 + 0.1j, 0.7)
    curve = sample_curve(p, r, n=n)
    geo = image_disk(p, r)
    ks = _circle_check_indices(n)
    assert ks.size >= 2000 and n - 1 in ks
    bound = 2e-15 * (abs(geo.center) + geo.radius)
    with mp.workdps(30):
        C, R = mp.mpc(geo.center.real, geo.center.imag), mp.mpf(geo.radius)
        for k in ks:
            want = C + R * mp.expjpi(mp.mpf(2 * int(k)) / n)
            assert abs(mp.mpc(curve.u[k], curve.v[k]) - want) <= bound, k


def _whole_array_curve(p: JanowskiParams, r: float, n: int):
    """w, M, N of the n-point curve in one whole-array pass. The first
    min(n, _BLOCK) points of e^{it} come from real cos and sin; point k is
    the base point k mod _BLOCK times R e^{i k0 s}, k0 the start of its block."""
    geo = image_disk(p, r)
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    base = np.empty(min(n, _BLOCK), dtype=complex)
    base.real, base.imag = np.cos(t[:base.size]), np.sin(t[:base.size])
    s = 2.0 * np.pi / n
    rot = [geo.radius * complex(math.cos(k0 * s), math.sin(k0 * s)) for k0 in range(0, n, _BLOCK)]
    w = np.resize(base, n) * np.repeat(rot, _BLOCK)[:n] + geo.center
    return w, np.abs(w) ** p.alpha, p.alpha * np.unwrap(np.angle(w))


def _whole_array_empirical_bounds(p: JanowskiParams, r: float, n: int) -> BoundReport:
    """The sampled oracle as one whole-array pass, the reference for the
    streamed `empirical_bounds`. From 16384 samples on numpy elides the
    temporary of (re + 1j im), so the product runs as (re + 1j im) * (1 - g).
    With g = 0, h = w^a: the shifted view restates the primary ranges."""
    _, M, N = _whole_array_curve(p, r, n)
    re = M * np.cos(N)
    im = M * np.sin(N)
    g = complex(p.gamma)
    primary = dict(
        arg=(float(N.min()), float(N.max())),
        mod=(float(M.min()), float(M.max())),
        re=(float(re.min()), float(re.max())),
        im=(float(im.min()), float(im.max())),
    )
    if g == 0.0:
        arg = None if primary["mod"][0] < _NO_ARG_FLOOR else primary["arg"]
        shifted = ShiftedView(re=primary["re"], im=primary["im"], mod=primary["mod"], arg=arg)
        return BoundReport(**primary, critical=None, shifted=shifted)
    h = (1.0 - g) * (re + 1j * im) + g
    hmod = np.abs(h)
    hmin, harg = float(hmod.min()), None
    if hmin >= _NO_ARG_FLOOR:
        args = np.unwrap(np.angle(h))
        if round((args[-1] + np.angle(h[0] / h[-1]) - args[0]) / (2.0 * math.pi)):
            hmin = 0.0
        else:
            harg = (float(args.min()), float(args.max()))
    shifted = ShiftedView(
        re=(float(h.real.min()), float(h.real.max())),
        im=(float(h.imag.min()), float(h.imag.max())),
        mod=(hmin, float(hmod.max())),
        arg=harg,
    )
    return BoundReport(**primary, critical=None, shifted=shifted)


@pytest.mark.parametrize("n", [16, 2048, 16385, 200_000])
def test_curve_blocks_join_to_the_whole_array_curve(n):
    # a touch draw: the argument turns by about pi where the circle meets the origin
    p = next(p for group, p, _ in envelope_corpus_draws() if group == "touch")
    blocks = list(_curve_blocks(p, 1.0, n))
    assert all(b[0].size <= _BLOCK for b in blocks) and len(blocks) == -(-n // _BLOCK)
    w, M, N = (np.concatenate(parts) for parts in zip(*blocks))
    want = _whole_array_curve(p, 1.0, n)
    assert [x.tobytes() for x in (w, M, N)] == [x.tobytes() for x in want]
    keep = np.arange(0, n, 3)  # kept samples come _BLOCK at a time, each with its full bits
    blocks = list(_curve_blocks(p, 1.0, n, keep))
    assert [b[0].size for b in blocks] == [min(_BLOCK, keep.size - s) for s in range(0, keep.size, _BLOCK)]
    kept = (np.concatenate(parts) for parts in zip(*blocks))
    assert [x.tobytes() for x in kept] == [x[keep].tobytes() for x in want]
    curve = sample_curve(p, 1.0, n)
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    got = (curve.t, curve.u, curve.v, curve.M, curve.N)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in (t, w.real, w.imag, M, N)]


def _report_bytes(report: BoundReport, **fields) -> str:
    """The report as its JSON line, floats by repr, with `fields` replaced."""
    return json.dumps(jsonable(asdict(report) | fields))


def _screen_edge_draws() -> list[tuple[str, JanowskiParams, float]]:
    """gamma = 0 draws at the edge of the oracle's screen: |A| = 1 with
    r = 1 (a touch, where the screen declines), r = 1 - 10^-u for u in
    [9, 16] (at and just past the point where it declines), and
    r = 1 - 10^-u for u in [6, 7], a disk about 1e-6 from the cut; alpha
    down to 0.05."""
    rng = np.random.default_rng(20261021)
    draws = []
    for k in range(18):
        while True:
            A = complex(np.exp(2j * np.pi * rng.uniform()))
            B = complex(rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform()))
            if abs(A - B) > 0.05:
                break
        gap = (0.0, 10.0 ** -rng.uniform(9.0, 16.0), 10.0 ** -rng.uniform(6.0, 7.0))[k % 3]
        draws.append(("screen-edge", JanowskiParams(A, B, float(rng.uniform(0.05, 1.0))), 1.0 - gap))
    return draws


@pytest.mark.parametrize("n", [16, 16383, 16384, 16385, 2 * _BLOCK + 1, 100_000, 200_000, 200_003, 1_000_001])
def test_streamed_oracle_is_bit_identical(n):
    """The streamed and screened oracle against the whole-array pass on the
    corpus draws, the screen-edge draws and, at 200k samples, 300 more
    criterion-4 draws with gamma = 0. Below 16384 samples only gamma = 0
    is compared: there the whole-array pass forms (1 - g) * T (see the next
    test). At 1000001 samples, too, only gamma = 0, the screened path."""
    draws = envelope_corpus_draws() + _screen_edge_draws()
    if n == 200_000:
        # the 300-draw list begins with the corpus's own gamma = 0 draws
        draws += [draw for draw in envelope_corpus_draws(300) if draw[0] == "gamma0" and draw not in draws]
    for group, p, r in draws:
        if (n < 16384 or n > 200_003) and p.gamma != 0.0:
            continue
        want = _whole_array_empirical_bounds(p, r, n)
        assert _report_bytes(empirical_bounds(p, r, n)) == _report_bytes(want), (group, p, r)


@pytest.mark.parametrize("n", [4096, 200_000])
def test_curve_arguments_are_principal_and_continuous(n):
    """N = a arg w needs no unwrapping: on the corpus draws (touches among
    them) and the screen-edge draws no two neighbouring samples differ by pi
    or more, and np.unwrap leaves N as it is, bit for bit."""
    for group, p, r in envelope_corpus_draws() + _screen_edge_draws():
        N = sample_curve(p, r, n).N
        assert not (np.abs(N[1:] - N[:-1]) >= math.pi).any(), (group, p, r)
        assert np.unwrap(N).tobytes() == N.tobytes(), (group, p, r)


def _cut_crossing_parameter(p: JanowskiParams, r: float) -> float:
    """t in [0, 2 pi) where h(C + R e^{it}) crosses the cut (-inf, 0), for h
    with a zero inside: the jump of arg h on a 4096-point grid, bisected on
    the sign of Im h."""
    geo = image_disk(p, r)

    def h(t):
        return (1.0 - p.gamma) * (geo.center + geo.radius * np.exp(1j * t)) ** p.alpha + p.gamma

    t = 2.0 * np.pi * np.arange(4097) / 4096
    k = int(np.flatnonzero(np.abs(np.diff(np.angle(h(t)))) > math.pi)[0])
    lo, hi = t[k], t[k + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (h(mid).imag > 0.0) == (h(lo).imag > 0.0) else (lo, mid)
    return lo % (2.0 * math.pi)


def _rotated_to_cross_at(p: JanowskiParams, r: float, t_cross: float) -> JanowskiParams:
    """(uA, uB, alpha, gamma_u) with the zero of h kept at the same z0: as u
    turns, the zero W(u z0) goes once round W(0) = 1, and so does the
    crossing of the cut round the circle; u is bisected to put it at t_cross."""
    z0 = envelope.invert_powered(p, 0.0)

    def rotated(phi):
        u = cmath.exp(1j * phi)
        w0 = ((1.0 + u * p.A * z0) / (1.0 + u * p.B * z0)) ** p.alpha
        return JanowskiParams(u * p.A, u * p.B, p.alpha, w0 / (w0 - 1.0))

    def miss(phi):  # signed parameter distance from t_cross, in (-pi, pi]
        return -((t_cross - _cut_crossing_parameter(rotated(phi), r) + math.pi) % (2.0 * math.pi) - math.pi)

    phis = 2.0 * math.pi * np.arange(65) / 64
    misses = [miss(phi) for phi in phis]
    j = next(j for j in range(64) if abs(misses[j] - misses[j + 1]) < 1.0 and misses[j] * misses[j + 1] <= 0.0)
    lo, hi = phis[j], phis[j + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (miss(mid) > 0.0) == (misses[j] > 0.0) else (lo, mid)
    return rotated(lo)


@pytest.mark.parametrize("k", [1000, _BLOCK - 1, 199_999], ids=["in-block", "block-seam", "closing-step"])
def test_zero_inside_found_wherever_h_crosses_the_cut(k):
    """Zero-inside corpus draws rotated by (A, B) -> (uA, uB) so that the one
    cut crossing of h falls on the step from sample k to k + 1 (mod n) of
    n = 200000: inside a block, on the seam of the first two 16384-sample
    blocks, and on the closing step from sample n - 1 to sample 0. Each
    report counts the turn, with no argument range and min |h| 0, as the
    whole-array pass does."""
    n = 200_000
    for group, p, r in envelope_corpus_draws():
        if group != "zero_inside":
            continue
        q = _rotated_to_cross_at(p, r, (k + 0.5) * 2.0 * math.pi / n)
        args = np.angle((1.0 - q.gamma) * _power(_whole_array_curve(q, r, n)[0], q.alpha) + q.gamma)
        assert np.flatnonzero(np.abs(np.roll(args, -1) - args) > math.pi).tolist() == [k], q
        got = empirical_bounds(q, r, n)
        assert got.shifted.mod[0] == 0.0 and got.shifted.arg is None, q
        assert _report_bytes(got) == _report_bytes(_whole_array_empirical_bounds(q, r, n)), q


def test_screen_bounds_hold_in_every_window():
    """The premise of the gamma = 0 screen on the whole 200k grid, at both
    levels. Near an extreme the bound has room to spare, so this sees a bound
    that is too small where the bit-identity test cannot."""
    edge = [(p, r) for _, p, r in _screen_edge_draws() if r < 1.0]
    checked = 0
    for p, r in [(p, r) for group, p, r in envelope_corpus_draws() if group == "gamma0"] + edge:
        bounds = screen_bounds(lambda: _screened(p, r, 200_000))
        if bounds is None:
            continue
        _, M, N = _whole_array_curve(p, r, 200_000)
        full = [s * f for f in (N, M, M * np.cos(N), M * np.sin(N)) for s in (1.0, -1.0)]
        assert_screen_bounds_hold(bounds, full, (p, r))
        checked += 1
    assert checked >= 8 + 6  # every gamma = 0 draw and the six edge draws about 1e-6 from the cut


@pytest.mark.parametrize("n", [1024, 16383, 65537, 200_000, 200_003])
def test_screen_levels_cover_every_window(n):
    """Every index of each level-1 window that survives lies in a level-2
    window, also across the wrap at n not divisible by 16 or 256, and the
    kept samples reach at most 8 beyond the surviving level-1 windows. One
    in three level-1 windows survives, and every level-2 window does."""
    stride, half = _STRIDES[0], _STRIDES[0] // 2
    centres = np.arange(0, n, stride)
    for part in range(3):
        def bounds(j, reach):
            survives = (j // stride) % 3 == part if reach == half else np.ones(j.size, dtype=bool)
            return [(np.zeros(j.size), np.where(survives, 0.0, -1.0))]

        live = centres[(centres // stride) % 3 == part]
        got = _screen(n, bounds)
        assert (np.diff(got) > 0).all() and 0 <= got[0] and got[-1] < n
        assert np.isin((live[:, None] + np.arange(-half, half + 1)) % n, got).all(), part
        assert np.isin(got, (live[:, None] + np.arange(-half - 8, half + 9)) % n).all(), part


def test_screen_keeps_few_samples():
    """The gamma = 0 oracle forms under 1 % of its 200k samples on
    criterion-4 draws (about 0.2 % at the median; first-order window bounds
    keep about 5 %), and all of them at an origin touch, where the
    arguments can jump by 2 pi."""
    draws = [(p, r) for group, p, r in envelope_corpus_draws(100) if group == "gamma0"]
    kept = [_screened(p, r, 200_000).size / 200_000 for p, r in draws]
    assert max(kept) < 0.01, max(kept)
    assert all(_screened(p, 1.0, 200_000) is None for group, p, _ in envelope_corpus_draws() if group == "touch")


def test_oracle_on_a_vanishing_circle():
    """At r = 5e-324 the circle's radius R rounds to 0, so every sample is C;
    the screen declines and the report is the whole-array one."""
    p = JanowskiParams(0.5, 0.0)
    assert _screened(p, 5e-324, 200_000) is None
    assert _report_bytes(empirical_bounds(p, 5e-324, 16)) == _report_bytes(_whole_array_empirical_bounds(p, 5e-324, 16))


@pytest.mark.parametrize("n", [16, 1000, 4096, 16383])
def test_streamed_oracle_below_the_elision_size(n):
    """Below 16384 samples numpy did not elide, so the whole-array oracle
    formed (1 - g) * T where the streamed one forms T * (1 - g); with FMA
    the two can differ in the last bit. Only the shifted view of h moves,
    by at most 4e-16 of the size |1 - g| max M + |g| of the terms of h (the
    argument by that over min |h|); every other field keeps its bytes."""
    for group, p, r in envelope_corpus_draws():
        got, want = empirical_bounds(p, r, n), _whole_array_empirical_bounds(p, r, n)
        if p.gamma == 0.0:
            assert _report_bytes(got) == _report_bytes(want), group
            continue
        assert _report_bytes(got, shifted=None) == _report_bytes(want, shifted=None), group
        size = abs(1.0 - p.gamma) * got.mod[1] + abs(p.gamma)
        for name in ("re", "im", "mod", "arg"):
            a, b = getattr(got.shifted, name), getattr(want.shifted, name)
            assert (a is None) == (b is None), (group, name)
            if a is not None:
                bound = 4e-16 * size / (got.shifted.mod[0] if name == "arg" else 1.0)
                assert np.abs(np.subtract(a, b)).max() <= bound, (group, name)


def test_oracle_at_gamma0_restates_the_primary_ranges():
    # with g = 0, h = w^a has no zero inside the disk, so its view is the primary one
    draws = [(group, p, r) for group, p, r in envelope_corpus_draws() if group in ("gamma0", "touch")]
    assert len(draws) == 16
    for group, p, r in draws:
        rep = empirical_bounds(p, r, 200_000)
        assert rep.mod[0] >= 1e-9, group
        assert asdict(rep.shifted) == asdict(ShiftedView(re=rep.re, im=rep.im, mod=rep.mod, arg=rep.arg)), group


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
@pytest.mark.parametrize("a", [a for a in HELPER_EXPONENTS if a > 0.0])
def test_power_of_zero_is_exactly_zero(a):
    zeros = np.array([0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)])
    assert (_power(zeros, a) == 0.0).all()
    assert _power(0j, a) == 0.0


def _exact_exponent_bases() -> np.ndarray:
    rng = np.random.default_rng(2039)
    seeded = 10.0 ** rng.uniform(-6.0, 6.0, 300) * np.exp(1j * rng.uniform(-math.pi, math.pi, 300))
    huge_and_tiny = [1e300, 1e-300, 1e300j, -1e-300j, 1e300 * cmath.exp(2.5j), 1e-300 * cmath.exp(-0.7j)]
    cut = [complex(x, s) for x in (-1.0, -4.0, -1e300, -1e-300) for s in (0.0, -0.0)]
    return np.array(list(seeded) + huge_and_tiny + cut + [0j, complex(0.0, -0.0)])


EXACT_EXPONENT_BASES = _exact_exponent_bases()


def _polar_power(w: np.ndarray, a: float) -> np.ndarray:
    """|w|^a (cos phi + i sin phi), phi = a arg w: the polar form that every exponent once took."""
    phi = a * np.arctan2(w.imag, w.real)
    mod = np.abs(w) ** a
    out = np.empty(w.shape, dtype=complex)
    out.real, out.imag = mod * np.cos(phi), mod * np.sin(phi)
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [0.5, 1.0])
def test_exact_exponents_agree_with_the_polar_form(a):
    w = EXACT_EXPONENT_BASES
    got = _power(w, a)
    assert (np.abs(got - _polar_power(w, a)) <= 4.0 * np.spacing(np.abs(w) ** a)).all()
    assert (got == (w if a == 1.0 else np.sqrt(w))).all()
    # both signs of zero on the cut (w[-10:-2], -1 + 0j and -1 - 0j first): the
    # side follows the sign, as in the polar form
    assert (got[-10], got[-9]) == ((1j, -1j) if a == 0.5 else (-1.0, -1.0))
    assert (np.signbit(got.imag) == np.signbit(_polar_power(w, a).imag))[-10:-2].all()


@pytest.mark.filterwarnings("error")
def test_powers_of_one_base_match_separate_calls():
    # the seeded bases and the cut at -1 and -4: no zero, which a negative power
    # sends to inf, and no modulus whose power 1/0.6 overflows
    w = np.concatenate([EXACT_EXPONENT_BASES[:300], EXACT_EXPONENT_BASES[-10:-6]])
    exponents = (0.3, 0.5, 1.0, 0.0, -0.4, 1.0 / 0.6, (0.5 - 1.0) * 0.6)
    for a, got in zip(exponents, _powers(w, exponents), strict=True):
        assert got.tobytes() == _power(w, a).tobytes(), a
        if a not in (0.0, 0.5, 1.0):
            assert got.tobytes() == _polar_power(w, a).tobytes(), a
    assert (_power(w, 0.0) == 1.0).all()
    assert _power(w, 1.0) is w  # the base itself, which no caller writes into


def test_unit_circle_is_shared_read_only_and_exact():
    # one cache for the sampled curves and the trials; its points are the
    # n-th roots of unity exp(2 pi i k / n) bit for bit
    for n in (512, 4096, 16384):
        z = _unit_circle(n)
        assert _unit_circle(n) is z
        assert not z.flags.writeable
        assert z.tobytes() == np.exp(2j * np.pi * np.arange(n) / n).tobytes()
    # a first block of a streamed curve: cos and sin of the np.linspace parameters
    n, size = 200_000, 16384
    z = _unit_circle(n, size)
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)[:size]
    assert _unit_circle(n, size) is z and not z.flags.writeable
    assert z.real.tobytes() == np.cos(t).tobytes() and z.imag.tobytes() == np.sin(t).tobytes()


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
def test_shifted_extremes_match_30_digit_mpmath(p, r):
    """Each shifted modulus and argument end lies within 4e-15 max(1, |ref|)
    of the 30-digit value at the root, next to the grid extremum, of the
    derivative of log|h| or arg h in t, along w = C + R e^{it}."""
    shifted = envelope_bounds(p, r).shifted
    geo, t_grid = image_disk(p, r), 2.0 * np.pi * np.arange(4096) / 4096
    hv = (1.0 - p.gamma) * _power(geo.center + geo.radius * _unit_circle(4096), p.alpha) + p.gamma
    args = np.unwrap(np.angle(hv))
    mods = np.abs(hv)
    with mp.workdps(30):
        A, B, g = (mp.mpc(v.real, v.imag) for v in (p.A, p.B, p.gamma))
        denom = 1 - abs(B) ** 2 * r * r
        C, R = (1 - A * mp.conj(B) * r * r) / denom, abs(A - B) * r / denom

        def h(t):
            return (1 - g) * (C + R * mp.expj(t)) ** p.alpha + g

        def stationary(part, i):  # the root of d/dt part(log h) next to the sample i
            h0, t0 = h(t_grid[i]), mp.mpf(t_grid[i])
            return mp.findroot(lambda t: mp.diff(lambda s: part(mp.log(h(s) / h0)), t), t0)

        for got, i in zip(shifted.mod, (np.argmin(mods), np.argmax(mods))):
            ref = abs(h(stationary(mp.re, i)))
            assert abs(got - ref) <= 4e-15 * max(1, ref), ("mod", got, ref)
        for got, i in zip(shifted.arg, (np.argmin(args), np.argmax(args))):
            t = stationary(mp.im, i)
            ref = args[i] + mp.im(mp.log(h(t) / h(t_grid[i])))  # the branch of the sample i
            assert abs(got - ref) <= 4e-15 * max(1, abs(ref)), ("arg", got, ref)


def test_newton_converges_where_plain_newton_cycles():
    """x^3 - 2x + 2 from 0: plain Newton alternates 0, 1, 0, ...; the
    safeguarded solve bisects out of the cycle to the root -1.7692923542."""
    def f(x):
        return x ** 3 - 2.0 * x + 2.0, 3.0 * x * x - 2.0

    x = 0.0
    for _ in range(4):
        x -= f(x)[0] / f(x)[1]
    assert x == 0.0
    root = _newton(f, 0.0, -3.0, 3.0, f(-3.0)[0], f(3.0)[0])
    assert -3.0 <= root <= 3.0
    assert abs(f(root)[0]) <= 8 * ULP * abs(root) ** 3
    assert root == pytest.approx(-1.7692923542386314, abs=1e-15)


def test_newton_raises_without_sign_change_or_at_the_cap():
    calls = []

    def f(x):
        calls.append(x)
        return math.atan(x - 1.0), 0.0  # a zero slope makes every step bisect

    with pytest.raises(NoConvergenceError):
        _newton(f, 0.5, 2.0, 3.0, f(2.0)[0], f(3.0)[0])
    assert len(calls) == 2  # no step is taken
    # bisection from a bracket 1e30 wide needs about 142 halvings to step 1e-13
    with pytest.raises(NoConvergenceError):
        _newton(f, 0.0, -1e30, 1e30, -1.0, 1.0)
    assert len(calls) == 2 + _NEWTON_CAP


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


def test_argument_next_to_a_zero_just_outside_the_circle():
    """gamma puts the zero of h at |z0| = (1 + 1e-6) r, so arg h turns by
    nearly pi within a fraction of a grid spacing. The argument ends hold
    every one of 2M samples and lie within 1e-8 of them; from the grid
    spacing alone the polish misses the maximum by 1.3e-4."""
    p = JanowskiParams(-0.6925636731280066 - 0.6812789077995847j, 0.5368768000662942 - 0.10046256313462143j,
                       0.8296261710310169, -0.07065011420497062 + 1.0984318000832407j)
    r = 0.7924381070664157
    (lo, hi), (slo, shi) = envelope_bounds(p, r).shifted.arg, empirical_bounds(p, r, 2_000_000).shifted.arg
    assert lo <= slo + 1e-12 and shi <= hi + 1e-12
    assert slo - lo <= 1e-8 and hi - shi <= 1e-8


def test_zero_inside_the_disk_has_no_argument_range():
    """gamma puts the zero of h at z = -0.6, inside |z| < 0.8."""
    A, B, alpha, r = 0.9, 0.3j, 0.7, 0.8
    wa = ((1.0 + A * -0.6) / (1.0 + B * -0.6)) ** alpha
    p = JanowskiParams(A, B, alpha, wa / (wa - 1.0))
    for report in (envelope_bounds(p, r), empirical_bounds(p, r)):
        assert report.shifted.mod[0] == 0.0
        assert report.shifted.mod[1] == pytest.approx(2.2533020596, abs=1e-8)
        assert report.shifted.arg is None


def test_small_alpha_with_a_large_shift_gives_a_report_or_a_janowski_error():
    """alpha down to 1e-3 and |gamma| up to 1e2 make |c|^(1/alpha), c = -gamma/(1 - gamma),
    overflow a float; the zero test decides |c| > (|C| + R)^alpha, max |W| over K,
    without the root. The first draw has c = 3.40 at alpha = 0.0016 (3.40^612);
    its shifted view holds 200k samples."""
    p = JanowskiParams(-0.3490910903617561 - 0.13356543267819887j, -0.042979763259751266 - 0.3123943224824389j,
                       0.0016343969668768134, 1.416935984649937)
    r, ranges = 0.7939819896774375, attrgetter("re", "im", "mod", "arg")
    for (lo, hi), (slo, shi) in zip(ranges(envelope_bounds(p, r).shifted), ranges(empirical_bounds(p, r).shifted)):
        assert lo <= slo + 1e-12 and shi <= hi + 1e-12
    rng = np.random.default_rng(20261020)
    reports = 0
    for k in range(2000):
        A = cmath.rect(rng.uniform(0.0, 1.0), rng.uniform(-math.pi, math.pi))
        B = cmath.rect(rng.uniform(0.0, 0.95), rng.uniform(-math.pi, math.pi))
        alpha, g = 10.0 ** rng.uniform(-3.0, 0.0), 10.0 ** rng.uniform(-2.0, 2.0)
        gamma = g * rng.choice([-1.0, 1.0]) if k % 2 else cmath.rect(g, rng.uniform(-math.pi, math.pi))
        r = rng.uniform(0.05, 1.0) * min(1.0, 1.0 / abs(A))
        try:
            envelope_bounds(JanowskiParams(A, B, alpha, gamma), r)
            reports += 1
        except JanowskiError:
            pass
    assert reports > 1900


def test_zero_beside_the_origin_touch_is_inside():
    """|A| r = 1 with the zero of h at |w0 - C| - R = -1.3e-4: a 4096-point
    turn count missed it and reported arg (-3.71, 2.57) and min |h| 0.056."""
    p = JanowskiParams(0.7436027003180046 + 0.6686217346749745j, -0.5592426799859913 + 0.6113114320861754j,
                       0.20957216207645546, -0.17943650545157386 - 0.027796381886563637j)
    closed, sampled = envelope_bounds(p, 1.0).shifted, empirical_bounds(p, 1.0, 2_000_000).shifted
    assert closed.arg is None and sampled.arg is None
    assert closed.mod[0] == 0.0 and sampled.mod[0] == 0.0


@pytest.mark.parametrize("side", [1.0 - 1e-12, 1.0 + 1e-12], ids=["inside", "outside"])
def test_zero_next_to_the_circle(side):
    """gamma puts the zero of h at w0 = C + side R e^{i t_k}, on the ray of a
    sample t_k of the 2M-point grid. That sample has |h| about 1e-12, below
    the oracle's 1e-9, so neither report has an argument range; min |h| is 0
    with the zero inside and agrees with the sampled one outside. (Off the
    sample rays 2M samples cannot see such a zero: their polygon cuts the
    circle by up to 1.2e-12 R.)"""
    rng = np.random.default_rng(20261022)
    n = 2_000_000
    for p, r in [(p, r) for group, p, r in envelope_corpus_draws() if group == "gamma0"][:2]:
        geo = image_disk(p, r)
        w0 = geo.center + side * geo.radius * cmath.exp(2j * math.pi * int(rng.integers(n)) / n)
        c = w0 ** p.alpha
        p = JanowskiParams(p.A, p.B, p.alpha, c / (c - 1.0))  # (1 - gamma)(w^alpha - c)
        closed, sampled = envelope_bounds(p, r).shifted, empirical_bounds(p, r, n).shifted
        assert closed.arg is None and sampled.arg is None
        assert (closed.mod[0] == 0.0) == (side < 1.0)
        assert abs(closed.mod[0] - sampled.mod[0]) <= 1e-11
        assert closed.mod[1] == pytest.approx(sampled.mod[1], abs=1e-10)


TWO_PEAK_CASES = {
    # |h| has local maxima 1.68938 and 1.69307 on the circle, and c = -g / (1 - g) lies outside K
    "outside": (0.4231479410150779 + 0.7027525516431202j, 0.15289926158077424 - 0.8611643109021199j,
                0.31271463927280385, 2.008660012670571 - 1.0421755252575704j, 0.9602105747803512),
    # local maxima 1.4815 and 1.3372, and h has a zero in the disk
    "zero-inside": (0.3594265645467011 + 0.7852656274470673j, -0.11352288655645722 + 0.8449478144383106j,
                    0.5622901744594068, 1.2420950373913495 - 2.128350106242201j, 0.9491002993926646),
}


@pytest.mark.parametrize("name", TWO_PEAK_CASES)
def test_farthest_point_of_two_peaks_matches_a_dense_maximum(name):
    """The larger of two local maxima of |h|, within the error of a 2^20-point
    grid ((pi / 2^20)^2 max |d^2 |h| / dt^2| / 2) and never below its samples."""
    A, B, alpha, gamma, r = TWO_PEAK_CASES[name]
    p = JanowskiParams(A, B, alpha, gamma)
    shifted = envelope_bounds(p, r).shifted
    geo = image_disk(p, r)
    dense = np.abs((1.0 - gamma) * _power(geo.center + geo.radius * _unit_circle(1 << 20), alpha) + gamma).max()
    assert dense - 4 * ULP * dense <= shifted.mod[1] <= dense + 1e-10
    assert (shifted.arg is None) == (name == "zero-inside")
    if name == "outside":
        assert shifted.mod[1] == pytest.approx(1.6930745543093084, abs=4 * ULP)


@pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12])
def test_near_tangent_zero_gives_the_nearest_point(delta):
    """c = -g / (1 - g) at W(t0) + delta n(t0), delta outside K along the outward
    normal n, so close that on these draws every support point of the four
    phases is hidden from c and the exit of the segment from 1 to c is taken.
    min |h| lies within 4 ulps of max(1, max |h|), absolute, of the 50-digit
    value at the root of d|W - c|^2/dt next to t0, and the argument range is
    present exactly when min |h| >= _NO_ARG_FLOOR."""
    for p, r in [(p, r) for group, p, r in envelope_corpus_draws() if group == "gamma0"][:3]:
        geo = image_disk(p, r)
        for t0 in (1.0, 4.0):
            w = geo.center + cmath.rect(geo.radius, t0)
            c = w ** p.alpha + delta * cmath.rect(1.0, t0 + (p.alpha - 1.0) * cmath.phase(w))
            q = JanowskiParams(p.A, p.B, p.alpha, c / (c - 1.0))
            shifted = envelope_bounds(q, r).shifted
            with mp.workdps(50):
                A, B, g = (mp.mpc(v.real, v.imag) for v in (q.A, q.B, q.gamma))
                denom = 1 - abs(B) ** 2 * r * r
                C, R = (1 - A * mp.conj(B) * r * r) / denom, abs(A - B) * r / denom

                def dist2(t):
                    return abs((C + R * mp.expj(t)) ** q.alpha + g / (1 - g)) ** 2

                t = mp.findroot(lambda s: mp.diff(dist2, s), mp.mpf(t0))
                ref = abs(1 - g) * mp.sqrt(dist2(t))
            assert abs(shifted.mod[0] - ref) <= 4 * ULP * max(1.0, shifted.mod[1]), (delta, t0)
            assert (shifted.arg is not None) == (shifted.mod[0] >= _NO_ARG_FLOOR), (delta, t0)


def test_zero_on_the_boundary_curve():
    """c = W(t0) to the last bit, for 16 parameters t0 on each gamma = 0 corpus
    draw: h has a zero on the circle up to rounding. Whichever side of it the
    closed-form zero test puts c, the view has no argument range and min |h|
    at rounding level; outside, the exit point of the segment from 1 to c is
    the visible node even where its own m rounds positive."""
    for p, r in [(p, r) for group, p, r in envelope_corpus_draws() if group == "gamma0"]:
        geo = image_disk(p, r)
        for k in range(16):
            c = (geo.center + cmath.rect(geo.radius, 2.0 * math.pi * k / 16 + 0.01)) ** p.alpha
            shifted = envelope_bounds(JanowskiParams(p.A, p.B, p.alpha, c / (c - 1.0)), r).shifted
            assert shifted.arg is None and shifted.mod[0] <= 1e-13 * max(1.0, shifted.mod[1]), (p, k)


def test_shifted_touch_nearest_point_and_its_corner():
    """At an origin touch the corner W = 0 (where h = g) is the nearest point
    to c = -g / (1 - g) exactly when c lies in its normal cone: there min |h|
    is |g| itself, at most every one of 200k samples. With g = 0.3 - 0.2j,
    c lies outside that cone on the corpus touch draws, and min |h| is the
    Newton root on the visible arc, well below |g| and within 1e-7 of (and at
    most) the sampled minimum, whose grid cannot resolve the cusp better."""
    for p in [p for group, p, _ in envelope_corpus_draws() if group == "touch"]:
        geo = image_disk(p, 1.0)
        tau, a = cmath.phase(geo.center), p.alpha
        edge = a * (tau + 0.5 * math.pi) + 0.5 * math.pi  # normal cone of the corner: edge + [0, (1 - a) pi]
        c = 0.3 * cmath.exp(1j * (edge + 0.5 * (1.0 - a) * math.pi))
        for gamma, corner in ((c / (c - 1.0), True), (0.3 - 0.2j, False)):
            q = JanowskiParams(p.A, p.B, a, gamma)
            closed, sampled = envelope_bounds(q, 1.0).shifted, empirical_bounds(q, 1.0, 200_000).shifted
            assert (closed.mod[0] == abs(q.gamma)) == corner
            assert closed.mod[0] <= sampled.mod[0] + 1e-12 and (corner or sampled.mod[0] - closed.mod[0] <= 1e-7)
            assert corner or closed.mod[0] < abs(q.gamma) - 1e-3


@pytest.mark.parametrize("alpha", [0.4, 0.8, 1.0])
def test_touch_band_on_both_sides(alpha):
    """An origin touch is ||C| - R| <= 1e-9 max(1, R) (`_touch_parameter`).
    With A = e^{0.7i} and B = 0 the circle is C = 1, R = r. At r = 1 - 0.5e-9,
    inside the band, the report takes the half-width pi/2 and modulus 0, and
    the corner W = 0 is a node of the shifted view: for c in its normal cone
    min |h| is |g| exactly. At r = 1 - 2e-9, outside it, the half-width is
    asin(R/|C|) and the modulus (|C| - R)^a, and min |h| is a root beside
    the rounded corner, above |g|. Both are at most the 200k-sample minimum."""
    A = cmath.exp(0.7j)
    for gap, inside in ((0.5e-9, True), (2e-9, False)):
        p, r = JanowskiParams(A, 0.0, alpha), 1.0 - gap
        geo = image_disk(p, r)
        C, R, tau = geo.center, geo.radius, cmath.phase(geo.center)
        assert (envelope._touch_parameter(C, R) is not None) == inside
        zeta, low = (0.5 * math.pi, 0.0) if inside else (math.asin(R / abs(C)), (abs(C) - R) ** alpha)
        b = envelope_bounds(p, r)
        assert b.arg == (alpha * (tau - zeta), alpha * (tau + zeta)) and b.mod[0] == low
        edge = alpha * (tau + 0.5 * math.pi) + 0.5 * math.pi  # normal cone of the corner: edge + [0, (1 - a) pi]
        c = 0.3 * cmath.exp(1j * (edge + 0.5 * (1.0 - alpha) * math.pi))
        q = JanowskiParams(A, 0.0, alpha, c / (c - 1.0))
        closed, sampled = envelope_bounds(q, r).shifted, empirical_bounds(q, r, 200_000).shifted
        assert (closed.mod[0] == abs(q.gamma)) == inside and closed.mod[0] >= abs(q.gamma)
        assert closed.mod[0] <= sampled.mod[0] + 1e-12


def test_farthest_point_at_alpha_one_is_closed_form():
    """At alpha = 1, K is the disk and max |W - c| = |C - c| + R. On 400 seeded
    draws, every fourth with c = C + eps e^{i theta}, eps in {0, 1e-9, 1e-6,
    1e-3} (where a branch and bound stops at _NODE_CAP with a loose bound),
    `_farthest` returns upper - value <= 1e-12 max(1, value) with upper above
    the 40-digit maximum for its C, R and c and value within 2 ulps of it, and
    shifted.mod[1] lies within 4 ulps of |1 - g| (|C - c| + R)."""
    rng = np.random.default_rng(20261102)
    seen = []
    search = envelope._farthest
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(envelope, "_farthest", lambda *args: seen.append(search(*args)) or seen[-1])
        for k in range(400):
            A = cmath.rect(rng.uniform(0.05, 1.0), rng.uniform(-math.pi, math.pi))
            B = cmath.rect(rng.uniform(0.0, 0.9), rng.uniform(-math.pi, math.pi))
            r = float(rng.uniform(0.2, 0.95))
            geo = image_disk(JanowskiParams(A, B), r)
            if k % 4 == 0:
                c = geo.center + (0.0, 1e-9, 1e-6, 1e-3)[k // 4 % 4] * cmath.exp(2j * math.pi * rng.uniform())
            else:
                c = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            p = JanowskiParams(A, B, 1.0, c / (c - 1.0))
            far = envelope_bounds(p, r).shifted.mod[1]
            value, _, upper = seen[-1]
            c = -p.gamma / (1.0 - p.gamma)
            with mp.workdps(40):
                want = abs(mp.mpc(geo.center.real, geo.center.imag) - mp.mpc(c.real, c.imag)) + mp.mpf(geo.radius)
                assert upper - value <= 1e-12 * max(1.0, value) and upper >= want, k
                assert abs(value - want) <= 2 * ULP * want, k
                assert abs(far - abs(1 - mp.mpc(p.gamma.real, p.gamma.imag)) * want) <= 4 * ULP * far, k


def _farthest_reference(C: complex, R: float, a: float, c: complex) -> mp.mpf:
    """40-digit max of |W(t) - c|, W = (C + R e^{it})^a, for this float C, R, a
    and c: each local maximum of a 4096-point float grid, and the secant root of
    d|W - c|^2/dt = 0 started there, evaluated at 40 digits."""
    t = 2.0 * np.pi * np.arange(4096) / 4096
    f = np.abs((C + R * np.exp(1j * t)) ** a - c)
    peaks = np.flatnonzero((f >= np.roll(f, 1)) & (f >= np.roll(f, -1)))
    with mp.workdps(40):
        Cm, Rm, am, cm = mp.mpc(C.real, C.imag), mp.mpf(R), mp.mpf(a), mp.mpc(c.real, c.imag)

        def dist(s):
            return abs((Cm + Rm * mp.expj(s)) ** am - cm)

        def slope(s):
            u = Rm * mp.expj(s)
            W = (Cm + u) ** am
            return mp.re(mp.conj(W - cm) * am * W * 1j * u / (Cm + u))

        # every point is on the curve, so each value is at most the maximum
        starts = [mp.mpf(t[k]) for k in peaks]
        polished = [mp.findroot(slope, (s, s + math.pi / 8192)) for s in starts]
        return max(dist(s) for s in starts + polished)


def test_farthest_point_below_alpha_one_bounds_the_maximum():
    """For alpha < 1, `_farthest`'s upper lies at or above the 40-digit
    maximum of |W - c| for its float C, R, a and c, and upper - value <=
    1e-12 max(1, value). 240 seeded shifted draws (alpha in [0.3, 1), gamma
    parts in [-0.9, 0.9], r in [0.2, 0.95]) and the TWO_PEAK_CASES; without
    a rounding allowance upper lay below that maximum on about half of them."""
    rng = np.random.default_rng(20261103)
    draws = [(JanowskiParams(A, B, alpha, gamma), r) for A, B, alpha, gamma, r in TWO_PEAK_CASES.values()]
    while len(draws) < 242:
        A = cmath.rect(rng.uniform(0.05, 1.0), rng.uniform(-math.pi, math.pi))
        B = cmath.rect(rng.uniform(0.0, 0.9), rng.uniform(-math.pi, math.pi))
        gamma = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if abs(A - B) > 0.05:
            draws.append((JanowskiParams(A, B, float(rng.uniform(0.3, 1.0)), gamma), float(rng.uniform(0.2, 0.95))))
    seen = []
    search = envelope._farthest
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(envelope, "_farthest", lambda *args: seen.append((args, search(*args))) or seen[-1][1])
        for k, (p, r) in enumerate(draws):
            envelope_bounds(p, r)
            (C, R, a, c, _, touch), (value, _, upper) = seen[-1]
            assert a < 1.0 and touch is None, k
            assert upper - value <= 1e-12 * max(1.0, value), k
            assert upper >= _farthest_reference(C, R, a, c), k


def test_shifted_view_forms_no_grid():
    """The shifted modulus and argument come from support points, tangents and
    Newton roots: envelope_bounds runs on the corpus's shifted and zero-inside
    draws, and on its touch draws shifted by 0.3 - 0.2j, with the cached grid
    of roots of unity and the vectorized power both made to raise."""
    draws = [(p, r) for group, p, r in envelope_corpus_draws() if group in ("shifted", "zero_inside")]
    draws += [(JanowskiParams(p.A, p.B, p.alpha, 0.3 - 0.2j), r)
              for group, p, r in envelope_corpus_draws() if group == "touch"]

    def refuse(*args, **kwargs):
        raise AssertionError("the shifted view formed a grid")

    want = [envelope_bounds(p, r) for p, r in draws]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(envelope, "_unit_circle", refuse)
        patch.setattr(envelope, "_powers", refuse)  # which `_power` calls too
        assert [envelope_bounds(p, r) for p, r in draws] == want


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(janowski.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, janowski; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _ulps(x: float, y: float) -> float:
    """|x - y| in ulps of the scale max(1, |x|)."""
    return abs(x - y) / (ULP * max(1.0, abs(x)))


def test_metamorphic_relations_of_the_envelope():
    """Exact symmetries of the maps, checked without sampling on seeded
    draws of the probe distribution (A, B with |.| < 0.95, r in [0.2, 0.99],
    alpha in [0.2, 1], half of them with gamma parts in [-0.9, 0.9]):

    - conjugation (A, B, gamma) -> conj mirrors arg and im and keeps re and
      mod, of the primary report and of the shifted view;
    - rotation (A, B) -> (uA, uB), |u| = 1, keeps the primary arg and mod;
    - at alpha = 1, gamma = 0 the re and im boxes are image_disk's centre
      -/+ radius.

    The bounds are in ulps of max(1, |value|). On this seed the largest
    moves are 3.5 (conjugation, primary), 3.5 (shifted re/im), 4.0 and 3.5
    (shifted mod and arg: the support points, tangents and Newton roots of
    the mirrored map round apart), 6.7 (rotation, from the rounding of
    A conj(B) in the image circle) and 0.8 (alpha = 1). Over seeds 0-324 of
    the same law shifted.arg reaches 12.0 ulps, and 40.9 next to a zero of h
    (min |h| = 0.014, where arg h is conditioned by 1/|h|), so 8 is too
    tight for it."""
    rng = np.random.default_rng(20261019)
    bounds = {"re": 8, "im": 8, "mod": 8, "arg": 8, "shifted.re": 8, "shifted.im": 8,
              "shifted.mod": 16, "shifted.arg": 16}
    for k in range(400):
        A, B = (complex(rng.uniform(0.0, 0.95) * np.exp(2j * np.pi * rng.uniform())) for _ in range(2))
        alpha, r = float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 0.99))
        gamma = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)) if k % 2 else 0j
        u = complex(np.exp(2j * np.pi * rng.uniform()))
        b = envelope_bounds(JanowskiParams(A, B, alpha, gamma), r)
        c = envelope_bounds(JanowskiParams(A.conjugate(), B.conjugate(), alpha, gamma.conjugate()), r)
        for name, bound in bounds.items():
            iv, civ = attrgetter(name)(b), attrgetter(name)(c)
            if name.endswith(("im", "arg")):
                if iv is None or civ is None:  # no argument range: a zero of h
                    assert iv is None and civ is None, (k, name)
                    continue
                civ = (-civ[1], -civ[0])
            assert max(map(_ulps, iv, civ)) <= bound, ("conjugation", k, name, iv, civ)
        rot = envelope_bounds(JanowskiParams(u * A, u * B, alpha, gamma), r)
        for name in ("arg", "mod"):
            assert max(map(_ulps, getattr(b, name), getattr(rot, name))) <= 24, ("rotation", k, name)
        if k % 2 == 0:
            p = JanowskiParams(A, B, 1.0)
            b, geo = envelope_bounds(p, r), image_disk(p, r)
            C, R = geo.center, geo.radius
            box = (C.real - R, C.real + R, C.imag - R, C.imag + R)
            assert max(map(_ulps, b.re + b.im, box)) <= 2, ("alpha = 1", k)


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


def test_half_plane_image_has_no_curve():
    with pytest.raises(OutOfRangeError, match="the image is a half-plane"):
        sample_curve(JanowskiParams(0.5, -1.0), 1.0)


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
