"""Subordination verification oracle: Schwarz witnesses, pullbacks and
randomized implication trials.

The trials are the library's own audit: each one builds a function that
satisfies the conclusion by construction, evaluates the hypothesis honestly,
and is sound exactly when no trial lands hypothesis-true/conclusion-false.
"""

import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from janowski import (
    BranchUndefinedError,
    DominantSpec,
    InvalidTheoremIdError,
    JanowskiParams,
    OutOfRangeError,
    ParameterError,
    SchwarzPoly,
    THEOREM_IDS,
    TrialReport,
    eval_powered,
    implication_trial,
    operator_dominant,
    random_schwarz,
    subordination_pullback,
    verify_subordination,
)
from janowski import empirical_bounds, envelope, oracle
from janowski.oracle import _HEADROOM, _effective_schwarz, _rng, _unit_circle, _winding_contains
from tests.conftest import assert_screen_bounds_hold, safe_params, screen_bounds

GRID = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 1024, endpoint=False))


def _clear_seed_caches() -> None:
    """Forget every draw, test function and uniform shared between the trials of a seed."""
    for cache in (oracle._draw, oracle._effective_schwarz, oracle._uniforms):
        cache.cache_clear()


def _grid_checks(monkeypatch) -> list:
    """Sizes of the grids `SchwarzPoly.value` evaluates; in the library only
    the 4096-point check of `SchwarzPoly` calls it."""
    calls, value = [], SchwarzPoly.value
    monkeypatch.setattr(SchwarzPoly, "value", lambda self, z: calls.append(np.size(z)) or value(self, z))
    return calls


class TestSchwarzPoly:
    def test_scaled_identity(self):
        c = 0.3 + 0.2j
        s = SchwarzPoly.scaled_identity(c)
        assert s.degree == 1
        assert abs(s.linear_coefficient - c) < 1e-15
        assert abs(s.value(1.0) - c) < 1e-15
        assert abs(s.value(0.5j) - c * 0.5j) < 1e-15

    def test_boundary_modulus_stays_below_one(self):
        for seed in range(8):
            s = random_schwarz(seed, 2 + seed)
            assert np.abs(s.value(GRID)).max() < 1.0

    def test_dilation_is_precomposition(self):
        s = random_schwarz(11, 6)
        d = s.dilated(0.55)
        z = GRID[:64]
        assert np.abs(d.value(z) - s.value(0.55 * z)).max() < 1e-14

    def test_deterministic(self):
        a = random_schwarz(42, 7)
        b = oracle._draw.__wrapped__(42, 7)  # a fresh draw, past the shared cache
        assert a is not b
        assert a.coefficients == b.coefficients
        assert a.scale == b.scale
        assert random_schwarz(43, 7).coefficients != a.coefficients

    def test_scale_matches_the_one_shot_peak(self):
        """The screened 65536-point peak equals the whole-grid
        z * polyval(z, c), where numpy elides the temporary of polyval and
        multiplies it by z in place."""
        z = _unit_circle(65536)
        for seed in range(1000):
            degree = 2 + seed % 15
            raw = _rng(seed, 0).random((degree, 2))
            coef = raw[:, 0] + 1j * raw[:, 1]
            peak = float(np.abs(z * npoly.polyval(z, coef)).max())
            assert random_schwarz(seed, degree).scale == _HEADROOM / peak, (seed, degree)

    def test_peak_screen_bounds_hold_in_every_window(self):
        """The premise of the peak screen on the whole 65536-point grid, at
        both levels: in every window, each |z p(z)| is at most the bound
        from its centre, which near the peak has room to spare."""
        z = _unit_circle(65536)
        for seed in range(60):
            degree = 2 + seed % 15
            bounds = screen_bounds(lambda: random_schwarz(seed, degree))
            raw = _rng(seed, 0).random((degree, 2))
            f = np.abs(z * npoly.polyval(z, raw[:, 0] + 1j * raw[:, 1]))
            assert_screen_bounds_hold(bounds, [f], (seed, degree))

    def test_operator_test_function_stays_inside_the_curve_radius(self):
        """The premise of the operator trial's one clearance disk: the
        16384-point max |omega| of the poly-mode test function is at most
        its dilation rho, below the dominant curve's radius, over odd seeds
        1-1999, which take every degree 2-13."""
        assert oracle._OMEGA_RHO < oracle._CURVE_RADIUS
        z = _unit_circle(16384)
        degrees = set()
        for seed in range(1, 2000, 2):
            omega = _operator_omega(seed)
            degrees.add(omega.degree)
            assert float(np.abs(omega.value(z)).max()) <= oracle._OMEGA_RHO, seed
        assert degrees == set(range(2, 14))

    def test_degree_one_draw_is_near_rotation(self):
        s = random_schwarz(9, 1)
        assert s.coefficients == (1.0 + 0.0j,)
        assert s.scale == pytest.approx(1.0 - 1e-6)

    def test_derivative_matches_difference_quotient(self):
        s = random_schwarz(4, 5)
        z, h = 0.4 + 0.1j, 1e-7
        fd = (s.value(z + h) - s.value(z - h)) / (2.0 * h)
        assert abs(s.deriv(z) - fd) < 1e-6

    def test_validation(self):
        with pytest.raises(ParameterError):
            SchwarzPoly((), 1.0)
        with pytest.raises(ParameterError):
            SchwarzPoly((1.0 + 0.0j,), 1.1)  # boundary modulus reaches 1.1
        with pytest.raises(OutOfRangeError):
            SchwarzPoly((1.0 + 0.0j,), -0.5)
        with pytest.raises(OutOfRangeError, match="degree above 16"):
            SchwarzPoly((0.01,) * 17, 1.0)
        with pytest.raises(OutOfRangeError):
            random_schwarz(-1, 3)
        with pytest.raises(OutOfRangeError):
            random_schwarz(0, 17)
        with pytest.raises(OutOfRangeError):
            SchwarzPoly.scaled_identity(1.5)

    @pytest.mark.parametrize(
        "coefficients, scale",
        [((complex("nan"),), 0.5), ((1.0, complex("inf")), 0.1), ((1.0,), math.inf)],
    )
    def test_non_finite_input_is_refused(self, coefficients, scale):
        # a NaN boundary modulus used to pass the sup >= 1 check
        with pytest.raises(ParameterError, match="must be finite"):
            SchwarzPoly(coefficients, scale)

    def test_coefficient_bound_below_one_skips_the_grid(self, monkeypatch):
        calls = _grid_checks(monkeypatch)
        SchwarzPoly((0.5 + 0.5j, -0.25, 0.1j), 0.99 / (abs(0.5 + 0.5j) + 0.35))
        SchwarzPoly.scaled_identity(0.9 - 0.3j)
        SchwarzPoly((1.0 + 0.0j,), _HEADROOM)  # the degree-1 draw
        assert calls == []

    def test_inconclusive_bound_falls_back_to_the_grid(self, monkeypatch):
        s = random_schwarz(7, 9)
        assert s.scale * math.fsum(map(abs, s.coefficients)) >= 1.0
        calls = _grid_checks(monkeypatch)
        SchwarzPoly(s.coefficients, s.scale)
        assert calls == [4096]


def _operator_omega(seed: int) -> SchwarzPoly:
    """The test function of the operator trials (T5.7, C5.12) at an odd seed."""
    return _effective_schwarz(seed, rho=oracle._OMEGA_RHO, c_max=0.88, n=16)[0]


class TestPullback:
    def test_round_trip_recovers_schwarz_modulus(self):
        target = JanowskiParams(0.8, -0.5, 0.5, 0.2)
        omega = SchwarzPoly.scaled_identity(0.45 + 0.3j)
        w = eval_powered(target, omega.value(GRID))
        q = subordination_pullback(w, target)
        assert np.abs(q - np.abs(omega.value(GRID))).max() < 1e-10

    @given(safe_params(), st.floats(0.1, 0.8))
    @settings(max_examples=20)
    def test_round_trip_property(self, target, rho):
        w = eval_powered(target, rho * GRID[:128])
        q = subordination_pullback(w, target)
        assert np.abs(q - rho).max() < 1e-9

    def test_cut_value_raises(self):
        target = JanowskiParams(0.8, -0.5, 0.5, 0.2)
        with pytest.raises(BranchUndefinedError):
            subordination_pullback(np.array([target.gamma - 0.5]), target)

    def test_max_pullback_is_inf_on_the_cut(self):
        # a sample on the cut of the inverse has no preimage, so it certifies nothing
        target = JanowskiParams(0.8, -0.5, 0.5, 0.2)
        samples = np.array([1.0 + 0.1j, target.gamma - 0.5])
        assert oracle._max_pullback(samples, target) == math.inf
        assert oracle._max_pullback(samples[:1], target) == float(subordination_pullback(samples[:1], target)[0])

    def test_verify_subordination_is_false_on_the_cut(self):
        # the image of an argument-safe target holds no w with (w - gamma)/(1 - gamma)
        # on the cut (-inf, 0], so a sample there is outside it: no BranchUndefinedError
        assert verify_subordination(np.array([1.0, -0.5 + 0j]), JanowskiParams(0.5, 0.0, 0.5)) is False

    @pytest.mark.filterwarnings("error")
    def test_verify_subordination_is_false_off_the_image(self):
        """Seeded points that no argument-safe target's image holds, whose
        principal root base^(1/alpha), base = (w - gamma)/(1 - gamma), can
        wrap round into the first-order disk: past the ends |arg base| =
        alpha pi of the sector (near the origin, too, where the image of an
        origin touch |A| = 1 comes close), at and near A/B (the image of
        z = infinity) and at huge |w|, for alpha in (0, 1] and gamma != 0 in
        half. The image at r = 1 lies in |arg base| < alpha pi and, with
        |B| <= 0.9, in |base| <= (1 + |A|)^alpha / 0.1^alpha. The values of
        each target at |z| <= 0.999 still pull back to within 1e-12 of |z|."""
        rng = np.random.default_rng(20261020)

        def turn() -> complex:
            return cmath.exp(2j * math.pi * rng.uniform())

        assert not verify_subordination(np.array([-1.0 + 1e-3j]), JanowskiParams(0.5, -0.5, 0.5))
        checked = 0
        for k in range(200):
            alpha = (1.0, float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.01, 0.2)))[k % 3]
            gamma = complex(rng.uniform(0.0, 0.5) * turn()) if k % 4 > 1 else 0j
            B = complex(rng.uniform(0.05, 0.9) * turn())
            A = turn() if k % 2 else complex(rng.uniform(0.0, 1.0) * turn())  # odd k: an origin touch
            if abs(A - B) < 0.05:
                continue
            target = JanowskiParams(A, B, alpha, gamma)
            z = 0.999 * np.sqrt(rng.uniform(size=16)) * np.exp(2j * np.pi * rng.uniform(size=16))
            assert np.abs(subordination_pullback(eval_powered(target, z), target) - np.abs(z)).max() <= 1e-12
            bases = []
            # near the origin only unshifted: w = gamma + (1 - gamma) base rounds base by ~eps |gamma|
            for size in (10.0 ** rng.uniform(-12.0 if gamma == 0.0 else -3.0, -3.0), 10.0 ** rng.uniform(-3.0, 3.0)):
                if alpha == 1.0:  # past the ends is the cut itself, with either sign of zero
                    bases += [complex(-size, 0.0), complex(-size, -0.0)]
                    continue
                end = alpha * math.pi + rng.uniform(0.05, 1.0) * (1.0 - alpha) * math.pi
                bases += [size * cmath.exp(1j * s * end) for s in (1.0, -1.0)]
            for delta in (0.0, 1e-12, 1e-6):  # w~ at and near A/B, a base with an argument inside the sector
                bases.append(((A / B) * (1.0 + delta * turn())) ** alpha)
            bases.append(10.0 ** rng.uniform(10.0, 300.0) * turn())
            for base in bases:
                w = gamma + (1.0 - gamma) * base
                assert verify_subordination(np.array([w]), target) is False, (target, w)
                checked += 1
        assert checked > 1500

    def test_verify_subordination_accepts_composites(self):
        target = JanowskiParams(1.0, 0.0, 0.5)
        omega = random_schwarz(6, 4).dilated(0.7)
        samples = eval_powered(target, omega.value(GRID))
        assert verify_subordination(samples, target)

    def test_verify_subordination_flags_escapes(self):
        target = JanowskiParams(1.0, 0.0, 0.5)
        too_far = eval_powered(target, 0.9 * GRID)
        assert not verify_subordination(too_far, target, r=0.5)
        assert verify_subordination(too_far, target, r=0.9 + 1e-12)

    def test_verify_subordination_needs_safe_target(self):
        # the inverse map is only single-valued on argument-safe targets
        unsafe = JanowskiParams(1.6, 0.0, 0.5)
        with pytest.raises(ParameterError):
            verify_subordination(np.array([1.0 + 0.1j]), unsafe)


class TestImplicationTrials:
    def test_theorem_ids_catalogue(self):
        assert set(THEOREM_IDS) == {"T3.3", "T3.6", "T5.4", "T5.5", "T5.7", "C5.12", "T5.10"}

    @pytest.mark.parametrize("tid", sorted({"T3.3", "T3.6", "T5.4", "T5.5", "T5.7", "C5.12", "T5.10"}))
    def test_trials_are_sound_on_smoke_seeds(self, tid):
        for seed in range(6):
            rep = implication_trial(tid, seed=seed)
            assert isinstance(rep, TrialReport)
            assert rep.theorem_id == tid
            assert rep.seed == seed
            assert rep.sound, f"{tid} seed {seed}: hypothesis true but conclusion false"

    def test_hypothesis_sometimes_fires(self):
        # a vacuous trial set would make soundness trivial
        fired = sum(implication_trial("T3.3", seed=s).hypothesis_holds for s in range(8))
        assert fired >= 4

    def test_unknown_id(self):
        with pytest.raises(InvalidTheoremIdError):
            implication_trial("T9.9")

    def test_negative_seed(self):
        with pytest.raises(OutOfRangeError):
            implication_trial("T5.5", seed=-3)

    def test_report_serializes_to_one_json_line(self):
        rep = implication_trial("T5.7", seed=1)
        line = rep.to_json()
        assert "\n" not in line
        data = json.loads(line)
        assert data["theorem_id"] == "T5.7"
        assert data["seed"] == 1
        assert isinstance(data["hypothesis_holds"], bool)
        assert isinstance(data["conclusion_holds"], bool)
        assert isinstance(data["detail"], dict)

    def test_convex_combination_is_the_operator_trial_specialized(self):
        # C5.12 is the T5.7 operator trial at A = e^{i m pi}, alpha = delta = 1,
        # mu = 1 - lam, eta = lam, rho = 0
        for seed in range(16):
            combo = implication_trial("C5.12", seed=seed)
            m, b, lam, gamma = (combo.detail[k] for k in ("m", "b", "lam", "gamma"))
            spec = DominantSpec(A=cmath.exp(1j * math.pi * m), b=b, alpha=1.0, gamma=gamma,
                                mu=1.0 - lam, eta=lam, delta=1.0, rho=0.0)
            hypothesis, conclusion, margin, detail = oracle._operator_trial(seed, spec, {})
            assert (hypothesis, conclusion, margin) == (
                combo.hypothesis_holds, combo.conclusion_holds, combo.margin)
            for key in ("max_pullback", "identity_gap" if seed % 2 == 0 else "contained_fraction"):
                assert detail[key] == combo.detail[key], (seed, key)

    def test_shared_unit_grid_is_read_only(self):
        grid = oracle._unit_circle(64)
        assert grid is oracle._unit_circle(64)
        with pytest.raises(ValueError):
            grid[0] = 0.0

    def test_reports_are_deterministic(self):
        a = implication_trial("T5.5", seed=12).to_json()
        _clear_seed_caches()  # so b samples its test function afresh
        b = implication_trial("T5.5", seed=12).to_json()
        assert a == b


class TestDominantCurveCache:
    # seeds 1, 3, 5, 7 take every row of the poly-mode operator and combination tables
    def test_cached_curve_is_read_only_and_exact(self, monkeypatch):
        cached, specs = oracle._dominant_curve, []
        monkeypatch.setattr(oracle, "_dominant_curve", lambda spec: specs.append(spec) or cached(spec))
        for tid in ("T5.7", "C5.12"):
            for seed in (1, 3, 5, 7):
                implication_trial(tid, seed=seed)
        assert len(set(specs)) == 8
        for spec in specs:
            curve = cached(spec)
            assert curve is cached(spec)
            assert not curve.flags.writeable
            fresh = operator_dominant(spec, oracle._CURVE_RADIUS * _unit_circle(oracle._N_SAMPLES))
            assert curve.tobytes() == fresh.tobytes(), spec

    def test_reports_do_not_depend_on_the_order_of_first_use(self):
        def reports(seeds):
            oracle._dominant_curve.cache_clear()
            return {(tid, s): implication_trial(tid, seed=s).to_json() for s in seeds for tid in ("T5.7", "C5.12")}

        assert reports(range(15, -1, -1)) == reports(range(16))

    def test_identity_mode_leaves_the_cache_empty(self):
        oracle._dominant_curve.cache_clear()
        for seed in range(0, 16, 2):
            for tid in ("T5.7", "C5.12"):
                implication_trial(tid, seed=seed)
        assert oracle._dominant_curve.cache_info().currsize == 0


class TestDrawCache:
    def test_reports_do_not_depend_on_sharing_the_draw(self):
        def reports(pairs, clear_each):
            _clear_seed_caches()
            out = {}
            for tid, seed in pairs:
                if clear_each:
                    _clear_seed_caches()
                out[tid, seed] = implication_trial(tid, seed=seed).to_json()
            return out

        seed_major = [(tid, s) for s in range(100) for tid in THEOREM_IDS]
        id_major = [(tid, s) for tid in THEOREM_IDS for s in range(100)]
        first = reports(seed_major, False)
        assert reports(id_major, False) == first
        assert oracle._draw.cache_info().hits == (len(THEOREM_IDS) - 1) * 50  # id-major: 50 odd seeds fit
        assert reports(seed_major, True) == first

    def test_campaign_draws_and_checks_once_per_odd_seed(self, monkeypatch):
        """Seed-major, as the benchmark runs: T5.4 and C5.12 reuse the test
        function of T3.3 and T5.7, and each odd seed's draw is screened once
        and hit by its 4 other ids; no dilated or identity test function
        evaluates the grid, and a draw does at most once. Seed 1665 draws
        degree 2, whose z (c_0 + c_1 z) reaches |c_0| + |c_1| on the circle,
        so the coefficient bound certifies it without the grid."""
        calls = _grid_checks(monkeypatch)
        _clear_seed_caches()
        seeds = range(1660, 1670)
        for seed in seeds:
            for tid in THEOREM_IDS:
                implication_trial(tid, seed=seed)
        odd = len(seeds) // 2
        assert calls == [4096] * (odd - 1)
        info = oracle._draw.cache_info()
        assert (info.misses, info.hits) == (odd, 4 * odd)
        info = oracle._effective_schwarz.cache_info()
        assert (info.misses, info.hits) == (5 * len(seeds), 2 * len(seeds))
        info = oracle._uniforms.cache_info()  # stream 2 for each test function, stream 1 for T3.3's pole
        assert (info.misses, info.hits) == (2 * len(seeds), 4 * len(seeds))
        assert _effective_schwarz(1665, 0.2, 0.25)[0].degree == 2

    def test_shared_samples_are_read_only(self):
        for seed in (1660, 1661):
            _, z, w, zdw = _effective_schwarz(seed, oracle._OMEGA_RHO, 0.88, 512, (0.35, 1.0))
            assert z.size == 1024 and not any(x.flags.writeable for x in (z, w, zdw))


def test_no_caller_writes_into_a_power(monkeypatch):
    """Every trial id over seeds 0-15 and the array path of eval_powered give
    the same results when each power comes back as a read-only copy."""
    powers = envelope._powers

    def frozen(w, exponents):
        out = [np.array(x) for x in powers(w, exponents)]
        for x in out:
            x.setflags(write=False)
        return out

    p = JanowskiParams(0.7 + 0.2j, -0.4, 0.5, 0.1j)
    z = 0.8 * _unit_circle(64)
    want = [implication_trial(tid, seed=s).to_json() for s in range(16) for tid in THEOREM_IDS], eval_powered(p, z)
    monkeypatch.setattr(envelope, "_powers", frozen)
    monkeypatch.setattr(oracle, "_powers", frozen)
    monkeypatch.setattr(oracle, "_power", envelope._power)
    got = [implication_trial(tid, seed=s).to_json() for s in range(16) for tid in THEOREM_IDS], eval_powered(p, z)
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


def _angle_sum_contains(points, curve):
    """Reference membership: |sum of turning angles of curve - point| > pi,
    or within 1e-12 of a vertex."""
    nxt = np.roll(curve, -1)
    flags = np.empty(points.shape, dtype=bool)
    for lo in range(0, points.size, 128):
        blk = points[lo : lo + 128, None]
        d0 = curve[None, :] - blk
        d1 = nxt[None, :] - blk
        hit = np.abs(d0).min(axis=1) < 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.angle(d1 / d0)
        total = np.abs(np.nansum(steps, axis=1))
        flags[lo : lo + 128] = hit | (total > math.pi)
    return flags


def _containment_calls(monkeypatch, tid, seed):
    """The (points, curve, disk) arguments of every containment test one trial makes."""
    calls = []
    contains = oracle._winding_contains

    def spy(points, curve, disk=None):
        calls.append((points, curve, disk))
        return contains(points, curve, disk)

    monkeypatch.setattr(oracle, "_winding_contains", spy)
    implication_trial(tid, seed=seed)
    return calls


class TestWindingContains:
    # seeds 1, 3, 5, 7 take every row of the poly-mode operator and combination tables
    @pytest.mark.parametrize("seed", [1, 3, 5, 7])
    @pytest.mark.parametrize("tid", ["T5.7", "C5.12"])
    def test_poly_mode_trials_match_the_angle_sum(self, monkeypatch, tid, seed):
        (points, curve, disk), = _containment_calls(monkeypatch, tid, seed)
        assert disk == oracle._inscribed_disk(curve)
        assert np.array_equal(_winding_contains(points, curve, disk), _angle_sum_contains(points, curve))

        rng = np.random.default_rng(seed)
        lo = np.array([curve.real.min(), curve.imag.min()])
        span = np.array([curve.real.max(), curve.imag.max()]) - lo
        box = lo - 0.1 * span + 1.2 * span * rng.random((512, 2))
        box = box[:, 0] + 1j * box[:, 1]
        box[:32] = curve[rng.choice(curve.size, 32, replace=False)]  # vertices hit exactly
        extremes = [curve.imag.argmax(), curve.imag.argmin(), curve.real.argmax(), curve.real.argmin()]
        box[32:36] = curve[extremes] + np.array([5e-13j, -5e-13j, 5e-13, -5e-13])  # just outside, within 1e-12
        got = _winding_contains(box, curve)
        assert np.array_equal(got, _angle_sum_contains(box, curve))
        assert np.array_equal(_winding_contains(box, curve, disk), got)
        assert got[:36].all() and got[36:].any() and not got.all()

    def test_doubly_covered_loop_is_inside(self):
        # the inner loop of the limacon (1 + 2 cos t) e^{it} has winding number 2,
        # which an even-odd count would put outside
        t = 2.0 * np.pi * np.arange(4096) / 4096
        curve = (1.0 + 2.0 * np.cos(t)) * np.exp(1j * t)
        points = np.array([0.5, 0.3 + 0.1j, 2.0, 1.5 - 1.0j, -0.5, 3.5, 1.0 + 2.0j])
        got = _winding_contains(points, curve)
        assert got.tolist() == [True, True, True, True, False, False, False]
        assert np.array_equal(got, _angle_sum_contains(points, curve))

    def test_pairs_beyond_one_block_match_the_angle_sum(self):
        # every edge of this zigzag straddles every point: 512 x 256 pairs, two blocks
        j = np.arange(512)
        curve = j / 512 + 1j * np.where(j % 2 == 0, 1.0, -1.0)
        rng = np.random.default_rng(0)
        points = rng.random(256) + 0.99j * (2.0 * rng.random(256) - 1.0)
        got = _winding_contains(points, curve)
        assert np.array_equal(got, _angle_sum_contains(points, curve))
        assert got.any() and not got.all()

    def test_nan_points_are_outside(self):
        t = 2.0 * np.pi * np.arange(256) / 256
        curve = np.exp(1j * t)
        points = np.array([complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.nan, math.nan), 0.0])
        got = _winding_contains(points, curve)
        assert got.tolist() == [False, False, False, True]
        assert np.array_equal(got, _angle_sum_contains(points, curve))


def _disk_probes(curve: np.ndarray, disk, seed: int) -> np.ndarray:
    """Points on, just inside and just outside the certified circle, inside the
    disk, across the curve's box, on curve vertices, and NaN points."""
    centre, radius, _ = disk
    rng = np.random.default_rng(seed)
    turn = np.exp(2j * np.pi * rng.random(256))
    ring = [centre + radius * f * turn for f in (1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-3)]
    inner = centre + radius * np.sqrt(rng.random(256)) * turn
    lo, hi = complex(curve.real.min(), curve.imag.min()), complex(curve.real.max(), curve.imag.max())
    box = lo.real + (hi - lo).real * rng.random(256) + 1j * (lo.imag + (hi - lo).imag * rng.random(256))
    nan = np.array([complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.nan, math.nan)])
    return np.concatenate(ring + [inner, box, curve[rng.choice(curve.size, 32, replace=False)], nan])


def _star(t: np.ndarray) -> np.ndarray:
    return (1.0 + 0.5 * np.cos(5.0 * t)) * np.exp(1j * t)


class TestInscribedDisk:
    """The disk shortcut of `_winding_contains` gives the flags of the full
    crossing count, point for point."""

    def _check(self, curve, seed, angle_sum=True):
        disk = oracle._inscribed_disk(curve)
        points = _disk_probes(curve, disk, seed)
        full = _winding_contains(points, curve)
        assert np.array_equal(_winding_contains(points, curve, disk), full)
        if angle_sum:
            assert np.array_equal(full, _angle_sum_contains(points, curve))
        return disk, points, full

    @pytest.mark.parametrize("seed", [1, 3, 5, 7])
    @pytest.mark.parametrize("tid", ["T5.7", "C5.12"])
    def test_every_table_row_curve(self, monkeypatch, tid, seed):
        (_, curve, disk), = _containment_calls(monkeypatch, tid, seed)
        got, points, full = self._check(curve, seed)
        assert got == disk
        centre, radius, flag = disk
        assert radius > 0.0 and flag and full[:1024].all()  # the dominant curve winds once about its mean
        # no edge comes within the radius: 64 points on each edge stay farther from the centre
        s = np.linspace(0.0, 1.0, 64)[:, None]
        edges = curve + s * (np.roll(curve, -1) - curve)
        assert np.abs(edges - centre).min() > radius + 2e-12

    def test_doubly_covered_loop(self):
        # the inner loop of (0.5 + 2 cos t) e^{it} winds twice and holds the mean 1
        t = 2.0 * np.pi * np.arange(4096) / 4096
        curve = (0.5 + 2.0 * np.cos(t)) * np.exp(1j * t)
        disk, points, full = self._check(curve, 11)
        assert disk[1] > 0.1 and disk[2] and full[:1024].all()
        # the limacon (1 + 2 cos t) e^{it} passes through its mean: no disk, all counted
        curve = (1.0 + 2.0 * np.cos(t)) * np.exp(1j * t)
        assert oracle._inscribed_disk(curve)[1] < 0.0
        self._check(curve, 12)

    def test_non_convex_star(self):
        t = 2.0 * np.pi * np.arange(4096) / 4096
        disk, points, full = self._check(_star(t), 13)
        assert 0.49 < disk[1] < 0.5 and disk[2]

    def test_nan_curve_gives_an_empty_disk(self):
        curve = np.exp(2j * np.pi * np.arange(256) / 256)
        curve[7] = complex(math.nan, 0.0)
        assert math.isnan(oracle._inscribed_disk(curve)[1])
        self._check(curve, 14, angle_sum=False)  # the angle sum skips the NaN vertex's steps


@pytest.mark.parametrize("call,limit", [
    (lambda: empirical_bounds(JanowskiParams(0.7 + 0.3j, -0.4, 0.6, 0.2 - 0.3j), 0.8, 200_000), 4 << 20),
    (lambda: empirical_bounds(JanowskiParams(0.7 + 0.3j, -0.4, 0.6), 0.8, 200_000), 4 << 20),
    (lambda: oracle._draw.__wrapped__(5, 16), 1 << 19),  # a fresh draw: a cached one screens nothing
    # R = 2e-12, twice the rounding slack: the screen keeps every sample, and its index arrays
    # are full-length (3.9 MiB in all), but the samples are formed 16384 at a time (20 MiB at once)
    (lambda: empirical_bounds(JanowskiParams(0.5, 0.3, 0.6), 1e-11, 200_000), 6 << 20),
], ids=["empirical_bounds-200k", "empirical_bounds-200k-gamma0", "random_schwarz", "empirical_bounds-200k-all-kept"])
def test_working_memory_stays_small(call, limit):
    """The oracle streams cache-sized blocks and the Schwarz peak forms
    only its screened windows, so neither holds a full-length array."""
    call()  # fills the shared unit-circle caches
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit
