import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from janowski import JanowskiParams, envelope, oracle
from janowski.oracle import _STRIDES

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session", autouse=True)
def certified_farthest_points():
    """Every farthest-point search that a test runs, through envelope_bounds or
    otherwise, certifies its maximum: value <= upper <= value + 1e-12 max(1, value)."""
    search = envelope._farthest

    def checked(*args):
        value, t, upper = search(*args)
        assert value <= upper <= value + 1e-12 * max(1.0, value), (args, value, upper)
        return value, t, upper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(envelope, "_farthest", checked)
        yield


@st.composite
def safe_params(draw, powered: bool = True):
    """Argument-safe JanowskiParams: |A| <= 1 and |B| <= 1 keep the origin
    out of the first-order image, so powers and arguments stay single-valued."""
    mag_a = draw(st.floats(0.05, 1.0))
    mag_b = draw(st.floats(0.0, 0.95))
    th_a = draw(st.floats(0.0, 2.0 * np.pi))
    th_b = draw(st.floats(0.0, 2.0 * np.pi))
    A = mag_a * np.exp(1j * th_a)
    B = mag_b * np.exp(1j * th_b)
    if abs(A - B) <= 1e-9:
        A = -B if abs(B) > 0.1 else 1.0
    alpha = draw(st.floats(0.25, 1.0)) if powered else 1.0
    return JanowskiParams(A, B, alpha)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def _window_max(f: np.ndarray, centres: np.ndarray, half: int) -> np.ndarray:
    """Largest sample of f in each window centres[i] - half ... centres[i] + half (mod f.size)."""
    ext = np.concatenate([f[-half:], f, f[:half]])
    return np.lib.stride_tricks.sliding_window_view(ext, 2 * half + 1)[centres].max(axis=1)


def screen_bounds(screen_call):
    """The `bounds` function that `screen_call()` hands to `_screen`, or None."""
    seen, screen = [], oracle._screen
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_screen", lambda n, bounds: seen.append(bounds) or screen(n, bounds))
        screen_call()
    return seen[0] if seen else None


def assert_screen_bounds_hold(bounds, full: list[np.ndarray], what) -> None:
    """Every window of both screen levels, centred on every 256th and every
    16th sample, against the whole grid: low is at most the centre's sample
    and high at least each sample of the window, for each quantity in
    `full` (a maximum of f, then one of -f, gives both sides)."""
    n = full[0].size
    for stride in _STRIDES:
        centres = np.arange(0, n, stride)
        for (low, high), f in zip(bounds(centres, stride // 2), full, strict=True):
            assert (low <= f[centres]).all(), (what, stride)
            assert (_window_max(f, centres, stride // 2) <= high).all(), (what, stride)
