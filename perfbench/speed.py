"""Machine-speed probe, and timings scaled to a reference speed.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 1.5x for seconds at a time, so runs of a fixed op list spread by
10-40% in wall time however long they are. A fixed probe of the
benchmark's own (a pure-Python loop plus a small numpy kernel, no
janowski code) slows down in step with the ops around it: envelope and
special ops follow it about 1:1, light oracle trials about 0.8:1, and the
memory-bound poly-mode winding trials only about 0.4:1, which is why
oracle_campaign keeps the widest spread. So the timed loop runs `probe()`
before every op, outside the op's time, and each op's time is multiplied
by

    REF_PROBE_S / (median probe time within HALF_WINDOW_S of the op).

The probe runs none of the program's code, so a change to the program
moves the scaled times as much as the raw ones; only the machine's speed
is divided out. A change that slowed the probe itself, say by leaving
work running between ops, would be partly divided out too; the raw times,
printed alongside, still show it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The probe's time at the reference speed: about its median on the 2-vCPU
# x86 box the benchmark was written on, so scaled times read close to
# that box's usual milliseconds.
REF_PROBE_S = 1.3e-3
HALF_WINDOW_S = 0.5  # probes within this many seconds of an op set its speed
MIN_NEIGHBOURS = 2  # ... and at least this many probes on each side
PROBE_LOOP = 12000
_PROBE_X = np.linspace(0.0, 1.0, 2048)


def probe() -> float:
    """Seconds taken by a fixed piece of work."""
    start = perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i % 7
    for _ in range(8):
        acc += float(np.sin(_PROBE_X).sum())
    return perf_counter() - start


def burst(n: int = 9) -> list[float]:
    """n probes back to back."""
    return [probe() for _ in range(n)]


def scale_factors(probe_at: list[float], probe_s: list[float], at: list[float]) -> list[float]:
    """REF_PROBE_S over the median probe time near each instant of `at`:
    the probes started within HALF_WINDOW_S of it, and at least the
    MIN_NEIGHBOURS nearest probes on either side. `probe_at` is sorted."""
    times, durations, at = np.asarray(probe_at), np.asarray(probe_s), np.asarray(at)
    lo = np.searchsorted(times, at - HALF_WINDOW_S)
    hi = np.searchsorted(times, at + HALF_WINDOW_S, side="right")
    mid = np.searchsorted(times, at)
    lo = np.maximum(np.minimum(lo, mid - MIN_NEIGHBOURS), 0)
    hi = np.maximum(hi, mid + MIN_NEIGHBOURS)
    return [REF_PROBE_S / float(np.median(durations[a:b])) for a, b in zip(lo, hi)]
