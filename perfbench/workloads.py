"""Op lists of the four workloads, and the check of every op's output.

An op is a fixed list of calls into the library (or one CLI invocation).
`make_ops(workload, seed, seconds)` builds the whole list before any
timing starts; it depends only on its arguments, never on a clock, so
every run of one seed does identical work. Op classes are interleaved
round-robin, so drift in machine speed hits every class alike.

Each workload's check runs after the timed loop and is never timed. It
compares every output with a reference of the benchmark's own (see
`references.py`), and returns `None` or a `Failure` naming the call that
was wrong.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import janowski as J

WORKLOADS = ("envelope_sweep", "oracle_campaign", "special_points", "cli_cold")
ROOT = Path(__file__).resolve().parent.parent  # the checkout the benchmark measures
OUT_DIR = "perfbench/_out"  # spans and CLI plot files, relative to ROOT

# Ops generated per second of --seconds: sizing constants, not
# measurements. At the seed commit and the reference speed of speed.py,
# --seconds 10 gives timed loops of about 16 s (envelope_sweep), 13 s
# (oracle_campaign), 12 s (special_points) and 25 s (cli_cold, 30
# invocations).
OPS_PER_SECOND = {
    "envelope_sweep": 200.0,
    "oracle_campaign": 36.0,
    "special_points": 9.0,
    "cli_cold": 3.0,
}

# A fixed seed for the warm-up ops, so setup does the same work whatever
# the workload seed.
WARMUP_SEED = 10_000

# Wrong answers of the seed commit that the benchmark expects to see. They
# count as failed ops and lower ok_frac, but leave `correct` true; any other
# failure makes it false.
#   zero_inside: h = (1-g) w^a + g has a zero inside |z| < r, yet
#     envelope_bounds reports a positive modulus minimum and an argument
#     range (ROADMAP, "Wrong shifted envelope when h has a zero inside").
#   touch_cusp: at |A| r = 1 an interval misses boundary values next to
#     the cusp by at most references.TOUCH_SLACK.
KNOWN_DEFECTS = ("zero_inside", "touch_cusp")


@dataclass(frozen=True)
class Call:
    """One call into the library; `span` names the layer it measures."""

    span: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    op_id: int
    cls: str
    calls: tuple[Call, ...]
    data: dict = field(default_factory=dict)  # inputs the check needs

    def key(self) -> str:
        """Canonical text of the op's inputs, to compare two op lists."""
        return json.dumps(
            [self.cls, [(c.span, c.fn.__name__, _plain(c.args), _plain(c.kwargs)) for c in self.calls]],
            sort_keys=True,
        )


@dataclass(frozen=True)
class OpError:
    """An op that raised: the index of the call that raised, and the exception."""

    call: int
    exc: Exception


@dataclass(frozen=True)
class Failure:
    call: int  # index into op.calls of the call whose output was wrong
    kind: str  # "zero_inside", "wrong", "exception", ...
    reason: str


def _plain(value):
    """JSON-ready copy of call arguments and results: complex numbers
    become {"re", "im"}, tuples lists, dataclasses dicts. It mirrors the
    CLI's serialization so a CLI `result` block compares equal."""
    if hasattr(value, "__dataclass_fields__"):
        return {name: _plain(getattr(value, name)) for name in value.__dataclass_fields__}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return {"re": c.real, "im": c.imag}
    if value is None:
        return None
    if callable(value):
        return getattr(value, "__name__", None) or repr(value)
    return str(value)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def _polar(rng, lo: float, hi: float) -> complex:
    return complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform()))


def _criterion4_draw(rng) -> tuple[complex, complex, float, float]:
    """Acceptance criterion 4's map: |A| in [0.2, 1], |B| in [0, 0.9] with
    |A - B| > 0.05, alpha in [0.3, 1], and a radius r in [0.2, 0.95]."""
    while True:
        A = _polar(rng, 0.2, 1.0)
        B = _polar(rng, 0.0, 0.9)
        if abs(A - B) > 0.05:
            break
    return A, B, float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.2, 0.95))


def _n_ops(workload: str, seconds: float, unit: int) -> int:
    """Op count for --seconds, a whole number of `unit`-op rounds."""
    rounds = max(1, round(seconds * OPS_PER_SECOND[workload] / unit))
    return rounds * unit


# ---------------------------------------------------------------------------
# envelope_sweep


ENVELOPE_PATTERN = ("gamma0", "shifted", "gamma0", "shifted", "touch")


def _envelope_ops(seed: int, seconds: float) -> list[Op]:
    rng = _rng("envelope_sweep", seed)

    def build(i: int, cls: str) -> Op:
        A, B, alpha, r = _criterion4_draw(rng)
        gamma = 0j
        if cls == "shifted":
            gamma = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        elif cls == "touch":
            A, r = A / abs(A), 1.0
        p = J.JanowskiParams(A, B, alpha, gamma)
        return Op(i, cls, (
            Call("moebius.image_disk", J.image_disk, (p, r)),
            Call(f"envelope.envelope_bounds.{cls}", J.envelope_bounds, (p, r)),
        ), {"p": p, "r": r})

    n = _n_ops("envelope_sweep", seconds, len(ENVELOPE_PATTERN))
    return [build(i, ENVELOPE_PATTERN[i % len(ENVELOPE_PATTERN)]) for i in range(n)]


def _envelope_check(op: Op, out: list) -> Failure | None:
    import references as ref

    p, r = op.data["p"], op.data["r"]
    msg = ref.image_disk_error(p, r, out[0])
    if msg:
        return Failure(0, "wrong", msg)
    kind, msg = ref.envelope_error(p, r, out[1])
    if msg:
        return Failure(1, kind, msg)
    return None


# ---------------------------------------------------------------------------
# oracle_campaign

# Per trial seed: every theorem id once, with two empirical_bounds calls
# interleaved (2 per 7 trials, the ratio of acceptance criteria 4 and 7).
ORACLE_EMP_AFTER = (1, 4)  # insert an empirical_bounds op after these trial positions
ORACLE_OPS_PER_SEED = len(J.THEOREM_IDS) + len(ORACLE_EMP_AFTER)


def _trial_mode(trial_seed: int) -> str:
    return "identity" if trial_seed % 2 == 0 else "poly"


def _oracle_ops(seed: int, seconds: float) -> list[Op]:
    rng = _rng("oracle_campaign", seed)
    # Whole blocks of two consecutive trial seeds, starting even, so the
    # identity (even) and poly (odd) modes balance.
    n_seeds = _n_ops("oracle_campaign", seconds, 2 * ORACLE_OPS_PER_SEED) // ORACLE_OPS_PER_SEED
    first = seed * n_seeds
    ops: list[Op] = []
    for trial_seed in range(first, first + n_seeds):
        for pos, tid in enumerate(J.THEOREM_IDS):
            cls = f"{tid}.{_trial_mode(trial_seed)}"
            ops.append(Op(len(ops), cls, (
                Call(f"oracle.implication_trial.{cls}", J.implication_trial, (tid,), {"seed": trial_seed}),
            ), {"theorem_id": tid, "seed": trial_seed}))
            if pos in ORACLE_EMP_AFTER:
                A, B, alpha, r = _criterion4_draw(rng)
                p = J.JanowskiParams(A, B, alpha)
                ops.append(Op(len(ops), "empirical_bounds", (
                    Call("oracle.empirical_bounds", J.empirical_bounds, (p, r, 200_000)),
                ), {"p": p, "r": r}))
    return ops


def _oracle_check(op: Op, out: list) -> Failure | None:
    import references as ref

    if op.cls == "empirical_bounds":
        msg = ref.contained_in_closed_box(op.data["p"], op.data["r"], out[0])
        return Failure(0, "wrong", msg) if msg else None
    rep = out[0]
    if rep.theorem_id != op.data["theorem_id"] or rep.seed != op.data["seed"]:
        return Failure(0, "wrong", f"report is for {rep.theorem_id} seed {rep.seed}")
    if not rep.sound:
        return Failure(0, "unsound", f"hypothesis held but conclusion failed, margin {rep.margin:.3g}")
    return None


# ---------------------------------------------------------------------------
# special_points

SPECIAL_PATTERN = (
    "kernel.quad_alpha_lt1",
    "kernel.quad_alpha1",
    "kernel.closed",
    "best_dominant",
    "hyper_3f2.inner",
    "hyper_3f2.near_unit",
    "operator_dominant",
    "macgregor_gamma",
    "starlike.closed",
    "starlike.bisect",
    "alpha_star",
    "subordination_radius",
    "ratio_sector_params",
    "weighted_sector_params",
)


def _unit_lambda(t: complex) -> complex:
    return 1.0 + 0.0j


class _PoweredTarget:
    """psi(t) = eval_powered(p, t): the CLI's `best-q` target."""

    def __init__(self, p: J.JanowskiParams):
        self.p = p

    def __call__(self, t: complex) -> complex:
        return complex(J.eval_powered(self.p, t))

    def __repr__(self) -> str:
        return f"eval_powered({self.p!r})"


def _kernel_point(rng) -> tuple[complex, float, complex]:
    """Acceptance criterion 5's kernel inputs: |A| <= 1, b in [0, 1], |z| <= 0.8."""
    A = _polar(rng, 0.0, 1.0)
    b = float(rng.uniform(0.0, 1.0))
    z = complex(0.8 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
    return A, b, z


def _special_call(cls: str, rng) -> Call:
    if cls.startswith("kernel."):
        A, b, z = _kernel_point(rng)
        alpha = float(rng.uniform(0.3, 0.95)) if cls == "kernel.quad_alpha_lt1" else 1.0
        method = "closed" if cls == "kernel.closed" else "quad"
        span = "special.kernel_integral." + cls.split(".")[1]
        return Call(span, J.kernel_integral, (A, b, alpha, z), {"method": method})
    if cls == "best_dominant":
        A, B, alpha, _ = _criterion4_draw(rng)
        z = _polar(rng, 0.1, 0.7)
        psi = _PoweredTarget(J.JanowskiParams(A, B, alpha))
        return Call("special.best_dominant", J.best_dominant, (psi, _unit_lambda, z))
    if cls.startswith("hyper_3f2."):
        a = tuple(float(v) for v in rng.uniform(0.1, 1.0, 3))
        bb = tuple(float(v) for v in rng.uniform(1.0, 2.0, 2))
        lo, hi = (0.0, 0.5) if cls == "hyper_3f2.inner" else (0.95, 0.99)
        x = _polar(rng, lo, hi)
        return Call("special." + cls, J.hyper_3f2, (*a, *bb, x))
    if cls == "operator_dominant":
        spec = J.DominantSpec(
            A=_polar(rng, 0.0, 1.0), b=float(rng.uniform(0.0, 1.0)),
            alpha=float(rng.uniform(0.0, 1.0)), gamma=float(rng.uniform(0.0, 1.0)),
            mu=_polar(rng, 0.0, 1.0), eta=_polar(rng, 0.0, 1.0),
            delta=_polar(rng, 0.0, 1.0), rho=_polar(rng, 0.0, 1.0),
        )
        return Call("special.operator_dominant", J.operator_dominant, (spec, _polar(rng, 0.0, 0.9)))
    if cls == "macgregor_gamma":
        return Call("special.macgregor_gamma", J.macgregor_gamma, (float(rng.uniform(0.0, 0.99)),))
    if cls.startswith("starlike."):
        # acceptance criterion 6's box, where the angle equation has a root
        A, B = float(rng.uniform(0.6, 1.0)), float(rng.uniform(-1.0, -0.6))
        beta = float(rng.uniform(1.0, 1.5))
        method = cls.split(".")[1]
        return Call("radii.starlike_radius." + method, J.starlike_radius, (A, B, beta), {"method": method})
    if cls == "alpha_star":
        return Call("radii.alpha_star", J.alpha_star)
    if cls == "subordination_radius":
        prob = J.RadiusProblem(
            A=_polar(rng, 0.2, 1.0), B=_polar(rng, 0.0, 0.9), alpha=float(rng.uniform(0.3, 1.0)),
            gamma=float(rng.uniform(-0.5, 0.5)), C=_polar(rng, 0.2, 1.0), D=_polar(rng, 0.0, 0.9),
            beta=float(rng.uniform(0.3, 1.0)), delta=float(rng.uniform(-0.5, 0.5)),
        )
        return Call("radii.subordination_radius", J.subordination_radius, (prob,))
    if cls == "ratio_sector_params":
        args = (float(rng.uniform(0.3, 1.0)), float(rng.uniform(-0.9, 0.9)),
                float(rng.uniform(0.2, 1.0)), float(rng.uniform(-1.2, 1.2)))
        return Call("sectors.ratio_sector_params", J.ratio_sector_params, args)
    if cls == "weighted_sector_params":
        args = (float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(-0.9, 0.9)), float(rng.uniform(0.0, 2.0)))
        return Call("sectors.weighted_sector_params", J.weighted_sector_params, args)
    raise ValueError(f"unknown special op class {cls!r}")


SPECIAL_ROUNDS = 4  # rounds over SPECIAL_PATTERN per op


def _special_ops(seed: int, seconds: float) -> list[Op]:
    """One op is SPECIAL_ROUNDS rounds over SPECIAL_PATTERN, each call on
    fresh inputs.

    Single calls range from microseconds to tens of milliseconds, which
    would put the median latency in the gap between two classes. One round
    is still bimodal: best_dominant takes ~14 or ~23 ms depending on how
    often its quadrature bisects, which no input feature predicts. Summing
    four rounds blurs those modes into one."""
    rng = _rng("special_points", seed)
    return [Op(i, "rounds", tuple(_special_call(cls, rng) for cls in SPECIAL_PATTERN * SPECIAL_ROUNDS))
            for i in range(_n_ops("special_points", seconds, 1))]


def _special_check(op: Op, out: list) -> Failure | None:
    import references as ref

    for i, (cls, call, value) in enumerate(zip(SPECIAL_PATTERN * SPECIAL_ROUNDS, op.calls, out)):
        msg = ref.special_error(cls, call, value)
        if msg:
            return Failure(i, "wrong", msg)
    return None


# ---------------------------------------------------------------------------
# cli_cold

CLI_COMMANDS = ("geometry", "bounds", "radius", "special", "verify", "plot")


def _flag(name: str, value) -> str:
    """`--name=value`; the equals form lets values start with a minus."""
    if isinstance(value, complex):
        sign = "-" if math.copysign(1.0, value.imag) < 0 else "+"
        value = f"{value.real!r}{sign}{abs(value.imag)!r}i"
    return f"--{name}={value}"


def _cli_argv(cmd: str, rng, op_id: int, seed: int) -> tuple[list[str], dict]:
    if cmd == "geometry":
        A, B, _, r = _criterion4_draw(rng)
        return ["geometry", "image-disk", _flag("A", A), _flag("B", B), _flag("r", r), "--verify"], \
            {"A": A, "B": B, "r": r}
    if cmd == "bounds":
        A, B, alpha, r = _criterion4_draw(rng)
        return ["bounds", "envelope", _flag("A", A), _flag("B", B), _flag("alpha", alpha), _flag("r", r),
                "--verify"], {"A": A, "B": B, "alpha": alpha, "r": r}
    if cmd == "radius":
        A, B = float(rng.uniform(0.6, 1.0)), float(rng.uniform(-1.0, -0.6))
        beta = float(rng.uniform(1.0, 1.5))
        return ["radius", "starlike", _flag("A", A), _flag("B", B), _flag("beta", beta), "--verify"], \
            {"A": A, "B": B, "beta": beta}
    if cmd == "special":
        A, b, z = _kernel_point(rng)
        alpha = float(rng.uniform(0.3, 1.0))
        return ["special", "kernel", _flag("A", A), _flag("b", b), _flag("alpha", alpha), _flag("z", z)], \
            {"A": A, "b": b, "alpha": alpha, "z": z}
    if cmd == "verify":
        first = 2 * (seed * 1000 + op_id)
        return ["verify", "--seeds=2", _flag("seed", first)], {"first": first, "seeds": 2}
    if cmd == "plot":
        A, B, alpha, r = _criterion4_draw(rng)
        out = f"{OUT_DIR}/envelope-{seed}-{op_id}.csv"
        return ["plot", "csv", _flag("A", A), _flag("B", B), _flag("alpha", alpha), _flag("r", r),
                "--n=2048", _flag("out", out)], {"A": A, "B": B, "alpha": alpha, "r": r, "n": 2048, "out": out}
    raise ValueError(f"unknown CLI command {cmd!r}")


def child_env() -> dict:
    """Environment of every child process: this one, whose one-thread BLAS
    settings run.py makes before numpy loads, plus PYTHONPATH=src, since
    the package is not installed."""
    return dict(os.environ, PYTHONPATH="src")


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """`python -m janowski.cli <argv>` in a child process, from ROOT."""
    return subprocess.run([sys.executable, "-m", "janowski.cli", *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)


def _cli_ops(seed: int, seconds: float) -> list[Op]:
    rng = _rng("cli_cold", seed)
    # at least two cycles, so that ten samples lie beyond the tail percentile
    n = max(_n_ops("cli_cold", seconds, len(CLI_COMMANDS)), 2 * len(CLI_COMMANDS))
    ops = []
    for i in range(n):
        cmd = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        argv, data = _cli_argv(cmd, rng, i, seed)
        ops.append(Op(i, cmd, (Call(f"cli.{cmd}", run_cli, (argv,)),), data))
    return ops


def _strict_json(text: str) -> Any:
    """json.loads that rejects NaN and Infinity."""
    def reject(token: str):
        raise ValueError(f"non-finite JSON number {token}")

    return json.loads(text, parse_constant=reject)


def _cli_check(op: Op, out: list) -> Failure | None:
    import references as ref

    proc = out[0]
    if proc.returncode != 0:
        return Failure(0, "exit_code", f"exit {proc.returncode}: {proc.stderr.strip()[:200]}")
    try:
        doc = _strict_json(proc.stdout)
    except ValueError as exc:
        return Failure(0, "bad_json", str(exc))
    try:
        expected = _plain(ref.cli_expected(op.cls, op.data))
    except J.JanowskiError as exc:
        return Failure(0, "reference", f"in-process call raised {exc!r}")
    if doc.get("result") != expected:
        return Failure(0, "result_mismatch", "CLI result block differs from the in-process call")
    if op.cls == "plot":
        msg = ref.plot_csv_error(op.data, ROOT / op.data["out"])
        if msg:
            return Failure(0, "wrong", msg)
    return None


# ---------------------------------------------------------------------------
# dispatch

_BUILDERS = {
    "envelope_sweep": _envelope_ops,
    "oracle_campaign": _oracle_ops,
    "special_points": _special_ops,
    "cli_cold": _cli_ops,
}
_CHECKS = {
    "envelope_sweep": _envelope_check,
    "oracle_campaign": _oracle_check,
    "special_points": _special_check,
    "cli_cold": _cli_check,
}


def make_ops(workload: str, seed: int, seconds: float) -> list[Op]:
    return _BUILDERS[workload](seed, seconds)


def warmup_ops(workload: str) -> list[Op]:
    """One op of each class, from a fixed seed."""
    seen: dict[str, Op] = {}
    for op in make_ops(workload, WARMUP_SEED, 1):
        seen.setdefault(op.cls, op)
    return list(seen.values())


def execute(op: Op) -> list | OpError:
    """Run an op's calls in order; the list of results, or the error."""
    results = []
    try:
        for c in op.calls:
            results.append(c.fn(*c.args, **c.kwargs))
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return OpError(len(results), exc)
    return results


def check(workload: str, op: Op, out: list | OpError) -> Failure | None:
    """Check one op's output, as `execute` returned it. The references are
    imported by the checks, so setup probes never load mpmath."""
    if isinstance(out, OpError):
        return Failure(out.call, "exception", repr(out.exc)[:200])
    try:
        return _CHECKS[workload](op, out)
    except Exception as exc:  # a reference that cannot judge the output fails the op
        return Failure(0, "check_error", repr(exc)[:200])


def fired(op: Op, out: list | OpError) -> bool | None:
    """Whether an implication trial's hypothesis held; None for other ops."""
    if "theorem_id" not in op.data:
        return None
    return not isinstance(out, OpError) and bool(out[0].hypothesis_holds)
