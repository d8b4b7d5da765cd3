"""Command-line surface: every computation in the package behind one
executable, with JSON reports on stdout and SVG/CSV artifact output.

Conventions: complex flags accept "re+imi" literals (1, -0.3-0.4i, 2i);
angle flags accept a "pi" suffix (0.25pi).  Exit code 0 on success, 2 on
a violated precondition or a parse failure, 3 on a numerical failure, each
failure with one JSON object on stderr.  The default seed comes from the
JANOWSKI_SEED environment variable.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Any, Callable, NamedTuple

# The library is reached as J.name and numpy inside the functions that use
# it, so that each command loads only the modules it runs (scalar actions: no numpy).
import janowski as J

from ._json import jsonable
from .errors import NumericalError, ParameterError, require_index

__all__ = ["ACTIONS", "Action", "main", "parse_complex", "parse_angle"]


def parse_complex(text: str) -> complex:
    """Parse "re+imi" literals: 1, -0.5, 2i, 0.3-0.4i, 1e-3+2e-2i."""
    norm = text.strip().replace(" ", "").replace("I", "i").replace("j", "i")
    norm = norm.replace("i", "j")
    try:
        return complex(norm)
    except ValueError:
        raise ParameterError(f"cannot parse complex literal {text!r}") from None


def parse_angle(text: str) -> float:
    """Parse an angle in radians; a trailing "pi" multiplies by pi."""
    norm = text.strip().lower().replace(" ", "")
    factor = 1.0
    if norm.endswith("pi"):
        factor = math.pi
        norm = norm[:-2] or "1"
        if norm in ("-", "+"):
            norm += "1"
    try:
        return float(norm) * factor
    except ValueError:
        raise ParameterError(f"cannot parse angle literal {text!r}") from None


def _real(value: complex, name: str) -> float:
    if abs(value.imag) > 1e-12:
        raise ParameterError(f"--{name} must be real for this action, got {value}")
    return float(value.real)


# ---------------------------------------------------------------------------
# actions


class Action(NamedTuple):
    """One CLI action. `required` and `optional` are the space-separated
    argparse destinations it reads, echoed together as `params`; `run(args)`
    returns the `result` (a dataclass or a dict) and `check(args, result)`
    the `oracle` block under --verify, which is null for an action without one."""

    required: str
    optional: str
    run: Callable[[argparse.Namespace], Any]
    check: Callable[[argparse.Namespace, Any], dict] | None = None


def _first_order(a) -> J.JanowskiParams:
    return J.JanowskiParams(a.A, a.B)


def _powered(a) -> J.JanowskiParams:
    return J.JanowskiParams(a.A, a.B, a.alpha, a.gamma)


def _check_image_disk(a, geo) -> dict:
    """Distance of 2048 scalar `eval_map` samples of |z| = r from the circle, without numpy."""
    if geo.kind != "disk":
        return {"note": "half-plane image; boundary residual check applies to disks only"}
    p, step = _first_order(a), 2.0 * math.pi / 2048
    ws = (J.eval_map(p, cmath.rect(a.r, k * step)) for k in range(2048))
    return {"boundary_residual": max(abs(abs(w - geo.center) - geo.radius) for w in ws), "samples": 2048}


def _contains(a) -> dict:
    outer = J.image_disk(_first_order(a), a.r)
    inner = J.image_disk(J.JanowskiParams(a.inner_A, a.inner_B), a.inner_r)
    return {"contains": J.contains(outer, inner, tol=a.tol)}


def _check_envelope(a, report) -> dict:
    emp = J.empirical_bounds(_powered(a), a.r, n=100_000)
    gaps = [abs(x - y) for k in ("arg", "mod", "re", "im") for x, y in zip(getattr(report, k), getattr(emp, k))]
    return {"max_endpoint_gap": max(gaps), "samples": 100_000}


def _derivative_sector(a) -> dict:
    sp, arg_bound = J.derivative_sector_params(a.alpha, a.m)
    return {**dataclasses.asdict(sp), "arg_bound": arg_bound}


def _alpha_star(a) -> dict:
    value = J.alpha_star()
    return {"alpha_star": value, "residual": 2.0 * value + (2.0 / math.pi) * math.atan(value) - 1.0}


def _starlike(a, method: str):
    return J.starlike_radius(_real(a.A, "A"), _real(a.B, "B"), a.beta, method=method)


def _check_starlike(a, rep) -> dict:
    other = "bisect" if a.method == "closed" else "closed"
    return {"alternate_method": other, "gap": abs(_starlike(a, other).value - rep.value)}


def _hyper(a, tol: float) -> complex:
    return J.hyper_3f2(a.a1, a.a2, a.a3, a.b1, a.b2, a.x, tol=tol)


def _kernel(a, method: str) -> complex:
    return J.kernel_integral(a.A, a.b, a.alpha, a.z, tol=a.tol, method=method)


def _check_kernel(a, value) -> dict:
    if a.alpha != 1.0:
        return {"note": "closed-form cross-check exists only at alpha = 1"}
    other = "closed" if a.method == "quad" else "quad"
    return {"alternate_method": other, "gap": abs(_kernel(a, other) - value["value"])}


def _dominant(a) -> dict:
    spec = J.DominantSpec(a.A, a.b, a.alpha, a.gamma, a.mu, a.eta, a.delta, a.rho)
    return {"value": J.operator_dominant(spec, a.z), "value_at_origin": spec.value_at_origin}


def _best_q(a, tol: float) -> complex:
    target = J.JanowskiParams(a.A, a.B, a.alpha)
    return J.best_dominant(lambda t: complex(J.eval_powered(target, t)), lambda t: 1.0 + 0.0j, a.z, tol=tol)


def _drift(compute: Callable[[argparse.Namespace, float], complex]):
    """--verify check of a tolerance-driven value: recompute at tol / 100."""
    return lambda a, value: {"tightened_tol_drift": abs(value["value"] - compute(a, a.tol * 1e-2))}


def _verify(a) -> dict:
    ids = list(J.THEOREM_IDS) if a.theorem_id == "all" else [a.theorem_id]
    seeds = range(a.seed, a.seed + require_index("seeds", a.seeds, 1))
    # run seed-major, so all ids of a seed share its one-slot seed context; list id-major
    run = {(tid, seed): J.implication_trial(tid, seed=seed) for seed in seeds for tid in ids}
    reports = [run[tid, seed] for tid in ids for seed in seeds]
    return {
        "trials": len(reports),
        "unsound": sum(not rep.sound for rep in reports),
        "reports": [json.loads(rep.to_json()) for rep in reports],
    }


def _svg_document(xs, ys) -> str:
    import numpy as np

    xs = np.concatenate([xs, [0.0, 1.0]])
    ys = np.concatenate([ys, [0.0, 0.0]])
    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    pad = 0.1 * max(xmax - xmin, ymax - ymin, 1e-9)
    xmin, xmax, ymin, ymax = xmin - pad, xmax + pad, ymin + -pad, ymax + pad
    size = 640.0
    scale = (size - 40.0) / max(xmax - xmin, ymax - ymin)

    def px(x: float) -> float:
        return 20.0 + (x - xmin) * scale

    def py(y: float) -> float:
        return size - 20.0 - (y - ymin) * scale

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs[:-2], ys[:-2]))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    if xmin < 0.0 < xmax:
        lines.append(
            f'<line x1="{px(0):.2f}" y1="{py(ymin):.2f}" x2="{px(0):.2f}" y2="{py(ymax):.2f}" '
            'stroke="#999" stroke-width="1"/>'
        )
    if ymin < 0.0 < ymax:
        lines.append(
            f'<line x1="{px(xmin):.2f}" y1="{py(0):.2f}" x2="{px(xmax):.2f}" y2="{py(0):.2f}" '
            'stroke="#999" stroke-width="1"/>'
        )
    lines.append(f'<polyline points="{pts}" fill="none" stroke="#0a58ca" stroke-width="1.5"/>')
    for mark, label in ((0.0, "0"), (1.0, "1")):
        lines.append(f'<circle cx="{px(mark):.2f}" cy="{py(0):.2f}" r="3" fill="#d63333"/>')
        lines.append(
            f'<text x="{px(mark) + 6:.2f}" y="{py(0) - 6:.2f}" font-size="14" '
            f'font-family="sans-serif" fill="#333">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _plot_svg(a) -> dict:
    import numpy as np

    curve = J.sample_curve(_powered(a), a.r, n=a.n)
    path = Path(a.out or "envelope.svg")
    path.write_text(_svg_document(curve.M * np.cos(curve.N), curve.M * np.sin(curve.N)))
    return {"path": str(path), "points": a.n}


def _plot_csv(a) -> dict:
    curve = J.sample_curve(_powered(a), a.r, n=a.n)
    rows = ["t,u,v,M,N"] + [
        ",".join(format(val, ".15g") for val in (curve.t[k], curve.u[k], curve.v[k], curve.M[k], curve.N[k]))
        for k in range(a.n)
    ]
    path = Path(a.out or "envelope.csv")
    path.write_text("\n".join(rows) + "\n")
    return {"path": str(path), "rows": a.n}


# ACTIONS[command][action]; `verify` has the single action "".
ACTIONS: dict[str, dict[str, Action]] = {
    "geometry": {
        "image-disk": Action("A B", "r", lambda a: J.image_disk(_first_order(a), a.r), _check_image_disk),
        "origin": Action("A B", "", lambda a: {"position": J.origin_position(_first_order(a))}),
        "canonicalize": Action("A B", "", lambda a: J.canonicalize(_first_order(a))),
        "contains": Action("A B inner_A inner_B", "r inner_r tol", _contains),
    },
    "bounds": {
        "envelope": Action("A B", "alpha gamma r", lambda a: J.envelope_bounds(_powered(a), a.r), _check_envelope),
        "critical": Action("A B", "alpha gamma r", lambda a: J.critical_points(_powered(a), a.r)),
        "sector": Action("m", "alpha", lambda a: J.sector_image(a.alpha, a.m)),
        "tilt": Action("b m", "", lambda a: {"tilt": J.tilt_angle(a.b, a.m)}),
        "nesting": Action("A B a1 a2", "", lambda a: {"nested": J.alpha_nesting(a.A, a.B, a.a1, a.a2)}),
        "ratio-sector": Action("m beta phi", "alpha", lambda a: J.ratio_sector_params(a.alpha, a.m, a.beta, a.phi)),
        "derivative-sector": Action("m", "alpha", _derivative_sector),
        "weighted-sector": Action(
            "beta gamma2 m eta", "alpha", lambda a: J.weighted_sector_params(a.alpha, a.beta, a.gamma2, a.m, a.eta)
        ),
        "reciprocal-sector": Action("beta", "alpha", lambda a: {"delta": J.reciprocal_order_sector(a.alpha, a.beta)}),
        "eta-inf": Action("weight beta", "", lambda a: {"eta": J.eta_infimum(a.weight, 0.0, a.beta)}),
        "double-tilt": Action(
            "a b c d l m", "alpha",
            lambda a: J.double_subordination_tilt(a.a, a.b, a.c, a.d, a.l, a.m, a.alpha),
        ),
    },
    "radius": {
        "subordination": Action("A B C D", "alpha gamma beta delta", lambda a: {
            "radius": J.subordination_radius(J.RadiusProblem(a.A, a.B, a.alpha, a.gamma, a.C, a.D, a.beta, a.delta)),
        }),
        "inclusion": Action("A B C D", "alpha beta", lambda a: {
            "included": J.class_inclusion(a.A, a.B, a.alpha, a.C, a.D, a.beta),
            "orientation_note": J.INCLUSION_ORIENTATION_NOTE,
        }),
        "uralegaddi": Action(
            "A B beta2", "alpha", lambda a: {"radius": J.uralegaddi_radius(a.A, a.B, a.alpha, a.beta2)}
        ),
        "reciprocal": Action(
            "A B beta2", "alpha", lambda a: {"radius": J.reciprocal_radius(a.A, a.B, a.alpha, a.beta2)}
        ),
        "alpha-star": Action("", "", _alpha_star),
        "starlike": Action("A B beta", "method", lambda a: _starlike(a, a.method), _check_starlike),
    },
    "special": {
        "3f2": Action("a1 a2 a3 b1 b2 x", "tol", lambda a: {"value": _hyper(a, a.tol)}, _drift(_hyper)),
        "kernel": Action("A b z", "alpha tol method", lambda a: {"value": _kernel(a, a.method)}, _check_kernel),
        "macgregor": Action("beta", "", lambda a: {"value": J.macgregor_gamma(a.beta)}),
        "dominant": Action("A b gamma mu eta delta rho z", "alpha", _dominant),
        "best-q": Action("A B z", "alpha tol", lambda a: {"value": _best_q(a, a.tol)}, _drift(_best_q)),
        "silverman": Action(
            "A b beta", "alpha", lambda a: {"included": J.silverman_inclusion(a.A, a.b, a.alpha, a.beta)}
        ),
    },
    "verify": {"": Action("", "theorem_id seed seeds", _verify)},
    "plot": {
        "svg": Action("A B", "alpha gamma r n", _plot_svg),
        "csv": Action("A B", "alpha gamma r n", _plot_csv),
    },
}


# ---------------------------------------------------------------------------
# parser


def _seed_from_env() -> int:
    """The default seed: JANOWSKI_SEED, else 0."""
    text = os.environ.get("JANOWSKI_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"JANOWSKI_SEED must be an integer, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each subparser, whose parse failures raise ParameterError."""

    def error(self, message: str):
        raise ParameterError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, help="deterministic seed (default: env JANOWSKI_SEED, else 0)")
    common.add_argument("--out", type=str, default=None, help="write output to this path instead of stdout")
    common.add_argument("--verify", action="store_true", help="append an independent cross-check block")

    parser = _Parser(prog="janowski", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {J.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    geo = sub.add_parser("geometry", parents=[common], help="disk images of the bilinear map")
    geo.add_argument("action", choices=list(ACTIONS["geometry"]))
    geo.add_argument("--A", type=parse_complex)
    geo.add_argument("--B", type=parse_complex)
    geo.add_argument("--r", type=float, default=1.0)
    geo.add_argument("--inner-A", dest="inner_A", type=parse_complex)
    geo.add_argument("--inner-B", dest="inner_B", type=parse_complex)
    geo.add_argument("--inner-r", dest="inner_r", type=float, default=1.0)
    geo.add_argument("--tol", type=float, default=1e-12)

    bnd = sub.add_parser("bounds", parents=[common], help="powered envelope ranges and sector calculus")
    bnd.add_argument("action", nargs="?", default="envelope", choices=list(ACTIONS["bounds"]))
    bnd.add_argument("--A", type=parse_complex)
    bnd.add_argument("--B", type=parse_complex)
    bnd.add_argument("--alpha", type=float, default=1.0)
    bnd.add_argument("--gamma", type=parse_complex, default=0j)
    bnd.add_argument("--gamma2", type=float, help="outer exponent for weighted-sector")
    bnd.add_argument("--r", type=float, default=1.0)
    for name in ("m", "b", "beta"):
        bnd.add_argument("--" + name, type=float)
    bnd.add_argument("--phi", type=parse_angle, help="comparison-ratio argument (accepts pi suffix)")
    bnd.add_argument("--eta", type=float)
    bnd.add_argument("--weight", type=parse_complex, help="constant weight for eta-inf")
    for name in ("a1", "a2", "a", "c", "d", "l"):
        bnd.add_argument("--" + name, type=float)

    rad = sub.add_parser("radius", parents=[common], help="radius constants and inclusion tests")
    rad.add_argument("action", choices=list(ACTIONS["radius"]))
    for name in ("A", "B", "C", "D"):
        rad.add_argument("--" + name, type=parse_complex)
    rad.add_argument("--alpha", type=float, default=1.0)
    rad.add_argument("--beta", type=float, default=1.0)
    rad.add_argument("--gamma", type=parse_complex, default=0j)
    rad.add_argument("--delta", type=parse_complex, default=0j)
    rad.add_argument("--beta2", type=float)
    rad.add_argument("--method", choices=["closed", "bisect"], default="closed")

    spc = sub.add_parser("special", parents=[common], help="series, kernels, and dominants")
    spc.add_argument("action", choices=list(ACTIONS["special"]))
    for name in ("a1", "a2", "a3", "b1", "b2", "x", "A", "B"):
        spc.add_argument("--" + name, type=parse_complex)
    spc.add_argument("--b", type=float)
    spc.add_argument("--alpha", type=float, default=1.0)
    spc.add_argument("--beta", type=float)
    spc.add_argument("--gamma", type=float)
    for name in ("mu", "eta", "delta", "rho", "z"):
        spc.add_argument("--" + name, type=parse_complex)
    spc.add_argument("--tol", type=float, default=1e-10)
    spc.add_argument("--method", choices=["quad", "closed"], default="quad")

    ver = sub.add_parser("verify", parents=[common], help="randomized implication trials")
    # an unknown id fails in implication_trial, so parsing loads no trial code
    ver.add_argument("--theorem-id", dest="theorem_id", default="all", help="one trial id, or all (default)")
    ver.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds starting at --seed")
    ver.set_defaults(action="")

    plt = sub.add_parser("plot", parents=[common], help="SVG and CSV artifacts of boundary curves")
    plt.add_argument("action", nargs="?", default="svg", choices=list(ACTIONS["plot"]))
    plt.add_argument("--A", type=parse_complex)
    plt.add_argument("--B", type=parse_complex)
    plt.add_argument("--alpha", type=float, default=1.0)
    plt.add_argument("--gamma", type=parse_complex, default=0j)
    plt.add_argument("--r", type=float, default=1.0)
    plt.add_argument("--n", type=int, default=2048)

    return parser


def _fail(message: str, kind: str, code: int) -> int:
    print(json.dumps({"error": message, "kind": kind}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit:  # --help and --version, after their text; a parse failure raises ParameterError
        return 0
    except ParameterError as exc:
        return _fail(str(exc), "parameter", 2)
    action = ACTIONS[args.command][args.action]
    try:
        if args.seed is None:
            args.seed = _seed_from_env()
        missing = [flag for flag in action.required.split() if getattr(args, flag) is None]
        if missing:
            raise ParameterError(f"action {args.action!r} requires " + ", ".join("--" + f for f in missing))
        # stderr carries only the JSON error; a non-finite result is caught below
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            value = action.run(args)
            oracle = action.check(args, value) if args.verify and action.check else None
    except ParameterError as exc:
        return _fail(str(exc), "parameter", 2)
    except NumericalError as exc:
        return _fail(str(exc), "numerical", 3)
    envelope = {
        "command": f"{args.command} {args.action}".strip(),
        "params": {flag: getattr(args, flag) for flag in (action.required + " " + action.optional).split()},
        "result": dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value,
        "version": J.__version__,
        "seed": args.seed,
    }
    if args.verify:  # null for an action with no check, so the flag is never silently ignored
        envelope["oracle"] = oracle
    try:
        text = json.dumps(jsonable(envelope), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        # a NaN or infinity reached the report; strict JSON has no spelling for it
        return _fail(f"non-finite number in the report: {exc}", "numerical", 3)
    if args.out and args.command != "plot":
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
