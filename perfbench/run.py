"""Benchmark of the janowski library and CLI, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout that holds `src/janowski` and `BENCHMARK.json`.
The workloads (see BENCHMARK.json for why each was chosen):

* envelope_sweep  -- image_disk + envelope_bounds on fresh seeded maps
* oracle_campaign -- implication_trial over all ids, plus empirical_bounds
* special_points  -- quadrature kernels, best dominants, 3F2, radii, sectors
* cli_cold        -- `python -m janowski.cli` invocations, one child at a time

Every workload is a closed loop with one caller, pinned with its child
processes to one CPU. The op list is built from --seed and --seconds
before timing starts, so each run of a seed does the same work; it never
runs for a fixed time. Outputs are checked after the timed loop, never
inside it. Every time reported is scaled to a reference machine speed by
an untimed probe run before each op (see speed.py); the detail line also
gives the raw times.

With --trace 0 the last line of stdout carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it runs the loop untraced and then traced
and carries the per-layer metrics, derived from spans recorded around each
call (written to perfbench/_out/spans-<workload>-<seed>.jsonl). Earlier
lines give versions, the tail percentile and every failed op.
"""

import os

# One BLAS thread, set before numpy loads here and inherited by every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import gc
import importlib.metadata
import json
import platform
import resource
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3  # fresh interpreters timed per run; setup_s is their median
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
BASELINES = (  # timed once per cli_cold cycle in the traced run
    ("proc.python_startup", "pass"),
    ("proc.import_numpy", "import numpy"),
    ("proc.import_janowski", "import janowski"),
)


def setup_probe(workload: str) -> int:
    """Body of one setup sample: import, warm up every op class, report."""
    import janowski  # noqa: F401  (the import is what is being timed)
    import workloads as W

    start = perf_counter()
    ops = W.warmup_ops(workload)
    generation = perf_counter() - start
    for op in ops:
        W.execute(op)
    print(f"ready {generation!r}", flush=True)
    return 0


def time_setup(W, workload: str, first_op) -> tuple[list[float], list[float]]:
    """Seconds from a fresh interpreter to ready, SETUP_SAMPLES times, raw
    and scaled to the reference speed by the probe bursts run just before
    and just after each sample. For cli_cold a sample is one invocation
    of the first op."""
    raw, bursts = [], [speed.burst()]
    for _ in range(SETUP_SAMPLES):
        if workload == "cli_cold":
            start = perf_counter()
            proc = first_op.calls[0].fn(*first_op.calls[0].args)
            raw.append(perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(f"setup invocation failed: {proc.stderr.strip()[:300]}")
        else:
            start = perf_counter()
            with subprocess.Popen([sys.executable, __file__, "--setup-probe", "--workload", workload],
                                  cwd=ROOT, env=W.child_env(), stdout=subprocess.PIPE, text=True) as proc:
                if not select.select([proc.stdout], [], [], 120)[0]:
                    proc.kill()
                line = proc.stdout.readline()
                ready = perf_counter()
                proc.stdout.read()
                if proc.wait(timeout=120) != 0 or not line.startswith("ready "):
                    raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
            raw.append(ready - start - float(line.split()[1]))
        bursts.append(speed.burst())
    scaled = [s * speed.REF_PROBE_S / statistics.median(bursts[k] + bursts[k + 1]) for k, s in enumerate(raw)]
    return raw, scaled


def timed_loop(W, ops, tracer=None, baseline_cycle: int = 0):
    """Run the ops in order, each right after an untimed speed probe.
    Returns (latencies, their speed scale factors, probe times, outputs).
    With a tracer and baseline_cycle > 0, the BASELINES run before every
    baseline_cycle-th op, outside the ops' times."""
    latencies, started, outputs, probe_at, probe_s = [], [], [], [], []
    for op in ops:
        if tracer is not None and baseline_cycle and op.op_id % baseline_cycle == 0:
            for name, code in BASELINES:
                tracer.record(name, op.op_id, lambda code=code: subprocess.run(
                    [sys.executable, "-c", code], cwd=ROOT, env=W.child_env(), check=True, timeout=120))
        probe_at.append(perf_counter())
        probe_s.append(speed.probe())
        t0 = perf_counter()
        out = tracer.run(op) if tracer is not None else W.execute(op)
        latencies.append(perf_counter() - t0)
        started.append(t0)
        outputs.append(out)
    return latencies, speed.scale_factors(probe_at, probe_s, started), probe_s, outputs


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with TAIL_BEYOND samples beyond
    it: (value, percentile)."""
    n = len(latencies)
    k = max(0, n - TAIL_BEYOND - 1)
    return sorted(latencies)[k], 100.0 * (k + 1) / n


def median_hd(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)
    weighted mean of all order statistics. Op latencies of a workload fall
    into clusters by op class, in fixed proportions, and the plain median
    often sits on the edge between two clusters, where it reads the single
    largest of one and smallest of the next; the weighted mean reads the
    middle ranks of both and repeats better across seeds."""
    from scipy.special import betainc

    x = np.sort(values)
    a = (x.size + 1) / 2
    weights = np.diff(betainc(a, a, np.arange(x.size + 1) / x.size))
    return float(weights @ x)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {"python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
            "mpmath": version("mpmath"), "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One CPU for this process and every child: the speed probe then runs
    # where the ops run, and sees the speed they see.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "janowski" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no janowski sources under {SRC} or no {spec_path.name}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload)

    spec = json.loads(spec_path.read_text())
    import janowski
    import workloads as W
    from spans import Tracer, per_layer_metrics

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)}")
    if Path(janowski.__file__).resolve().parent != SRC / "janowski":
        print(f"imported janowski from {janowski.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    cli = args.workload == "cli_cold"
    (ROOT / W.OUT_DIR).mkdir(parents=True, exist_ok=True)
    ops = W.make_ops(args.workload, args.seed, args.seconds)

    setup_raw, setup = ([], []) if args.trace else time_setup(W, args.workload, ops[0])
    if not cli:
        for op in W.warmup_ops(args.workload):
            W.execute(op)
    gc.collect()
    tracer = None
    if args.trace:
        untraced, untraced_scale, _, _ = timed_loop(W, ops)
        untraced_wall = sum(t * f for t, f in zip(untraced, untraced_scale))
        gc.collect()
        tracer = Tracer()
    raw, scale, probes, outputs = timed_loop(W, ops, tracer, len(W.CLI_COMMANDS) if cli else 0)
    latencies = [t * f for t, f in zip(raw, scale)]  # at the reference speed
    wall = sum(latencies)
    rss = peak_rss_mb(args.workload)

    failures = {}
    for op, out in zip(ops, outputs):
        failure = W.check(args.workload, op, out)
        if failure is not None:
            failures[op.op_id] = failure
            if tracer is not None:
                tracer.mark_failed(op.op_id, failure.call)
    for op in ops:
        if "out" in op.data:
            (ROOT / op.data["out"]).unlink(missing_ok=True)
    trials = [f for f in (W.fired(op, out) for op, out in zip(ops, outputs)) if f is not None]

    n = len(ops)
    tail_value, tail_pct = tail(latencies)
    raw_tail, _ = tail(raw)
    classes = collections.Counter(op.cls for op in ops)
    print(json.dumps({"env": environment()}))
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "ops": n,
        "classes": classes, "wall_s": wall,
        "latency_tail": {"percentile": round(tail_pct, 3), "beyond": TAIL_BEYOND, "samples": n},
        "setup_samples_s": setup,
        # unscaled times, and the speed probe (REF_PROBE_S at the reference speed)
        "raw": {"wall_s": sum(raw), "latency_p50_ms": 1e3 * median_hd(raw),
                "latency_tail_ms": 1e3 * raw_tail, "setup_samples_s": setup_raw},
        "probe_ms": {"ref": 1e3 * speed.REF_PROBE_S, "p50": 1e3 * statistics.median(probes),
                     "min": 1e3 * min(probes), "max": 1e3 * max(probes)},
        "trials": len(trials), "trials_fired": sum(trials),
        "failures": [{"op": i, "class": ops[i].cls, "kind": f.kind, "reason": f.reason}
                     for i, f in sorted(failures.items())],
    }}))

    if tracer is None:
        completed = sum(not isinstance(out, W.OpError) for out in outputs)
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": completed / wall,
            "latency_p50_ms": 1e3 * median_hd(latencies),
            "latency_tail_ms": 1e3 * tail_value,
            "ok_frac": (n - len(failures)) / n,
            "peak_rss_mb": rss,
            # share of implication trials whose hypothesis held; a workload
            # that runs no trial in-process has no vacuous check and reads 1
            "fired_frac": sum(trials) / len(trials) if trials else 1.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    else:
        tracer.write(ROOT / W.OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        fired = collections.Counter(op.data["theorem_id"] for op, out in zip(ops, outputs) if W.fired(op, out))
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer_metrics(names, tracer, scale, fired, wall / untraced_wall - 1.0)

    correct = all(f.kind in W.KNOWN_DEFECTS for f in failures.values())
    print(json.dumps({"correct": correct, "attempted": n, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
