"""Self-test of the benchmark itself:  python3 perfbench/selftest.py

* At a tiny size (--seconds 1), every workload prints every metric that
  BENCHMARK.json names, with its unit, plus the versions and nproc.
* Perturbed outputs count as failed ops: a box shrunk by 1e-6, a flipped
  verdict, a value off by 1e-6, a NaN in the CLI JSON.
* Two runs with the same seed build identical op lists and give identical
  ok_frac and fired_frac.
* Probe times set the speed scale of the ops near them.

Exits 0 when every check passes.
"""

import dataclasses
import json
import subprocess
import sys

from run import ROOT, SRC

sys.path.insert(0, str(SRC))

import janowski as J  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
passed = 0


def expect(cond: bool, what: str) -> None:
    global passed
    if not cond:
        raise AssertionError(what)
    passed += 1


def run(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, env=W.child_env(), capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def check_outputs() -> None:
    for workload in W.WORKLOADS:
        runs = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            last, lines = run(workload, 3, trace)
            expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: keys {set(last)}")
            expect(last["attempted"] >= 1 and isinstance(last["failed"], int), f"{workload}: counts")
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: metrics differ from BENCHMARK.json {section}")
            expect(all(isinstance(m["value"], (int, float)) for m in last["metrics"].values()),
                   f"{workload}: non-numeric metric")
            env = json.loads(lines[0])["env"]
            expect(all(env.get(k) for k in ("python", "numpy", "scipy", "nproc")), f"{workload}: env {env}")
            runs[trace] = last
        again, _ = run(workload, 3, 0)
        for name in ("ok_frac", "fired_frac"):
            expect(again["metrics"][name]["value"] == runs[0]["metrics"][name]["value"],
                   f"{workload}: {name} differs between two runs of one seed")
        expect(again["failed"] == runs[0]["failed"] == runs[1]["failed"], f"{workload}: failed count differs")


def check_op_lists() -> None:
    for workload in W.WORKLOADS:
        first = [op.key() for op in W.make_ops(workload, 5, 1)]
        second = [op.key() for op in W.make_ops(workload, 5, 1)]
        expect(first == second, f"{workload}: op lists of one seed differ")
        expect(first != [op.key() for op in W.make_ops(workload, 6, 1)], f"{workload}: seed ignored")


def check_speed_scale() -> None:
    # probes at the reference time scale by 1, twice as slow by 1/2, and an
    # op takes the speed of the probes near it, not of the whole run
    at = [0.1 * i for i in range(40)]
    probes = [speed.REF_PROBE_S] * 20 + [2 * speed.REF_PROBE_S] * 20
    factors = speed.scale_factors(at, probes, at)
    expect(factors[0] == 1.0 and factors[-1] == 0.5, f"speed: factors {factors[0]}, {factors[-1]}")
    expect(all(a >= b for a, b in zip(factors, factors[1:])), "speed: factors do not follow the probes")


def shrunk(iv, by: float = 1e-6):
    return (iv[0] + by, iv[1] - by)


def check_perturbations() -> None:
    # envelope: a box shrunk by 1e-6 fails; the zero-inside verdict is judged
    ops = W.make_ops("envelope_sweep", 3, 1)
    op = next(o for o in ops if o.cls == "shifted")
    out = W.execute(op)
    expect(W.check("envelope_sweep", op, out) is None, "envelope: correct output judged wrong")
    for field in ("re", "im", "mod", "arg"):
        bad = dataclasses.replace(out[1], **{field: shrunk(getattr(out[1], field))})
        expect(W.check("envelope_sweep", op, [out[0], bad]) is not None, f"envelope: shrunk {field} passed")
    bad = dataclasses.replace(out[1], shifted=dataclasses.replace(out[1].shifted, re=shrunk(out[1].shifted.re)))
    expect(W.check("envelope_sweep", op, [out[0], bad]) is not None, "envelope: shrunk shifted.re passed")
    inside = next(o for o in W.make_ops("envelope_sweep", 0, 1) if o.cls == "shifted"
                  and W.check("envelope_sweep", o, W.execute(o)) is not None)
    rep = W.execute(inside)
    expect(W.check("envelope_sweep", inside, rep).kind == "zero_inside", "envelope: zero inside not named")
    fixed = dataclasses.replace(rep[1], shifted=dataclasses.replace(rep[1].shifted, mod=(0.0, rep[1].shifted.mod[1]),
                                                                    arg=None))
    expect(W.check("envelope_sweep", inside, [rep[0], fixed]) is None, "envelope: a correct zero-inside report failed")

    # oracle: a flipped verdict and a sampled box wider than the closed one fail
    ops = W.make_ops("oracle_campaign", 3, 1)
    trial = next(o for o in ops if "theorem_id" in o.data)
    rep = W.execute(trial)[0]
    flipped = dataclasses.replace(rep, hypothesis_holds=True, conclusion_holds=False)
    expect(W.check("oracle_campaign", trial, [flipped]).kind == "unsound", "oracle: flipped verdict passed")
    emp = next(o for o in ops if o.cls == "empirical_bounds")
    out = W.execute(emp)
    expect(W.check("oracle_campaign", emp, out) is None, "oracle: correct empirical box judged wrong")
    wide = dataclasses.replace(out[0], re=shrunk(out[0].re, -1e-6))
    expect(W.check("oracle_campaign", emp, [wide]) is not None, "oracle: widened empirical box passed")

    # special: each call of an op fails when its value is moved by 1e-6
    op = W.make_ops("special_points", 3, 1)[0]
    out = W.execute(op)
    expect(W.check("special_points", op, out) is None, "special: correct round judged wrong")
    for i, (cls, value) in enumerate(zip(W.SPECIAL_PATTERN * W.SPECIAL_ROUNDS, out)):
        if isinstance(value, (int, float, complex)):
            bad = value + 1e-6
        elif isinstance(value, J.StarlikeRadius):
            bad = dataclasses.replace(value, value=value.value + 1e-6)
        else:
            bad = dataclasses.replace(value, mu1=value.mu1 + 1e-6)
        failure = W.check("special_points", op, out[:i] + [bad] + out[i + 1:])
        expect(failure is not None and failure.call == i, f"special {cls}: perturbed value passed")

    # cli: NaN in the JSON, a failed exit and a changed result all fail
    op = W.make_ops("cli_cold", 3, 1)[0]
    good = W.execute(op)[0]
    expect(W.check("cli_cold", op, [good]) is None, "cli: correct invocation judged wrong")
    doc = json.loads(good.stdout)
    for text, rc, kind in (
        (good.stdout.replace(json.dumps(doc["result"]["radius"]), "NaN", 1), 0, "bad_json"),
        (good.stdout, 3, "exit_code"),
        (good.stdout.replace(json.dumps(doc["result"]["radius"]), "1.5", 1), 0, "result_mismatch"),
    ):
        bad = subprocess.CompletedProcess(good.args, rc, text, "")
        failure = W.check("cli_cold", op, [bad])
        expect(failure is not None and failure.kind == kind, f"cli: {kind} not caught ({failure})")


if __name__ == "__main__":
    check_speed_scale()
    check_op_lists()
    check_perturbations()
    check_outputs()
    print(f"selftest: {passed} checks passed")
