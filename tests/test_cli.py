"""Command line contract: literal parsing, report envelopes, exit codes,
artifact files."""

import dataclasses
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from janowski import THEOREM_IDS, JanowskiParams, envelope_bounds, sample_curve
from janowski._json import jsonable
from janowski.cli import ACTIONS, main, parse_angle, parse_complex
from janowski.errors import ParameterError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def report(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1+2i", 1 + 2j),
            ("0.5", 0.5 + 0j),
            ("-i", -1j),
            ("1.5-0.25i", 1.5 - 0.25j),
            ("2I", 2j),
            ("3j", 3j),
            (" 1 + 2 i ", 1 + 2j),
        ],
    )
    def test_parse_complex(self, text, value):
        assert parse_complex(text) == value

    def test_parse_complex_rejects_garbage(self):
        with pytest.raises(ParameterError):
            parse_complex("one plus two eye")

    def test_parse_angle_rejects_garbage(self):
        with pytest.raises(ParameterError, match="cannot parse angle literal"):
            parse_angle("half a turn")

    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.5pi", math.pi / 2.0),
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("0.75", 0.75),
            ("2pi", 2.0 * math.pi),
        ],
    )
    def test_parse_angle(self, text, value):
        assert parse_angle(text) == pytest.approx(value)


class TestEnvelopeContract:
    def test_report_shape(self, capsys):
        data = report(capsys, "geometry", "image-disk", "--A", "1", "--B", "0", "--r", "0.5")
        assert data["command"] == "geometry image-disk"
        assert data["version"]
        assert data["seed"] == 0
        assert "oracle" not in data
        assert data["result"]["center"] == {"re": 1.0, "im": 0.0}
        assert data["result"]["radius"] == 0.5

    def test_bounds_frozen_example(self, capsys):
        data = report(
            capsys, "bounds", "--A", "1", "--B", "0", "--alpha", "0.5", "--r", "1"
        )
        lo, hi = data["result"]["re"]
        assert lo == pytest.approx(0.0, abs=1e-6)
        assert hi == pytest.approx(math.sqrt(2.0), abs=1e-5)

    def test_verify_adds_oracle_without_touching_result(self, capsys):
        base = report(capsys, "bounds", "--A", "0.8", "--B", "-0.3", "--alpha", "0.6")
        checked = report(
            capsys, "bounds", "--A", "0.8", "--B", "-0.3", "--alpha", "0.6", "--verify"
        )
        assert "oracle" in checked
        assert checked["result"] == base["result"]
        assert checked["oracle"]["max_endpoint_gap"] < 1e-4

    def test_verify_without_a_check_prints_null_oracle(self, capsys):
        base = report(capsys, "geometry", "origin", "--A", "0.5", "--B=-1")
        checked = report(capsys, "geometry", "origin", "--A", "0.5", "--B=-1", "--verify")
        assert "oracle" not in base
        assert checked["oracle"] is None
        assert checked["result"] == base["result"]

    def test_deterministic_given_seed(self, capsys):
        a = run_cli(capsys, "verify", "--theorem-id", "T5.5", "--seeds", "2", "--seed", "3")
        b = run_cli(capsys, "verify", "--theorem-id", "T5.5", "--seeds", "2", "--seed", "3")
        assert a == b

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("JANOWSKI_SEED", "17")
        data = report(capsys, "radius", "alpha-star")
        assert data["seed"] == 17

    def test_non_integer_seed_in_environment_is_parameter_failure(self, capsys, monkeypatch):
        monkeypatch.setenv("JANOWSKI_SEED", "abc")
        code, out, err = run_cli(capsys, "geometry", "image-disk", "--A=0.5", "--B=0.1")
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "JANOWSKI_SEED must be an integer, got 'abc'", "kind": "parameter"}
        # an explicit --seed never reads the environment
        assert report(capsys, "geometry", "image-disk", "--A=0.5", "--B=0.1", "--seed", "5")["seed"] == 5

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "disk.json"
        code, out, _ = run_cli(
            capsys, "geometry", "image-disk", "--A", "1", "--B", "0",
            "--r", "0.5", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["result"]["radius"] == 0.5


class TestActions:
    def test_alpha_star_report(self, capsys):
        data = report(capsys, "radius", "alpha-star")
        assert abs(data["result"]["residual"]) < 1e-12
        assert f"{data['result']['alpha_star']:.8f}".startswith("0.38344860")

    def test_starlike_methods_cross_check(self, capsys):
        closed = report(
            capsys, "radius", "starlike", "--A", "1", "--B", "-1", "--beta", "1"
        )
        assert closed["result"]["value"] == pytest.approx(0.52601, abs=1e-5)
        verified = report(
            capsys, "radius", "starlike", "--A", "1", "--B", "-1", "--beta", "1", "--verify"
        )
        assert verified["oracle"]["gap"] < 1e-9

    def test_starlike_at_the_largest_beta(self, capsys):
        # 2 beta overflowed here, and the closed form divided by zero
        data = report(capsys, *"radius starlike --A 0.9 --B=-0.9 --beta 1e308 --verify".split())
        assert data["result"]["value"] == pytest.approx(5.3804259447114524832e-309, rel=1e-15, abs=0.0)
        assert data["oracle"]["gap"] <= 1e-15 * data["result"]["value"]

    def test_macgregor(self, capsys):
        data = report(capsys, "special", "macgregor", "--beta", "0.5")
        assert data["result"]["value"] == pytest.approx(1.0 / (2.0 * math.log(2.0)))

    def test_inclusion_carries_orientation_note(self, capsys):
        data = report(
            capsys, "radius", "inclusion",
            "--A", "1", "--B", "-1", "--alpha", "0.5",
            "--C", "1", "--D", "-1", "--beta", "0.25",
        )
        assert data["result"]["included"] is True
        assert "order" in data["result"]["orientation_note"]

    def test_sector_angles_accept_pi_literals(self, capsys):
        data = report(
            capsys, "bounds", "ratio-sector",
            "--alpha", "0.5", "--m", "0", "--beta", "1", "--phi", "0.25pi",
        )
        assert data["params"]["phi"] == pytest.approx(math.pi / 4.0)

    def test_complex_gamma_reaches_the_oblique_shift(self, capsys):
        data = report(capsys, "bounds", "envelope", "--A", "0.8", "--B=-0.3", "--alpha", "0.6", "--gamma=0.2i")
        expected = envelope_bounds(JanowskiParams(0.8, -0.3, 0.6, 0.2j), 1.0)
        assert data["result"] == json.loads(json.dumps(jsonable(dataclasses.asdict(expected))))
        assert data["params"]["gamma"] == {"re": 0.0, "im": 0.2}

    def test_verify_trials_sound(self, capsys):
        data = report(capsys, "verify", "--theorem-id", "C5.12", "--seeds", "4")
        assert data["result"]["trials"] == 4
        assert data["result"]["unsound"] == 0
        assert len(data["result"]["reports"]) == 4

    def test_verify_runs_seed_major_and_lists_id_major(self, capsys, monkeypatch):
        # seed-major, every id of a seed reuses its Schwarz draw for any --seeds
        import janowski

        calls, trial = [], janowski.implication_trial
        spy = lambda tid, seed: calls.append((tid, seed)) or trial(tid, seed=seed)
        monkeypatch.setattr(janowski, "implication_trial", spy)
        data = report(capsys, "verify", "--seeds", "3", "--seed", "5")
        assert calls == [(tid, seed) for seed in (5, 6, 7) for tid in THEOREM_IDS]
        listed = [(rep["theorem_id"], rep["seed"]) for rep in data["result"]["reports"]]
        assert listed == [(tid, seed) for tid in THEOREM_IDS for seed in (5, 6, 7)]


class TestExitCodes:
    def test_missing_flags_is_parameter_failure(self, capsys):
        code, _, err = run_cli(capsys, "geometry", "image-disk", "--B", "0")
        assert code == 2
        assert json.loads(err)["kind"] == "parameter"

    def test_bad_literal_is_parameter_failure(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--A", "nope", "--B", "0")
        assert code == 2
        error = json.loads(err)
        assert error["kind"] == "parameter" and "nope" in error["error"]

    @pytest.mark.parametrize("argv", ["bounds nope --A 1 --B 0", "geometry", "radius alpha-star --frob 1", ""])
    def test_parse_failure_prints_json(self, capsys, argv):
        # an unknown action, a missing action, an unknown flag, no command
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert json.loads(err)["kind"] == "parameter"

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0_with_their_text(self, capsys, flag):
        code, out, err = run_cli(capsys, flag)
        assert (code, err) == (0, "")
        assert out.startswith("usage: janowski" if flag == "--help" else "janowski 0.1.0")

    def test_nan_parameter_is_parameter_failure(self, capsys):
        for argv in ("geometry image-disk --A nan --B 0", "radius starlike --A 1 --B -1 --beta nan"):
            code, out, err = run_cli(capsys, *argv.split())
            assert code == 2
            assert out == ""
            assert json.loads(err)["kind"] == "parameter"

    def test_non_finite_result_prints_no_json(self, capsys):
        # mu delta overflows to inf and inf * 0 to NaN; strict JSON cannot spell
        # it, and numpy's warnings about it must not reach stderr either
        argv = "special dominant --A 0.5 --b 0.5 --gamma 1 --mu 1e308 --eta 1 --delta 1e308 --rho 0 --z 0.5"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv.split())
        assert code == 3
        assert out == ""
        assert json.loads(err)["kind"] == "numerical"

    @pytest.mark.parametrize("A", ["1e308", "1.7e308+1.7e308i"])
    def test_huge_silverman_parameter_is_decided(self, capsys, A):
        data = report(capsys, "special", "silverman", "--A", A, "--b", "0.5", "--beta", "0.3")
        assert data["result"]["included"] is False

    def test_best_dominant_at_the_origin(self, capsys):
        # q(0) = lambda(0) = 1; the product form z e^G / (z outer) once raised DegenerateMapError (exit 2)
        data = report(capsys, "special", "best-q", "--A", "1", "--B=-1", "--z", "0")
        assert data["result"]["value"] == {"re": pytest.approx(1.0, abs=1e-15), "im": 0.0}

    def test_huge_radius_parameters_stay_finite(self, capsys):
        for argv, key, value in (
            ("radius uralegaddi --A 1e308 --B=-1e308 --beta2 2", "radius", 0.5),
            ("radius inclusion --A 1.7e308+1.7e308i --B=-1 --C 0.5 --D=-0.5", "included", True),
        ):
            assert report(capsys, *argv.split())["result"][key] == value, argv

    @pytest.mark.parametrize(
        "argv",
        [
            "special kernel --A 1 --b 0 --z 0.5 --tol -1",
            "special best-q --A 1 --B=-1 --z 0.3 --tol 0",
            "special 3f2 --a1 1 --a2 1 --a3 1 --b1 2 --b2 2 --x 0.5 --tol nan",
        ],
    )
    def test_bad_tolerance_is_parameter_failure(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert json.loads(err)["kind"] == "parameter"

    @pytest.mark.parametrize(
        "argv",
        [
            "plot csv --A 0.5 --B 0 --n -5",
            "plot svg --A 0.5 --B 0 --n 0",
            f"verify --seed {2**64} --theorem-id T5.5",
            "verify --seeds 0",
            "bounds eta-inf --weight 1 --beta nan",
            "geometry contains --A 1 --B=-1 --inner-A 0.5 --inner-B=-0.5 --tol nan",
            "geometry image-disk --A 1.7e308+1.7e308i --B=-1 --r 0.5",
            "radius inclusion --A 0.5 --B 3 --C 0.5 --D=-0.5",
            "radius starlike --A 0.5+0.1i --B=-0.5",
            "bounds tilt --b 0.5 --m 1e308",
            "special dominant --A=-0.15+0.75i --b 1 --alpha 0.5 --gamma 0.5 --mu 1 --eta 0 --delta 0 --rho 1 --z 2+2i",
        ],
    )
    def test_out_of_domain_input_is_parameter_failure(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv.split(), "--out", str(tmp_path / "artifact"))
        assert code == 2
        assert out == ""
        assert json.loads(err)["kind"] == "parameter"
        assert not (tmp_path / "artifact").exists()

    def test_unknown_theorem_id_names_the_known_ids(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--theorem-id", "T9.9")
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["kind"] == "parameter"
        assert "'T9.9'" in error["error"]
        assert all(tid in error["error"] for tid in THEOREM_IDS)

    def test_divergent_series_is_numerical_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "special", "3f2",
            "--a1", "2", "--a2", "2", "--a3", "2", "--b1", "2", "--b2", "2", "--x", "1",
        )
        assert code == 3
        assert json.loads(err)["kind"] == "numerical"


class TestPlot:
    def test_svg_artifact(self, capsys, tmp_path):
        path = tmp_path / "curve.svg"
        data = report(
            capsys, "plot", "svg", "--A", "1", "--B", "0", "--alpha", "0.5",
            "--out", str(path),
        )
        assert data["result"]["points"] == 2048
        text = path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        assert text.count("circle") == 2  # markers at w = 0 and w = 1

    def test_csv_artifact(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        data = report(
            capsys, "plot", "csv", "--A", "0.8", "--B", "-0.3", "--alpha", "0.6", "--r", "0.9", "--n", "64",
            "--out", str(path),
        )
        assert data["result"]["rows"] == 64
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,u,v,M,N"
        assert len(lines) == 65
        first = lines[1].split(",")
        assert len(first) == 5
        assert float(first[0]) == 0.0
        # every value as format(v, ".15g") gives it, as the benchmark's plot check reads it
        curve = sample_curve(JanowskiParams(0.8, -0.3, 0.6), 0.9, n=64)
        columns = (curve.t, curve.u, curve.v, curve.M, curve.N)
        assert lines[1:] == [",".join(format(c[k], ".15g") for c in columns) for k in range(64)]


SMOKE_ARGV = {
    ("geometry", "image-disk"): "--A 0.8 --B=-0.3 --r 0.7",
    ("geometry", "origin"): "--A 0.5 --B=-1",
    ("geometry", "canonicalize"): "--A=0.5+0.1i --B=0.3i",
    ("geometry", "contains"): "--A 1 --B=-1 --inner-A 0.5 --inner-B=-0.5",
    ("bounds", "envelope"): "--A 0.8 --B=-0.3 --alpha 0.6 --gamma=0.1-0.2i",
    ("bounds", "critical"): "--A 0.8 --B=-0.3 --alpha 0.6",
    ("bounds", "sector"): "--alpha 0.5 --m 0.3",
    ("bounds", "tilt"): "--b 0.4 --m 0.3",
    ("bounds", "nesting"): "--A 1 --B=-1 --a1 0.3 --a2 0.6",
    ("bounds", "ratio-sector"): "--alpha 0.5 --m 0 --beta 1 --phi 0.25pi",
    ("bounds", "derivative-sector"): "--alpha 0.5 --m 0.2",
    ("bounds", "weighted-sector"): "--alpha 0.5 --beta 0.4 --gamma2 0.6 --m 0.2 --eta 0.5",
    ("bounds", "reciprocal-sector"): "--alpha 0.5 --beta 0.3",
    ("bounds", "eta-inf"): "--weight=1+0.5i --beta 0.3",
    ("bounds", "double-tilt"): "--a 0.5 --b 0.3 --c 0.4 --d 0.2 --l 0.5 --m 0.3 --alpha 0.7",
    ("radius", "subordination"): "--A 1 --B=-1 --C 0.5 --D=-0.5 --alpha 0.8 --beta 0.6 --gamma=0.1i --delta 0.2",
    ("radius", "inclusion"): "--A 1 --B=-1 --alpha 0.5 --C 1 --D=-1 --beta 0.25",
    ("radius", "uralegaddi"): "--A 1 --B=-1 --beta2 1.5",
    ("radius", "reciprocal"): "--A 1 --B=-1 --beta2 0.5",
    ("radius", "alpha-star"): "",
    ("radius", "starlike"): "--A 0.8 --B=-0.6 --beta 1.2 --method bisect",
    ("special", "3f2"): "--a1 1 --a2 1 --a3 1 --b1 2 --b2 2 --x 0.5",
    ("special", "kernel"): "--A 1 --b 0 --alpha 1 --z 0.5",
    ("special", "macgregor"): "--beta 0.5",
    ("special", "dominant"): "--A 1 --b 0.5 --alpha 0.5 --gamma 0.5 --mu 1 --eta 0.5 --delta 1 --rho 0 --z 0.3",
    ("special", "best-q"): "--A 1 --B=-1 --alpha 0.5 --z 0.3",
    ("special", "silverman"): "--A 0.5 --b 0.5 --alpha 0.5 --beta 0.1",
    ("verify", ""): "--theorem-id T5.5",
    ("plot", "svg"): "--A 1 --B 0 --alpha 0.5 --n 64",
    ("plot", "csv"): "--A 0.8 --B=-0.3 --gamma=0.2i --n 64",
}


GOLDEN_CLI = Path(__file__).parent / "golden" / "cli.jsonl"


def smoke_argv(command: str, action: str, out_dir: Path) -> list[str]:
    """The smoke invocation of one action, with --verify; plots go to `out_dir`."""
    argv = [command, *([action] if action else []), *SMOKE_ARGV[command, action].split(), "--verify"]
    if command == "plot":
        argv += ["--out", str(out_dir / f"curve.{action}")]
    return argv


def golden_cli_line(command: str, action: str, result: dict) -> str:
    """The corpus line of one smoke invocation: its command and `result`
    block, without the plot's output path, which lives in a temporary
    directory."""
    if command == "plot":
        result = {key: value for key, value in result.items() if key != "path"}
    return json.dumps({"command": f"{command} {action}".strip(), "result": result}, sort_keys=True)


def test_golden_cli_corpus_covers_every_action():
    commands = [json.loads(line)["command"] for line in GOLDEN_CLI.read_text().splitlines()]
    assert commands == [f"{cmd} {act}".strip() for cmd, act in SMOKE_ARGV]


@pytest.mark.parametrize(
    "command,action", [(cmd, act) for cmd, table in ACTIONS.items() for act in table], ids=lambda x: x or "-"
)
def test_every_action_prints_strict_json(capsys, tmp_path, command, action):
    assert (command, action) in SMOKE_ARGV, "each action needs a smoke invocation"
    code, out, err = run_cli(capsys, *smoke_argv(command, action, tmp_path))
    assert code == 0, err

    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")

    data = json.loads(out, parse_constant=reject)
    entry = ACTIONS[command][action]
    assert data["command"] == f"{command} {action}".strip()
    assert set(data["params"]) == set(f"{entry.required} {entry.optional}".split())
    golden = {json.loads(line)["command"]: line for line in GOLDEN_CLI.read_text().splitlines()}
    assert golden_cli_line(command, action, data["result"]) == golden[data["command"]]


def test_import_leaves_numpy_random_unloaded():
    """numpy.random (with secrets and hmac) loads with the first trial,
    not with the CLI."""
    code = "import sys, janowski.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent.parent / "src",
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# One invocation per subcommand, shaped like the benchmark's cold CLI runs,
# plus one of the sector calculus and one of each scalar closed form, and the
# janowski modules each may load beyond the CLI's own four.
LOAD_CONTRACT = {
    "geometry": ("geometry image-disk --A=0.5 --B=0.1 --r=0.7 --verify", {"moebius"}),
    "bounds": (
        "bounds envelope --A=0.8 --B=-0.3 --alpha=0.6 --r=0.9 --verify",
        {"envelope", "moebius", "oracle", "radii", "sectors", "special"},
    ),
    "radius": ("radius starlike --A=0.8 --B=-0.6 --beta=1.2 --verify", {"radii"}),
    "special": ("special kernel --A=1 --b=0.5 --alpha=0.5 --z=0.3", {"moebius", "special"}),
    "special dominant": (
        "special dominant --A=0.5 --b=0.5 --alpha=0.5 --gamma=0.5 --mu=1 --eta=0.5 --delta=1 --rho=0 --z=0.3",
        {"moebius", "special"},
    ),
    "special 3f2": ("special 3f2 --a1=1 --a2=1 --a3=1 --b1=2 --b2=2 --x=0.3", {"moebius", "special"}),
    "verify": ("verify --seeds=2 --seed=10", {"envelope", "moebius", "oracle", "radii", "sectors", "special"}),
    "plot": ("plot csv --A=0.8 --B=-0.3 --alpha=0.6 --n=64", {"envelope", "moebius"}),
    "sectors": ("bounds eta-inf --weight=1+0.5i --beta=0.6 --verify", {"sectors"}),
    "bounds sector": ("bounds sector --m=0.5 --alpha=0.5 --verify", {"sectors"}),
    "bounds tilt": ("bounds tilt --b=0.6 --m=0.3", {"sectors"}),
    "bounds nesting": ("bounds nesting --A=1 --B=-1 --a1=0.2 --a2=0.5", {"sectors"}),
    "special macgregor": ("special macgregor --beta=0.25 --verify", {"radii"}),
    "special silverman": ("special silverman --A=1 --b=1 --beta=0.5", {"radii"}),
    "geometry origin": ("geometry origin --A=0.5 --B=0.1", {"moebius"}),
    "geometry canonicalize": ("geometry canonicalize --A=0.5 --B=0.1i", {"moebius"}),
    "geometry contains": ("geometry contains --A=0.5 --B=0.1 --inner-A=0.3 --inner-B=0.1", {"moebius"}),
}
CLI_MODULES = {"janowski", "janowski.cli", "janowski._json", "janowski.errors"}
NUMPY_FREE = {"moebius", "radii", "sectors", "special"}  # modules that run without numpy


def loaded_after(code: str) -> tuple[set, bool]:
    """The janowski modules loaded by `code` in a fresh interpreter, and
    whether numpy is among the loaded modules."""
    code += (
        "\nimport json, sys\n"
        "print(json.dumps([[m for m in sys.modules if m.split('.')[0] == 'janowski'], 'numpy' in sys.modules]))"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent.parent / "src",
                         capture_output=True, text=True, check=True)
    modules, numpy_loaded = json.loads(out.stdout.splitlines()[-1])
    return set(modules), numpy_loaded


@pytest.mark.parametrize("command", list(LOAD_CONTRACT))
def test_each_command_loads_only_its_modules(command, tmp_path):
    argv, own = LOAD_CONTRACT[command]
    argv = argv.split() + (["--out", str(tmp_path / "curve.csv")] if command == "plot" else [])
    modules, numpy_loaded = loaded_after(
        f"import contextlib, io, janowski.cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert janowski.cli.main({argv!r}) == 0"
    )
    assert modules == CLI_MODULES | {f"janowski.{name}" for name in own}
    assert numpy_loaded == (not own <= NUMPY_FREE)


@pytest.mark.parametrize("code,modules", [
    ("import janowski", {"janowski"}),
    ("import janowski.cli", CLI_MODULES),
    *((f"import janowski.{name}", {"janowski", "janowski.errors", f"janowski.{name}"}
       | ({"janowski.moebius"} if name == "special" else set())) for name in sorted(NUMPY_FREE)),
])
def test_import_loads_no_submodule_and_no_numpy(code, modules):
    assert loaded_after(code) == (modules, False)
