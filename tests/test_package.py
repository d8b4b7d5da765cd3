"""Package surface: every exported name resolves to its defining module's
object, submodules load on first use, and report values convert to plain
JSON data."""

import ast
import collections
import importlib
import io
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

import janowski
from janowski._json import jsonable

SRC = Path(__file__).parent.parent / "src"


def code_of(path: Path) -> str:
    """The source of `path` without its strings and comments, and without spaces."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return "".join(t.string for t in tokens if t.type not in (tokenize.STRING, tokenize.COMMENT))


def run_python(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports from SRC."""
    return subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True,
                          check=True).stdout.strip()


# range guards in another wording, with no interval and value to report
OTHER_WORDING = ("arg_ratio must lie in (-pi/2, pi/2)", "z must lie in the open unit disk")


def test_range_guards_share_one_implementation():
    # "x must lie in I, got v" is written once, in errors.require_range
    for path in sorted((SRC / "janowski").glob("*.py")):
        if path.name != "errors.py":
            for line in path.read_text().splitlines():
                if "must lie in" in line:
                    assert any(text in line for text in OTHER_WORDING), f"{path.name}: {line.strip()}"


def test_arguments_stay_principal():
    # no module unwraps arguments: they stay principal, and oracle._turns counts cut crossings
    for path in sorted((SRC / "janowski").glob("*.py")):
        assert "unwrap" not in path.read_text(), path.name


def test_oracle_keeps_no_module_cache():
    # the trials of a seed share their work through one oracle._SeedContext, not through caches
    text = (SRC / "janowski" / "oracle.py").read_text()
    assert not re.search(r"\blru_cache\b|\bfunctools\.cache\b|from functools import[^\n]*\bcache\b", text)


def test_one_preimage_rule():
    # values become preimages in envelope._preimage alone: it forms (w - gamma)/(1 - gamma),
    # and the oracle reads inf for a value with no preimage instead of catching a raise
    normalizations = {
        path.name: len(re.findall(r"\(\w+-([\w.]+)\)/\(1(?:\.0)?-\1\)", code_of(path)))
        for path in sorted((SRC / "janowski").glob("*.py"))
    }
    assert {name: n for name, n in normalizations.items() if n} == {"envelope.py": 1}
    assert "BranchUndefinedError" not in code_of(SRC / "janowski" / "oracle.py")


def test_one_conclusion_rule():
    # implication_trial judges every trial's conclusion: it alone pulls a trial's
    # conclusion samples back, writes max_pullback and holds the 1e-4 slack
    tree = ast.parse((SRC / "janowski" / "oracle.py").read_text())
    pullbacks, writes = collections.Counter(), collections.Counter()
    for top in tree.body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "subordination_pullback":
                pullbacks[name] += 1
            if isinstance(node, ast.Constant) and node.value == "max_pullback" or (
                    isinstance(node, ast.keyword) and node.arg == "max_pullback"):
                writes[name] += 1
    assert pullbacks == {"verify_subordination": 1, "_trial_first_order": 1, "implication_trial": 1}
    assert writes == {"implication_trial": 1}
    assert code_of(SRC / "janowski" / "oracle.py").count("1e-4") == 1


def test_one_principal_power():
    # powers of the Janowski quotient are envelope._powers (complex ** float for a scalar) and
    # arg q is np.angle(q): no second log of the quotient, and np.log only in the Kahan
    # log1p and expm1 kernels of the starlikeness kernel's rate
    np_logs = collections.Counter()
    for path in sorted((SRC / "janowski").glob("*.py")):
        code = code_of(path)
        assert not re.search(r"(?<!\w)def(_log|_arg_ratio)\(", code), path.name
        assert "cmath.log(" not in code, path.name
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "log" and getattr(node.value, "id", None) == "np":
                    np_logs[getattr(top, "name", None)] += 1
    assert set(np_logs) == {"_clog1p_arr", "_cexpm1_arr"}


def test_every_export_is_its_defining_object():
    for module, names in janowski._EXPORTS.items():
        defining = importlib.import_module(f"janowski.{module}")
        for name in names:
            assert getattr(janowski, name) is getattr(defining, name), name
    assert len(janowski.__all__) == len(set(janowski.__all__))
    assert set(janowski.__all__) == {"__version__", *janowski._HOME}


def test_dir_lists_every_export_and_submodule():
    listed = dir(janowski)
    assert set(janowski.__all__) <= set(listed)
    assert set(janowski._EXPORTS) <= set(listed)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from janowski import *", namespace)
    for name in janowski.__all__:
        assert namespace[name] is getattr(janowski, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        janowski.no_such_name  # noqa: B018
    assert not hasattr(janowski, "no_such_name")


def test_submodule_attribute_resolves():
    assert janowski.oracle is sys.modules["janowski.oracle"]
    assert janowski.radii.alpha_star is janowski.alpha_star


def test_first_access_loads_one_submodule_and_caches_the_name():
    code = (
        "import sys, janowski\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('janowski.'))\n"
        "print(loaded(), 'image_disk' in vars(janowski))\n"
        "janowski.image_disk\n"
        "print(loaded(), 'image_disk' in vars(janowski))\n"
        "print(janowski.oracle is sys.modules['janowski.oracle'])"
    )
    assert run_python(code).splitlines() == [
        "[] False",
        "['janowski.errors', 'janowski.moebius'] True",
        "True",
    ]


@pytest.mark.parametrize(
    "value,expected",
    [
        (np.bool_(True), True),
        (np.int64(-7), -7),
        (np.float32(0.1), 0.10000000149011612),
        (np.complex64(1.5 - 0.25j), {"re": 1.5, "im": -0.25}),
        (np.array(1.5), "1.5"),
        (np.array([1.5, 2.0]), "[1.5 2. ]"),
        (
            {"a": {"b": [np.float64(1.0), (np.int32(2), None)]}, 3: np.complex128(1j), "c": "text"},
            {"a": {"b": [1.0, [2, None]]}, "3": {"re": 0.0, "im": 1.0}, "c": "text"},
        ),
    ],
    ids=["bool_", "int64", "float32", "complex64", "0-d array", "1-d array", "nested"],
)
def test_jsonable_gives_plain_python_values(value, expected):
    out = jsonable(value)
    assert out == expected
    assert type(out) is type(expected)
    if isinstance(expected, dict) and "a" in expected:
        assert type(out["a"]["b"][0]) is float
        assert type(out["a"]["b"][1][0]) is int
