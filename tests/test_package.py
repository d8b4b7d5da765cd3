"""Package surface: every exported name resolves to its defining module's
object, submodules load on first use, and report values convert to plain
JSON data."""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import janowski
from janowski._json import jsonable

SRC = Path(__file__).parent.parent / "src"


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
