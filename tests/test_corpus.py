"""`make_corpus.py --compare`: every move from an old corpus, float moves
reported, any other change refused."""

import json
import math
import shutil

import pytest

from tests.golden.make_corpus import FILES, HERE, compare, main, read_corpus


def _copy_with(tmp_path, *edits) -> None:
    """The checked-in corpus copied to tmp_path, with each (name, line,
    edit) applied to the parsed line `line` (0-based) of file `name`."""
    for f in FILES:
        shutil.copy(HERE / f, tmp_path / f)
    for name, line, edit in edits:
        lines = (tmp_path / name).read_text().splitlines()
        record = json.loads(lines[line])
        edit(record)
        lines[line] = json.dumps(record, sort_keys=True)
        (tmp_path / name).write_text("\n".join(lines) + "\n")


def _move_empirical_mod(record: dict) -> None:
    record["empirical_bounds"]["mod"][1] *= 1.0 + 1e-12


def test_compare_reports_a_planted_float_move(tmp_path):
    _copy_with(tmp_path, ("envelope.jsonl", 3, _move_empirical_mod))
    report, changes = compare(read_corpus(tmp_path), read_corpus(HERE))
    assert changes == []
    assert report[:2] == ["trials.jsonl: no float moved", "cli.jsonl: no float moved"]
    (line,) = report[2:]
    assert line.startswith("envelope.jsonl [gamma0] empirical_bounds.mod[1]: 1 moved, max abs ")
    assert float(line.rsplit("max rel ", 1)[1]) == pytest.approx(1e-12, rel=0.01)


def _edited(name: str, line: int, edit) -> dict[str, list[str]]:
    corpus = read_corpus(HERE)
    record = json.loads(corpus[name][line])
    edit(record)
    corpus[name][line] = json.dumps(record)
    return corpus


EDITS = {
    "flag": ("trials.jsonl", lambda rec: rec.update(hypothesis_holds=not rec["hypothesis_holds"]), "hypothesis_holds"),
    "int": ("trials.jsonl", lambda rec: rec.update(seed=rec["seed"] + 1), "seed"),
    "string": ("cli.jsonl", lambda rec: rec.update(command=rec["command"] + " "), "command"),
    "hash": ("envelope.jsonl", lambda rec: rec.update(curve_N_sha256="0" * 64), "curve_N_sha256"),
    "none-for-value": ("envelope.jsonl", lambda rec: rec["empirical_bounds"]["mod"].__setitem__(1, None),
                       "empirical_bounds.mod[1]"),
    "nan-for-float": ("envelope.jsonl", lambda rec: rec["empirical_bounds"]["mod"].__setitem__(1, math.nan), "mod[1]"),
    "int-for-float": ("envelope.jsonl", lambda rec: rec["empirical_bounds"]["mod"].__setitem__(1, 1), "mod[1]"),
    "key": ("envelope.jsonl", lambda rec: rec.update(extra=0.5), "paths ['extra'] differ"),
    "none-for-list": ("envelope.jsonl", lambda rec: rec["empirical_bounds"]["shifted"].update(arg=None), "paths "),
}


@pytest.mark.parametrize("name, edit, where", EDITS.values(), ids=EDITS.keys())
def test_compare_refuses_every_change_that_is_not_a_float_move(name, edit, where):
    _, changes = compare(read_corpus(HERE), _edited(name, 2, edit))
    assert len(changes) == 1 and changes[0].startswith(f"{name} line 3") and where in changes[0]


def test_compare_refuses_a_changed_line_count():
    corpus = read_corpus(HERE)
    corpus["cli.jsonl"].pop()
    _, changes = compare(read_corpus(HERE), corpus)
    n = len(corpus["cli.jsonl"])
    assert changes == [f"cli.jsonl: {n + 1} lines, now {n}"]


def test_compare_command_exits_1_on_a_planted_flag_change(tmp_path, capsys):
    def flip(record):
        record["conclusion_holds"] = not record["conclusion_holds"]

    _copy_with(tmp_path, ("envelope.jsonl", 3, _move_empirical_mod), ("trials.jsonl", 10, flip))
    assert main(["--compare", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "envelope.jsonl [gamma0] empirical_bounds.mod[1]: 1 moved" in out
    flag = json.loads(read_corpus(HERE)["trials.jsonl"][10])["conclusion_holds"]
    assert err.splitlines() == [f"not a float move: trials.jsonl line 11 conclusion_holds: {not flag!r} -> {flag!r}"]


def test_compare_of_the_corpus_with_itself_moves_nothing():
    report, changes = compare(read_corpus(HERE), read_corpus(HERE))
    assert changes == [] and report == [f"{f}: no float moved" for f in FILES]
