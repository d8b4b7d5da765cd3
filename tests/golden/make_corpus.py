"""Write the golden corpus next to this script.

- `trials.jsonl`: one line per (theorem id, seed) of `TRIAL_CASES` in
  `tests/test_acceptance.py` (seeds 0-49 in `THEOREM_IDS` order, then T3.6
  seeds 50-242), the report's `TrialReport.to_json()`. Acceptance
  criterion 7 compares every report it computes with its line.
- `cli.jsonl`: one line per `SMOKE_ARGV` invocation of `tests/test_cli.py`,
  its command and `result` block (without the plot's output path).
  `test_every_action_prints_strict_json` compares each result with its line.
- `envelope.jsonl`: one line per draw of `envelope_corpus_draws` in
  `tests/test_envelope.py` (gamma = 0, shifted and origin-touch maps), its
  `envelope_bounds` and 200k-sample `empirical_bounds` reports and the
  sha256 of the 4096-point `sample_curve` N and M bytes.
  `test_golden_envelope_corpus` compares every line.

Floats are written by `repr`.

    PYTHONPATH=src python tests/golden/make_corpus.py
    PYTHONPATH=src python tests/golden/make_corpus.py --check
    PYTHONPATH=src python tests/golden/make_corpus.py --compare OLD_DIR

`--check` regenerates every file in memory, writes none, and exits 1
naming the first differing line of each file that differs.

`--compare OLD_DIR` regenerates every file in memory, writes none, and
walks every JSON leaf of each line against the same file in OLD_DIR. It
prints, per file and per field path (prefixed with the line's `group`
where it has one), how many float leaves moved and the largest absolute
and relative move, and exits 1 on any other change: a line count, a key,
None against a value, a bool, an int, a string, a hash, or a float that
is or becomes NaN or infinite.

Regenerate only when a change moves a value on purpose, and say which
values moved and why.
"""

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from janowski import implication_trial
from janowski.cli import main as cli_main

sys.path.insert(0, str(Path(__file__).parents[2]))
from tests.test_acceptance import TRIAL_CASES  # noqa: E402
from tests.test_cli import SMOKE_ARGV, golden_cli_line, smoke_argv  # noqa: E402
from tests.test_envelope import envelope_corpus_draws, golden_envelope_line  # noqa: E402

HERE = Path(__file__).parent
FILES = ("trials.jsonl", "cli.jsonl", "envelope.jsonl")


def trial_lines() -> list[str]:
    return [implication_trial(tid, seed=seed).to_json() for tid, seed in TRIAL_CASES]


def cli_lines() -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for command, action in SMOKE_ARGV:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(smoke_argv(command, action, Path(tmp)))
            if code != 0:
                raise SystemExit(f"{command} {action} exited {code}")
            lines.append(golden_cli_line(command, action, json.loads(out.getvalue())["result"]))
    return lines


def envelope_lines() -> list[str]:
    return [golden_envelope_line(*draw) for draw in envelope_corpus_draws()]


def first_difference(old: list[str], new: list[str]) -> int | None:
    """1-based number of the first line where `old` and `new` differ, if any."""
    for i, (a, b) in enumerate(zip(old, new)):
        if a != b:
            return i + 1
    return None if len(old) == len(new) else min(len(old), len(new)) + 1


def _leaves(value, path: str = ""):
    """(path, leaf) for every leaf of parsed JSON; an empty dict or list is a leaf."""
    if isinstance(value, dict) and value:
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value:
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def compare(old: dict[str, list[str]], new: dict[str, list[str]]) -> tuple[list[str], list[str]]:
    """Float moves and other changes from the `old` corpus to the `new` one,
    both mapping file names to their lines.

    Returns the report lines, one per (file, field path) whose float leaves
    moved and one per file that did not move, and the changes that are not
    float moves. The relative move is |new - old| / max(|new|, |old|)."""
    report, changes = [], []
    for name, new_lines in new.items():
        old_lines = old.get(name, [])
        if len(old_lines) != len(new_lines):
            changes.append(f"{name}: {len(old_lines)} lines, now {len(new_lines)}")
        moves: dict[str, list] = {}  # path -> [count, largest absolute move, largest relative move]
        for i, (a, b) in enumerate(zip(old_lines, new_lines)):
            a, b = json.loads(a), json.loads(b)
            group = f"[{b['group']}] " if isinstance(b, dict) and isinstance(b.get("group"), str) else ""
            old_leaves, new_leaves = dict(_leaves(a)), dict(_leaves(b))
            if old_leaves.keys() != new_leaves.keys():
                paths = sorted(old_leaves.keys() ^ new_leaves.keys())
                changes.append(f"{name} line {i + 1}: paths {paths[:4]} differ")
            for path in old_leaves.keys() & new_leaves.keys():
                x, y = old_leaves[path], new_leaves[path]
                if type(x) is float and type(y) is float and math.isfinite(x) and math.isfinite(y):
                    if x != y:
                        move = abs(y - x)
                        entry = moves.setdefault(group + path, [0, 0.0, 0.0])
                        entry[0] += 1
                        entry[1] = max(entry[1], move)
                        entry[2] = max(entry[2], move / max(abs(x), abs(y)))
                elif type(x) is not type(y) or (x != y and x == x):  # NaN against NaN is no change
                    changes.append(f"{name} line {i + 1} {path}: {x!r} -> {y!r}")
        if not moves:
            report.append(f"{name}: no float moved")
        for path in sorted(moves):
            count, move, rel = moves[path]
            report.append(f"{name} {path}: {count} moved, max abs {move:.3g}, max rel {rel:.3g}")
    return report, changes


def read_corpus(folder: Path) -> dict[str, list[str]]:
    """The lines of each corpus file in `folder`; a missing file has none."""
    return {
        name: (folder / name).read_text().splitlines() if (folder / name).exists() else []
        for name in FILES
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare with the files on disk; write nothing")
    mode.add_argument("--compare", metavar="OLD_DIR", type=Path,
                      help="report every move from the corpus in OLD_DIR; write nothing")
    args = parser.parse_args(argv)
    corpus = {"trials.jsonl": trial_lines(), "cli.jsonl": cli_lines(), "envelope.jsonl": envelope_lines()}
    if args.compare is not None:
        report, changes = compare(read_corpus(args.compare), corpus)
        print("\n".join(report))
        for change in changes:
            print(f"not a float move: {change}", file=sys.stderr)
        return 1 if changes else 0
    if not args.check:
        for name, lines in corpus.items():
            (HERE / name).write_text("\n".join(lines) + "\n")
        return 0
    status, on_disk = 0, read_corpus(HERE)
    for name, lines in corpus.items():
        line = first_difference(on_disk[name], lines)
        if line is not None:
            print(f"{name}: line {line} differs", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
