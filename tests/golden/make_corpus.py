"""Write the golden corpus next to this script.

- `trials.jsonl`: one line per (theorem id, seed) over seeds 0-49, in
  `THEOREM_IDS` order, the report's `TrialReport.to_json()`. Acceptance
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

`--check` regenerates every file in memory, writes none, and exits 1
naming the first differing line of each file that differs.

Regenerate only when a change moves a value on purpose, and say which
values moved and why.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from janowski import THEOREM_IDS, implication_trial
from janowski.cli import main as cli_main

sys.path.insert(0, str(Path(__file__).parents[2]))
from tests.test_cli import SMOKE_ARGV, golden_cli_line, smoke_argv  # noqa: E402
from tests.test_envelope import envelope_corpus_draws, golden_envelope_line  # noqa: E402

SEEDS = range(50)
HERE = Path(__file__).parent


def trial_lines() -> list[str]:
    return [implication_trial(tid, seed=seed).to_json() for tid in THEOREM_IDS for seed in SEEDS]


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the files on disk; write nothing")
    args = parser.parse_args(argv)
    corpus = {"trials.jsonl": trial_lines(), "cli.jsonl": cli_lines(), "envelope.jsonl": envelope_lines()}
    if not args.check:
        for name, lines in corpus.items():
            (HERE / name).write_text("\n".join(lines) + "\n")
        return 0
    status = 0
    for name, lines in corpus.items():
        path = HERE / name
        line = first_difference(path.read_text().splitlines() if path.exists() else [], lines)
        if line is not None:
            print(f"{name}: line {line} differs", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
