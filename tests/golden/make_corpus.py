"""Write the golden corpus next to this script.

- `trials.jsonl`: one line per (theorem id, seed) over seeds 0-49, in
  `THEOREM_IDS` order, the report's `TrialReport.to_json()`. Acceptance
  criterion 7 compares every report it computes with its line.
- `cli.jsonl`: one line per `SMOKE_ARGV` invocation of `tests/test_cli.py`,
  its command and `result` block (without the plot's output path).
  `test_every_action_prints_strict_json` compares each result with its line.

Floats are written by `repr`.

    PYTHONPATH=src python tests/golden/make_corpus.py

Regenerate only when a change moves a value on purpose, and say which
values moved and why.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from janowski import THEOREM_IDS, implication_trial
from janowski.cli import main as cli_main

sys.path.insert(0, str(Path(__file__).parents[1]))
from test_cli import SMOKE_ARGV, golden_cli_line, smoke_argv  # noqa: E402

SEEDS = range(50)
HERE = Path(__file__).parent


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


def main() -> None:
    trials = [implication_trial(tid, seed=seed).to_json() for tid in THEOREM_IDS for seed in SEEDS]
    (HERE / "trials.jsonl").write_text("\n".join(trials) + "\n")
    (HERE / "cli.jsonl").write_text("\n".join(cli_lines()) + "\n")


if __name__ == "__main__":
    main()
