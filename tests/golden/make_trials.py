"""Write the golden trial corpus `trials.jsonl` next to this script.

One line per (theorem id, seed) over seeds 0-49, in `THEOREM_IDS` order:
the report's `TrialReport.to_json()`, floats written by `repr`.
Acceptance criterion 7 compares every report it computes with its line.

    PYTHONPATH=src python tests/golden/make_trials.py

Regenerate only when a change moves a report on purpose, and say which
values moved and why.
"""

from pathlib import Path

from janowski import THEOREM_IDS, implication_trial

SEEDS = range(50)
CORPUS = Path(__file__).with_name("trials.jsonl")


def main() -> None:
    lines = [implication_trial(tid, seed=seed).to_json() for tid in THEOREM_IDS for seed in SEEDS]
    CORPUS.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
