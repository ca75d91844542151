"""Check that traces of the same fits converged alike, count for count.

``trace-diff --threshold 20`` bounds every compared metric by 2000%, the
convergence counts included, so a run that took 20x the iterations of
its reference still passes it.  This check reads each trace's
``trace-summary --json`` and requires every candidate's
:data:`COUNTS` to equal the reference's exactly.

Usage::

    python benchmarks/convergence_parity.py REFERENCE.jsonl CANDIDATE.jsonl [...]

Prints one line per candidate and exits 1 if any count differs (2 on
bad usage).
"""

from __future__ import annotations

import json
import subprocess
import sys

#: The ``trace-summary --json`` counts two runs of the same fits share.
COUNTS = (
    "n_iterations",
    "n_frozen_events",
    "n_fits",
    "n_solver_steps",
    "n_solver_restarts",
)


def trace_counts(path) -> dict[str, int]:
    """The :data:`COUNTS` of ``trace-summary PATH --json``."""
    command = ["trace-summary", str(path), "--json"]
    summary = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *command],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    fields = json.loads(summary)
    return {name: fields[name] for name in COUNTS}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: convergence_parity.py REFERENCE CANDIDATE [...]", file=sys.stderr)
        return 2
    reference = trace_counts(argv[0])
    differs = False
    for path in argv[1:]:
        got = trace_counts(path)
        changed = [
            f"{name} {reference[name]} -> {got[name]}"
            for name in COUNTS
            if got[name] != reference[name]
        ]
        differs = differs or bool(changed)
        verdict = "; ".join(changed) if changed else "same counts"
        print(f"{path} vs {argv[0]}: {verdict}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
