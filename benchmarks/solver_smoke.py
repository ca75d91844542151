"""Record a plain and an Anderson trace of the worked example in one process.

CI's solver smoke ``trace-diff``s an Anderson trace of the section 3.2
worked example against a plain one at the default 20% threshold.  When
the two traces come from two processes, the process-to-process spread
alone exceeds that on a shared host: the per-fit median of the same fit
ranged from 6.4 to 11.7 ms over 16 processes.  This script records both
sides in one process instead: ``EXAMPLE_FITS`` fits per solver,
interleaved (plain, anderson, plain, ...), each solver's fits under its
own :class:`~repro.obs.JsonlTraceRecorder`.  Each trace holds the same
``fit`` / chain events as a ``run example --trace`` trace of that
solver.

Usage::

    python benchmarks/solver_smoke.py PLAIN.jsonl ANDERSON.jsonl
    python -m repro.experiments trace-diff PLAIN.jsonl ANDERSON.jsonl
    python -m repro.experiments health ANDERSON.jsonl
"""

from __future__ import annotations

import sys

from repro.core import TMark
from repro.datasets import make_worked_example
from repro.experiments.runners import EXAMPLE_FITS
from repro.obs import JsonlTraceRecorder

#: The two sides of the diff, in trace-argument order.
SOLVERS = ("plain", "anderson")


def record(plain_path, anderson_path) -> None:
    """Write the interleaved fits' traces to the two paths."""
    hin = make_worked_example()
    with (
        JsonlTraceRecorder(plain_path) as plain,
        JsonlTraceRecorder(anderson_path) as anderson,
    ):
        for _ in range(EXAMPLE_FITS):
            for solver, recorder in zip(SOLVERS, (plain, anderson)):
                TMark(alpha=0.8, gamma=0.5, solver=solver).fit(
                    hin, recorder=recorder
                )
    for solver, path, recorder in zip(
        SOLVERS, (plain_path, anderson_path), (plain, anderson)
    ):
        print(f"[{solver}: {recorder.n_events} events -> {path}]")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    record(*args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
