"""Tests for CI's exact convergence-parity check (benchmarks/convergence_parity.py).

The contract under test: traces of the same fits pass, and a trace
whose iteration, freeze, fit or solver counts differ from the
reference's fails with exit 1, however close its timings are.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from convergence_parity import COUNTS, main, trace_counts  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "obs" / "fixtures"
PLAIN = FIXTURES / "example_plain.jsonl"
ANDERSON = FIXTURES / "example_anderson.jsonl"


def test_reads_the_summary_counts():
    assert trace_counts(ANDERSON) == {
        "n_iterations": 55,
        "n_frozen_events": 10,
        "n_fits": 5,
        "n_solver_steps": 45,
        "n_solver_restarts": 10,
    }
    assert set(trace_counts(PLAIN)) == set(COUNTS)


def test_same_fits_pass(capsys):
    assert main([str(PLAIN), str(PLAIN)]) == 0
    assert "same counts" in capsys.readouterr().out


def test_different_counts_fail(capsys):
    assert main([str(PLAIN), str(PLAIN), str(ANDERSON)]) == 1
    out = capsys.readouterr().out
    assert "n_iterations 65 -> 55" in out
    assert "n_solver_steps 0 -> 45" in out


def test_usage_error():
    assert main([str(PLAIN)]) == 2
