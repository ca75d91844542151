"""Golden outputs of the trace readers on two recorded example traces.

``fixtures/example_plain.jsonl`` is ``run example --trace`` and
``fixtures/example_anderson.jsonl`` is ``run example --solver anderson
--trace``: five fits of the worked example each, with ``chain_iteration``,
``invariant_probe``, ``chain_health``, span and build events (and the
Anderson trace's ``solver_seconds``, ``solver_step`` and
``solver_restart``).  Every reader of those events renders them here and
the text must match ``golden/`` byte for byte, so a refactor of how the
readers parse an event shows up as a diff of their output.

The Chrome export is pinned by the sha256 of its JSON text.  After a
deliberate change of a reader's output, rewrite the golden files with
``PYTHONPATH=src python -m tests.obs.test_trace_golden`` and review the
diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.obs import (
    chrome_trace,
    diff_traces,
    format_health_report,
    format_trace_diff,
    format_trace_summary,
    read_trace,
    registry_from_events,
    summarize_trace,
    trace_chain_health,
)

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"
TRACES = ("plain", "anderson")

#: sha256 of ``json.dumps(chrome_trace(events))`` per fixture trace.
CHROME_SHA256 = {
    "plain": "994c23011dd8e2ec3c08685fa50d8545b53728596d0a892ff66319b63fe8a08d",
    "anderson": "14e66efb93e18bf740b440886a14198812d46b70d70f1107951cc4f5d22ac95e",
}


def _events(trace: str) -> list[dict]:
    return read_trace(FIXTURES / f"example_{trace}.jsonl")


def _without_health_events(events: list[dict]) -> list[dict]:
    return [e for e in events if e.get("event") != "chain_health"]


#: Rendered output name -> function of one trace's events.
RENDERERS = {
    "summary.txt": lambda ev: format_trace_summary(summarize_trace(ev)),
    "summary.json": lambda ev: json.dumps(
        summarize_trace(ev).to_dict(), indent=2, sort_keys=True
    ),
    # From the recorded chain_health events, then from the raw residuals.
    "health.txt": lambda ev: format_health_report(trace_chain_health(ev)),
    "health_from_residuals.txt": lambda ev: format_health_report(
        trace_chain_health(_without_health_events(ev))
    ),
    "metrics.prom": lambda ev: registry_from_events(ev).to_prometheus(),
}


def _render_diff() -> str:
    return format_trace_diff(diff_traces(_events("plain"), _events("anderson")))


def _chrome_sha256(trace: str) -> str:
    text = json.dumps(chrome_trace(_events(trace)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_fixtures_hold_the_recorded_runs():
    plain, anderson = _events("plain"), _events("anderson")
    assert len(plain) == 161 and len(anderson) == 196

    def iterations(events):
        return [e for e in events if e["event"] == "chain_iteration"]

    assert len(iterations(plain)) == 65
    assert len(iterations(anderson)) == 55
    assert all("solver_seconds" in e for e in iterations(anderson))
    assert not any("solver_seconds" in e for e in iterations(plain))


@pytest.mark.parametrize("name", sorted(RENDERERS))
@pytest.mark.parametrize("trace", TRACES)
def test_reader_output_is_unchanged(trace, name):
    expected = (GOLDEN / f"{trace}.{name}").read_text(encoding="utf-8")
    assert RENDERERS[name](_events(trace)) + "\n" == expected


def test_trace_diff_output_is_unchanged():
    expected = (GOLDEN / "plain_vs_anderson.diff.txt").read_text(encoding="utf-8")
    assert _render_diff() + "\n" == expected


@pytest.mark.parametrize("trace", TRACES)
def test_chrome_export_is_unchanged(trace):
    assert _chrome_sha256(trace) == CHROME_SHA256[trace]


def _write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for trace in TRACES:
        events = _events(trace)
        for name, render in RENDERERS.items():
            (GOLDEN / f"{trace}.{name}").write_text(
                render(events) + "\n", encoding="utf-8"
            )
        print(f"chrome sha256 {trace}: {_chrome_sha256(trace)}")
    (GOLDEN / "plain_vs_anderson.diff.txt").write_text(
        _render_diff() + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    _write_golden()
