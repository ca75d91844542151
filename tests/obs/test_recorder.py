"""Tests for the Recorder protocol, ambient installation, PhaseTimer and
the ``chain_iteration`` reader."""

import re
import time
from pathlib import Path

import pytest

from repro.obs import (
    CHAIN_PHASES,
    EVENT_TYPES,
    NULL_RECORDER,
    ListRecorder,
    NullRecorder,
    ChainIteration,
    PhaseTimer,
    Recorder,
    get_recorder,
    read_iteration,
    use_recorder,
)


class TestRecorderProtocol:
    def test_base_emit_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Recorder().emit("fit")

    def test_null_recorder_is_disabled_and_silent(self):
        recorder = NullRecorder()
        assert recorder.enabled is False
        recorder.emit("fit", seconds=1.0)

    def test_shared_null_recorder_is_disabled(self):
        assert NULL_RECORDER.enabled is False

    def test_list_recorder_collects_in_order(self):
        recorder = ListRecorder()
        recorder.emit("fit", seconds=0.5)
        recorder.emit("trial", trial=0)
        recorder.emit("fit", seconds=0.7)
        assert [e["event"] for e in recorder.events] == ["fit", "trial", "fit"]
        assert [e["seconds"] for e in recorder.events_of("fit")] == [0.5, 0.7]

    def test_events_of_unknown_name_is_empty(self):
        recorder = ListRecorder()
        recorder.emit("fit", seconds=0.5)
        assert recorder.events_of("no_such_event") == []
        assert recorder.events_of("") == []

    def test_list_recorder_can_be_constructed_disabled(self):
        assert ListRecorder(enabled=False).enabled is False

    def test_probes_toggle(self):
        assert ListRecorder().probes is True
        assert ListRecorder(probes=False).probes is False
        assert NullRecorder().probes is False

    def test_event_vocabulary_is_fixed(self):
        assert "chain_iteration" in EVENT_TYPES
        assert "chain_health" in EVENT_TYPES
        assert "invariant_probe" in EVENT_TYPES
        assert len(CHAIN_PHASES) == 5


class TestAmbientRecorder:
    def test_default_is_the_null_recorder(self):
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_installs_and_restores(self):
        recorder = ListRecorder()
        with use_recorder(recorder) as installed:
            assert installed is recorder
            assert get_recorder() is recorder
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_nests(self):
        outer, inner = ListRecorder(), ListRecorder()
        with use_recorder(outer):
            with use_recorder(inner):
                assert get_recorder() is inner
            assert get_recorder() is outer

    def test_use_recorder_restores_on_error(self):
        recorder = ListRecorder()
        with pytest.raises(RuntimeError):
            with use_recorder(recorder):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER


class TestPhaseTimer:
    def test_all_names_present_even_when_unused(self):
        timer = PhaseTimer(("a", "b"))
        timer.start("a")
        timer.stop()
        assert set(timer.phases) == {"a", "b"}
        assert timer.phases["b"] == 0.0

    def test_default_names_are_the_chain_phases(self):
        assert set(PhaseTimer().phases) == set(CHAIN_PHASES)

    def test_start_closes_previous_phase(self):
        timer = PhaseTimer(("a", "b"))
        timer.start("a")
        time.sleep(0.002)
        timer.start("b")
        time.sleep(0.002)
        timer.stop()
        assert timer.phases["a"] > 0.0
        assert timer.phases["b"] > 0.0

    def test_phase_reentry_accumulates(self):
        timer = PhaseTimer(("a", "b"))
        timer.start("a")
        time.sleep(0.001)
        timer.start("b")
        timer.start("a")
        time.sleep(0.001)
        timer.stop()
        first = timer.phases["a"]
        assert first >= 0.002 * 0.5  # both visits counted (timer slack)
        assert timer.total == pytest.approx(sum(timer.phases.values()))

    def test_stop_is_idempotent(self):
        timer = PhaseTimer(("a",))
        timer.start("a")
        timer.stop()
        frozen = timer.phases["a"]
        timer.stop()
        assert timer.phases["a"] == frozen


class TestReadIteration:
    def test_reads_a_fit_s_events(self, worked_example):
        from repro.core import TMark

        recorder = ListRecorder(probes=False)
        TMark(solver="anderson").fit(worked_example, recorder=recorder)
        events = recorder.events_of("chain_iteration")
        assert events
        for event in events:
            iteration = read_iteration(event)
            assert isinstance(iteration, ChainIteration)
            assert iteration.t == event["t"]
            assert iteration.n_active == event["n_active"] == len(iteration.classes)
            assert iteration.phases == event["phases"]
            assert list(iteration.phases) == list(CHAIN_PHASES)
            assert iteration.phase_seconds == sum(event["phases"].values())
            assert iteration.classes == tuple(
                zip(event["class_index"], event["residual"], event["frozen"])
            )
            assert iteration.n_frozen == sum(event["frozen"])
            assert iteration.solver_seconds == event["solver_seconds"]

    def test_converts_fields_to_python_numbers(self):
        iteration = read_iteration(
            {
                "phases": {"projection": 1, "extra": 0.5},
                "class_index": [2.0],
                "residual": [1],
                "frozen": [1],
            }
        )
        assert iteration.phases == {"projection": 1.0, "extra": 0.5}
        assert all(type(v) is float for v in iteration.phases.values())
        ((c, residual, frozen),) = iteration.classes
        assert (type(c), type(residual), type(frozen)) == (int, float, bool)
        assert type(iteration.phase_seconds) is float

    def test_missing_fields_read_as_empty(self):
        iteration = read_iteration({})
        assert iteration == ChainIteration(
            t=None, n_active=0, phases={}, classes=(), n_frozen=0, solver_seconds=0.0
        )
        assert iteration.phase_seconds == 0.0

    def test_frozen_flags_count_without_class_index(self):
        # The frozen count reads the frozen list itself, not the
        # (class_index, residual, frozen) triples it would truncate to.
        iteration = read_iteration({"frozen": [True, False, True]})
        assert iteration.classes == ()
        assert iteration.n_frozen == 2

    def test_only_the_writer_and_the_reader_index_the_event(self):
        # class_index is left out: chain_health events carry it too.
        pattern = re.compile(
            r"""(\.get\(|\[)["'](phases|residual|frozen|solver_seconds)["']"""
        )
        src = Path(__import__("repro").__file__).parent
        allowed = {"core/chains.py", "obs/recorder.py"}
        offenders = [
            path.relative_to(src).as_posix()
            for path in src.rglob("*.py")
            if path.relative_to(src).as_posix() not in allowed
            and pattern.search(path.read_text(encoding="utf-8"))
        ]
        assert offenders == []
