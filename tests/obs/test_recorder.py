"""Tests for the Recorder protocol, ambient installation and PhaseTimer."""

import time

import pytest

from repro.obs import (
    CHAIN_PHASES,
    EVENT_TYPES,
    NULL_RECORDER,
    ListRecorder,
    NullRecorder,
    PhaseTimer,
    Recorder,
    get_recorder,
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
