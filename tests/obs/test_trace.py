"""Tests for the JSONL trace recorder and reader."""

import json
import warnings

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.obs import JsonlTraceRecorder, read_trace
from repro.obs.trace import _json_default


class TestJsonlTraceRecorder:
    def test_round_trips_through_json_loads(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceRecorder(path) as recorder:
            recorder.emit("fit", seconds=0.25, n_nodes=10)
            recorder.emit("trial", trial=0, value=0.9)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["event"] for e in events] == ["fit", "trial"]
        assert events[0]["n_nodes"] == 10
        assert events[1]["value"] == 0.9

    def test_every_event_carries_monotonic_ts(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceRecorder(path) as recorder:
            for t in range(5):
                recorder.emit("chain_iteration", t=t)
        ts = [e["ts"] for e in read_trace(path)]
        assert all(isinstance(value, float) for value in ts)
        assert ts == sorted(ts)

    def test_numpy_values_are_coerced(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceRecorder(path) as recorder:
            recorder.emit(
                "chain_iteration",
                residual=np.float64(0.5),
                class_index=np.int64(2),
                frozen=np.bool_(True),
                phases={"a": np.float32(0.125)},
                values=np.arange(3),
            )
        (event,) = read_trace(path)
        assert event["residual"] == 0.5
        assert event["class_index"] == 2
        assert event["frozen"] is True
        assert event["phases"] == {"a": 0.125}
        assert event["values"] == [0, 1, 2]

    def test_close_appends_no_event(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceRecorder(path) as recorder:
            recorder.emit("fit", seconds=0.1)
            recorder.emit("trial", trial=0)
        assert [e["event"] for e in read_trace(path)] == ["fit", "trial"]

    def test_close_is_idempotent(self, tmp_path):
        recorder = JsonlTraceRecorder(tmp_path / "trace.jsonl")
        recorder.emit("fit", seconds=0.1)
        recorder.close()
        recorder.close()
        assert recorder.n_events == 1

    def test_n_events_counts_emissions(self, tmp_path):
        with JsonlTraceRecorder(tmp_path / "trace.jsonl") as recorder:
            recorder.emit("fit")
            recorder.emit("fit")
        assert recorder.n_events == 2


class TestFlushing:
    def test_summary_events_are_readable_before_close(self, tmp_path):
        # A monitoring process tails the file while the run is alive: the
        # fit summary must be on disk the moment it is emitted.
        path = tmp_path / "trace.jsonl"
        recorder = JsonlTraceRecorder(path, flush_every=1000)
        try:
            recorder.emit("chain_iteration", t=0)
            recorder.emit("fit", seconds=0.1)
            events = read_trace(path)
            assert [e["event"] for e in events] == ["chain_iteration", "fit"]
        finally:
            recorder.close()

    def test_buffered_events_flush_at_flush_every(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = JsonlTraceRecorder(path, flush_every=3)
        try:
            recorder.emit("chain_iteration", t=0)
            recorder.emit("chain_iteration", t=1)
            flushed_early = len(read_trace(path))
            recorder.emit("chain_iteration", t=2)
            assert len(read_trace(path)) == 3
            # Small buffered batches may or may not hit the OS early
            # depending on libc buffering; the contract is only that the
            # third event forces everything out.
            assert flushed_early <= 2
        finally:
            recorder.close()

    @pytest.mark.parametrize("flush_every", [0, -1, True, 2.5])
    def test_flush_every_must_be_a_positive_int(self, tmp_path, flush_every):
        with pytest.raises(ValidationError):
            JsonlTraceRecorder(tmp_path / "t.jsonl", flush_every=flush_every)


class TestJsonable:
    def test_nested_containers_of_numpy_scalars(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceRecorder(path) as recorder:
            recorder.emit(
                "fit",
                nested=[{"a": np.float32(0.5)}, {"b": [np.int64(3), np.bool_(False)]}],
                tuple_field=(np.float64(1.5), 2),
            )
        (event,) = read_trace(path)
        assert event["nested"] == [{"a": 0.5}, {"b": [3, False]}]
        assert event["tuple_field"] == [1.5, 2]

    def test_scalar_types_round_trip_as_native(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceRecorder(path) as recorder:
            recorder.emit("fit", f32=np.float32(0.25), i64=np.int64(-7))
        (event,) = read_trace(path)
        assert type(event["f32"]) is float and event["f32"] == 0.25
        assert type(event["i64"]) is int and event["i64"] == -7


def reference_jsonable(value):
    """The recursive pre-pass the sink once ran on every record, kept as
    the reference its ``json.dumps`` default hook must reproduce."""
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


NUMPY_SCALARS = [
    np.dtype(code).type(value)
    for code, value in [
        ("int8", -3), ("int16", 300), ("int32", -70000), ("int64", 2**40),
        ("uint8", 200), ("uint16", 60000), ("uint32", 2**31), ("uint64", 2**63),
        ("float16", 0.1), ("float32", 1 / 3), ("float64", 2 / 3),
        ("longdouble", 0.7), ("bool", True), ("bool", False),
    ]
]

REPRESENTATIVE_RECORDS = [
    {"scalars": NUMPY_SCALARS},
    {"zero_d": np.array(1.25), "zero_d_int": np.array(7, dtype=np.int32)},
    {
        "matrix": np.arange(6, dtype=float).reshape(2, 3) / 7,
        "flags": np.array([[True, False]]),
        "ints": np.arange(4, dtype=np.uint16),
    },
    {
        "nested": {"a": [np.float32(0.5), (np.int64(3), {"b": np.bool_(True)})]},
        "tuple_field": (np.float64(1.5), 2, [np.bool_(False), None, "x"]),
    },
    {  # the shape of a chain_iteration event
        "t": 3,
        "n_active": 2,
        "phases": {"label_update": 1e-05, "o_propagation": np.float64(0.0123)},
        "class_index": [0, np.int64(2)],
        "residual": [np.float64(1e-9), 3.5e-7],
        "frozen": [np.bool_(True), False],
    },
    {"special": [float("nan"), np.float64("inf"), -np.float32("inf")]},
]


class TestJsonDefaultHook:
    @pytest.mark.parametrize("record", REPRESENTATIVE_RECORDS)
    def test_encodes_like_the_recursive_prepass(self, record):
        assert json.dumps(record, default=_json_default) == json.dumps(
            reference_jsonable(record)
        )

    @pytest.mark.parametrize("record", REPRESENTATIVE_RECORDS)
    def test_sink_lines_match_the_reference(self, tmp_path, record):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceRecorder(path) as recorder:
            recorder.emit("fit", **record)
        line = path.read_text(encoding="utf-8").splitlines()[0]
        ts = json.loads(line)["ts"]
        assert line == json.dumps(
            reference_jsonable({"event": "fit", "ts": ts, **record})
        )

    def test_unknown_objects_still_raise(self):
        with pytest.raises(TypeError):
            json.dumps({"x": object()}, default=_json_default)


class TestReadTrace:
    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "fit"}\n\n{"event": "trial"}\n')
        assert [e["event"] for e in read_trace(path)] == ["fit", "trial"]

    def test_malformed_line_names_its_line_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "fit"}\nnot json\n')
        with pytest.raises(ValidationError, match=r":2 is not valid JSON"):
            read_trace(path)

    @staticmethod
    def _truncated_trace(tmp_path):
        """A trace whose writer was killed mid-record on the final line."""
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"event": "fit", "seconds": 0.1}\n'
            '{"event": "trial", "value": 0.9}\n'
            '{"event": "grid_cell", "me'
        )
        return path

    def test_truncated_final_line_raises_by_default(self, tmp_path):
        with pytest.raises(ValidationError, match=r":3 is not valid JSON"):
            read_trace(self._truncated_trace(tmp_path))

    def test_lenient_mode_skips_truncated_final_line_with_warning(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="truncated"):
            events = read_trace(self._truncated_trace(tmp_path), strict=False)
        assert [e["event"] for e in events] == ["fit", "trial"]

    def test_lenient_mode_still_raises_on_mid_file_corruption(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "fit"}\ngarbage\n{"event": "trial"}\n')
        with pytest.raises(ValidationError, match=r":2 is not valid JSON"):
            read_trace(path, strict=False)

    def test_lenient_mode_on_clean_trace_warns_nothing(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "fit"}\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(read_trace(path, strict=False)) == 1


class TestGzipTransparency:
    def test_gz_path_round_trips(self, tmp_path):
        import gzip

        path = tmp_path / "trace.jsonl.gz"
        with JsonlTraceRecorder(path) as recorder:
            recorder.emit("fit", seconds=0.25, n_nodes=10)
            recorder.emit("trial", trial=0, value=0.9)
        # The file really is gzip (magic bytes), not plain text.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            lines = handle.read().strip().splitlines()
        assert len(lines) == 2
        events = read_trace(path)
        assert [e["event"] for e in events] == ["fit", "trial"]
        assert events[0]["n_nodes"] == 10

    def test_lenient_mode_works_on_gz(self, tmp_path):
        import gzip

        path = tmp_path / "trace.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write('{"event": "fit", "seconds": 0.1}\n{"event": "tr')
        with pytest.warns(RuntimeWarning, match="truncated"):
            events = read_trace(path, strict=False)
        assert [e["event"] for e in events] == ["fit"]

    def test_corrupt_gz_raises_validation_error(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        path.write_bytes(b"this is not gzip at all")
        with pytest.raises(ValidationError, match="not a readable gzip"):
            read_trace(path)


class TestSpanTagging:
    def test_events_inside_a_span_carry_its_id(self, tmp_path):
        from repro.obs.spans import span

        path = tmp_path / "trace.jsonl"
        with JsonlTraceRecorder(path) as recorder:
            recorder.emit("fit", seconds=0.1)
            with span("outer", recorder=recorder) as ctx:
                recorder.emit("reconverge", seconds=0.2)
        events = read_trace(path)
        by_event = {e["event"]: e for e in events}
        assert "span_id" not in by_event["fit"]
        assert by_event["reconverge"]["span_id"] == ctx.span_id
        assert by_event["span"]["span_id"] == ctx.span_id

    def test_explicit_span_id_is_not_overridden(self, tmp_path):
        from repro.obs.spans import span

        path = tmp_path / "trace.jsonl"
        with JsonlTraceRecorder(path) as recorder:
            with span("outer", recorder=recorder):
                recorder.emit("fit", span_id="mine")
        by_event = {e["event"]: e for e in read_trace(path)}
        assert by_event["fit"]["span_id"] == "mine"
