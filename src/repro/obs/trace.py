"""JSONL trace sink: one structured event per line.

The format is deliberately plain — each line is an independent JSON
object with an ``event`` type and a monotonic ``ts`` (seconds since the
recorder was opened) — so traces can be post-processed with nothing but
``json.loads`` per line.  No redaction, no binary framing, no schema
registry: the events are small numeric records by construction.

Paths ending in ``.gz`` are transparently gzip-compressed on write and
decompressed on read (large out-of-core traces are multi-hundred-MB as
plain text), and events emitted while a :func:`~repro.obs.spans.span`
is active are tagged with its ``span_id`` so post-processing can
reattach flat events to the causal tree.
"""

from __future__ import annotations

import gzip
import json
import time
import warnings
from pathlib import Path

import numpy as np

from repro.errors import ValidationError
from repro.obs.recorder import Recorder
from repro.obs.spans import current_span

#: Run-summary event types that trigger an immediate flush: they close a
#: unit of work, so a crash right after one loses no completed results.
FLUSH_EVENTS = frozenset({"fit", "trial", "grid_cell", "reconverge", "chain_health"})


def _jsonable(value):
    """Coerce numpy scalars (and nested containers) to plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _json_default(value):
    """``json.dumps`` hook: the numpy values events carry, as plain JSON types.

    Called only for objects ``json`` cannot encode itself, so a record of
    plain fields pays nothing.  Dict keys are not visited: every emitted
    key is already a ``str``.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class JsonlTraceRecorder(Recorder):
    """Write every event as one JSON line to ``path``.

    Events gain two bookkeeping fields: ``event`` (the type) and ``ts``
    (monotonic seconds since the recorder was opened).  Usable as a
    context manager.

    The stream is flushed to the OS every ``flush_every`` events and
    after every run-summary event (:data:`FLUSH_EVENTS`), so a killed
    run loses at most ``flush_every`` buffered events — and never a
    completed fit/trial/cell summary.  ``probes=False`` opts out of the
    per-iteration ``invariant_probe`` events while keeping the phase
    timings (see :attr:`~repro.obs.recorder.Recorder.probes`).
    """

    def __init__(self, path, *, flush_every: int = 64, probes: bool = True):
        from repro.utils.validation import check_positive_int

        self.flush_every = check_positive_int(flush_every, "flush_every")
        self.probes = bool(probes)
        self.path = Path(path)
        if self.path.suffix == ".gz":
            self._handle = gzip.open(self.path, "wt", encoding="utf-8")
        else:
            self._handle = open(self.path, "w", encoding="utf-8")
        self._opened = time.perf_counter()
        self.n_events = 0
        self._unflushed = 0

    def emit(self, event: str, **fields) -> None:
        record = {"event": event, "ts": time.perf_counter() - self._opened}
        ctx = current_span()
        if ctx is not None and "span_id" not in fields:
            record["span_id"] = ctx.span_id
        record.update(fields)
        self._handle.write(json.dumps(record, default=_json_default) + "\n")
        self.n_events += 1
        self._unflushed += 1
        if self._unflushed >= self.flush_every or event in FLUSH_EVENTS:
            self._handle.flush()
            self._unflushed = 0

    def close(self) -> None:
        """Close the file; idempotent."""
        self._handle.close()

    def __enter__(self) -> "JsonlTraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_trace(path, *, strict: bool = True) -> list[dict]:
    """Parse a JSONL trace file back into a list of event dicts.

    Blank lines are skipped; a malformed line raises
    :class:`~repro.errors.ValidationError` naming its line number.

    With ``strict=False`` a malformed *final* line — the signature of a
    writer killed mid-record — is skipped with a warning instead of
    raising, so post-mortem tooling (``trace-summary``, ``health``,
    ``trace-diff``) can still read everything the run completed.
    Malformed lines anywhere else are real corruption and raise in both
    modes.

    ``.gz`` paths are decompressed transparently; a corrupt gzip stream
    raises :class:`~repro.errors.ValidationError`.
    """
    path = Path(path)
    if path.suffix == ".gz":
        try:
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                lines = handle.readlines()
        except (OSError, EOFError) as error:
            raise ValidationError(
                f"{path} is not a readable gzip file: {error}"
            ) from None
    else:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    last_content = max(
        (i for i, line in enumerate(lines) if line.strip()), default=-1
    )
    events = []
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as error:
            if not strict and index == last_content:
                warnings.warn(
                    f"{path}:{index + 1} is truncated (crash mid-write?); "
                    f"skipping the partial final event",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            raise ValidationError(
                f"{path}:{index + 1} is not valid JSON: {error}"
            ) from None
    return events
