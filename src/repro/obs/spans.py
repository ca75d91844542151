"""Hierarchical spans: causal structure on top of the flat event stream.

A *span* is a named interval of work with an identity.  Entering
:func:`span` allocates a fresh ``span_id``, links it to the enclosing
span (``parent_id``) and to the root of the current causal tree
(``trace_id``), and on exit emits a single ``"span"`` event carrying the
ids, the wall-clock duration and the emitting ``pid``/``tid``.  Flat
events written while a span is active are tagged with its ``span_id`` by
the trace sinks (:class:`~repro.obs.trace.JsonlTraceRecorder`,
:class:`~repro.obs.flight.FlightRecorder`), which is what lets
post-processing reassemble "this ``chain_iteration`` happened inside
*that* reconverge inside *that* request".

The active span lives in a :class:`~contextvars.ContextVar`, mirroring
the ambient recorder stack: it nests, restores on exit, and is isolated
per thread and per ``asyncio`` task.  Two propagation escapes exist for
execution boundaries the context variable cannot cross by itself:

* **fork workers** — ship ``(trace_id, span_id)`` to the child (see
  ``_WorkerState.span_context`` in :mod:`repro.experiments.parallel`)
  and re-root with :func:`activate_span`;
* **serve threads** — each daemon request opens its own root-less span;
  the request id returned to the client *is* the span id, so daemon
  flight-recorder dumps correlate with client-side logs.

Span ids come from :func:`secrets.token_hex`, which reads the kernel
entropy pool directly — unlike :mod:`random`, forked workers cannot
clone its state, so ids stay unique across a process pool without any
coordination.

When the governing recorder is disabled, :func:`span` yields ``None``
and touches neither the clock nor the context variable, preserving the
near-zero cost of the untraced path.
"""

from __future__ import annotations

import os
import secrets
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from repro.obs.recorder import Recorder, get_recorder


def new_span_id() -> str:
    """A fresh 64-bit hex id, unique across threads *and* fork workers."""
    return secrets.token_hex(8)


@dataclass(frozen=True)
class SpanContext:
    """Identity of one span: its id, its parent's, and the tree root's.

    ``parent_id`` is ``None`` for a root span; ``trace_id`` equals the
    root span's ``span_id`` and is inherited unchanged by every
    descendant, so all events of one causal tree share it.
    """

    span_id: str
    trace_id: str
    parent_id: str | None = None

    def child(self) -> "SpanContext":
        """A fresh context one level below this span."""
        return SpanContext(
            span_id=new_span_id(), trace_id=self.trace_id, parent_id=self.span_id
        )


_current_span: ContextVar[SpanContext | None] = ContextVar(
    "repro_obs_span", default=None
)


#: Fields added to open spans by :func:`annotate_span`, by span id.
_late_fields: dict[str, dict] = {}


def current_span() -> SpanContext | None:
    """The active span context in this thread/task, or ``None``."""
    return _current_span.get()


def current_span_id() -> str | None:
    """The active span id, or ``None`` (convenience for event tagging)."""
    ctx = _current_span.get()
    return None if ctx is None else ctx.span_id


@contextmanager
def activate_span(context: SpanContext | None):
    """Install ``context`` as the active span without emitting anything.

    The re-rooting primitive for execution boundaries: a fork worker (or
    any thread handed a serialized ``(trace_id, span_id)`` pair) calls
    this with the parent's context so spans it opens link back to the
    dispatching span in the coordinator's trace.
    """
    token = _current_span.set(context)
    try:
        yield context
    finally:
        _current_span.reset(token)


def annotate_span(context: SpanContext | None, **fields) -> None:
    """Add ``fields`` to the event of the open span ``context``.

    For values known only once the span's body has run.  ``context`` is
    what :func:`span` yielded, so a disabled span (``None``) is a no-op.
    """
    if context is not None:
        _late_fields.setdefault(context.span_id, {}).update(fields)


@contextmanager
def span(name: str, *, recorder: Recorder | None = None, **fields):
    """Open a span named ``name``; emit one ``"span"`` event on exit.

    ``recorder`` defaults to the ambient recorder; when it is disabled
    the body runs untouched and ``None`` is yielded.  Otherwise a
    :class:`SpanContext` is yielded (its ``span_id`` doubles as a
    request/work-item id) and installed as the active span for the
    duration of the block, so nested ``span`` calls chain ``parent_id``
    and flat events emitted inside are tagged by the trace sinks.

    The event carries ``name``, the three ids, ``seconds``, the emitting
    ``pid``/``tid``, any extra ``fields`` and any added by
    :func:`annotate_span`; its ``ts`` is stamped at
    *close*, so the interval is ``[ts - seconds, ts]`` on the recorder's
    clock.  An exception escaping the body is recorded as an ``error``
    field (exception class name) and re-raised.
    """
    rec = get_recorder() if recorder is None else recorder
    if not rec.enabled:
        yield None
        return
    parent = _current_span.get()
    ctx = parent.child() if parent is not None else _root_context()
    token = _current_span.set(ctx)
    started = time.perf_counter()
    error: str | None = None
    try:
        yield ctx
    except BaseException as exc:
        error = type(exc).__name__
        raise
    finally:
        _current_span.reset(token)
        record = dict(
            name=name,
            span_id=ctx.span_id,
            parent_id=ctx.parent_id,
            trace_id=ctx.trace_id,
            seconds=time.perf_counter() - started,
            pid=os.getpid(),
            tid=threading.get_ident(),
        )
        if error is not None:
            record["error"] = error
        record.update(fields)
        late = _late_fields.pop(ctx.span_id, None)
        if late is not None:
            record.update(late)
        rec.emit("span", **record)


def _root_context() -> SpanContext:
    """A root span context: its own id is the trace id."""
    span_id = new_span_id()
    return SpanContext(span_id=span_id, trace_id=span_id, parent_id=None)
