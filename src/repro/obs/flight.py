"""Flight recorder and resource sampler: always-on, bounded telemetry.

A long-lived daemon cannot keep an unbounded JSONL trace open, but when
something goes wrong the *recent* event history is exactly what a
post-mortem needs.  :class:`FlightRecorder` keeps the last ``capacity``
events in a ring buffer — cheap enough to leave enabled permanently —
and serves them on demand (the daemon's ``GET /debug/trace`` endpoint,
the ``obs flight`` CLI command).

:class:`ResourceSampler` is the matching telemetry source: a stdlib
daemon thread that periodically emits a ``resource_sample`` event (RSS,
CPU time, GC counters, thread count) into a recorder, so resource
trajectories land in the same stream as the work they contextualize and
export to the same Perfetto counter tracks (:mod:`repro.obs.chrome`).
"""

from __future__ import annotations

import gc
import os
import threading
import time
from collections import deque

from repro.obs.recorder import Recorder
from repro.obs.spans import current_span
from repro.obs.trace import _jsonable

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def sample_process_stats() -> dict:
    """One snapshot of this process's resource usage, stdlib-only.

    Current RSS comes from ``/proc/self/statm`` where available (Linux);
    elsewhere ``rss_bytes`` is 0 and only the peak (``max_rss_bytes``,
    from :func:`resource.getrusage`) is populated.  CPU times come from
    :func:`os.times`, GC counters from :mod:`gc`.
    """
    rss_bytes = 0
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            rss_bytes = int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    max_rss_bytes = 0
    try:
        import resource

        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        max_rss_bytes = ru if ru > 1 << 32 else ru * 1024
    except (ImportError, OSError):
        pass
    times = os.times()
    gen0, gen1, gen2 = gc.get_count()
    stats = gc.get_stats()
    return {
        "pid": os.getpid(),
        "rss_bytes": rss_bytes,
        "max_rss_bytes": max_rss_bytes,
        "cpu_user_seconds": times.user,
        "cpu_system_seconds": times.system,
        "gc_gen0": gen0,
        "gc_gen1": gen1,
        "gc_gen2": gen2,
        "gc_collections": sum(s["collections"] for s in stats),
        "gc_collected": sum(s["collected"] for s in stats),
        "n_threads": threading.active_count(),
    }


class FlightRecorder(Recorder):
    """Bounded in-memory ring of the most recent ``capacity`` events.

    Events are stamped with ``ts`` (seconds since construction, same
    clock as :class:`~repro.obs.trace.JsonlTraceRecorder`), coerced to
    plain JSON types at emit time, and tagged with the active span id —
    so a ring dump is a valid trace for every post-processing tool
    (``summarize_trace``, :func:`~repro.obs.chrome.chrome_trace`).
    ``n_events`` counts everything ever emitted; the ring holds the tail.

    Thread-safe: the daemon's handler threads, updater thread and
    resource sampler all emit into one instance.
    """

    def __init__(self, capacity: int = 2048, *, probes: bool = False):
        from repro.utils.validation import check_positive_int

        self.capacity = check_positive_int(capacity, "capacity")
        self.probes = bool(probes)
        self._ring: deque[dict] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._opened = time.perf_counter()
        self.n_events = 0

    def emit(self, event: str, **fields) -> None:
        record = {"event": event, "ts": time.perf_counter() - self._opened}
        ctx = current_span()
        if ctx is not None and "span_id" not in fields:
            record["span_id"] = ctx.span_id
        record.update(_jsonable(fields))
        with self._lock:
            self._ring.append(record)
            self.n_events += 1

    def events(self, last: int | None = None) -> list[dict]:
        """A snapshot of the ring (oldest first), optionally the tail.

        ``last`` limits the result to the ``last`` most recent events;
        ``None`` or anything >= the ring size returns everything held.
        """
        with self._lock:
            records = list(self._ring)
        if last is not None and last >= 0:
            records = records[len(records) - min(last, len(records)) :]
        return records


class ResourceSampler:
    """Daemon thread emitting periodic ``resource_sample`` events.

    Samples :func:`sample_process_stats` into ``recorder`` every
    ``interval`` seconds.  ``start`` takes one baseline sample before it
    returns, so even short-lived runs (and a ring read right after
    start) hold one.  ``start``/``stop`` are
    idempotent; ``stop`` joins the thread.  Usable as a context manager.
    """

    def __init__(self, recorder: Recorder, *, interval: float = 1.0):
        from repro.errors import ValidationError

        self.recorder = recorder
        self.interval = float(interval)
        if not self.interval > 0:
            raise ValidationError(f"interval must be > 0, got {interval!r}")
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.n_samples = 0

    def start(self) -> "ResourceSampler":
        """Start the sampler thread (no-op when already running)."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._sample()
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def _sample(self) -> None:
        if self.recorder.enabled:
            self.recorder.emit("resource_sample", **sample_process_stats())
            self.n_samples += 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def stop(self) -> None:
        """Stop and join the sampler thread (no-op when not running)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
