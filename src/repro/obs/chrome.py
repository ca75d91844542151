"""Chrome Trace Event / Perfetto export for JSONL traces and ring dumps.

Converts a list of trace events (from :func:`~repro.obs.trace.read_trace`
or :meth:`~repro.obs.flight.FlightRecorder.events`) into the Chrome
trace-event JSON object format, which ``ui.perfetto.dev`` and
``chrome://tracing`` open directly.  The mapping:

* ``span`` events become complete (``"ph": "X"``) slices on the
  ``(pid, tid)`` track they were emitted from; their interval is
  ``[ts - seconds, ts]`` because spans stamp ``ts`` at close.
* Flat events with recognized duration fields (``fit``, ``reconverge``,
  ``operator_build``, ``grid_cell``, ...) become slices too, placed on
  the track of the deepest span whose interval contains them — this is
  what reassembles the fit → phase → chunk hierarchy visually.
* ``chain_iteration`` events expand into an ``iteration`` slice with one
  child slice per chain phase (phases are laid out sequentially in
  :data:`~repro.obs.recorder.CHAIN_PHASES` order; only their summed
  durations are recorded, not their start offsets), then a ``solver``
  slice for the accelerated fits' ``solver_seconds``.
* ``resource_sample`` events become counter (``"ph": "C"``) tracks for
  RSS, CPU time and GC collections.
* Everything else becomes an instant (``"ph": "i"``) marker.

Timestamps are microseconds on the recorder's monotonic clock.  Worker
events replayed through the coordinator recorder keep their own ``pid``
(so each worker gets its own process lane) but carry replay-time
timestamps — durations are exact, placement is approximate.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.recorder import CHAIN_PHASES, read_iteration

#: Flat (non-span) events whose named fields sum to a duration in
#: seconds; the event's interval is taken as ``[ts - duration, ts]``.
DURATION_FIELDS = {
    "fit": ("seconds",),
    "trial": ("seconds",),
    "grid_cell": ("seconds",),
    "reconverge": ("seconds",),
    "delta_apply": ("seconds",),
    "operator_patch": ("seconds",),
    "cell_done": ("seconds",),
    "http_request": ("seconds",),
    "snapshot_swap": ("seconds",),
    # Stamped after the W build: the O/R build, then the W build.
    "operator_build": ("transition_seconds", "feature_seconds"),
}

_MICRO = 1e6


def _slice_name(event: dict) -> str:
    """A compact display name for a flat event's slice."""
    kind = event["event"]
    if kind == "operator_build" and "operator" in event:
        chunk = event.get("chunk")
        suffix = "" if chunk is None else f"#{chunk}"
        return f"operator_build[{event['operator']}{event.get('relation', '')}{suffix}]"
    if kind == "grid_cell":
        return f"grid_cell {event.get('method', '?')}@{event.get('fraction', '?')}"
    if kind == "http_request":
        return f"http {event.get('endpoint', '?')}"
    return kind


def _track_of(event: dict, spans: list[dict], main_pid: int) -> tuple[int, int]:
    """The ``(pid, tid)`` lane a flat event belongs on.

    Events carrying explicit ``pid``/``tid`` keep them; otherwise the
    deepest (shortest) span on the same pid whose interval contains the
    event's timestamp donates its tid, falling back to tid 0.
    """
    pid = int(event.get("pid", event.get("worker", main_pid)))
    if "tid" in event:
        return pid, int(event["tid"])
    ts = float(event.get("ts", 0.0))
    best_tid, best_dur = 0, None
    for rec in spans:
        if int(rec.get("pid", main_pid)) != pid:
            continue
        dur = float(rec.get("seconds", 0.0))
        end = float(rec.get("ts", 0.0))
        if end - dur <= ts <= end and (best_dur is None or dur < best_dur):
            best_tid, best_dur = int(rec.get("tid", 0)), dur
    return pid, best_tid


def chrome_trace(events: list[dict]) -> dict:
    """Convert trace ``events`` to a Chrome trace-event JSON object.

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` ready
    for :func:`json.dump`; see the module docstring for the mapping.
    """
    spans = [e for e in events if e.get("event") == "span"]
    pids_seen: set[int] = set()
    main_pid = 0
    for rec in spans:
        if "worker" not in rec and "pid" in rec:
            main_pid = int(rec["pid"])
            break
    out: list[dict] = []

    def args_of(event: dict) -> dict:
        return {
            k: v for k, v in event.items() if k not in ("event", "ts") and v is not None
        }

    for event in events:
        kind = event.get("event")
        if kind is None:
            continue
        ts = float(event.get("ts", 0.0))
        if kind == "span":
            dur = max(float(event.get("seconds", 0.0)), 0.0)
            pid = int(event.get("pid", main_pid))
            tid = int(event.get("tid", 0))
            pids_seen.add(pid)
            out.append(
                {
                    "ph": "X",
                    "name": str(event.get("name", "span")),
                    "cat": "span",
                    "ts": (ts - dur) * _MICRO,
                    "dur": dur * _MICRO,
                    "pid": pid,
                    "tid": tid,
                    "args": args_of(event),
                }
            )
            continue
        pid, tid = _track_of(event, spans, main_pid)
        pids_seen.add(pid)
        if kind == "resource_sample":
            out.extend(
                {
                    "ph": "C",
                    "name": name,
                    "ts": ts * _MICRO,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
                for name, args in (
                    ("memory", {"rss_mb": float(event.get("rss_bytes", 0)) / 1e6}),
                    (
                        "cpu_seconds",
                        {
                            "user": float(event.get("cpu_user_seconds", 0.0)),
                            "system": float(event.get("cpu_system_seconds", 0.0)),
                        },
                    ),
                    (
                        "gc_collections",
                        {"total": float(event.get("gc_collections", 0))},
                    ),
                )
            )
            continue
        if kind == "chain_iteration":
            iteration = read_iteration(event)
            phases = iteration.phases
            slices = [
                (name, "phase", phases[name])
                for name in (*CHAIN_PHASES, *sorted(set(phases) - set(CHAIN_PHASES)))
                if phases.get(name, 0.0) > 0.0
            ]
            # The solver block runs outside the phase clock; its slice
            # closes the iteration.
            if iteration.solver_seconds > 0.0:
                slices.append(("solver", "solver", iteration.solver_seconds))
            total = sum(dur for _, _, dur in slices)
            start = ts - total
            out.append(
                {
                    "ph": "X",
                    "name": f"iteration {'?' if iteration.t is None else iteration.t}",
                    "cat": "chain",
                    "ts": start * _MICRO,
                    "dur": total * _MICRO,
                    "pid": pid,
                    "tid": tid,
                    "args": args_of(event),
                }
            )
            cursor = start
            for name, cat, dur in slices:
                out.append(
                    {
                        "ph": "X",
                        "name": name,
                        "cat": cat,
                        "ts": cursor * _MICRO,
                        "dur": dur * _MICRO,
                        "pid": pid,
                        "tid": tid,
                        "args": {},
                    }
                )
                cursor += dur
            continue
        dur_fields = DURATION_FIELDS.get(kind)
        if dur_fields is not None and all(event.get(f) is not None for f in dur_fields):
            dur = max(sum(float(event[f]) for f in dur_fields), 0.0)
            out.append(
                {
                    "ph": "X",
                    "name": _slice_name(event),
                    "cat": kind,
                    "ts": (ts - dur) * _MICRO,
                    "dur": dur * _MICRO,
                    "pid": pid,
                    "tid": tid,
                    "args": args_of(event),
                }
            )
            continue
        out.append(
            {
                "ph": "i",
                "name": kind,
                "cat": kind,
                "ts": ts * _MICRO,
                "pid": pid,
                "tid": tid,
                "s": "t",
                "args": args_of(event),
            }
        )

    metadata = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {"name": "tmark" if pid == main_pid else f"worker {pid}"},
        }
        for pid in sorted(pids_seen)
    ]
    return {"traceEvents": metadata + out, "displayTimeUnit": "ms"}


def write_chrome_trace(events: list[dict], path) -> Path:
    """Write :func:`chrome_trace` of ``events`` to ``path`` (gz-aware)."""
    path = Path(path)
    payload = chrome_trace(events)
    if path.suffix == ".gz":
        import gzip

        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return path
