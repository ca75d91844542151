"""Pure request handlers for the prediction daemon.

Every endpoint is a plain function ``(state, ...) -> (status, body)``
with no HTTP plumbing: the daemon translates paths and payloads in,
status codes and JSON (or Prometheus text) out, and the tests hit the
handlers directly.  ``body`` is a JSON-serialisable dict for every
endpoint except ``/metrics``, whose body is the Prometheus exposition
string.

:class:`ServingState` is the one mutable cell the handlers share: the
*current snapshot reference* (installed by atomic assignment — see
:meth:`ServingState.swap`), the metrics registry behind ``/metrics``,
and the update-queue hook the daemon wires in.  Handlers read
``state.snapshot`` exactly once per request and answer entirely from
that object, so a concurrent swap can never produce a torn response.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.errors import ValidationError
from repro.obs.flight import FlightRecorder, sample_process_stats
from repro.obs.metrics import MetricsRecorder, MetricsRegistry
from repro.serve.snapshot import Snapshot
from repro.stream.delta import GraphDelta

#: Hard cap on nodes per /classify request (keeps one bad client from
#: pinning a reader thread on a giant response).
MAX_BATCH = 10_000


class ServingState:
    """Shared state of a running daemon: snapshot ref + metrics + queue.

    ``snapshot`` is a plain attribute — reading it is a single atomic
    reference load, and :meth:`swap` replaces it with a single atomic
    store, so readers never need a lock.  ``enqueue_update`` is
    installed by the daemon; handlers never touch the streaming session
    directly (the background updater thread owns it exclusively).
    """

    def __init__(
        self,
        snapshot: Snapshot,
        *,
        registry: MetricsRegistry | None = None,
        enqueue_update=None,
        flight_capacity: int = 2048,
        slow_request_seconds: float | None = 1.0,
    ):
        if not isinstance(snapshot, Snapshot):
            raise ValidationError(
                f"expected a Snapshot, got {type(snapshot).__name__}"
            )
        if slow_request_seconds is not None and not slow_request_seconds > 0:
            raise ValidationError(
                f"slow_request_seconds must be > 0 or None, "
                f"got {slow_request_seconds!r}"
            )
        self.snapshot = snapshot
        self.registry = MetricsRegistry() if registry is None else registry
        self.enqueue_update = enqueue_update
        self.started = time.time()
        self.last_swap = self.started
        self.last_reconverge_seconds: float | None = None
        self.slow_request_seconds = slow_request_seconds
        # Always-on bounded telemetry: every event folds into the
        # registry *and* lands in the flight ring served by /debug/trace.
        self.flight = FlightRecorder(flight_capacity)
        self._recorder = MetricsRecorder(self.registry, forward=self.flight)
        self._swap_lock = threading.Lock()
        self.registry.gauge("tmark_snapshot_version").set(snapshot.version)
        self.registry.gauge("tmark_snapshot_nodes").set(snapshot.n_nodes)

    @property
    def recorder(self) -> MetricsRecorder:
        """The daemon-wide recorder chain (registry fold -> flight ring).

        The updater thread passes this into ``session.apply`` and the
        handler threads open their per-request spans on it, so serving
        telemetry is causally linked in one stream.
        """
        return self._recorder

    def swap(
        self,
        snapshot: Snapshot,
        *,
        build_seconds: float = 0.0,
        reconverge_seconds: float | None = None,
    ) -> None:
        """Install a new snapshot (atomic reference assignment).

        The lock serialises *writers* only (there is normally exactly
        one — the updater thread); readers keep loading the attribute
        lock-free.  ``reconverge_seconds`` records the producing refit's
        wall clock for ``/healthz`` staleness reporting.
        """
        with self._swap_lock:
            self.snapshot = snapshot
            self.last_swap = time.time()
            if reconverge_seconds is not None:
                self.last_reconverge_seconds = float(reconverge_seconds)
            self._recorder.emit(
                "snapshot_swap", version=snapshot.version, seconds=build_seconds
            )
            self.registry.gauge("tmark_snapshot_nodes").set(snapshot.n_nodes)

    def observe_request(
        self,
        endpoint: str,
        seconds: float,
        status: int,
        *,
        request_id: str | None = None,
    ) -> None:
        """Fold one served request into the metrics registry and ring.

        Requests slower than ``slow_request_seconds`` are additionally
        logged to stderr (with their id, so the line correlates with the
        client's response) and counted as ``tmark_slow_requests_total``.
        """
        fields = {"endpoint": endpoint, "seconds": seconds, "status": status}
        if request_id is not None:
            fields["request_id"] = request_id
        self._recorder.emit("http_request", **fields)
        if (
            self.slow_request_seconds is not None
            and seconds >= self.slow_request_seconds
        ):
            self.registry.counter("tmark_slow_requests_total").inc()
            print(
                f"[slow-request] {endpoint} took {seconds:.3f}s "
                f"(threshold {self.slow_request_seconds:g}s, status {status}"
                + (f", request_id {request_id})" if request_id else ")"),
                file=sys.stderr,
                flush=True,
            )


# ----------------------------------------------------------------------
# Endpoint handlers
# ----------------------------------------------------------------------
def handle_classify(state: ServingState, payload) -> tuple[int, dict]:
    """``POST /classify`` — batched node ids to per-class confidences.

    Payload: ``{"nodes": ["name", ...]}``.  Responds 200 with one entry
    per requested node, 400 on a malformed payload, 404 when any node
    is unknown to the current snapshot.
    """
    snapshot = state.snapshot
    if not isinstance(payload, dict) or "nodes" not in payload:
        return 400, {"error": 'payload must be {"nodes": [...]}'}
    nodes = payload["nodes"]
    if isinstance(nodes, str) or not isinstance(nodes, (list, tuple)):
        return 400, {"error": '"nodes" must be a list of node names'}
    if not nodes:
        return 400, {"error": '"nodes" must not be empty'}
    if len(nodes) > MAX_BATCH:
        return 400, {"error": f"at most {MAX_BATCH} nodes per request"}
    try:
        results = snapshot.classify(nodes)
    except ValidationError as exc:
        return 404, {"error": str(exc), "snapshot_version": snapshot.version}
    return 200, {"snapshot_version": snapshot.version, "results": results}


def handle_topk(state: ServingState, params) -> tuple[int, dict]:
    """``GET /topk?label=L&k=K`` — the K best candidates for class L."""
    snapshot = state.snapshot
    label = params.get("label")
    if label is None:
        return 400, {"error": "missing required parameter: label"}
    try:
        k = int(params.get("k", 10))
    except (TypeError, ValueError):
        return 400, {"error": f"k must be an integer, got {params.get('k')!r}"}
    try:
        results = snapshot.topk(label, k)
    except ValidationError as exc:
        status = 404 if "unknown label" in str(exc) else 400
        return status, {"error": str(exc), "snapshot_version": snapshot.version}
    return 200, {
        "snapshot_version": snapshot.version,
        "label": label,
        "k": len(results),
        "results": results,
    }


def handle_relations(state: ServingState, params) -> tuple[int, dict]:
    """``GET /relations?label=L`` — stationary relation weights ``z``."""
    snapshot = state.snapshot
    label = params.get("label")
    if label is None:
        return 400, {"error": "missing required parameter: label"}
    try:
        results = snapshot.relations(label)
    except ValidationError as exc:
        return 404, {"error": str(exc), "snapshot_version": snapshot.version}
    return 200, {
        "snapshot_version": snapshot.version,
        "label": label,
        "relations": results,
    }


def handle_metrics(state: ServingState) -> tuple[int, str]:
    """``GET /metrics`` — Prometheus text exposition of the registry."""
    return 200, state.registry.to_prometheus()


def handle_healthz(state: ServingState) -> tuple[int, dict]:
    """``GET /healthz`` — readiness from the snapshot's chain health.

    200 when every chain of the producing fit is ``healthy``; 503
    otherwise (mirroring the ``health`` CLI's exit-4 semantics), with
    the per-class verdicts in the body either way.

    ``snapshot_age_seconds`` (time since the served snapshot was
    installed) and ``last_reconverge_seconds`` (wall clock of the refit
    that produced it; ``None`` before the first update) let probes alert
    on *staleness* — a daemon whose updater silently stopped swapping
    still answers 200 here, but its age keeps growing.
    """
    snapshot = state.snapshot
    body = {
        "status": "ready" if snapshot.ready else "unhealthy",
        "worst_health": snapshot.worst_health,
        "health": dict(snapshot.health),
        "snapshot_version": snapshot.version,
        "n_nodes": snapshot.n_nodes,
        "uptime_seconds": time.time() - state.started,
        "snapshot_age_seconds": time.time() - state.last_swap,
        "last_reconverge_seconds": state.last_reconverge_seconds,
    }
    return (200 if snapshot.ready else 503), body


def handle_debug_trace(state: ServingState, params) -> tuple[int, dict]:
    """``GET /debug/trace?last=N`` — dump the flight-recorder ring.

    Returns the most recent events (all of the ring by default, the
    ``last`` newest with the parameter) as trace-event dicts: the same
    schema a ``--trace`` JSONL file holds, so the dump feeds directly
    into ``trace-summary`` / ``obs export --chrome`` (the ``obs
    flight`` CLI wraps exactly that).
    """
    last = params.get("last")
    if last is not None:
        try:
            last = int(last)
        except (TypeError, ValueError):
            return 400, {"error": f"last must be an integer, got {last!r}"}
        if last < 0:
            return 400, {"error": f"last must be >= 0, got {last}"}
    events = state.flight.events(last)
    return 200, {
        "snapshot_version": state.snapshot.version,
        "capacity": state.flight.capacity,
        "total_events": state.flight.n_events,
        "n_events": len(events),
        "events": events,
    }


def handle_debug_vars(state: ServingState) -> tuple[int, dict]:
    """``GET /debug/vars`` — live process and serving internals.

    Process stats (RSS, CPU, GC, threads) sampled on demand plus the
    serving-side gauges a quick ``curl`` diagnosis wants: snapshot
    version/age, the last reconverge wall clock, and how much of the
    flight ring is populated.
    """
    snapshot = state.snapshot
    now = time.time()
    body = dict(sample_process_stats())
    body.update(
        {
            "uptime_seconds": now - state.started,
            "snapshot_version": snapshot.version,
            "snapshot_age_seconds": now - state.last_swap,
            "last_reconverge_seconds": state.last_reconverge_seconds,
            "n_nodes": snapshot.n_nodes,
            "flight_capacity": state.flight.capacity,
            "flight_total_events": state.flight.n_events,
        }
    )
    return 200, body


def handle_update(state: ServingState, payload) -> tuple[int, dict]:
    """``POST /update`` — enqueue a delta batch for background reconverge.

    Payload: ``{"deltas": [<GraphDelta.to_dict() payload>, ...]}``.
    Deltas are validated here (400 on the first malformed one) and
    handed to the daemon's updater thread, which appends them to the
    journal (:meth:`~repro.stream.DeltaLog.append_batch`), reconverges,
    and swaps in the new snapshot.  Responds 202: the update is
    *accepted*, not yet durable or visible — poll ``snapshot_version``
    to observe the swap (see :mod:`repro.serve.daemon`).
    """
    if state.enqueue_update is None:
        return 503, {"error": "daemon is not accepting updates"}
    if not isinstance(payload, dict) or "deltas" not in payload:
        return 400, {"error": 'payload must be {"deltas": [...]}'}
    raw = payload["deltas"]
    if not isinstance(raw, (list, tuple)) or not raw:
        return 400, {"error": '"deltas" must be a non-empty list'}
    try:
        deltas = [GraphDelta.from_dict(entry) for entry in raw]
    except (ValidationError, TypeError, KeyError) as exc:
        return 400, {"error": f"bad delta payload: {exc}"}
    ticket = state.enqueue_update(deltas)
    state.registry.counter("tmark_updates_accepted_total").inc()
    state.registry.counter("tmark_update_deltas_total").inc(len(deltas))
    return 202, {
        "accepted": len(deltas),
        "ticket": ticket,
        "snapshot_version": state.snapshot.version,
    }
