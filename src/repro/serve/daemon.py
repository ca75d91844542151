"""The long-lived prediction daemon: stdlib HTTP over snapshot swaps.

:class:`PredictionDaemon` wraps a fitted
:class:`~repro.stream.StreamingSession` in a threaded
``http.server`` front end:

* **Readers** (one thread per connection via
  ``ThreadingHTTPServer``) answer ``/classify``, ``/topk``,
  ``/relations``, ``/metrics`` and ``/healthz`` from the current
  :class:`~repro.serve.snapshot.Snapshot` — an immutable object they
  load with a single reference read, so no reader ever blocks on (or
  observes) an in-flight update.
* **One updater thread** owns the streaming session exclusively.  Delta
  batches accepted by ``POST /update`` are queued to it; for each batch
  it journals the deltas (when a journal path is configured), applies
  them (operator patch + warm reconverge, optionally under a
  :mod:`repro.solvers` accelerator), builds a fresh snapshot and
  installs it with one atomic assignment
  (:meth:`~repro.serve.handlers.ServingState.swap`).

What a ``202`` promises
-----------------------
``POST /update`` answers ``202`` with a ticket once the batch is
validated and queued — not yet journaled or applied.  Batches are
applied in ticket order, and the updater appends each one to the
journal with :meth:`~repro.stream.DeltaLog.append_batch` (deltas,
commit marker, ``fsync``) *before* it touches the model.  So:

* every snapshot the daemon has served is covered by the journal: the
  batches behind snapshot version ``v`` are the journal's first ``v``
  committed batches (counting from the daemon's start);
* a crash loses only queued batches and at most the one batch being
  written; ``DeltaLog.load(journal, recover=True)`` returns exactly
  the committed batches, and replaying them on the seed graph rebuilds
  the graph the daemon had reached (or was about to reach);
* a ticket's batch is durable at the latest when the served snapshot
  version (``tmark_updates_applied_total`` on ``/metrics``) reaches the
  ticket number; ``flush()`` waits for that in process;
* a batch the updater fails to apply is already journaled; the updater
  stops there and refuses later ``/update`` calls.

An existing journal is extended, not replaced, and must end at a batch
boundary (see :meth:`~repro.stream.DeltaLog.append_batch`).

The daemon binds ``port=0`` to a free ephemeral port by default, which
is what the tests and the serving benchmark use.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ValidationError
from repro.obs.flight import ResourceSampler
from repro.obs.spans import span
from repro.serve import handlers as h
from repro.serve.snapshot import Snapshot
from repro.stream.delta import as_batch
from repro.stream.journal import DeltaLog

#: Sentinel queued to shut the updater thread down.
_STOP = object()


class PredictionDaemon:
    """Serve a fitted streaming session over HTTP with snapshot swaps.

    Parameters
    ----------
    session:
        A :class:`~repro.stream.StreamingSession` that has already been
        fitted (``session.result`` is not ``None``).
    host, port:
        Bind address; ``port=0`` picks a free ephemeral port.
    solver:
        Optional :mod:`repro.solvers` solver name used for every
        background reconvergence.
    journal:
        Optional path of a :class:`~repro.stream.DeltaLog` journal;
        each accepted batch is appended and ``fsync``-ed there *before*
        the model is updated, so a crash mid-reconverge loses no
        applied deltas (see "What a ``202`` promises" above).
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` backing
        ``/metrics`` (a fresh one by default).
    flight_capacity:
        Ring size of the always-on
        :class:`~repro.obs.flight.FlightRecorder` behind
        ``GET /debug/trace``.
    slow_request_seconds:
        Threshold for the stderr slow-request log (``None`` disables).
    sample_interval:
        Period of the background resource sampler emitting
        ``resource_sample`` events into the flight ring (``None``
        disables sampling).

    Examples
    --------
    >>> from repro.datasets import make_worked_example
    >>> from repro.stream import StreamingSession
    >>> session = StreamingSession(make_worked_example())
    >>> _ = session.fit()
    >>> daemon = PredictionDaemon(session)
    >>> daemon.start()
    >>> daemon.url.startswith("http://127.0.0.1:")
    True
    >>> daemon.stop()
    """

    def __init__(
        self,
        session,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        solver: str | None = None,
        journal=None,
        registry=None,
        flight_capacity: int = 2048,
        slow_request_seconds: float | None = 1.0,
        sample_interval: float | None = 1.0,
    ):
        if session.result is None:
            raise ValidationError(
                "session has no fitted result; call session.fit() before serving"
            )
        self._session = session
        self._solver = solver
        self._journal_path = journal
        self.state = h.ServingState(
            Snapshot.from_session(session, version=0),
            registry=registry,
            enqueue_update=self._enqueue,
            flight_capacity=flight_capacity,
            slow_request_seconds=slow_request_seconds,
        )
        self._sampler = (
            ResourceSampler(self.state.recorder, interval=sample_interval)
            if sample_interval is not None
            else None
        )
        self._queue: queue.Queue = queue.Queue()
        self._tickets = 0
        self._applied = 0
        self._update_error: str | None = None
        self._server = ThreadingHTTPServer(
            (host, port), _make_handler(self.state), bind_and_activate=True
        )
        self._server.daemon_threads = True
        self._http_thread: threading.Thread | None = None
        self._updater_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The bound interface address."""
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved even when constructed with port=0)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    @property
    def applied_updates(self) -> int:
        """Number of delta batches the updater thread has applied."""
        return self._applied

    def start(self) -> "PredictionDaemon":
        """Start the HTTP listener and the background updater thread."""
        if self._http_thread is not None:
            return self
        self._updater_thread = threading.Thread(
            target=self._updater_loop, name="tmark-updater", daemon=True
        )
        self._updater_thread.start()
        self._http_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="tmark-http",
            daemon=True,
        )
        self._http_thread.start()
        if self._sampler is not None:
            self._sampler.start()
        return self

    def stop(self, *, timeout: float = 5.0) -> None:
        """Shut the listener down and drain the updater thread."""
        if self._sampler is not None:
            self._sampler.stop()
        if self._updater_thread is not None:
            self._queue.put(_STOP)
            self._updater_thread.join(timeout=timeout)
            self._updater_thread = None
        self._server.shutdown()
        self._server.server_close()
        self._http_thread = None

    def flush(self, *, timeout: float = 30.0) -> None:
        """Block until every queued update has been applied and swapped.

        Raises ``RuntimeError`` with the remote traceback summary when
        the updater thread died on a queued batch.
        """
        deadline = time.monotonic() + timeout
        while self._applied + (1 if self._update_error else 0) < self._tickets:
            if self._update_error:
                break
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"{self._tickets - self._applied} update(s) still pending "
                    f"after {timeout}s"
                )
            time.sleep(0.005)
        if self._update_error:
            raise RuntimeError(f"updater thread failed: {self._update_error}")

    # ------------------------------------------------------------------
    # Update pipeline (updater thread owns the session)
    # ------------------------------------------------------------------
    def _enqueue(self, deltas) -> int:
        """Handler hook: queue one validated batch, return its ticket."""
        if self._update_error:
            raise ValidationError(
                f"updater thread is down: {self._update_error}"
            )
        self._tickets += 1
        ticket = self._tickets
        self._queue.put((ticket, as_batch(deltas)))
        self.state.registry.gauge("tmark_update_queue_depth").set(
            self._tickets - self._applied
        )
        return ticket

    def _updater_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            ticket, batch = item
            try:
                self._apply_one(ticket, batch)
            except Exception as exc:  # noqa: BLE001 — surfaced via flush()/update 503s
                self._update_error = f"{type(exc).__name__}: {exc}"
                self.state.registry.counter("tmark_update_failures_total").inc()
                return

    def _apply_one(self, ticket: int, batch) -> None:
        started = time.perf_counter()
        rec = self.state.recorder
        # The update span roots this batch's causal tree: apply_deltas /
        # reconverge spans and their chain events nest under it in the
        # flight ring.  The session recorder also folds delta_apply /
        # reconverge events into the /metrics registry.
        with span("update", recorder=rec, ticket=ticket, n_deltas=len(batch)):
            # Journal first: an applied batch survives a crash mid-update.
            if self._journal_path is not None:
                DeltaLog.append_batch(self._journal_path, batch)
            update = self._session.apply(batch, solver=self._solver, recorder=rec)
            snapshot = Snapshot.from_session(
                self._session, version=self.state.snapshot.version + 1
            )
        self._applied += 1
        self.state.swap(
            snapshot,
            build_seconds=time.perf_counter() - started,
            reconverge_seconds=update.fit_seconds,
        )
        registry = self.state.registry
        registry.counter("tmark_updates_applied_total").inc()
        registry.gauge("tmark_update_queue_depth").set(
            self._tickets - self._applied
        )
        if not update.converged:
            registry.counter("tmark_unconverged_reconverges_total").inc()


def _make_handler(state: h.ServingState):
    """Build the request-handler class bound to one ``ServingState``."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # http.server writes responses unbuffered line-by-line; without
        # TCP_NODELAY the Nagle / delayed-ACK interaction adds ~40 ms to
        # every keep-alive request on loopback.
        disable_nagle_algorithm = True
        # Quiet by default: per-request stderr logging would dominate
        # the serving benchmark.
        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        # -- plumbing ---------------------------------------------------
        def _reply(
            self,
            endpoint: str,
            started: float,
            status: int,
            body,
            *,
            request_id: str | None = None,
        ) -> None:
            if isinstance(body, str):
                raw = body.encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            else:
                if request_id is not None and isinstance(body, dict):
                    body = {**body, "request_id": request_id}
                raw = json.dumps(body).encode("utf-8")
                content_type = "application/json"
            # Observe before flushing the response: a client holding its
            # reply is then guaranteed to find the matching
            # ``http_request`` event in a /debug/trace dump.
            state.observe_request(
                endpoint,
                time.perf_counter() - started,
                status,
                request_id=request_id,
            )
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            if request_id is not None:
                self.send_header("X-Request-Id", request_id)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

        def _read_json(self):
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return None
            try:
                return json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                return None

        # -- routing ----------------------------------------------------
        def _route(self, method: str, url) -> tuple[int, object]:
            if method == "GET":
                params = dict(parse_qsl(url.query))
                if url.path == "/healthz":
                    return h.handle_healthz(state)
                if url.path == "/metrics":
                    return h.handle_metrics(state)
                if url.path == "/topk":
                    return h.handle_topk(state, params)
                if url.path == "/relations":
                    return h.handle_relations(state, params)
                if url.path == "/debug/trace":
                    return h.handle_debug_trace(state, params)
                if url.path == "/debug/vars":
                    return h.handle_debug_vars(state)
                return 404, {"error": f"no such endpoint: {url.path}"}
            payload = self._read_json()
            if payload is None:
                return 400, {"error": "body must be JSON"}
            if url.path == "/classify":
                return h.handle_classify(state, payload)
            if url.path == "/update":
                try:
                    return h.handle_update(state, payload)
                except ValidationError as exc:
                    return 503, {"error": str(exc)}
            return 404, {"error": f"no such endpoint: {url.path}"}

        def _serve_one(self, method: str) -> None:
            started = time.perf_counter()
            url = urlsplit(self.path)
            # One span per request on this handler thread; its span_id
            # is the request id echoed to the client (X-Request-Id
            # header + "request_id" body field).
            with span(
                "request",
                recorder=state.recorder,
                endpoint=url.path,
                method=method,
            ) as ctx:
                status, body = self._route(method, url)
            self._reply(
                url.path,
                started,
                status,
                body,
                request_id=ctx.span_id if ctx is not None else None,
            )

        def do_GET(self):  # noqa: N802 - stdlib naming
            self._serve_one("GET")

        def do_POST(self):  # noqa: N802 - stdlib naming
            self._serve_one("POST")

    return Handler


def serve_forever(daemon: PredictionDaemon, *, max_seconds: float | None = None) -> None:
    """Run a started daemon until interrupted (the CLI's main loop).

    ``max_seconds`` bounds the run (smoke tests self-terminate with
    it); a dead updater thread raises so the process exits non-zero
    instead of silently refusing updates.
    """
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    try:
        while deadline is None or time.monotonic() < deadline:
            time.sleep(0.2)
            if daemon._update_error:
                raise RuntimeError(
                    f"updater thread failed: {daemon._update_error}"
                )
    except KeyboardInterrupt:
        pass
    finally:
        daemon.stop()


def run_serve_cli(args) -> int:
    """Back the ``python -m repro.experiments serve`` subcommand.

    Exit codes match the ``stream`` CLI vocabulary: 0 on a clean
    shutdown, 4 when the background updater died (the serving analogue
    of an unhealthy reconvergence), 5 for unreadable ``--hin`` /
    ``--result`` inputs.
    """
    from repro.experiments.streaming import (
        EXIT_UNHEALTHY,
        EXIT_UNREADABLE,
        build_streaming_session,
    )

    try:
        session = build_streaming_session(
            hin_path=args.hin,
            result_path=args.result,
            scale=args.scale,
            seed=args.seed,
            solver=args.solver,
        )
    except ValidationError as exc:
        print(f"error: {exc}")
        return EXIT_UNREADABLE
    daemon = PredictionDaemon(
        session,
        host=args.host,
        port=args.port,
        solver=args.solver,
        journal=args.journal,
    ).start()
    snapshot = daemon.state.snapshot
    print(
        f"[serving {snapshot.n_nodes} nodes x {len(snapshot.label_names)} "
        f"classes on {daemon.url}]",
        flush=True,
    )
    print(
        "[endpoints: POST /classify, POST /update, GET /topk, "
        "GET /relations, GET /metrics, GET /healthz, "
        "GET /debug/trace, GET /debug/vars]",
        flush=True,
    )
    if args.journal:
        print(f"[journaling accepted updates -> {args.journal}]", flush=True)
    try:
        serve_forever(daemon, max_seconds=args.max_seconds)
    except RuntimeError as exc:
        print(f"error: {exc}")
        return EXIT_UNHEALTHY
    return 0
