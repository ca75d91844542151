"""The long-lived prediction daemon: HTTP over snapshot swaps.

:class:`PredictionDaemon` wraps a fitted
:class:`~repro.stream.StreamingSession` in a threaded stdlib
``http.server`` front end.  Request bodies are decoded by the stdlib
``json`` module; every JSON reply is encoded by :func:`encode_json`
(``orjson``: compact bytes, shortest round-trip floats, ``null`` for a
non-finite float).

* **Readers** (one thread per connection via
  ``ThreadingHTTPServer``) answer ``/classify``, ``/topk``,
  ``/relations``, ``/metrics`` and ``/healthz`` from the current
  :class:`~repro.serve.snapshot.Snapshot` — an immutable object they
  load with a single reference read, so no reader ever blocks on (or
  observes) an in-flight update.
* **One updater thread** owns the streaming session exclusively.  Delta
  batches accepted by ``POST /update`` are queued to it; for each batch
  it journals the deltas (when a journal path is configured), applies
  them (operator patch + warm reconverge under the session model's
  solver), builds a fresh snapshot and
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
  committed batches;
* a crash loses only queued batches and at most the one batch being
  written; ``DeltaLog.load(journal, recover=True)`` returns exactly
  the committed batches, and replaying them on the seed graph rebuilds
  the graph the daemon had reached (or was about to reach);
* a ticket's batch is durable at the latest when the served snapshot
  version (``tmark_snapshot_version`` on ``/metrics``) reaches the
  ticket number; ``flush()`` waits for that in process;
* a batch the updater fails to apply is already journaled; the updater
  stops there and refuses later ``/update`` calls.

The daemon serves its session's graph as version 0, so it refuses a
journal that already holds a committed batch: extending it would list
batches the served graph never saw, and replaying the journal on the
seed graph would no longer give the served graph.  Replay such a
journal on its seed graph first (``python -m repro.experiments stream
--journal PATH --save-hin OUT``, or
:meth:`~repro.stream.DeltaLog.replay`) and serve ``OUT`` with a fresh
journal.  An existing journal without a committed
batch (a bare header) is extended.

The daemon binds ``port=0`` to a free ephemeral port by default, which
is what the tests and the serving benchmark use.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

import orjson

from repro.errors import ValidationError
from repro.obs.flight import ResourceSampler
from repro.obs.spans import span
from repro.obs.trace import _json_default
from repro.serve import handlers as h
from repro.serve.snapshot import Snapshot
from repro.solvers.base import check_solver
from repro.stream.delta import as_batch
from repro.stream.journal import DeltaLog

#: Sentinel queued to shut the updater thread down.
_STOP = object()

#: Period in seconds of the background resource sampler emitting
#: ``resource_sample`` events into the flight ring.
SAMPLE_INTERVAL = 1.0


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
        Optional :mod:`repro.solvers` solver name; when given it is
        validated and set on ``session.model`` once, here, so every
        background reconvergence runs under it.  ``None`` keeps the
        model's own solver.
    journal:
        Optional path of a :class:`~repro.stream.DeltaLog` journal;
        each accepted batch is appended and ``fsync``-ed there *before*
        the model is updated, so a crash mid-reconverge loses no
        applied deltas (see "What a ``202`` promises" above).  A
        journal that already holds a committed batch is refused with a
        :class:`~repro.errors.ValidationError`.
    slow_request_seconds:
        Threshold for the stderr slow-request log (``None`` disables).

    The ``/metrics`` registry is the daemon's own, the flight ring
    behind ``GET /debug/trace`` holds
    :data:`~repro.serve.handlers.FLIGHT_CAPACITY` events, and a
    resource sampler adds a ``resource_sample`` event to it every
    :data:`SAMPLE_INTERVAL` seconds.

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
        slow_request_seconds: float | None = 1.0,
    ):
        if session.result is None:
            raise ValidationError(
                "session has no fitted result; call session.fit() before serving"
            )
        if journal is not None:
            _check_fresh_journal(journal)
        if solver is not None:
            session.model.solver = check_solver(solver)
        self._session = session
        self._journal_path = journal
        self.state = h.ServingState(
            Snapshot.from_session(session, version=0),
            enqueue_update=self._enqueue,
            slow_request_seconds=slow_request_seconds,
        )
        self._sampler = ResourceSampler(self.state.recorder, interval=SAMPLE_INTERVAL)
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
        self._sampler.start()
        return self

    def stop(self, *, timeout: float = 5.0) -> None:
        """Shut the listener down and drain the updater thread."""
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
            update = self._session.apply(batch, recorder=rec)
            snapshot = Snapshot.from_session(
                self._session, version=self.state.snapshot.version + 1
            )
        self.state.swap(
            snapshot,
            build_seconds=time.perf_counter() - started,
            reconverge_seconds=update.fit_seconds,
        )
        # Counted after the swap, so flush() returning means swapped.
        self._applied += 1
        self.state.registry.gauge("tmark_update_queue_depth").set(
            self._tickets - self._applied
        )


def _check_fresh_journal(path) -> None:
    """Refuse a journal whose committed batches the served graph never saw."""
    if not os.path.exists(path):
        return
    with warnings.catch_warnings():
        # A torn tail is not the question here; append_batch refuses it.
        warnings.simplefilter("ignore", RuntimeWarning)
        committed = DeltaLog.load(path, recover=True).n_batches
    if committed:
        raise ValidationError(
            f"journal {path} already holds {committed} committed batch(es) "
            "that this daemon's graph has not seen; replay it on its seed "
            f"graph first with `python -m repro.experiments stream --journal "
            f"{path} --save-hin OUT` and serve OUT with a fresh journal"
        )


def encode_json(body) -> bytes:
    """Encode one response body as compact UTF-8 JSON.

    Every JSON reply goes through here.  ``orjson`` writes the shortest
    decimal that reads back as the same double, so ``json.loads`` of the
    bytes gives bit-identical floats, at a fraction of ``json.dumps``'s
    cost on a score-heavy ``/classify`` reply.  numpy scalars (events in
    the flight ring may carry them) go through the trace sink's hook,
    and a non-finite float encodes as ``null``.
    """
    return orjson.dumps(body, default=_json_default)


def _handle_update(state: h.ServingState, payload):
    """``POST /update``, answered 503 once the updater thread is down."""
    try:
        return h.handle_update(state, payload)
    except ValidationError as exc:
        return 503, {"error": str(exc)}


def _refused(state: h.ServingState, reply):
    """The endpoint of a request refused while it was read: its reply."""
    return reply


#: Endpoint function ``(state, argument) -> (status, body)`` of each
#: ``(method, path)`` the daemon serves.
_ROUTES = {
    ("GET", "/healthz"): lambda state, params: h.handle_healthz(state),
    ("GET", "/metrics"): lambda state, params: h.handle_metrics(state),
    ("GET", "/topk"): h.handle_topk,
    ("GET", "/relations"): h.handle_relations,
    ("GET", "/debug/trace"): h.handle_debug_trace,
    ("GET", "/debug/vars"): lambda state, params: h.handle_debug_vars(state),
    ("POST", "/classify"): h.handle_classify,
    ("POST", "/update"): _handle_update,
}


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

        def _content_length(self) -> int | None:
            """The request's ``Content-Length`` (0 when absent), ``None``
            when it is not a non-negative integer."""
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                return None
            return length if length >= 0 else None

        def _read_json(self, length: int):
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return None
            try:
                return json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                return None

        def _parse(self, method: str, url):
            """Read one request: ``(endpoint function, its argument)``.

            A GET's argument is its query parameters, a POST's its JSON
            body.  A request refused before any endpoint runs gets
            :func:`_refused` with its ``(status, body)``.
            """
            if method == "GET":
                argument = dict(parse_qsl(url.query))
            else:
                length = self._content_length()
                if length is None:
                    # The body's extent is unknown, so the connection
                    # cannot be reused for another request.
                    self.close_connection = True
                    return _refused, (
                        400,
                        {"error": "Content-Length must be a non-negative integer"},
                    )
                argument = self._read_json(length)
                if argument is None:
                    return _refused, (400, {"error": "body must be JSON"})
            route = _ROUTES.get((method, url.path))
            if route is None:
                return _refused, (404, {"error": f"no such endpoint: {url.path}"})
            return route, argument

        def _serve_one(self, method: str) -> None:
            url = urlsplit(self.path)
            # One span per request on this handler thread, enclosing
            # parse, endpoint and encode; its span_id is the request id
            # echoed to the client (X-Request-Id header + "request_id"
            # body field).
            with span(
                "request",
                recorder=state.recorder,
                endpoint=url.path,
                method=method,
            ) as ctx:
                started = time.perf_counter()
                request_id = ctx.span_id if ctx is not None else None
                endpoint, argument = self._parse(method, url)
                parsed = time.perf_counter()
                status, body = endpoint(state, argument)
                handled = time.perf_counter()
                if isinstance(body, str):
                    raw = body.encode("utf-8")
                    content_type = "text/plain; version=0.0.4; charset=utf-8"
                else:
                    if request_id is not None and isinstance(body, dict):
                        body = {**body, "request_id": request_id}
                    raw = encode_json(body)
                    content_type = "application/json"
                encoded = time.perf_counter()
            # Observe before flushing the response: a client holding its
            # reply is then guaranteed to find the matching
            # ``http_request`` event in a /debug/trace dump.
            state.observe_request(
                url.path,
                encoded - started,
                status,
                request_id=request_id,
                parse_seconds=parsed - started,
                handle_seconds=handled - parsed,
                encode_seconds=encoded - handled,
            )
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            if request_id is not None:
                self.send_header("X-Request-Id", request_id)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

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
    from repro.core.tmark import TMark
    from repro.experiments.streaming import (
        EXIT_UNHEALTHY,
        EXIT_UNREADABLE,
        MODEL_PARAMS,
        build_streaming_session,
    )

    try:
        session = build_streaming_session(
            hin_path=args.hin,
            result_path=args.result,
            scale=args.scale,
            seed=args.seed,
            model=TMark(**MODEL_PARAMS, solver=args.solver),
        )
    except ValidationError as exc:
        print(f"error: {exc}")
        return EXIT_UNREADABLE
    daemon = PredictionDaemon(
        session,
        host=args.host,
        port=args.port,
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
