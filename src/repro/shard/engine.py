"""The sharded chain backend: fork workers + shared buffers + fixed merge.

:class:`ShardBackend` is a :class:`~repro.core.chains.LocalBackend`
whose heavy operator products — ``O``'s relation sums, the feature walk
and ``R``'s integrands — are computed shard by shard by fork-based
workers.  The Eq. 10 mix, the dangling/unlinked closed forms and
everything the chain driver :func:`repro.core.chains.run_chains` owns
(Eq. 12 label updates, simplex projections, solver proposals, every
telemetry event) run on the coordinator with the in-process fit's own
statements.  :func:`run_chains_sharded` runs the driver over it.

Transport
---------
The iterates (``x`` / ``z`` and the fresh ``x`` halves) and the
workers' operator parts live in anonymous ``MAP_SHARED`` mmaps created
before the fork, so workers read the current iterate and write their
parts with zero serialisation.  The per-worker command pipes carry only
the round name and the active column list, and every reply is a bare
ack.  Workers cut their operator row blocks lazily *after* the fork —
each child pays for its own shards only, and the parent never holds a
second operator copy.  In-memory operators are cut once per shard and
kept; store-backed ones (:mod:`repro.ooc`) are streamed in
``chunk_size``-row blocks every round, so a worker holds one block's
pages, not its whole share.

Determinism
-----------
A worker writes complete rows of ``O``'s ``relation_sum``, of a sparse
``W @ x`` and of ``R``'s ``integrands``, running the operators' own
kernels on its rows (CSR row blocks reproduce the matching rows of the
full sparse products bit-for-bit, whatever the block size).  The
coordinator adds ``O``'s column-global dangling mass and finishes ``R``
with ``contract``, as ``propagate_many`` does.  A dense or factored
``W`` is never given to workers (BLAS does not reproduce its row blocks
bitwise), so the inherited walk runs it whole.  Scores are therefore
bit-identical for *any* shard count, including 1, in memory and store
backed alike.

A worker exception travels back over the pipe as a formatted remote
traceback and re-raises on the coordinator as :class:`WorkerError`;
a dead worker (closed pipe or exited process) raises the same, and so
does a worker that has not replied within :data:`ROUND_DEADLINE_SECONDS`
of the round's start.  The coordinator waits in :data:`POLL_SECONDS`
slices, checking each worker process between them, and terminates the
pool before the error propagates, so one stalled worker cannot hang a
fit.  On platforms without
``fork`` — or inside an existing pool worker — callers consult
:func:`repro.experiments.parallel.serial_fallback_reason` and run the
serial path instead.
"""

from __future__ import annotations

import mmap
import multiprocessing
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.chains import LocalBackend, run_chains
from repro.errors import ValidationError
from repro.experiments.parallel import WorkerError, available_workers
from repro.obs.recorder import get_recorder
from repro.obs.spans import span
from repro.shard.plan import ShardPlan, plan_shards
from repro.solvers.base import PLAIN_SOLVER
from repro.utils.validation import check_positive_int

#: Longest the coordinator waits for all of one round's replies.  A round
#: is one operator pass over a worker's rows, so this is far above any
#: healthy round; reaching it means a worker is stalled.
ROUND_DEADLINE_SECONDS = 600.0

#: Wait slice between the coordinator's worker liveness checks.
POLL_SECONDS = 0.1


def _shared_array(shape) -> np.ndarray:
    """A float64 array over an anonymous ``MAP_SHARED`` mapping.

    Created before the fork and inherited by every worker, so parent
    and children read and write the same physical pages — the zero-copy
    transport for the iterate matrices and the workers' operator parts.
    """
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(count * 8, mmap.PAGESIZE))
    return np.frombuffer(buffer, dtype=np.float64, count=count).reshape(shape)


@dataclass
class _ShardContext:
    """Everything a worker needs, inherited through the fork.

    The part buffers are indexed by node row; ``O`` / ``W`` are ``None``
    when no worker computes that product.
    """

    o_tensor: object
    r_tensor: object
    w_matrix: object
    X: np.ndarray     # (n, q) current x scores (read)
    Z: np.ndarray     # (m, q) current z scores (read)
    XNEW: np.ndarray  # (n, q) fresh x halves, the r round's input (read)
    O: np.ndarray | None  # (n, q) relation sums
    W: np.ndarray | None  # (n, q) walk rows
    R: np.ndarray  # (m + 1, n, q) integrands


class _RowWorker:
    """Worker body: the operators' kernels on its shards' rows."""

    def __init__(self, context: _ShardContext, assigned):
        self.ctx = context
        self.assigned = list(assigned)
        self.kept = {}

    def _blocks(self, name: str, operator, shard):
        """``(start, stop, rows)`` blocks covering ``shard``'s rows.

        A store-backed operator streams them ``chunk_size`` rows at a
        time; an in-memory one is cut into one block on first use and
        kept.  ``rows`` is the kernels' ``stacked=`` argument for
        ``O`` / ``R`` and the row slice of a sparse ``W``.
        """
        if hasattr(operator, "row_walk"):
            return operator.row_walk(shard.start, shard.stop)
        key = (name, shard.index)
        if key not in self.kept:
            start, stop = shard.start, shard.stop
            rows = (
                operator[start:stop]
                if sp.issparse(operator)
                else operator.row_stack(start, stop)
            )
            self.kept[key] = ((start, stop, rows),)
        return self.kept[key]

    def round_ox(self, active):
        """Rows of ``O``'s ``relation_sum`` into ``O`` and of ``W @ x`` into ``W``."""
        ctx = self.ctx
        x_act = np.ascontiguousarray(ctx.X[:, active])
        z_act = ctx.Z[:, active]
        for shard in self.assigned:
            if ctx.O is not None:
                for start, stop, rows in self._blocks("o", ctx.o_tensor, shard):
                    ctx.O[start:stop, active] = ctx.o_tensor.relation_sum(
                        x_act, z_act, rows
                    )
            if ctx.W is not None:
                for start, stop, rows in self._blocks("w", ctx.w_matrix, shard):
                    ctx.W[start:stop, active] = rows @ x_act

    def round_r(self, active):
        """Rows of the Eq. 8 integrands ``x * (B_k @ x)`` into ``R``."""
        ctx = self.ctx
        y_act = np.ascontiguousarray(ctx.XNEW[:, active])
        for shard in self.assigned:
            for start, stop, rows in self._blocks("r", ctx.r_tensor, shard):
                ctx.R[:, start:stop, active] = ctx.r_tensor.integrands(
                    y_act[start:stop], y_act, rows
                )


def _worker_main(conn, context: _ShardContext, assigned) -> None:
    """Worker loop: build blocks lazily, answer rounds until ``stop``.

    A round's reply is a bare ``("ok",)`` ack: its output is already in
    the shared part buffers.  Any exception — including a failed block
    build — is shipped back as an ``("err", type, message, traceback)``
    reply so the coordinator re-raises it as a :class:`WorkerError`
    carrying the remote frames.
    """
    worker = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message[0] == "stop":
            return
        try:
            if worker is None:
                worker = _RowWorker(context, assigned)
            if message[0] not in ("ox", "r"):
                raise ValidationError(f"unknown shard command {message[0]!r}")
            getattr(worker, f"round_{message[0]}")(message[1])
            conn.send(("ok",))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            try:
                conn.send(
                    ("err", type(exc).__name__, str(exc), traceback.format_exc())
                )
            except Exception:
                return


def _await_reply(conn, proc, what: str, deadline: float):
    """One worker's reply, polled in slices until ``deadline`` (monotonic).

    Raises :class:`WorkerError` when the worker's process has exited or
    its pipe closed without a reply, or when the deadline passes.
    """
    while True:
        remaining = deadline - time.monotonic()
        if conn.poll(min(POLL_SECONDS, max(remaining, 0.0))):
            break
        if not proc.is_alive():
            raise WorkerError(
                f"{what}: the worker exited (code {proc.exitcode}) before replying"
            )
        if remaining <= 0.0:
            raise WorkerError(
                f"{what}: no reply within {ROUND_DEADLINE_SECONDS:g} s (worker stalled)"
            )
    try:
        return conn.recv()
    except (EOFError, OSError):
        raise WorkerError(
            f"{what}: the worker died (pipe closed before replying)"
        ) from None


def _broadcast(conns, procs, message, round_no: int) -> None:
    """Send one command to every worker and wait for every ack.

    Raises :class:`WorkerError`, naming the worker and the round, on an
    error reply (remote traceback in the message), a dead worker or a
    round that outlives :data:`ROUND_DEADLINE_SECONDS`.
    """
    for conn in conns:
        conn.send(message)
    deadline = time.monotonic() + ROUND_DEADLINE_SECONDS
    for index, (conn, proc) in enumerate(zip(conns, procs)):
        what = f"shard worker {index}, round {round_no} ({message[0]!r})"
        reply = _await_reply(conn, proc, what, deadline)
        if reply[0] == "err":
            _, name, text, remote_tb = reply
            raise WorkerError(
                f"{what} failed: {name}: {text}\n"
                f"--- remote traceback ---\n{remote_tb}"
            )


class ShardBackend(LocalBackend):
    """The row-sharded fork pool as a :class:`~repro.core.chains.LocalBackend`.

    The constructor plans the shards and allocates the iterate buffers
    and the workers' part buffers as shared mmaps; entering the context
    forks the workers inside a ``shard_pool`` span and emits one
    ``shard_dispatch`` per shard, and leaving it stops and reaps them.
    Each step runs one worker round, then finishes the parts with the
    inherited statements; :meth:`end_iteration` reports the round trips
    as a ``boundary_exchange`` event.
    """

    def __init__(self, model, o_tensor, r_tensor, w_matrix, q: int, *,
                 shards: int, workers: int | None = None, recorder=None):
        super().__init__(model, o_tensor, r_tensor, w_matrix, q)
        self.rec = get_recorder() if recorder is None else recorder
        # BLAS does not reproduce row blocks of a dense or factored walk
        # bit for bit, so only a sparse W (in memory, or the store's
        # memory-mapped CSR) goes to the workers; any other W is walked
        # whole by the inherited walk, and neither weighs a shard nor
        # widens a halo.
        sparse_w = (
            w_matrix if sp.issparse(w_matrix) else getattr(w_matrix, "matrix", None)
        )
        workers_walk = self.beta > 0.0 and sparse_w is not None
        self.plan = plan_shards(
            o_tensor, r_tensor, sparse_w if workers_walk else None, shards
        )
        if workers is not None:
            workers = check_positive_int(workers, "workers")
        self.n_workers = min(self.plan.n_shards, workers or available_workers())
        n, m = self.X.shape[0], self.Z.shape[0]
        self.X, self.Z = _shared_array((n, q)), _shared_array((m, q))
        self.context = _ShardContext(
            o_tensor=o_tensor, r_tensor=r_tensor, w_matrix=w_matrix,
            X=self.X, Z=self.Z, XNEW=_shared_array((n, q)),
            O=_shared_array((n, q)) if self.relational_weight > 0.0 else None,
            W=_shared_array((n, q)) if workers_walk else None,
            R=_shared_array((m + 1, n, q)),
        )
        self.conns, self.procs = [], []
        self.exchange_seconds = 0.0
        self.n_rounds = 0

    def __enter__(self):
        plan = self.plan
        with ExitStack() as stack:
            stack.enter_context(span(
                "shard_pool", recorder=self.rec,
                n_shards=plan.n_shards, workers=self.n_workers,
            ))
            stack.callback(self._stop_workers)
            mp = multiprocessing.get_context("fork")
            for widx in range(self.n_workers):
                assigned = [
                    s for s in plan.shards if s.index % self.n_workers == widx
                ]
                parent_conn, child_conn = mp.Pipe()
                proc = mp.Process(
                    target=_worker_main,
                    args=(child_conn, self.context, assigned),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self.conns.append(parent_conn)
                self.procs.append(proc)
            if self.rec.enabled:
                for shard in plan.shards:
                    self.rec.emit(
                        "shard_dispatch",
                        index=shard.index,
                        start=shard.start,
                        stop=shard.stop,
                        nnz=shard.nnz,
                        halo_rows=shard.halo_size,
                        worker=shard.index % self.n_workers,
                    )
                self.rec.count("shard_dispatches", plan.n_shards)
            self._stack = stack.pop_all()
        return self

    def __exit__(self, *exc_info):
        return self._stack.__exit__(*exc_info)

    def _stop_workers(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for proc in self.procs:
            proc.join(timeout=10)
        self._terminate_workers()
        for conn in self.conns:
            conn.close()

    def _terminate_workers(self) -> None:
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)

    def _round(self, command: str, active) -> float:
        """Broadcast one round to the workers; returns its wall seconds.

        A failed round terminates the pool at once: a stalled worker
        would not answer the ``stop`` that leaving the context sends.
        """
        started = time.perf_counter()
        self.n_rounds += 1
        try:
            _broadcast(self.conns, self.procs, (command, list(active)), self.n_rounds)
        except WorkerError:
            self._terminate_workers()
            raise
        return time.perf_counter() - started

    def x_step(self, active, timer):
        """One ``"ox"`` round, then the inherited Eq. 10 mix."""
        self.exchange_seconds = self._round("ox", active)
        return super().x_step(active, timer)

    def propagate_o(self, x_active, z_active, active):
        """The workers' ``O`` rows plus the column-global dangling mass."""
        o = self.context.O[:, active]
        o += self.o_tensor.dangling_mass(x_active, z_active) / self.X.shape[0]
        return o

    def walk(self, x_active, active):
        """The workers' ``W @ x`` rows, or the whole walk when workers skip it."""
        if self.context.W is None:
            return super().walk(x_active, active)
        # In the C layout of a sparse product, which the x-step and its
        # probe column sums inherit.
        return np.ascontiguousarray(self.context.W[:, active])

    def z_step(self, x_new, active):
        """One ``"r"`` round, finished into the unprojected Eq. 8 step."""
        self.context.XNEW[:, active] = x_new
        self.exchange_seconds += self._round("r", active)
        return self.r_tensor.contract(self.context.R[..., active], x_new, x_new)

    def end_iteration(self, recorder, t: int, n_active: int) -> None:
        """Emit this iteration's ``boundary_exchange`` event."""
        plan = self.plan
        recorder.emit(
            "boundary_exchange",
            t=t,
            n_active=n_active,
            halo_rows=plan.halo_total,
            bytes_exchanged=8
            * n_active
            * (2 * plan.halo_total + self.Z.shape[0] * plan.n_shards),
            seconds=self.exchange_seconds,
        )
        recorder.count("boundary_exchanges")


def run_chains_sharded(
    model,
    o_tensor,
    r_tensor,
    w_matrix,
    label_matrix,
    *,
    shards: int,
    workers: int | None = None,
    starts=None,
    recorder=None,
    solver: str = PLAIN_SOLVER,
):
    """Advance all per-class chains with the work sharded across forks.

    :func:`~repro.core.chains.run_chains` over a :class:`ShardBackend`:
    same ``(node_scores, relation_scores, histories)`` return and event
    stream as the in-process fit, plus one ``shard_dispatch`` per shard
    and one ``boundary_exchange`` per iteration (all inside a
    ``shard_pool`` span).  ``model`` supplies the chain
    hyper-parameters (``alpha`` / ``beta`` / ``tol`` / ``max_iter`` /
    label-update settings).  The caller is responsible for checking
    :func:`~repro.experiments.parallel.serial_fallback_reason` first.
    """
    q = np.shape(label_matrix)[1]
    with ShardBackend(
        model, o_tensor, r_tensor, w_matrix, q,
        shards=shards, workers=workers, recorder=recorder,
    ) as backend:
        X, Z, histories = run_chains(
            model, backend, label_matrix, starts=starts, recorder=recorder,
            solver=solver,
        )
    return X.copy(), Z.copy(), histories


__all__ = [
    "ShardBackend",
    "ShardPlan",
    "run_chains_sharded",
]
