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
ack.  Workers build their operator row blocks lazily *after* the fork —
each child pays for its own shards only, and the parent never holds a
second operator copy.

Determinism
-----------
Under the ``"rows"`` policy a worker writes complete rows of ``O``'s
``relation_sum``, of a sparse ``W @ x`` and of ``R``'s ``integrands``,
running the operators' own kernels on its rows (CSR row blocks
reproduce the matching rows of the full sparse products bit-for-bit).
The coordinator adds ``O``'s column-global dangling mass and finishes
``R`` with ``contract``, as ``propagate_many`` does.  A dense or
factored ``W`` is never given to workers (BLAS does not reproduce its
row blocks bitwise), so the inherited walk runs it whole.  Scores are
therefore bit-identical for *any* shard count, including 1.  Under the
``"columns"`` policy (store-backed chunked operators) a worker writes
the chunked operators' ``column_partial`` outputs for its column range;
the coordinator sums them in fixed shard order and calls the operators'
``finish``, as their ``propagate_many`` does.  One shard is therefore
bit-identical to the serial store-backed fit, and K shards are
deterministic for a given K and argmax-identical across K.

A worker exception travels back over the pipe as a formatted remote
traceback and re-raises on the coordinator as :class:`WorkerError`;
a dead worker (closed pipe) raises the same.  On platforms without
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

    The part buffers are indexed by node row under the ``"rows"``
    policy and carry a leading shard axis under ``"columns"``; ``O`` /
    ``W`` are ``None`` when no worker computes that product.
    """

    policy: str
    o_tensor: object
    r_tensor: object
    w_matrix: object
    X: np.ndarray     # (n, q) current x scores (read)
    Z: np.ndarray     # (m, q) current z scores (read)
    XNEW: np.ndarray  # (n, q) fresh x halves, the r round's input (read)
    O: np.ndarray | None  # rows: (n, q) relation sums; columns: (S, n + m, q)
    W: np.ndarray | None  # rows: (n, q) walk rows; columns: (S, n, q)
    R: np.ndarray  # rows: (m + 1, n, q) integrands; columns: (S, m + 1, q)


class _RowWorker:
    """Row-policy worker body: the operators' kernels on the shards' rows."""

    def __init__(self, context: _ShardContext, assigned):
        self.ctx = context
        self.assigned = list(assigned)
        self.o_rows = {}
        self.r_rows = {}
        self.w_rows = {}
        for shard in self.assigned:
            start, stop = shard.start, shard.stop
            # The operators' own kernels take these stacks of row blocks.
            if context.O is not None:
                self.o_rows[shard.index] = sp.vstack(
                    context.o_tensor.row_blocks(start, stop), format="csr"
                )
            self.r_rows[shard.index] = sp.vstack(
                (
                    *context.r_tensor.row_blocks(start, stop),
                    context.r_tensor.pair_rows(start, stop),
                ),
                format="csr",
            )
            if context.W is not None:
                self.w_rows[shard.index] = context.w_matrix[start:stop]

    def round_ox(self, active):
        """Rows of ``O``'s ``relation_sum`` into ``O`` and of ``W @ x`` into ``W``."""
        ctx = self.ctx
        x_act = np.ascontiguousarray(ctx.X[:, active])
        z_act = ctx.Z[:, active]
        for shard in self.assigned:
            rows = slice(shard.start, shard.stop)
            if ctx.O is not None:
                ctx.O[rows, active] = ctx.o_tensor.relation_sum(
                    x_act, z_act, self.o_rows[shard.index]
                )
            if ctx.W is not None:
                ctx.W[rows, active] = self.w_rows[shard.index] @ x_act

    def round_r(self, active):
        """Rows of the Eq. 8 integrands ``x * (B_k @ x)`` into ``R``."""
        ctx = self.ctx
        y_act = np.ascontiguousarray(ctx.XNEW[:, active])
        for shard in self.assigned:
            start, stop = shard.start, shard.stop
            ctx.R[:, start:stop, active] = ctx.r_tensor.integrands(
                y_act[start:stop], y_act, self.r_rows[shard.index]
            )


class _ColumnWorker:
    """Column-policy worker body: the chunked kernels over a column range."""

    def __init__(self, context: _ShardContext, assigned):
        self.ctx = context
        self.assigned = list(assigned)

    def round_ox(self, active):
        """Per shard, ``O``'s partial stacked on its coverage, and ``W``'s partial."""
        ctx = self.ctx
        x_act, z_act = ctx.X[:, active], ctx.Z[:, active]
        for shard in self.assigned:
            start, stop = shard.start, shard.stop
            if ctx.O is not None:
                parts = ctx.o_tensor.column_partial(x_act, z_act, start, stop)
                ctx.O[shard.index][:, active] = np.vstack(parts)
            if ctx.W is not None:
                ctx.W[shard.index][:, active] = ctx.w_matrix.column_partial(
                    x_act, start, stop
                )

    def round_r(self, active):
        """Per shard, ``R``'s partial stacked on its linked-pair mass."""
        ctx = self.ctx
        y_act = ctx.XNEW[:, active]
        for shard in self.assigned:
            parts = ctx.r_tensor.column_partial(y_act, y_act, shard.start, shard.stop)
            ctx.R[shard.index][:, active] = np.vstack(parts)


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
                body = _RowWorker if context.policy == "rows" else _ColumnWorker
                worker = body(context, assigned)
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


def _broadcast(conns, message) -> None:
    """Send one command to every worker and wait for every ack.

    Raises :class:`WorkerError` on an error reply (remote traceback in
    the message) or a dead pipe.
    """
    for conn in conns:
        conn.send(message)
    for index, conn in enumerate(conns):
        try:
            reply = conn.recv()
        except (EOFError, OSError):
            raise WorkerError(
                f"shard worker {index} died during {message[0]!r} "
                "(pipe closed before replying)"
            ) from None
        if reply[0] == "err":
            _, name, text, remote_tb = reply
            raise WorkerError(
                f"shard worker {index} failed during {message[0]!r}: "
                f"{name}: {text}\n--- remote traceback ---\n{remote_tb}"
            )


class ShardBackend(LocalBackend):
    """The rows/columns fork pool as a :class:`~repro.core.chains.LocalBackend`.

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
        # The planner only sees W when workers apply its row blocks
        # (sparse W), so a dense or factored W neither weighs a shard
        # nor widens a halo; the columns policy never plans over W.
        self.plan = plan_shards(
            o_tensor,
            r_tensor,
            w_matrix if self.beta > 0.0 and sp.issparse(w_matrix) else None,
            shards,
        )
        if workers is not None:
            workers = check_positive_int(workers, "workers")
        self.n_workers = min(self.plan.n_shards, workers or available_workers())
        self.rows = self.plan.policy == "rows"
        n, m = self.X.shape[0], self.Z.shape[0]
        self.X, self.Z = _shared_array((n, q)), _shared_array((m, q))
        # BLAS does not reproduce row blocks of a dense or factored walk
        # bit for bit, so under the rows policy only a sparse W goes to
        # the workers; any other W is walked whole by the inherited walk.
        workers_walk = self.beta > 0.0 and (not self.rows or sp.issparse(w_matrix))
        if self.rows:
            o_shape, w_shape, r_shape = (n, q), (n, q), (m + 1, n, q)
        else:
            s = self.plan.n_shards
            o_shape, w_shape, r_shape = (s, n + m, q), (s, n, q), (s, m + 1, q)
        self.context = _ShardContext(
            policy=self.plan.policy,
            o_tensor=o_tensor, r_tensor=r_tensor, w_matrix=w_matrix,
            X=self.X, Z=self.Z, XNEW=_shared_array((n, q)),
            O=_shared_array(o_shape) if self.relational_weight > 0.0 else None,
            W=_shared_array(w_shape) if workers_walk else None,
            R=_shared_array(r_shape),
        )
        self.conns, self.procs = [], []
        self.exchange_seconds = 0.0

    def __enter__(self):
        plan = self.plan
        with ExitStack() as stack:
            stack.enter_context(span(
                "shard_pool", recorder=self.rec, policy=plan.policy,
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
                        policy=plan.policy,
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
        for proc in self.procs:
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
        for conn in self.conns:
            conn.close()

    def _round(self, command: str, active) -> float:
        """Broadcast one round to the workers; returns its wall seconds."""
        started = time.perf_counter()
        _broadcast(self.conns, (command, list(active)))
        return time.perf_counter() - started

    def _gather(self, parts, active) -> np.ndarray:
        """A part buffer's ``active`` columns; column shards summed in shard order."""
        if self.rows:
            return parts[..., active]
        total = parts[0][..., active]
        for part in parts[1:]:
            total += part[..., active]
        return total

    def x_step(self, active, timer):
        """One ``"ox"`` round, then the inherited Eq. 10 mix."""
        self.exchange_seconds = self._round("ox", active)
        return super().x_step(active, timer)

    def propagate_o(self, x_active, z_active, active):
        """The workers' ``O`` parts plus the column-global dangling mass."""
        n = self.X.shape[0]
        o = self._gather(self.context.O, active)
        if self.rows:
            o += self.o_tensor.dangling_mass(x_active, z_active) / n
            return o
        return self.o_tensor.finish(o[:n], o[n:], x_active, z_active)

    def walk(self, x_active, active):
        """The workers' ``W @ x`` parts, or the whole walk when workers skip it."""
        if self.context.W is None:
            return super().walk(x_active, active)
        return self._gather(self.context.W, active)

    def z_step(self, x_new, active):
        """One ``"r"`` round, finished into the unprojected Eq. 8 step."""
        self.context.XNEW[:, active] = x_new
        self.exchange_seconds += self._round("r", active)
        r = self._gather(self.context.R, active)
        if self.rows:
            return self.r_tensor.contract(r, x_new, x_new)
        m = self.Z.shape[0]
        return self.r_tensor.finish(r[:m], r[m], x_new, x_new)

    def end_iteration(self, recorder, t: int, n_active: int) -> None:
        """Emit this iteration's ``boundary_exchange`` event."""
        plan = self.plan
        recorder.emit(
            "boundary_exchange",
            t=t,
            n_active=n_active,
            policy=plan.policy,
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
