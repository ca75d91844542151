"""The sharded chain backend: fork workers + shared buffers + fixed merge.

:class:`ShardBackend` is a backend of the one chain driver,
:func:`repro.core.chains.run_chains`: the two heavy per-iteration
products — the O-propagation / feature-walk x-step and the
R-contraction z-step — are dispatched shard by shard to fork-based
workers.  Everything else (Eq. 12 label updates, simplex projections,
solver proposals, residual bookkeeping, every telemetry event) is the
driver's, shared with the in-process fit.  :func:`run_chains_sharded`
is the entry point that runs the driver over the backend.

Transport
---------
The iterate matrices (``x`` / ``z`` / the restart vectors / the fresh
``x`` halves) live in anonymous ``MAP_SHARED`` mmaps created before the
fork, so workers read the current iterate and write their output rows
with zero serialisation; the per-worker command pipes carry only the
active column list, the step weights and the (tiny) per-relation mass
vectors.  Workers build their operator row blocks lazily *after* the
fork — each child pays for its own shards only, and the parent never
holds a second operator copy.

Determinism
-----------
Under the ``"rows"`` policy every worker computes complete output rows
with the exact serial operation sequence (CSR row blocks reproduce the
matching rows of the full sparse products bit-for-bit), and every
column-global reduction — simplex projections, dangling-mass closed
forms, per-relation column sums — stays on the coordinator using the
same code the in-memory operators use.  Scores are therefore bit-identical
for *any* shard count, including 1.  Under the ``"columns"`` policy
(store-backed chunked operators) each worker contributes a partial
product — the chunked operators' own ``column_partial`` kernels over
its column range — merged in fixed shard order: deterministic for a
given K, and argmax-identical across K — the accumulation-order caveat
the chunked operators already carry.

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

from repro.core.chains import run_chains
from repro.errors import ValidationError
from repro.experiments.parallel import WorkerError, available_workers
from repro.obs.recorder import get_recorder
from repro.obs.spans import span
from repro.shard.plan import ShardPlan, plan_shards
from repro.solvers.base import PLAIN_SOLVER
from repro.tensor.transition import _column_sums
from repro.utils.validation import check_positive_int


def _shared_array(shape) -> np.ndarray:
    """A float64 array over an anonymous ``MAP_SHARED`` mapping.

    Created before the fork and inherited by every worker, so parent
    and children read and write the same physical pages — the zero-copy
    transport for the iterate matrices and output rows.
    """
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(count * 8, mmap.PAGESIZE))
    return np.frombuffer(buffer, dtype=np.float64, count=count).reshape(shape)


@dataclass
class _ShardContext:
    """Everything a worker needs, inherited through the fork."""

    policy: str
    n: int
    m: int
    alpha: float
    o_tensor: object
    r_tensor: object
    w_matrix: object  # None when beta == 0 (never touched then)
    X: np.ndarray     # (n, q) current x scores (read)
    L: np.ndarray     # (n, q) restart vectors (read)
    Z: np.ndarray     # (m, q) current z scores (read)
    XNEW: np.ndarray  # (n, q) fresh x halves (rows: write; r-round: read)
    P: np.ndarray | None     # (m + 1, n, q) rows-policy R products (write)
    PART: np.ndarray | None  # (S, n, q) columns-policy partials (write)


class _RowWorker:
    """Row-policy worker body: complete output rows, serial op order."""

    def __init__(self, context: _ShardContext, assigned):
        self.ctx = context
        self.assigned = list(assigned)
        self.o_rows = {}
        self.r_rows = {}
        self.w_blocks = {}
        for shard in self.assigned:
            start, stop = shard.start, shard.stop
            # The operators' own kernels take these stacks of row blocks.
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
            if context.w_matrix is not None:  # sparse: dense W stays home
                self.w_blocks[shard.index] = context.w_matrix[start:stop]

    def round_ox(self, active, rw, beta, dang):
        """Rows ``[start, stop)`` of the unprojected Eq. 10 step.

        Replicates the serial statements restricted to the shard's rows:
        ``alpha * l``, the operator's ``relation_sum`` kernel on the
        shard's stacked row blocks, the coordinator-supplied dangling
        mass, and ``beta * (W @ x)``.
        """
        ctx = self.ctx
        x_act = np.ascontiguousarray(ctx.X[:, active])
        z_act = ctx.Z[:, active] if rw > 0.0 else None
        for shard in self.assigned:
            start, stop = shard.start, shard.stop
            out = ctx.alpha * ctx.L[start:stop][:, active]
            if rw > 0.0:
                o_loc = ctx.o_tensor.relation_sum(
                    x_act, z_act, self.o_rows[shard.index]
                )
                o_loc += dang / ctx.n
                out = out + rw * o_loc
            if beta > 0.0:
                out = out + beta * (self.w_blocks[shard.index] @ x_act)
            ctx.XNEW[start:stop][:, active] = out
        return None

    def round_r(self, active):
        """Rows of the Eq. 8 integrands ``x * (B_k @ x)`` into ``P``.

        The coordinator finishes the contraction with the operator's
        ``contract``, so nothing here crosses columns.
        """
        ctx = self.ctx
        y_act = np.ascontiguousarray(ctx.XNEW[:, active])
        for shard in self.assigned:
            start, stop = shard.start, shard.stop
            ctx.P[:, start:stop, active] = ctx.r_tensor.integrands(
                y_act[start:stop], y_act, self.r_rows[shard.index]
            )
        return None


class _ColumnWorker:
    """Column-policy worker body: the chunked kernels over a column range."""

    def __init__(self, context: _ShardContext, assigned):
        self.ctx = context
        self.assigned = list(assigned)

    def round_ox(self, active, rw, beta, dang):
        """Partial ``rw * O`` + ``beta * W`` products over the shard's columns.

        Writes the ``(n, q_active)`` partial into ``PART[shard.index]``
        and returns the per-relation non-dangling coverage the
        coordinator needs for the closed-form dangling mass.
        """
        del dang  # columns policy: the coordinator derives it from coverage
        ctx = self.ctx
        x_act = ctx.X[:, active]
        covered_by_shard = {}
        for shard in self.assigned:
            start, stop = shard.start, shard.stop
            part = np.zeros((ctx.n, len(active)))
            if rw > 0.0:
                o_part, covered_by_shard[shard.index] = (
                    ctx.o_tensor.column_partial(
                        x_act, ctx.Z[:, active], start, stop
                    )
                )
                part += rw * o_part
            if beta > 0.0:
                part += beta * ctx.w_matrix.column_partial(x_act, start, stop)
            ctx.PART[shard.index][:, active] = part
        return covered_by_shard

    def round_r(self, active):
        """Partial Eq. 8 reductions over the shard's columns.

        Returns ``{shard.index: (z_partial, linked_partial)}`` — small
        ``(m, q_active)`` / ``(q_active,)`` arrays the coordinator sums
        in fixed shard order.
        """
        y_act = self.ctx.XNEW[:, active]
        return {
            shard.index: self.ctx.r_tensor.column_partial(
                y_act, y_act, shard.start, shard.stop
            )
            for shard in self.assigned
        }


def _worker_main(conn, context: _ShardContext, assigned) -> None:
    """Worker loop: build blocks lazily, answer rounds until ``stop``.

    Any exception — including a failed block build — is shipped back as
    an ``("err", type, message, traceback)`` reply so the coordinator
    re-raises it as a :class:`WorkerError` carrying the remote frames.
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
            if message[0] == "ox":
                _, active, rw, beta, dang = message
                payload = worker.round_ox(active, rw, beta, dang)
            elif message[0] == "r":
                payload = worker.round_r(message[1])
            else:
                raise ValidationError(f"unknown shard command {message[0]!r}")
            conn.send(("ok", payload))
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            try:
                conn.send(
                    ("err", type(exc).__name__, str(exc), traceback.format_exc())
                )
            except Exception:
                return


def _broadcast(conns, message):
    """Send one command to every worker; collect replies in worker order.

    Raises :class:`WorkerError` on an error reply (remote traceback in
    the message) or a dead pipe.
    """
    for conn in conns:
        conn.send(message)
    replies = []
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
        replies.append(reply[1])
    return replies


def _merge_shard_payloads(replies) -> dict:
    """Fold per-worker ``{shard.index: value}`` replies into one mapping."""
    merged = {}
    for reply in replies:
        if reply:
            merged.update(reply)
    return merged


class ShardBackend:
    """The rows/columns fork pool as a :func:`~repro.core.chains.run_chains` backend.

    The constructor plans the shards and allocates the iterate buffers
    (``X`` / ``Z`` / ``L`` plus the worker output buffers) as shared
    mmaps; entering the context forks the workers inside a
    ``shard_pool`` span and emits one ``shard_dispatch`` per shard, and
    leaving it stops and reaps them.  Each step broadcasts one round to
    the workers and merges their output on the coordinator in fixed
    shard order; :meth:`end_iteration` reports the round trip as a
    ``boundary_exchange`` event.
    """

    def __init__(self, model, o_tensor, r_tensor, w_matrix, q: int, *,
                 shards: int, workers: int | None = None, recorder=None):
        self.rec = get_recorder() if recorder is None else recorder
        n, m = o_tensor.shape[0], r_tensor.shape[2]
        self.alpha, self.beta = model.alpha, model.beta
        self.relational_weight = model._relational_weight
        self.o_tensor, self.r_tensor, self.w_matrix = o_tensor, r_tensor, w_matrix
        # The planner only sees W when workers apply its row blocks
        # (sparse W).  A dense or factored W is walked by the
        # coordinator, so it neither weighs a shard nor widens a halo;
        # the columns policy never plans over W at all.
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
        # A dense (or factored) feature-walk GEMM is the one product
        # whose row blocks BLAS does not reproduce bit-for-bit, so under
        # the rows policy the coordinator keeps it whole (the statement
        # LocalBackend runs); sparse W row blocks are exact and stay
        # sharded.
        self.parent_walk = (
            self.rows and self.beta > 0.0 and not sp.issparse(w_matrix)
        )
        self.worker_beta = 0.0 if self.parent_walk else self.beta
        self.context = _ShardContext(
            policy=self.plan.policy, n=n, m=m, alpha=self.alpha,
            o_tensor=o_tensor, r_tensor=r_tensor,
            w_matrix=w_matrix if self.worker_beta > 0.0 else None,
            X=_shared_array((n, q)), L=_shared_array((n, q)),
            Z=_shared_array((m, q)), XNEW=_shared_array((n, q)),
            P=_shared_array((m + 1, n, q)) if self.rows else None,
            PART=None if self.rows else _shared_array((self.plan.n_shards, n, q)),
        )
        self.X, self.Z, self.L = self.context.X, self.context.Z, self.context.L
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

    def x_step(self, active, timer):
        """One ``"ox"`` round, merged into the unprojected Eq. 10 step.

        Rows policy: workers write finished rows into ``XNEW`` (the
        coordinator adds a dense or factored walk).  Columns policy: the
        coordinator sums the shard partials in shard order and adds the
        dangling mass from the returned coverage.
        """
        X, Z, rw = self.X, self.Z, self.relational_weight
        dang = (
            self.o_tensor.dangling_mass(X[:, active], Z[:, active])
            if self.rows and rw > 0.0
            else None
        )
        started = time.perf_counter()
        replies = _broadcast(
            self.conns, ("ox", list(active), rw, self.worker_beta, dang)
        )
        self.exchange_seconds = time.perf_counter() - started
        if timer is not None:
            timer.start("feature_walk")
        if self.rows:
            x_new = self.context.XNEW[:, active]
            if self.parent_walk:
                x_new = x_new + self.beta * (self.w_matrix @ X[:, active])
            return x_new
        x_new = self.alpha * self.L[:, active]
        for shard in self.plan.shards:
            x_new += self.context.PART[shard.index][:, active]
        if rw > 0.0:
            covered_map = _merge_shard_payloads(replies)
            covered = np.zeros((Z.shape[0], len(active)))
            for shard in self.plan.shards:
                covered += covered_map[shard.index]
            x_act = X[:, active]
            z_act = Z[:, active]
            totals = _column_sums(x_act) * _column_sums(z_act)
            dangling = np.maximum(totals - _column_sums(z_act * covered), 0.0)
            x_new += rw * (dangling / X.shape[0])
        return x_new

    def z_step(self, x_new, active):
        """One ``"r"`` round, merged into the unprojected Eq. 8 step."""
        m = self.Z.shape[0]
        self.context.XNEW[:, active] = x_new
        started = time.perf_counter()
        replies = _broadcast(self.conns, ("r", list(active)))
        self.exchange_seconds += time.perf_counter() - started
        if self.rows:
            return self.r_tensor.contract(
                self.context.P[:, :, active], x_new, x_new
            )
        # Empty relations come back as zero rows from every shard.
        payloads = _merge_shard_payloads(replies)
        z_new = np.zeros((m, len(active)))
        linked_mass = np.zeros(len(active))
        for shard in self.plan.shards:
            zp, lp = payloads[shard.index]
            z_new += zp
            linked_mass += lp
        column_totals = _column_sums(x_new)
        totals = column_totals * column_totals
        dangling = np.maximum(totals - linked_mass, 0.0)
        z_new += dangling / m
        return z_new

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
    backend = ShardBackend(
        model, o_tensor, r_tensor, w_matrix, q,
        shards=shards, workers=workers, recorder=recorder,
    )
    with backend:
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
