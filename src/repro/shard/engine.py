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
parts with zero serialisation.  A round is one request per worker on
:class:`repro.forkpool.ForkPool`, carrying only the round name and the
active column list, and every reply is a bare ack.  Workers read
every operator they apply through its ``row_walk`` over their shards'
ranges (:class:`~repro.tensor.transition.RowWalk`), lazily *after* the
fork — each child pays for its own shards only, and the parent never
holds a second operator copy.  An in-memory operator's walk cuts each
shard into one block on first use and keeps it; a store-backed one
(:mod:`repro.ooc`) streams ``chunk_size``-row blocks every round, so a
worker holds one block's pages, not its whole share.

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

A failed, dead or stalled worker fails the fit with a
:class:`~repro.forkpool.WorkerError` naming the worker and the round.
Where :func:`repro.forkpool.serial_fallback_reason` says no pool can be
built, callers run the serial path instead.
"""

from __future__ import annotations

import mmap
import time
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.chains import LocalBackend, run_chains
from repro.forkpool import ForkPool, available_workers
from repro.obs.recorder import get_recorder
from repro.obs.spans import span
from repro.shard.plan import ShardPlan, plan_shards
from repro.tensor.transition import RowWalk
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

    The part buffers are indexed by node row; ``O`` / ``W`` are ``None``
    when no worker computes that product.  ``w_matrix`` is the sparse
    ``W``'s row walk when workers apply it.
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

    def __call__(self, request) -> None:
        """Run one round, ``("ox" | "r", active columns)``, into the buffers."""
        command, active = request
        getattr(self, f"round_{command}")(active)

    def round_ox(self, active):
        """Rows of ``O``'s ``relation_sum`` into ``O`` and of ``W @ x`` into ``W``."""
        ctx = self.ctx
        x_act = np.ascontiguousarray(ctx.X[:, active])
        z_act = ctx.Z[:, active]
        for shard in self.assigned:
            if ctx.O is not None:
                for start, stop, live in ctx.o_tensor.row_walk(shard.start, shard.stop):
                    ctx.O[start:stop, active] = ctx.o_tensor.relation_sum(
                        x_act, z_act, live
                    )
            if ctx.W is not None:
                for start, stop, rows in ctx.w_matrix.row_walk(shard.start, shard.stop):
                    ctx.W[start:stop, active] = rows @ x_act

    def round_r(self, active):
        """Rows of the Eq. 8 integrands ``x * (B_k @ x)`` into ``R``."""
        ctx = self.ctx
        y_act = np.ascontiguousarray(ctx.XNEW[:, active])
        for shard in self.assigned:
            for start, stop, block in ctx.r_tensor.row_walk(shard.start, shard.stop):
                ctx.R[:, start:stop, active] = ctx.r_tensor.integrands(
                    y_act[start:stop], y_act, block
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
        # memory-mapped CSR) goes to the workers, as a row walk; any
        # other W is walked whole by the inherited walk, and neither
        # weighs a shard nor widens a halo.
        w_rows = RowWalk(w_matrix.tocsr()) if sp.issparse(w_matrix) else w_matrix
        if not (self.beta > 0.0 and isinstance(w_rows, RowWalk)):
            w_rows = None
        self.plan = plan_shards(o_tensor, r_tensor, w_rows, shards)
        if workers is not None:
            workers = check_positive_int(workers, "workers")
        self.n_workers = min(self.plan.n_shards, workers or available_workers())
        n, m = self.X.shape[0], self.Z.shape[0]
        self.X, self.Z = _shared_array((n, q)), _shared_array((m, q))
        self.context = _ShardContext(
            o_tensor=o_tensor, r_tensor=r_tensor, w_matrix=w_rows,
            X=self.X, Z=self.Z, XNEW=_shared_array((n, q)),
            O=_shared_array((n, q)) if self.relational_weight > 0.0 else None,
            W=None if w_rows is None else _shared_array((n, q)),
            R=_shared_array((m + 1, n, q)),
        )
        self.exchange_seconds = 0.0
        self.n_rounds = 0

    def __enter__(self):
        plan = self.plan
        with ExitStack() as stack:
            stack.enter_context(span(
                "shard_pool", recorder=self.rec,
                n_shards=plan.n_shards, workers=self.n_workers,
            ))
            # Workers run sparse kernels only, so their BLAS stays as is.
            self.pool = stack.enter_context(ForkPool([
                _RowWorker(self.context, [
                    s for s in plan.shards if s.index % self.n_workers == widx
                ])
                for widx in range(self.n_workers)
            ], cap_blas=False))
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
            self._stack = stack.pop_all()
        return self

    def __exit__(self, *exc_info):
        return self._stack.__exit__(*exc_info)

    def _round(self, command: str, active) -> float:
        """Run one round on every worker; returns its wall seconds."""
        started = time.perf_counter()
        self.n_rounds += 1
        request = (command, list(active))
        for widx in range(self.n_workers):
            self.pool.send(
                widx, request,
                f"shard worker {widx}, round {self.n_rounds} ({command!r})",
            )
        for _ in range(self.n_workers):
            self.pool.next_reply()
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
):
    """Advance all per-class chains with the work sharded across forks.

    :func:`~repro.core.chains.run_chains` over a :class:`ShardBackend`:
    same ``(node_scores, relation_scores, histories)`` return and event
    stream as the in-process fit, plus one ``shard_dispatch`` per shard
    and one ``boundary_exchange`` per iteration (all inside a
    ``shard_pool`` span).  ``model`` supplies the chain
    hyper-parameters (``alpha`` / ``beta`` / ``tol`` / ``max_iter`` /
    label-update settings / ``solver``).  The caller is responsible for
    checking :func:`~repro.forkpool.serial_fallback_reason` first.
    """
    q = np.shape(label_matrix)[1]
    with ShardBackend(
        model, o_tensor, r_tensor, w_matrix, q,
        shards=shards, workers=workers, recorder=recorder,
    ) as backend:
        X, Z, histories = run_chains(
            model, backend, label_matrix, starts=starts, recorder=recorder
        )
    return X.copy(), Z.copy(), histories


__all__ = [
    "ShardBackend",
    "ShardPlan",
    "run_chains_sharded",
]
