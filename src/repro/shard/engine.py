"""The sharded chain runner: fork workers + shared buffers + fixed merge.

:func:`run_chains_sharded` is the multi-process twin of
``TMark._run_chains_batched``: the same lockstep per-class iteration,
with the two heavy per-iteration products — the O-propagation /
feature-walk and the R-contraction — dispatched shard by shard to
fork-based workers.  Everything else (Eq. 12 label updates, simplex
projections, solver proposals, residual bookkeeping, every telemetry
event) runs on the coordinator with the *literal* serial statements, so
the two runners cannot drift apart behaviourally.

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
same code the serial runner uses.  Scores are therefore bit-identical
for *any* shard count, including 1.  Under the ``"columns"`` policy
(store-backed chunked operators) each worker contributes a partial
product merged in fixed shard order: deterministic for a given K, and
argmax-identical across K — the accumulation-order caveat the chunked
operators already carry.

A worker exception travels back over the pipe as a formatted remote
traceback and re-raises on the coordinator as :class:`WorkerError`;
a dead worker (closed pipe) raises the same.  On platforms without
``fork`` — or inside an existing pool worker — callers consult
:func:`shard_fallback_reason` and run the serial path instead.
"""

from __future__ import annotations

import mmap
import time
import traceback
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.convergence import ChainHistory
from repro.core.labels import initial_label_vector, updated_label_vector
from repro.errors import ValidationError
from repro.experiments.parallel import (
    WorkerError,
    available_workers,
    fork_available,
    in_worker,
)
from repro.obs.recorder import CHAIN_PHASES, PhaseTimer, get_recorder
from repro.obs.spans import span
from repro.ooc.operators import _csc_block, release_pages
from repro.shard.plan import ShardPlan, plan_shards
from repro.solvers.base import PLAIN_SOLVER, make_solver, propose_safeguarded
from repro.tensor.transition import _column_sums
from repro.utils.simplex import project_to_simplex, uniform_distribution
from repro.utils.validation import check_positive_int


def shard_fallback_reason() -> str | None:
    """Why a sharded fit cannot run here (``None`` when it can).

    Mirrors the parallel-grid fallback contract: no nested pools (a
    sharded fit dispatched from inside a grid/trial worker runs
    serially), and no pools without the ``fork`` start method.
    """
    if in_worker():
        return "already inside a worker process (no nested pools)"
    if not fork_available():
        return "the 'fork' start method is unavailable on this platform"
    return None


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
        self.o_nnz = tuple(context.o_tensor.relation_nnz)
        self.r_nnz = tuple(context.r_tensor.relation_nnz)
        self.o_blocks = {}
        self.r_blocks = {}
        self.pair_blocks = {}
        self.w_blocks = {}
        for shard in self.assigned:
            start, stop = shard.start, shard.stop
            self.o_blocks[shard.index] = context.o_tensor.row_blocks(start, stop)
            self.r_blocks[shard.index] = context.r_tensor.row_blocks(start, stop)
            self.pair_blocks[shard.index] = context.r_tensor.pair_rows(start, stop)
            if context.w_matrix is not None:
                w = context.w_matrix
                self.w_blocks[shard.index] = (
                    w[start:stop] if sp.issparse(w) else np.asarray(w)[start:stop]
                )

    def round_ox(self, active, rw, beta, dang):
        """Rows ``[start, stop)`` of the unprojected Eq. 10 step.

        Replicates the serial statements restricted to the shard's rows:
        ``alpha * l``, the per-relation ``z_k * (M_k @ x)`` accumulation
        with the *global* empty-slice skips, the coordinator-supplied
        dangling mass, and ``beta * (W @ x)``.
        """
        ctx = self.ctx
        x_act = ctx.X[:, active]
        z_act = ctx.Z[:, active] if rw > 0.0 else None
        for shard in self.assigned:
            start, stop = shard.start, shard.stop
            out = ctx.alpha * ctx.L[start:stop][:, active]
            if rw > 0.0:
                o_loc = np.zeros((stop - start, len(active)))
                for k, block in enumerate(self.o_blocks[shard.index]):
                    if self.o_nnz[k] == 0:
                        continue
                    contribution = block @ x_act
                    contribution *= z_act[k]
                    o_loc += contribution
                o_loc += dang / ctx.n
                out = out + rw * o_loc
            if beta > 0.0:
                out = out + beta * (self.w_blocks[shard.index] @ x_act)
            ctx.XNEW[start:stop][:, active] = out
        return None

    def round_r(self, active):
        """Rows of the Eq. 8 integrands ``x * (B_k @ x)`` into ``P``.

        The coordinator finishes the contraction with its own
        per-relation column sums, so nothing here crosses columns.
        """
        ctx = self.ctx
        y_act = ctx.XNEW[:, active]
        for shard in self.assigned:
            start, stop = shard.start, shard.stop
            y_loc = y_act[start:stop]
            for k, block in enumerate(self.r_blocks[shard.index]):
                if self.r_nnz[k] == 0:
                    continue
                ctx.P[k, start:stop][:, active] = y_loc * (block @ y_act)
            ctx.P[ctx.m, start:stop][:, active] = y_loc * (
                self.pair_blocks[shard.index] @ y_act
            )
        return None


class _ColumnWorker:
    """Column-policy worker body: chunk-streamed partial products."""

    def __init__(self, context: _ShardContext, assigned):
        self.ctx = context
        self.assigned = list(assigned)
        self.r_nnz = tuple(context.r_tensor.relation_nnz)

    def _chunks(self, start, stop, chunk):
        for j0 in range(start, stop, chunk):
            yield j0, min(j0 + chunk, stop)

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
                z_act = ctx.Z[:, active]
                o = ctx.o_tensor
                chunk = int(o.chunk_size)
                covered = np.zeros((ctx.m, len(active)))
                o_part = np.zeros_like(part)
                for k in range(ctx.m):
                    data, indices, indptr = o.relation_arrays(k)
                    acc = np.zeros_like(part)
                    nd_covered = np.zeros(len(active))
                    nd_row = o.nondangling_rows[k]
                    for j0, j1 in self._chunks(start, stop, chunk):
                        block = _csc_block(data, indices, indptr, j0, j1, ctx.n)
                        if block is not None:
                            acc += block @ x_act[j0:j1]
                        mask = np.asarray(nd_row[j0:j1])
                        if mask.any():
                            nd_covered += x_act[j0:j1][mask].sum(axis=0)
                    o_part += acc * z_act[k]
                    covered[k] = nd_covered
                    release_pages(data, indices, indptr, nd_row)
                part += rw * o_part
                covered_by_shard[shard.index] = covered
            if beta > 0.0:
                w = ctx.w_matrix
                if w.mode == "dense":
                    (dense,) = w.arrays()
                    part += beta * (dense[:, start:stop] @ x_act[start:stop])
                    release_pages(dense)
                else:
                    data, indices, indptr = w.arrays()
                    w_acc = np.zeros_like(part)
                    for j0, j1 in self._chunks(start, stop, int(w.chunk_size)):
                        block = _csc_block(data, indices, indptr, j0, j1, ctx.n)
                        if block is not None:
                            w_acc += block @ x_act[j0:j1]
                    part += beta * w_acc
                    release_pages(data, indices, indptr)
            ctx.PART[shard.index][:, active] = part
        return covered_by_shard

    def round_r(self, active):
        """Partial Eq. 8 reductions over the shard's columns.

        Returns ``{shard.index: (z_partial, linked_partial)}`` — small
        ``(m, q_active)`` / ``(q_active,)`` arrays the coordinator sums
        in fixed shard order.
        """
        ctx = self.ctx
        y_act = ctx.XNEW[:, active]
        r = ctx.r_tensor
        chunk = int(r.chunk_size)
        payload = {}
        for shard in self.assigned:
            start, stop = shard.start, shard.stop
            zp = np.zeros((ctx.m, len(active)))
            for k in range(ctx.m):
                if self.r_nnz[k] == 0:
                    continue
                data, indices, indptr = r.relation_arrays(k)
                acc = np.zeros_like(y_act)
                for j0, j1 in self._chunks(start, stop, chunk):
                    block = _csc_block(data, indices, indptr, j0, j1, ctx.n)
                    if block is not None:
                        acc += block @ y_act[j0:j1]
                zp[k] = _column_sums(y_act * acc)
                release_pages(data, indices, indptr)
            pair_indices, pair_indptr = r.pair_arrays()
            acc = np.zeros_like(y_act)
            for j0, j1 in self._chunks(start, stop, chunk):
                lo, hi = int(pair_indptr[j0]), int(pair_indptr[j1])
                if lo == hi:
                    continue
                local_indptr = np.asarray(
                    pair_indptr[j0 : j1 + 1], dtype=np.int64
                ) - lo
                block = sp.csc_matrix(
                    (np.ones(hi - lo), pair_indices[lo:hi], local_indptr),
                    shape=(ctx.n, j1 - j0),
                )
                acc += block @ y_act[j0:j1]
            linked = _column_sums(y_act * acc)
            release_pages(pair_indices, pair_indptr)
            payload[shard.index] = (zp, linked)
        return payload


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

    Drop-in replacement for ``TMark._run_chains_batched`` — same
    arguments plus ``shards`` / ``workers``, same
    ``(node_scores, relation_scores, histories)`` return, same event
    stream plus one ``shard_dispatch`` per shard and one
    ``boundary_exchange`` per iteration (all inside a ``shard_pool``
    span).  ``model`` supplies the chain hyper-parameters
    (``alpha`` / ``beta`` / ``tol`` / ``max_iter`` / label-update
    settings).  The caller is responsible for checking
    :func:`shard_fallback_reason` first.
    """
    rec = get_recorder() if recorder is None else recorder
    timed = rec.enabled
    probes_on = timed and rec.probes
    label_matrix = np.asarray(label_matrix, dtype=bool)
    n, q = label_matrix.shape
    m = r_tensor.shape[2]
    alpha, beta = model.alpha, model.beta
    relational_weight = model._relational_weight
    shards = check_positive_int(shards, "shards")
    if workers is not None:
        workers = check_positive_int(workers, "workers")
    # The planner only sees W when workers apply its row blocks (sparse
    # W).  A dense or factored W is walked by the coordinator, so it
    # neither weighs a shard nor widens a halo; the columns policy never
    # plans over W at all.
    plan = plan_shards(
        o_tensor,
        r_tensor,
        w_matrix if beta > 0.0 and sp.issparse(w_matrix) else None,
        shards,
    )
    n_workers = min(plan.n_shards, workers or available_workers())
    # A dense (or factored) feature-walk GEMM is the one product whose
    # row blocks BLAS does not reproduce bit-for-bit, so under the rows
    # policy the coordinator keeps it whole (the literal serial
    # statement); sparse W row blocks are exact and stay sharded.
    parent_feature_walk = (
        plan.policy == "rows" and beta > 0.0 and not sp.issparse(w_matrix)
    )

    L = _shared_array((n, q))
    X = _shared_array((n, q))
    Z = _shared_array((m, q))
    XNEW = _shared_array((n, q))
    rows_policy = plan.policy == "rows"
    P = _shared_array((m + 1, n, q)) if rows_policy else None
    PART = None if rows_policy else _shared_array((plan.n_shards, n, q))

    masks = [label_matrix[:, c] for c in range(q)]
    L[:] = np.column_stack([initial_label_vector(mask) for mask in masks])
    if starts is None:
        X[:] = L
        Z[:] = np.repeat(uniform_distribution(m)[:, None], q, axis=1)
    else:
        X[:] = np.column_stack(
            [
                project_to_simplex(np.asarray(starts[0][:, c], dtype=float))
                for c in range(q)
            ]
        )
        Z[:] = np.column_stack(
            [
                project_to_simplex(np.asarray(starts[1][:, c], dtype=float))
                for c in range(q)
            ]
        )
    histories = [
        ChainHistory(tol=model.tol, n_anchors=int(mask.sum())) for mask in masks
    ]
    use_solver = solver != PLAIN_SOLVER
    solvers = (
        [make_solver(solver, tol=model.tol) for _ in range(q)]
        if use_solver
        else None
    )
    if probes_on:
        o_dangling_share = float(o_tensor.dangling_share)
        r_unlinked_share = float(r_tensor.unlinked_share)
    r_nnz = tuple(r_tensor.relation_nnz)

    worker_beta = 0.0 if parent_feature_walk else beta
    context = _ShardContext(
        policy=plan.policy, n=n, m=m, alpha=alpha,
        o_tensor=o_tensor, r_tensor=r_tensor,
        w_matrix=w_matrix if worker_beta > 0.0 else None,
        X=X, L=L, Z=Z, XNEW=XNEW, P=P, PART=PART,
    )

    import multiprocessing

    mp = multiprocessing.get_context("fork")
    conns, procs = [], []
    with span(
        "shard_pool", recorder=rec, policy=plan.policy,
        n_shards=plan.n_shards, workers=n_workers,
    ):
        try:
            for widx in range(n_workers):
                assigned = [s for s in plan.shards if s.index % n_workers == widx]
                parent_conn, child_conn = mp.Pipe()
                proc = mp.Process(
                    target=_worker_main,
                    args=(child_conn, context, assigned),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                conns.append(parent_conn)
                procs.append(proc)
            if timed:
                for shard in plan.shards:
                    rec.emit(
                        "shard_dispatch",
                        index=shard.index,
                        start=shard.start,
                        stop=shard.stop,
                        nnz=shard.nnz,
                        halo_rows=shard.halo_size,
                        worker=shard.index % n_workers,
                        policy=plan.policy,
                    )
                rec.count("shard_dispatches", plan.n_shards)
            active = list(range(q))
            for t in range(1, model.max_iter + 1):
                if not active:
                    break
                if timed:
                    timer = PhaseTimer(CHAIN_PHASES)
                    timer.start("label_update")
                if model.update_labels and t > 2:
                    for c in active:
                        vector, n_accepted = updated_label_vector(
                            masks[c],
                            X[:, c],
                            model.label_threshold,
                            mode=model.threshold_mode,
                            return_accepted=True,
                        )
                        if use_solver and not np.array_equal(vector, L[:, c]):
                            solvers[c].map_changed()
                            if timed:
                                rec.emit(
                                    "solver_restart",
                                    t=t,
                                    class_index=c,
                                    solver=solvers[c].active_name,
                                    reason="label_update",
                                )
                                rec.count("solver_restarts")
                        L[:, c] = vector
                        histories[c].accepted_history.append(n_accepted)
                if timed:
                    timer.start("o_propagation")
                dang = (
                    o_tensor.dangling_mass(X[:, active], Z[:, active])
                    if rows_policy and relational_weight > 0.0
                    else None
                )
                exchange_started = time.perf_counter()
                ox_replies = _broadcast(
                    conns,
                    ("ox", list(active), relational_weight, worker_beta, dang),
                )
                exchange_seconds = time.perf_counter() - exchange_started
                if timed:
                    timer.start("feature_walk")
                if rows_policy:
                    x_new = XNEW[:, active]
                    if parent_feature_walk:
                        x_new = x_new + beta * (w_matrix @ X[:, active])
                else:
                    x_new = alpha * L[:, active]
                    for shard in plan.shards:
                        x_new += PART[shard.index][:, active]
                    if relational_weight > 0.0:
                        covered_map = _merge_shard_payloads(ox_replies)
                        covered = np.zeros((m, len(active)))
                        for shard in plan.shards:
                            covered += covered_map[shard.index]
                        x_act = X[:, active]
                        z_act = Z[:, active]
                        totals = _column_sums(x_act) * _column_sums(z_act)
                        dangling = np.maximum(
                            totals - _column_sums(z_act * covered), 0.0
                        )
                        x_new += relational_weight * (dangling / n)
                if timed:
                    timer.start("projection")
                for idx in range(len(active)):
                    x_new[:, idx] = project_to_simplex(x_new[:, idx])
                if use_solver:
                    if timed:
                        timer.stop()
                    for idx, c in enumerate(active):
                        accelerator = solvers[c]
                        step_started = time.perf_counter() if timed else 0.0
                        outcome, safe = propose_safeguarded(
                            accelerator,
                            X[:, c].copy(),
                            x_new[:, idx].copy(),
                            t=t,
                            residuals=histories[c].residuals,
                        )
                        if outcome == "none":
                            continue
                        if outcome == "rejected":
                            if timed:
                                rec.emit(
                                    "solver_restart",
                                    t=t,
                                    class_index=c,
                                    solver=accelerator.active_name,
                                    reason="safeguard",
                                    seconds=time.perf_counter() - step_started,
                                )
                                rec.count("solver_restarts")
                        else:
                            x_new[:, idx] = safe
                            if timed:
                                rec.emit(
                                    "solver_step",
                                    t=t,
                                    class_index=c,
                                    solver=accelerator.active_name,
                                    seconds=time.perf_counter() - step_started,
                                )
                                rec.count("solver_steps")
                if timed:
                    timer.start("r_contraction")
                XNEW[:, active] = x_new
                r_started = time.perf_counter()
                r_replies = _broadcast(conns, ("r", list(active)))
                exchange_seconds += time.perf_counter() - r_started
                z_new = np.empty((m, len(active)))
                if rows_policy:
                    for k in range(m):
                        if r_nnz[k] == 0:
                            z_new[k] = 0.0
                        else:
                            z_new[k] = _column_sums(P[k][:, active])
                    column_totals = _column_sums(x_new)
                    totals = column_totals * column_totals
                    linked_mass = _column_sums(P[m][:, active])
                else:
                    payloads = _merge_shard_payloads(r_replies)
                    z_partial = np.zeros((m, len(active)))
                    linked_mass = np.zeros(len(active))
                    for shard in plan.shards:
                        zp, lp = payloads[shard.index]
                        z_partial += zp
                        linked_mass += lp
                    for k in range(m):
                        z_new[k] = 0.0 if r_nnz[k] == 0 else z_partial[k]
                    column_totals = _column_sums(x_new)
                    totals = column_totals * column_totals
                dangling = np.maximum(totals - linked_mass, 0.0)
                z_new += dangling / m
                if timed:
                    timer.start("projection")
                still_active = []
                residuals = [] if timed else None
                for idx, c in enumerate(active):
                    z_col = project_to_simplex(z_new[:, idx])
                    rho = histories[c].record(
                        x_new[:, idx], X[:, c], z_col, Z[:, c]
                    )
                    X[:, c] = x_new[:, idx]
                    Z[:, c] = z_col
                    if rho >= model.tol:
                        still_active.append(c)
                    if timed:
                        residuals.append((c, rho))
                if timed:
                    timer.stop()
                    rec.emit(
                        "boundary_exchange",
                        t=t,
                        n_active=len(active),
                        policy=plan.policy,
                        halo_rows=plan.halo_total,
                        bytes_exchanged=8
                        * len(active)
                        * (2 * plan.halo_total + m * plan.n_shards),
                        seconds=exchange_seconds,
                    )
                    rec.count("boundary_exchanges")
                    rec.emit(
                        "chain_iteration",
                        t=t,
                        n_active=len(active),
                        phases=dict(timer.phases),
                    )
                    rec.count("chain_iterations")
                    for c, rho in residuals:
                        frozen = rho < model.tol
                        rec.emit(
                            "chain_class",
                            t=t,
                            class_index=c,
                            residual=rho,
                            frozen=frozen,
                        )
                        if frozen:
                            rec.count("frozen_columns")
                    if probes_on:
                        z_active = Z[:, active]
                        if model.update_labels and t > 2:
                            n_accepted = sum(
                                histories[c].accepted_history[-1] for c in active
                            )
                        else:
                            n_accepted = -1
                        rec.emit(
                            "invariant_probe",
                            t=t,
                            n_active=len(active),
                            x_mass_drift=float(
                                np.abs(x_new.sum(axis=0) - 1.0).max()
                            ),
                            z_mass_drift=float(
                                np.abs(z_active.sum(axis=0) - 1.0).max()
                            ),
                            x_min=float(x_new.min()),
                            z_min=float(z_active.min()),
                            n_negative=int(
                                (x_new < 0.0).sum() + (z_active < 0.0).sum()
                            ),
                            n_accepted=n_accepted,
                            o_dangling_share=o_dangling_share,
                            r_unlinked_share=r_unlinked_share,
                        )
                        rec.count("invariant_probes")
                active = still_active
        finally:
            for conn in conns:
                try:
                    conn.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
            for proc in procs:
                proc.join(timeout=10)
            for proc in procs:
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join(timeout=5)
            for conn in conns:
                conn.close()
    for c in active:
        histories[c].exhausted = True
    return X.copy(), Z.copy(), histories


__all__ = [
    "ShardPlan",
    "run_chains_sharded",
    "shard_fallback_reason",
]
