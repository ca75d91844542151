"""The chain driver: every per-class chain of Algorithm 1, in lockstep.

:func:`run_chains` owns the iteration — the Eq. 12 restart update, the
simplex projections, the solver proposals, residual bookkeeping, column
freezing and every telemetry event.  The Eq. 12 update
(:func:`~repro.core.labels.updated_label_matrix`), both projections
(:func:`~repro.utils.simplex.project_columns_to_simplex`) and the
residuals run once per iteration over the whole active block, each
column bit-for-bit its per-class reference: every sum over nodes
reduces a C-contiguous row of an ``(a, n)`` block, the 1-D summation
order, never axis 0 of a C ``(n, a)`` block.  A *backend* owns only where the
iterates live and how the two heavy products are computed:

* ``X`` / ``Z`` / ``L`` — the ``(n, q)`` node scores, ``(m, q)``
  relation scores and ``(n, q)`` restart vectors the driver reads and
  writes in place;
* ``x_step(active, timer)`` — the unprojected Eq. 10 step
  ``alpha * l + (1 - alpha - beta) * O(x, z) + beta * W x`` for the
  ``active`` columns, starting the ``feature_walk`` phase on ``timer``
  (``None`` when untraced) before the walk;
* ``z_step(x_new, active)`` — the unprojected Eq. 8 step ``R(x, x)``;
* ``end_iteration(recorder, t, n_active)`` — called on traced fits just
  before the ``chain_iteration`` event;
* ``o_tensor`` / ``r_tensor`` — read for the probes' dangling shares.

:class:`LocalBackend` runs the products in process — for in-memory
operators and the store-backed ones of :mod:`repro.ooc` alike, since
the latter are the same tensors over memory-mapped stacks.  The fork pool of
:mod:`repro.shard` subclasses it: its workers compute operator parts,
and the inherited ``x_step`` mixes them with the same statement.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.convergence import ChainHistory
from repro.core.labels import initial_label_vector, updated_label_matrix
from repro.obs.recorder import CHAIN_PHASES, PhaseTimer, get_recorder
from repro.solvers.base import PLAIN_SOLVER, make_solver
from repro.utils.simplex import project_columns_to_simplex, uniform_distribution


class LocalBackend:
    """In-process products over any ``propagate_many`` / ``@`` operators.

    ``model`` supplies the step weights (``alpha``, ``beta`` and the
    dust-clamped relational weight); ``q`` is the number of chains.
    :meth:`x_step` is the one Eq. 10 mix; a subclass that computes the
    products elsewhere overrides :meth:`propagate_o`, :meth:`walk` and
    :meth:`z_step`.
    """

    def __init__(self, model, o_tensor, r_tensor, w_matrix, q: int):
        self.o_tensor, self.r_tensor, self.w_matrix = o_tensor, r_tensor, w_matrix
        self.alpha, self.beta = model.alpha, model.beta
        self.relational_weight = model._relational_weight
        n, m = o_tensor.shape[0], r_tensor.shape[2]
        self.X, self.Z, self.L = np.empty((n, q)), np.empty((m, q)), np.empty((n, q))

    def x_step(self, active, timer):
        """The unprojected Eq. 10 step for the ``active`` columns."""
        x_active = self.X[:, active]
        x_new = self.alpha * self.L[:, active]
        if self.relational_weight > 0.0:
            x_new = x_new + self.relational_weight * self.propagate_o(
                x_active, self.Z[:, active], active
            )
        if timer is not None:
            timer.start("feature_walk")
        if self.beta > 0.0:
            x_new = x_new + self.beta * self.walk(x_active, active)
        return x_new

    def propagate_o(self, x_active, z_active, active):
        """``O x-bar_1 x x-bar_3 z`` for the ``active`` columns (Eq. 7)."""
        return self.o_tensor.propagate_many(x_active, z_active)

    def walk(self, x_active, active):
        """The feature walk ``W @ x`` for the ``active`` columns."""
        return self.w_matrix @ x_active

    def z_step(self, x_new, active):
        """The unprojected Eq. 8 step ``R(x_new, x_new)``."""
        return self.r_tensor.propagate_many(x_new, x_new)

    def end_iteration(self, recorder, t: int, n_active: int) -> None:
        """Nothing to report: no iterate crosses a process boundary."""


def _emit_solver_event(rec, kind, t, active, solver, idx, **fields) -> None:
    """One ``solver_step``/``solver_restart`` event for mixer row ``idx``."""
    rec.emit(kind, t=t, class_index=active[idx], solver=solver, **fields)


def _l1_rows(new_rows, old_rows):
    """``||new_rows[i] - old_rows[i]||_1`` per row, each a 1-D sum.

    The differences are laid out as C-contiguous rows, so every row sum
    is the pairwise reduction :meth:`ChainHistory.record` runs on one
    column pair.
    """
    delta = np.subtract(new_rows, old_rows, order="C")
    np.abs(delta, out=delta)
    return delta.sum(axis=1)


def run_chains(model, backend, label_matrix, *, starts=None, recorder=None):
    """Advance all ``q`` per-class chains of Algorithm 1 in lockstep.

    Every iteration runs one backend x-step and one z-step over the
    still-active class columns, so the operator structure is traversed
    once per iteration instead of once per class.  Columns whose
    residual falls below ``tol`` are frozen — early-converging classes
    stop paying for slow ones — and each class keeps its own
    :class:`ChainHistory` with exactly the entries a sequential
    per-class loop of Algorithm 1 would record.

    ``model`` supplies the chain hyper-parameters (``tol`` /
    ``max_iter`` / label-update settings / ``solver``); ``starts``
    optionally provides warm ``(X0, Z0)`` score matrices.  Returns
    ``(node_scores, relation_scores, histories)``, the scores being the
    backend's ``X`` / ``Z`` buffers.

    When ``recorder`` is enabled, every iteration emits one
    ``chain_iteration`` event carrying the five
    :data:`~repro.obs.CHAIN_PHASES` wall-clock timings and, per active
    class, aligned ``class_index`` / ``residual`` / ``frozen`` lists.
    When the recorder additionally asks for probes
    (``recorder.probes``), every iteration also emits one
    ``invariant_probe`` event checking the quantities Theorem 1
    guarantees: the simplex mass drift of the active ``x``/``z``
    columns (max ``|column sum - 1|``), their minimum entries and
    negative-entry count, the dangling-mass share the O/R builds had to
    repair, and the Eq. 12 restart-acceptance count (-1 on iterations
    where the update is inactive).  The instrumentation only *observes*
    — timings and probes are taken around/after the existing statements
    without reordering any floating-point operation, so traced and
    untraced fits are bit-identical.

    ``model.solver`` selects the fixed-point accelerator (see
    :mod:`repro.solvers`).  For ``"plain"`` no solver object is even
    created and every solver statement is skipped.  For ``"anderson"``,
    the fit's one
    :class:`~repro.solvers.anderson.AndersonMixer` is offered the whole
    active block of ``(x_prev, plain step)`` rows right after the
    x-projection; accepted proposals replace their columns (one
    ``solver_step`` event per class), safeguard rejections fall back to
    the plain step and restart that row's history (a ``solver_restart``
    event), and an Eq. 12 restart-vector change restarts the history
    too (the map being accelerated has moved).  Traced accelerated fits
    add the solver block's wall time to each ``chain_iteration`` event
    as ``solver_seconds``, outside the five phases.
    """
    rec = get_recorder() if recorder is None else recorder
    timed = rec.enabled
    probes_on = timed and rec.probes
    label_matrix = np.asarray(label_matrix, dtype=bool)
    q = label_matrix.shape[1]
    X, Z, L = backend.X, backend.Z, backend.L
    m = Z.shape[0]

    masks = [label_matrix[:, c] for c in range(q)]
    label_rows = np.ascontiguousarray(label_matrix.T)
    L[:] = np.column_stack([initial_label_vector(mask) for mask in masks])
    if starts is None:
        X[:] = L
        Z[:] = np.repeat(uniform_distribution(m)[:, None], q, axis=1)
    else:
        for target, start in zip((X, Z), starts):
            target[:] = project_columns_to_simplex(start)
    histories = [
        ChainHistory(tol=model.tol, n_anchors=int(mask.sum())) for mask in masks
    ]
    solver = model.solver
    use_solver = solver != PLAIN_SOLVER
    if use_solver:
        mixer = make_solver(solver, tol=model.tol, rows=q, size=X.shape[0])
    solver_fields = {}
    if probes_on:
        o_dangling_share = float(backend.o_tensor.dangling_share)
        r_unlinked_share = float(backend.r_tensor.unlinked_share)
    timer = None
    active = list(range(q))
    # The active columns of X as C-contiguous rows, carried from one
    # iteration to the next: the Eq. 12 update and the residuals read
    # them instead of gathering strided columns of X.
    x_rows = np.ascontiguousarray(X.T)
    for t in range(1, model.max_iter + 1):
        if not active:
            break
        if timed:
            timer = PhaseTimer(CHAIN_PHASES)
            timer.start("label_update")
        if model.update_labels and t > 2:
            vectors, n_accepted = updated_label_matrix(
                label_rows[active].T,
                x_rows.T,
                model.label_threshold,
                mode=model.threshold_mode,
            )
            if use_solver:
                # A restart vector moved (Eq. 12 accepted new nodes): the
                # map being accelerated changed, so that row's iterate
                # history is stale.
                moved = np.any(vectors != L[:, active], axis=0)
                mixer.restart(moved)
                if timed:
                    for idx in np.flatnonzero(moved).tolist():
                        _emit_solver_event(
                            rec, "solver_restart", t, active, solver, idx,
                            reason="label_update",
                        )
            for idx, c in enumerate(active):
                histories[c].accepted_history.append(int(n_accepted[idx]))
            L[:, active] = vectors
        if timed:
            timer.start("o_propagation")
        x_new = backend.x_step(active, timer)
        if timed:
            timer.start("projection")
        # Projected as contiguous rows, then written back in the x-step's
        # own layout, which the z-step and the probe column sums read.
        x_new_rows = project_columns_to_simplex(x_new).T
        x_new[...] = x_new_rows.T
        if use_solver:
            if timed:
                # Pause the phase clock: the solver block's time goes to
                # chain_iteration's solver_seconds, so a plain-vs-accelerated
                # trace-diff compares the shared phases like for like.
                timer.stop()
                solver_started = time.perf_counter()
            accepted, rejected = mixer.step(x_rows, x_new_rows)
            if accepted.any():
                x_new[:, accepted] = x_new_rows[accepted].T
            if timed:
                solver_fields["solver_seconds"] = (
                    time.perf_counter() - solver_started
                )
                for idx in np.flatnonzero(accepted | rejected).tolist():
                    if accepted[idx]:
                        _emit_solver_event(rec, "solver_step", t, active, solver, idx)
                    else:
                        _emit_solver_event(
                            rec, "solver_restart", t, active, solver, idx,
                            reason="safeguard",
                        )
        if timed:
            timer.start("r_contraction")
        z_new = backend.z_step(x_new, active)
        if timed:
            timer.start("projection")
        z_rows = project_columns_to_simplex(z_new).T
        rhos = _l1_rows(x_new_rows, x_rows) + _l1_rows(z_rows, Z[:, active].T)
        X[:, active] = x_new
        Z[:, active] = z_rows.T
        for c, rho in zip(active, rhos.tolist()):
            histories[c].record_residual(rho)
        moving = rhos >= model.tol
        still_active = [c for c, keep in zip(active, moving) if keep]
        if not moving.all():
            x_rows = x_new_rows[moving]
            if use_solver:
                mixer.compact(moving)
        else:
            x_rows = x_new_rows
        if timed:
            timer.stop()
            backend.end_iteration(rec, t, len(active))
            frozen = [histories[c].converged for c in active]
            rec.emit(
                "chain_iteration",
                t=t,
                n_active=len(active),
                phases=dict(timer.phases),
                class_index=list(active),
                residual=[histories[c].final_residual for c in active],
                frozen=frozen,
                **solver_fields,
            )
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
                    x_mass_drift=float(np.abs(x_new.sum(axis=0) - 1.0).max()),
                    z_mass_drift=float(np.abs(z_active.sum(axis=0) - 1.0).max()),
                    x_min=float(x_new.min()),
                    z_min=float(z_active.min()),
                    n_negative=int((x_new < 0.0).sum() + (z_active < 0.0).sum()),
                    n_accepted=n_accepted,
                    o_dangling_share=o_dangling_share,
                    r_unlinked_share=r_unlinked_share,
                )
        active = still_active
    for c in active:
        # The loop ran out of budget with this chain still moving.
        histories[c].exhausted = True
    return X, Z, histories
