"""The :class:`Recorder` protocol, no-op default and in-memory sink.

A recorder receives structured events from the instrumented hot paths.
The contract is intentionally tiny — ``enabled``, ``probes`` and
``emit`` — so alternative sinks (JSONL files, in-memory lists, metrics
back-ends) are trivial to plug in.  Events are the only channel: every
count a sink reports (the ``tmark_*_total`` counters of
:class:`~repro.obs.metrics.MetricsRecorder`, the event table of
``trace-summary``) is derived from the events themselves, so any number
can be recomputed from a trace.

Instrumented loops hoist ``recorder.enabled`` into a local once per fit
and skip all timing and emission when it is ``False``, which is what
makes the :data:`NULL_RECORDER` default effectively free.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple

#: Every event type the instrumented code emits.
EVENT_TYPES = (
    "chain_iteration",  # per-iteration phase timings + per-class residual/frozen
    "operator_build",   # O/R/W construction timings
    "fit",              # one per TMark.fit: wall clock + shape summary
    "trial",            # one per harness trial: split + fit + score
    "grid_cell",        # one per run_grid cell: mean/std + wall clock
    "delta_apply",      # one per streaming delta batch: size + op mix
    "operator_patch",   # incremental O/R/W update: touched columns/fibres
    "reconverge",       # warm refit after a batch: iterations + wall clock
    "chain_health",     # per-class convergence verdict (repro.obs.health)
    "invariant_probe",  # per-iteration simplex/negativity/dangling probes
    "pool_start",       # parallel pool opened: workers + cell count
    "cell_dispatch",    # one grid cell / trial handed to the pool
    "cell_done",        # one grid cell / trial merged back from a worker
    "shard_dispatch",   # one node shard assigned to a sharded-fit worker
    "boundary_exchange",  # per-iteration halo/fibre-mass shard exchange
    "solver_step",      # accelerator proposal accepted for one class
    "solver_restart",   # accelerator history reset: safeguard/label_update
    "store_save",       # GraphStore.save: path + shape + file count
    "store_open",       # GraphStore.open: path + shape + verify flag
    "span",             # hierarchical span close: ids + duration + pid/tid
    "resource_sample",  # periodic RSS / CPU / GC snapshot (flight sampler)
    "http_request",     # one daemon request: endpoint + status + latency
    "snapshot_swap",    # serving snapshot published: version + build time
)

#: The five per-iteration phases of :func:`repro.core.chains.run_chains`.
CHAIN_PHASES = (
    "label_update",   # the Eq. 12 restart-vector update
    "o_propagation",  # restart mix + O x-bar_1 X x-bar_3 Z contraction
    "feature_walk",   # beta * (W @ X)
    "r_contraction",  # R x-bar_1 X x-bar_2 X contraction
    "projection",     # simplex projections + residual bookkeeping
)


class ChainIteration(NamedTuple):
    """One ``chain_iteration`` event, as :func:`read_iteration` reads it."""

    t: int | None  # the iteration number
    n_active: int  # classes still iterating
    phases: dict[str, float]  # phase name -> seconds, in event order
    classes: tuple[tuple[int, float, bool], ...]  # (class_index, residual, frozen)
    n_frozen: int  # frozen flags set, counted over the event's ``frozen`` list
    solver_seconds: float  # the solver block's wall time (0 for plain fits)

    @property
    def phase_seconds(self) -> float:
        """The iteration's summed phase time."""
        return sum(self.phases.values(), 0.0)


def read_iteration(fields) -> ChainIteration:
    """Read one ``chain_iteration`` event's fields.

    :func:`repro.core.chains.run_chains` writes the event: the
    :data:`CHAIN_PHASES` timings, and per active class the aligned lists
    ``class_index``, ``residual`` and ``frozen``, plus ``solver_seconds``
    for accelerated fits.  Every reader of the event (``trace-summary``,
    ``health``, the metrics and the Chrome export) goes through this
    function, so the event's shape is known in one place.
    """
    frozen = fields.get("frozen", ())
    return ChainIteration(
        t=fields.get("t"),
        n_active=fields.get("n_active", 0),
        phases={name: float(s) for name, s in fields.get("phases", {}).items()},
        classes=tuple(
            (int(c), float(residual), bool(is_frozen))
            for c, residual, is_frozen in zip(
                fields.get("class_index", ()), fields.get("residual", ()), frozen
            )
        ),
        n_frozen=sum(map(bool, frozen)),
        solver_seconds=float(fields.get("solver_seconds", 0.0)),
    )


class Recorder:
    """Base recorder: the protocol every sink implements.

    Attributes
    ----------
    enabled:
        Hot paths hoist this flag once per fit; when ``False`` they skip
        all timer reads and ``emit`` calls, so a disabled recorder costs
        only a few branch checks per iteration.
    probes:
        Whether an enabled recorder also wants the per-iteration
        ``invariant_probe`` events (simplex mass drift, negativity,
        dangling-mass share — see :mod:`repro.obs.health`).  The probes
        cost a few extra array reductions per iteration on top of the
        phase timings, so sinks that only need timings can opt out;
        ignored while ``enabled`` is ``False``.
    """

    enabled: bool = True
    probes: bool = True

    def emit(self, event: str, **fields) -> None:
        """Record one structured event (overridden by concrete sinks)."""
        raise NotImplementedError


class NullRecorder(Recorder):
    """The zero-overhead default: drops everything, ``enabled`` False."""

    enabled = False
    probes = False

    def emit(self, event: str, **fields) -> None:
        pass


class ListRecorder(Recorder):
    """In-memory sink collecting ``(event, fields)`` dicts (for tests).

    ``enabled=False`` builds a recorder that instrumented code must
    treat as a no-op — used to verify the hot paths really skip
    emission when disabled.

    Like the file-backed sinks, events emitted while a
    :func:`~repro.obs.spans.span` is active are tagged with its
    ``span_id`` — pool workers collect into a ``ListRecorder``, so this
    is what preserves causal links when their events are replayed into
    the coordinator's trace.
    """

    def __init__(self, *, enabled: bool = True, probes: bool = True):
        self.enabled = bool(enabled)
        self.probes = bool(probes)
        self.events: list[dict] = []

    def emit(self, event: str, **fields) -> None:
        # Lazy import: repro.obs.spans imports this module at load time.
        from repro.obs.spans import current_span

        record = {"event": event, **fields}
        ctx = current_span()
        if ctx is not None and "span_id" not in fields:
            record["span_id"] = ctx.span_id
        self.events.append(record)

    def events_of(self, event: str) -> list[dict]:
        """The recorded events of one type, in emission order."""
        return [e for e in self.events if e["event"] == event]


#: The process-wide disabled recorder (the ambient default).
NULL_RECORDER = NullRecorder()

_current_recorder: ContextVar[Recorder] = ContextVar(
    "repro_obs_recorder", default=NULL_RECORDER
)


def get_recorder() -> Recorder:
    """The recorder currently installed for this context (default no-op)."""
    return _current_recorder.get()


@contextmanager
def use_recorder(recorder: Recorder):
    """Install ``recorder`` as the ambient recorder for the ``with`` scope.

    Instrumented code that was not handed an explicit recorder picks
    this one up through :func:`get_recorder`.  Scopes nest; the previous
    recorder is restored on exit.
    """
    token = _current_recorder.set(recorder)
    try:
        yield recorder
    finally:
        _current_recorder.reset(token)


class PhaseTimer:
    """Wall-clock accumulator over a fixed set of named phases.

    One timer instruments one iteration: ``start(name)`` closes the
    previous phase (if any) and opens ``name``; ``stop()`` closes the
    current phase.  A phase may be re-entered — durations accumulate —
    which is how the ``projection`` phase covers both the x-column
    projections and the post-contraction z/residual bookkeeping.  Every
    name passed at construction is present in :attr:`phases` even if
    never started (0.0), so downstream events always carry the full key
    set.
    """

    __slots__ = ("phases", "_active", "_t0")

    def __init__(self, names=CHAIN_PHASES):
        self.phases: dict[str, float] = {name: 0.0 for name in names}
        self._active: str | None = None
        self._t0 = 0.0

    def start(self, name: str) -> None:
        """Close the active phase (if any) and begin timing ``name``."""
        now = time.perf_counter()
        if self._active is not None:
            self.phases[self._active] += now - self._t0
        self._active = name
        self._t0 = now

    def stop(self) -> None:
        """Close the active phase; a stopped timer tolerates re-stops."""
        if self._active is not None:
            self.phases[self._active] += time.perf_counter() - self._t0
            self._active = None

    @property
    def total(self) -> float:
        """Sum of all accumulated phase durations (seconds)."""
        return sum(self.phases.values())
