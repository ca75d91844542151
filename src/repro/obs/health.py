"""Convergence diagnostics: fold residual series into health verdicts.

The chain-level trace layer records the Algorithm 1 stopping quantity
``rho_t = ||x_t - x_{t-1}||_1 + ||z_t - z_{t-1}||_1`` per class and
iteration (the per-class lists of ``chain_iteration`` events) without
interpreting it.  This module turns those series into actionable
:class:`ChainHealth` verdicts: a fitted geometric decay rate (the
observable surrogate for the spectral gap of the linearised update map
— see ``repro.analysis.theory``), a projection of how many more
iterations the chain needs to reach its tolerance, and a five-way
status classification.

Status vocabulary and thresholds
--------------------------------
Residuals of a healthy T-Mark chain decay geometrically (Fig. 10 of the
paper; the restart term makes the update a contraction), so the verdict
is read off the *tail* of the series — the first
:data:`DECAY_BURN_IN` iterations are transient and skipped.

``healthy``
    The chain converged.
``not_converged``
    The chain ran out of budget but is decaying geometrically at a rate
    below :data:`STALL_RATE` — more iterations would finish the job
    (the projection is finite).  This is the status a ``max_iter``
    exhaustion surfaces through the ``chain_health`` event.
``diverging``
    The fitted rate exceeds :data:`DIVERGENCE_RATE`, or the final
    residual grew past :data:`DIVERGENCE_GROWTH` x the first one —
    the iteration is moving away from any fixed point.
``oscillating``
    The residual is non-monotone (the share of up-moves in the tail is
    at least :data:`OSCILLATION_UP_SHARE`), or it sits flat at
    essentially its maximum (final residual at least
    :data:`NO_PROGRESS_FRACTION` of the peak with a rate near 1): the
    iterates are bouncing on a periodic orbit rather than approaching
    a point.  A restart-free chain on a periodic graph lands here.
``stalled``
    The rate is at least :data:`STALL_RATE` but the chain *had* made
    progress before flattening out — decay stopped short of the
    tolerance (e.g. tolerance set below attainable float resolution).

The decay-rate estimator is the geometric mean of the consecutive
residual ratios over the tail (equivalently the telescoped endpoint
ratio), so on a cleanly geometric series it reproduces the observed
per-iteration ratio exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.recorder import read_iteration

#: Leading iterations excluded from the decay fit (start-up transient).
DECAY_BURN_IN = 2

#: Fitted rate above this is classified ``diverging``.
DIVERGENCE_RATE = 1.01

#: Final residual above this multiple of the first is ``diverging``.
DIVERGENCE_GROWTH = 1.5

#: Fitted rate at or above this (for a non-converged chain) is a stall.
STALL_RATE = 0.995

#: Share of residual up-moves in the tail that flags ``oscillating``.
OSCILLATION_UP_SHARE = 0.25

#: A rate-~1 chain whose final residual is still at least this fraction
#: of its peak never made progress: ``oscillating``, not ``stalled``.
NO_PROGRESS_FRACTION = 0.5

#: Projection cap: beyond this many iterations report the sentinel.
PROJECTION_CAP = 10**9

#: Sentinel ``projected_iterations`` value meaning "never at this rate"
#: (rate >= 1, unfittable series, or beyond :data:`PROJECTION_CAP`).
#: Always a finite int, so verdict comparisons and the ``health`` CLI
#: exit code can never see ``inf``/``nan`` here.
PROJECTION_NEVER = -1

#: The verdict vocabulary, ordered from best to worst.
HEALTH_STATUSES = (
    "healthy",
    "not_converged",
    "stalled",
    "oscillating",
    "diverging",
)

#: Severity rank used by :func:`worst_status`.
_SEVERITY = {status: rank for rank, status in enumerate(HEALTH_STATUSES)}

#: Fallback tolerance for traces predating the ``tol`` field on ``fit``
#: events (the :class:`~repro.core.tmark.TMark` default).
DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class ChainHealth:
    """Health verdict for one per-class chain.

    Attributes
    ----------
    fit_index:
        0-based index of the fit this chain belongs to (a trace may
        contain many fits; single-fit sources report 0).
    class_index, label:
        The chain's class column and, when known, its label name.
    status:
        One of :data:`HEALTH_STATUSES`.
    converged:
        Whether the final residual fell below ``tol``.
    n_iterations:
        Length of the residual series.
    final_residual:
        The last recorded residual (``inf`` for an empty series).
    decay_rate:
        Fitted geometric ratio of the residual tail (``nan`` when the
        series is too short to fit).
    spectral_gap:
        ``1 - decay_rate`` clipped at 0 — the estimated gap between the
        dominant and subdominant eigenvalues of the linearised update
        (``nan`` when the rate is unfittable).
    projected_iterations:
        Estimated further iterations to reach ``tol`` at the fitted
        rate: 0 when already converged, :data:`PROJECTION_NEVER` (-1)
        when the projection does not exist (rate >= 1, unfittable, or
        beyond :data:`PROJECTION_CAP`).  Always a finite int.
    oscillation_share:
        Share of residual up-moves in the fitted tail.
    tol:
        The tolerance the verdict was judged against.
    """

    class_index: int
    status: str
    converged: bool
    n_iterations: int
    final_residual: float
    decay_rate: float
    spectral_gap: float
    projected_iterations: int
    oscillation_share: float
    tol: float
    label: str | None = None
    fit_index: int = 0

    @property
    def ok(self) -> bool:
        """True for ``healthy`` (converged) chains only."""
        return self.status == "healthy"

    def as_event(self) -> dict:
        """The flat payload emitted as a ``chain_health`` trace event."""
        return {
            "fit_index": self.fit_index,
            "class_index": self.class_index,
            "label": self.label,
            "status": self.status,
            "converged": self.converged,
            "n_iterations": self.n_iterations,
            "final_residual": self.final_residual,
            "decay_rate": self.decay_rate,
            "spectral_gap": self.spectral_gap,
            "projected_iterations": self.projected_iterations,
            "oscillation_share": self.oscillation_share,
            "tol": self.tol,
        }

    @classmethod
    def from_event(cls, event: dict) -> "ChainHealth":
        """Rebuild a verdict from a ``chain_health`` trace event.

        ``projected_iterations`` is clamped to :data:`PROJECTION_NEVER`
        when the event carries a non-finite value — traces written by a
        pre-sentinel release could hold ``inf``/``nan`` for stalled
        chains, and ``int(inf)`` would otherwise crash the fold (and
        with it the ``health`` CLI).
        """
        raw_projected = event.get("projected_iterations", PROJECTION_NEVER)
        try:
            projected = int(raw_projected)
        except (OverflowError, ValueError):
            projected = PROJECTION_NEVER
        return cls(
            class_index=int(event.get("class_index", -1)),
            status=str(event.get("status", "healthy")),
            converged=bool(event.get("converged", False)),
            n_iterations=int(event.get("n_iterations", 0)),
            final_residual=float(event.get("final_residual", float("inf"))),
            decay_rate=float(event.get("decay_rate", float("nan"))),
            spectral_gap=float(event.get("spectral_gap", float("nan"))),
            projected_iterations=projected,
            oscillation_share=float(event.get("oscillation_share", 0.0)),
            tol=float(event.get("tol", DEFAULT_TOL)),
            label=event.get("label"),
            fit_index=int(event.get("fit_index", 0)),
        )


def worst_status(statuses) -> str:
    """The most severe status of a collection (``healthy`` when empty)."""
    worst = "healthy"
    for status in statuses:
        if _SEVERITY.get(status, 0) > _SEVERITY[worst]:
            worst = status
    return worst


def estimate_decay_rate(residuals, *, burn_in: int = DECAY_BURN_IN) -> float:
    """Fit the geometric decay rate of a residual series.

    Returns the geometric mean of the consecutive ratios over the tail
    after ``burn_in`` iterations (the telescoped endpoint ratio), using
    only strictly positive residuals — a residual of exactly 0 means the
    chain hit a float fixed point and carries no rate information.
    ``nan`` when fewer than two positive residuals remain.
    """
    positive = [float(r) for r in residuals if r > 0.0]
    if len(positive) >= burn_in + 2:
        positive = positive[burn_in:]
    if len(positive) < 2:
        return float("nan")
    span = math.log(positive[-1]) - math.log(positive[0])
    return math.exp(span / (len(positive) - 1))


def _oscillation_share(residuals, *, burn_in: int = DECAY_BURN_IN) -> float:
    """Share of strict residual increases among consecutive tail pairs."""
    tail = [float(r) for r in residuals]
    if len(tail) >= burn_in + 2:
        tail = tail[burn_in:]
    if len(tail) < 2:
        return 0.0
    ups = sum(1 for a, b in zip(tail, tail[1:]) if b > a)
    return ups / (len(tail) - 1)


def _projected_iterations(
    final_residual: float, decay_rate: float, tol: float, *, converged: bool
) -> int:
    """Iterations still needed to reach ``tol`` at the fitted rate."""
    if converged:
        return 0
    if (
        math.isnan(decay_rate)
        or decay_rate >= 1.0
        or decay_rate <= 0.0
        or not final_residual > 0.0
        or not math.isfinite(final_residual)
    ):
        return PROJECTION_NEVER
    if final_residual < tol:
        return 0
    needed = math.log(tol / final_residual) / math.log(decay_rate)
    if not math.isfinite(needed) or needed > PROJECTION_CAP:
        return PROJECTION_NEVER
    return int(math.ceil(needed))


def classify_residuals(residuals, tol: float, *, converged=None) -> str:
    """Classify a residual series into one of :data:`HEALTH_STATUSES`.

    ``converged`` overrides the last-residual-below-``tol`` check (the
    chain runner knows; trace folding infers).  The thresholds are the
    module constants documented above.
    """
    series = [float(r) for r in residuals]
    if not series:
        return "healthy"
    final = series[-1]
    if converged is None:
        converged = final < tol
    if converged:
        return "healthy"
    rate = estimate_decay_rate(series)
    up_share = _oscillation_share(series)
    if (not math.isnan(rate) and rate > DIVERGENCE_RATE) or (
        final > DIVERGENCE_GROWTH * series[0]
    ):
        return "diverging"
    if up_share >= OSCILLATION_UP_SHARE:
        return "oscillating"
    if not math.isnan(rate) and rate >= STALL_RATE:
        peak = max(series)
        if peak > 0.0 and final >= NO_PROGRESS_FRACTION * peak:
            return "oscillating"
        return "stalled"
    return "not_converged"


def chain_health(
    residuals,
    tol: float,
    *,
    class_index: int = -1,
    label: str | None = None,
    fit_index: int = 0,
    converged=None,
) -> ChainHealth:
    """Build the full :class:`ChainHealth` verdict for one residual series."""
    series = [float(r) for r in residuals]
    final = series[-1] if series else float("inf")
    if converged is None:
        converged = bool(series) and final < tol
    rate = estimate_decay_rate(series)
    gap = float("nan") if math.isnan(rate) else max(0.0, 1.0 - rate)
    return ChainHealth(
        class_index=class_index,
        label=label,
        fit_index=fit_index,
        status=classify_residuals(series, tol, converged=converged),
        converged=bool(converged),
        n_iterations=len(series),
        final_residual=final,
        decay_rate=rate,
        spectral_gap=gap,
        projected_iterations=_projected_iterations(
            final, rate, tol, converged=bool(converged)
        ),
        oscillation_share=_oscillation_share(series),
        tol=float(tol),
    )


def health_from_history(
    history, *, class_index: int = -1, label: str | None = None, fit_index: int = 0
) -> ChainHealth:
    """Verdict for one :class:`~repro.core.convergence.ChainHistory`."""
    return chain_health(
        history.residuals,
        history.tol,
        class_index=class_index,
        label=label,
        fit_index=fit_index,
        converged=history.converged,
    )


def health_from_result(result, *, fit_index: int = 0) -> list[ChainHealth]:
    """Per-class verdicts for a fitted result (``histories`` + names).

    Accepts anything exposing ``histories`` and ``label_names`` aligned
    by class — a :class:`~repro.core.tmark.TMarkResult` in practice.
    """
    return [
        health_from_history(
            history, class_index=c, label=result.label_names[c], fit_index=fit_index
        )
        for c, history in enumerate(result.histories)
    ]


def collect_residual_series(events):
    """Group a trace's per-class residuals by fit and class.

    Returns a list with one entry per fit:
    ``(per_class_residuals, tol, converged_classes)`` where
    ``per_class_residuals`` maps ``class_index -> [rho_1, rho_2, ...]``
    (emission order), ``tol`` is the fit event's tolerance (``None`` for
    traces predating the field or chains not yet closed by a ``fit``
    event), and ``converged_classes`` maps ``class_index -> frozen``
    from the class's final iteration.  Reads ``chain_iteration`` events
    through :func:`~repro.obs.recorder.read_iteration`.
    """
    groups = []
    current: dict[int, list[float]] = {}
    frozen: dict[int, bool] = {}
    for event in events:
        if event.get("event") == "fit":
            if current:
                groups.append((current, event.get("tol"), frozen))
            current, frozen = {}, {}
            continue
        if event.get("event") == "chain_iteration":
            for c, residual, is_frozen in read_iteration(event).classes:
                current.setdefault(c, []).append(residual)
                frozen[c] = is_frozen
    if current:
        groups.append((current, None, frozen))
    return groups


def trace_chain_health(events, *, tol: float | None = None) -> list[ChainHealth]:
    """Per-fit, per-class verdicts for a whole trace.

    Prefers the precomputed ``chain_health`` events when the trace
    carries them (fits since the diagnostics layer emit one per class);
    otherwise folds the raw per-class residual series, taking the
    tolerance from each fit's ``fit`` event, then from ``tol``, then
    from :data:`DEFAULT_TOL`.
    """
    direct = [
        ChainHealth.from_event(e) for e in events if e.get("event") == "chain_health"
    ]
    if direct:
        return direct
    verdicts = []
    for fit_index, (series_by_class, fit_tol, frozen) in enumerate(
        collect_residual_series(events)
    ):
        effective_tol = fit_tol if fit_tol is not None else tol
        if effective_tol is None:
            effective_tol = DEFAULT_TOL
        for class_index in sorted(series_by_class):
            verdicts.append(
                chain_health(
                    series_by_class[class_index],
                    float(effective_tol),
                    class_index=class_index,
                    fit_index=fit_index,
                    converged=frozen.get(class_index),
                )
            )
    return verdicts


def format_health_report(healths) -> str:
    """Render a list of :class:`ChainHealth` as a fixed-width table."""
    healths = list(healths)
    counts: dict[str, int] = {}
    for health in healths:
        counts[health.status] = counts.get(health.status, 0) + 1
    breakdown = ", ".join(
        f"{status}={counts[status]}" for status in HEALTH_STATUSES if status in counts
    )
    lines = [
        f"chain health — {len(healths)} chain(s)"
        + (f": {breakdown}" if breakdown else "")
    ]
    if not healths:
        return lines[0]
    header = (
        "fit".rjust(4)
        + "class".rjust(7)
        + "  "
        + "status".ljust(15)
        + "iters".rjust(6)
        + "residual".rjust(11)
        + "rate".rjust(9)
        + "gap".rjust(9)
        + "left".rjust(7)
    )
    lines += ["", header, "-" * len(header)]
    for health in healths:
        name = health.label if health.label is not None else str(health.class_index)
        rate = "n/a" if math.isnan(health.decay_rate) else f"{health.decay_rate:.4f}"
        gap = "n/a" if math.isnan(health.spectral_gap) else f"{health.spectral_gap:.4f}"
        left = (
            "-"
            if health.projected_iterations < 0
            else str(health.projected_iterations)
        )
        lines.append(
            f"{health.fit_index:4d}"
            + f"{name:>7.7s}"
            + "  "
            + health.status.ljust(15)
            + f"{health.n_iterations:6d}"
            + f"{health.final_residual:11.2e}"
            + rate.rjust(9)
            + gap.rjust(9)
            + left.rjust(7)
        )
    overall = worst_status(h.status for h in healths)
    lines.append("")
    lines.append(f"overall: {overall}")
    return "\n".join(lines)
