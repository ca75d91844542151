"""Phase-by-phase trace comparison for perf-regression gating.

Given two traces (or their :class:`~repro.obs.summary.TraceSummary`
folds) — typically "the last known-good run" vs "this run" — compare
every time and count dimension with a relative-change threshold and
produce a pass/fail report.  This is the check behind the CLI's
``trace-diff OLD NEW`` command and the CI gate that a trace diffed
against itself reports zero regressions.

Two guards keep the verdict stable on noisy wall-clocks:

* a *relative* threshold (default 20%) — ``new`` must exceed
  ``old * (1 + threshold)`` to count as a regression;
* an *absolute floor* for time metrics (default 1 ms) — microsecond
  jitter on near-zero phases can triple without meaning anything.

Count metrics (iterations, fits, frozen events, ...) use the relative
threshold only; they are deterministic for a fixed workload, so any
growth is signal.

When both traces hold several fits, the times that belong to a fit
(:data:`PER_FIT_FIELDS` and the chain phases) compare the *median* over
fits instead of the total, so one slow fit (a first-call warm-up, a
preempted iteration) does not decide the verdict.  Noise that slows a
whole process still does.  Counts stay totals.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

from repro.obs.summary import TraceSummary, summarize_trace

#: Default relative-change threshold for flagging a regression.
DEFAULT_THRESHOLD = 0.2

#: Time deltas below this many seconds never count as regressions.
DEFAULT_TIME_FLOOR = 1e-3

#: ``TraceSummary`` attributes compared as wall-clock times.
TIME_FIELDS = (
    "fit_seconds",
    "operator_seconds",
    "trial_seconds",
    "grid_seconds",
    "patch_seconds",
    "reconverge_seconds",
)

#: Time fields that belong to one fit (compared as per-fit medians).
PER_FIT_FIELDS = ("fit_seconds", "operator_seconds")

#: ``TraceSummary`` attributes compared as counts.
COUNT_FIELDS = (
    "n_iterations",
    "n_fits",
    "n_frozen_events",
    "n_delta_batches",
    "reconverge_iterations",
)


@dataclass(frozen=True)
class TraceDiffEntry:
    """One compared dimension of a trace diff.

    ``rel_change`` is ``(new - old) / old`` (``inf`` when a metric
    appears from zero, ``nan`` when both sides are zero).
    ``regressed`` / ``improved`` apply the threshold in each direction.
    """

    name: str
    kind: str  # "time" | "count"
    old: float
    new: float
    rel_change: float
    regressed: bool
    improved: bool


@dataclass
class TraceDiff:
    """The full comparison of two trace summaries."""

    threshold: float
    time_floor: float
    entries: list[TraceDiffEntry] = field(default_factory=list)
    #: ``(old, new)`` fit counts when fit times are per-fit medians.
    per_fit: tuple[int, int] | None = None

    @property
    def regressions(self) -> list[TraceDiffEntry]:
        """The entries that regressed past the threshold."""
        return [entry for entry in self.entries if entry.regressed]

    @property
    def improvements(self) -> list[TraceDiffEntry]:
        """The entries that improved past the threshold."""
        return [entry for entry in self.entries if entry.improved]

    @property
    def passed(self) -> bool:
        """True when no dimension regressed."""
        return not self.regressions


def _relative_change(old: float, new: float) -> float:
    if old == 0.0:
        return float("nan") if new == 0.0 else float("inf")
    return (new - old) / old


def _entry(
    name: str,
    kind: str,
    old: float,
    new: float,
    *,
    threshold: float,
    time_floor: float,
) -> TraceDiffEntry:
    old, new = float(old), float(new)
    rel = _relative_change(old, new)
    grew = new > old * (1.0 + threshold)
    shrank = old > new * (1.0 + threshold) if new > 0.0 else old > 0.0
    if kind == "time":
        # Sub-floor jitter is noise in both directions.
        grew = grew and (new - old) > time_floor
        shrank = shrank and (old - new) > time_floor
    else:
        grew = grew and (new - old) >= 1.0
        shrank = shrank and (old - new) >= 1.0
    return TraceDiffEntry(
        name=name,
        kind=kind,
        old=old,
        new=new,
        rel_change=rel,
        regressed=grew,
        improved=shrank,
    )


def _fit_medians(summary: TraceSummary) -> dict[str, float] | None:
    """Median over fits of each per-fit time (``None`` below two fits)."""
    records = summary.per_fit
    if len(records) < 2:
        return None
    keys = set().union(*records)
    return {
        key: statistics.median(record.get(key, 0.0) for record in records)
        for key in keys
    }


def diff_summaries(
    old: TraceSummary,
    new: TraceSummary,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    time_floor: float = DEFAULT_TIME_FLOOR,
) -> TraceDiff:
    """Compare two summaries dimension by dimension.

    Compares every chain phase total, the :data:`TIME_FIELDS` wall
    clocks, and the :data:`COUNT_FIELDS` counts.  A dimension regresses
    when ``new`` exceeds ``old * (1 + threshold)`` — plus the absolute
    time floor for wall clocks — and improves symmetrically.  When both
    summaries carry two or more per-fit records, the phases and
    :data:`PER_FIT_FIELDS` compare per-fit medians instead of totals.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    diff = TraceDiff(threshold=float(threshold), time_floor=float(time_floor))
    old_medians, new_medians = _fit_medians(old), _fit_medians(new)
    if old_medians is not None and new_medians is not None:
        diff.per_fit = (len(old.per_fit), len(new.per_fit))

    def pick(medians, key: str, total: float) -> float:
        return total if diff.per_fit is None else medians.get(key, 0.0)

    phase_names = sorted(set(old.phase_totals) | set(new.phase_totals))
    for name in phase_names:
        key = f"phase:{name}"
        diff.entries.append(
            _entry(
                key,
                "time",
                pick(old_medians, key, old.phase_totals.get(name, 0.0)),
                pick(new_medians, key, new.phase_totals.get(name, 0.0)),
                threshold=threshold,
                time_floor=time_floor,
            )
        )
    for name in TIME_FIELDS:
        old_value, new_value = getattr(old, name), getattr(new, name)
        if name in PER_FIT_FIELDS:
            old_value = pick(old_medians, name, old_value)
            new_value = pick(new_medians, name, new_value)
        diff.entries.append(
            _entry(
                name,
                "time",
                old_value,
                new_value,
                threshold=threshold,
                time_floor=time_floor,
            )
        )
    for name in COUNT_FIELDS:
        diff.entries.append(
            _entry(
                name,
                "count",
                getattr(old, name),
                getattr(new, name),
                threshold=threshold,
                time_floor=time_floor,
            )
        )
    return diff


def diff_traces(
    old_events,
    new_events,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    time_floor: float = DEFAULT_TIME_FLOOR,
) -> TraceDiff:
    """Compare two parsed traces (``read_trace`` output) end to end."""
    return diff_summaries(
        summarize_trace(old_events),
        summarize_trace(new_events),
        threshold=threshold,
        time_floor=time_floor,
    )


def format_trace_diff(diff: TraceDiff) -> str:
    """Render a :class:`TraceDiff` as a fixed-width regression report."""
    header = (
        "dimension".ljust(24)
        + "old".rjust(12)
        + "new".rjust(12)
        + "change".rjust(10)
        + "  verdict"
    )
    lines = [
        f"trace diff — threshold {diff.threshold:.0%}, "
        f"time floor {diff.time_floor * 1e3:g} ms",
    ]
    if diff.per_fit is not None:
        old_fits, new_fits = diff.per_fit
        lines.append(
            f"phases and {', '.join(PER_FIT_FIELDS)}: per-fit medians "
            f"({old_fits} vs {new_fits} fits)"
        )
    lines += ["", header, "-" * len(header)]
    for entry in diff.entries:
        if entry.kind == "time":
            old_text, new_text = f"{entry.old:12.4f}", f"{entry.new:12.4f}"
        else:
            old_text, new_text = f"{entry.old:12.0f}", f"{entry.new:12.0f}"
        if math.isnan(entry.rel_change):
            change = "-"
        elif math.isinf(entry.rel_change):
            change = "new"
        else:
            change = f"{entry.rel_change:+.1%}"
        verdict = (
            "REGRESSED" if entry.regressed else "improved" if entry.improved else "ok"
        )
        lines.append(
            entry.name.ljust(24) + old_text + new_text + change.rjust(10) + f"  {verdict}"
        )
    regressions = diff.regressions
    lines.append("")
    lines.append(
        f"{len(regressions)} regression(s), {len(diff.improvements)} improvement(s): "
        + ("PASS" if diff.passed else "FAIL")
    )
    return "\n".join(lines)
