"""The ``stream`` experiment: delta replay with warm reconvergence.

Not a paper artefact — a demonstration of the :mod:`repro.stream`
subsystem on a synthetic evolving HIN.  A seed graph plus a generated
(or user-supplied) delta journal is replayed through a
:class:`~repro.stream.StreamingSession`; the report shows, per batch,
the delta mix, the operator-patch cost and the iterations the warm
chains needed to reconverge, and closes with the exactness check: the
final streamed state must agree with a cold fit on the final graph.

The ``stream`` CLI distinguishes its failure modes by exit code (the
serving smoke and CI gates branch on them):

* :data:`EXIT_DIVERGED` (2) — the exactness check failed: streamed and
  cold argmax predictions differ on the final graph.
* :data:`EXIT_UNHEALTHY` (4) — every prediction agrees but at least one
  reconvergence surfaced a non-``healthy``
  :class:`~repro.obs.health.ChainHealth` status (mirrors the ``health``
  CLI's exit 4).
* :data:`EXIT_UNREADABLE` (5) — a ``--journal`` / ``--hin`` input file
  is missing or malformed.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.tmark import TMark
from repro.datasets.synthetic import RelationSpec, make_synthetic_hin
from repro.errors import ValidationError
from repro.experiments.report import ExperimentReport
from repro.hin.graph import HIN
from repro.obs.health import worst_status
from repro.solvers.base import PLAIN_SOLVER
from repro.stream import DeltaLog, StreamingSession, synthetic_delta_log

#: ``stream`` CLI exit codes (documented in docs/api.md).
EXIT_OK = 0
EXIT_DIVERGED = 2
EXIT_UNHEALTHY = 4
EXIT_UNREADABLE = 5

#: Streaming model configuration.  ``update_labels=False`` keeps the
#: chain a contraction with one fixed point, so the warm/cold agreement
#: check at the end is well-defined.
MODEL_PARAMS = dict(alpha=0.85, gamma=0.4, update_labels=False)


def make_stream_seed_hin(*, scale: float = 1.0, seed=0) -> HIN:
    """The seed graph of the stream experiment (labels on 40% of nodes)."""
    n_nodes = max(40, int(round(120 * scale)))
    label_names = [f"c{c}" for c in range(4)]
    hin = make_synthetic_hin(
        n_nodes,
        label_names,
        [
            RelationSpec("cites", n_links=3 * n_nodes, homophily=0.85),
            RelationSpec("co_author", n_links=2 * n_nodes, homophily=0.75),
            RelationSpec("venue", n_links=n_nodes, homophily=0.6),
        ],
        seed=seed,
        metadata={"dataset": "stream-synthetic"},
    )
    rng = np.random.default_rng(seed)
    return hin.masked(rng.random(hin.n_nodes) < 0.4)


def run_stream(
    *,
    scale: float = 1.0,
    seed=0,
    n_deltas: int = 50,
    batch_size: int = 10,
    seed_hin: HIN | None = None,
    log: DeltaLog | None = None,
    solver: str = PLAIN_SOLVER,
) -> ExperimentReport:
    """Replay a delta journal through a streaming session and report.

    ``seed_hin`` / ``log`` override the synthetic defaults (the CLI
    passes loaded files through here).  ``solver`` selects the
    fixed-point solver for every fit in the replay — the seed fit, the
    per-batch reconvergences and the cold reference fit alike, so the
    exactness check compares like with like.
    """
    hin = make_stream_seed_hin(scale=scale, seed=seed) if seed_hin is None else seed_hin
    if log is None:
        log = synthetic_delta_log(
            hin, n_deltas, batch_size=batch_size, seed=None if seed is None else seed + 1
        )

    session = StreamingSession(hin, TMark(**MODEL_PARAMS, solver=solver))
    started = time.perf_counter()
    session.fit()
    cold_seed_seconds = time.perf_counter() - started
    updates = session.replay(log)

    cold = TMark(**MODEL_PARAMS, solver=solver)
    started = time.perf_counter()
    cold.fit(session.hin)
    cold_final_seconds = time.perf_counter() - started
    max_divergence = float(
        np.max(np.abs(session.result.node_scores - cold.result_.node_scores))
    )
    predictions_agree = bool(
        np.array_equal(
            np.argmax(session.result.node_scores, axis=1),
            np.argmax(cold.result_.node_scores, axis=1),
        )
    )
    cold_iterations = max(h.n_iterations for h in cold.result_.histories)

    header = (
        "batch".rjust(5)
        + "deltas".rjust(8)
        + "new nodes".rjust(11)
        + "iters".rjust(7)
        + "patch ms".rjust(10)
        + "refit ms".rjust(10)
    )
    lines = [
        f"Streaming replay — {hin.n_nodes} seed nodes, {len(log)} deltas "
        f"in {log.n_batches} batches",
        f"seed fit: {cold_seed_seconds * 1e3:.1f} ms (cold)",
        "",
        header,
        "-" * len(header),
    ]
    for update in updates:
        lines.append(
            f"{update.batch_index:5d}"
            + f"{update.n_deltas:8d}"
            + f"{update.n_new_nodes:11d}"
            + f"{update.iterations:7d}"
            + f"{update.apply_seconds * 1e3:10.1f}"
            + f"{update.fit_seconds * 1e3:10.1f}"
        )
    total_stream = sum(u.apply_seconds + u.fit_seconds for u in updates)
    lines += [
        "",
        f"final graph: {session.hin.n_nodes} nodes; streamed updates took "
        f"{total_stream * 1e3:.1f} ms total",
        f"cold fit on final graph: {cold_final_seconds * 1e3:.1f} ms, "
        f"{cold_iterations} iterations",
        f"exactness: max |x_stream - x_cold| = {max_divergence:.2e}; "
        f"predictions {'agree' if predictions_agree else 'DIVERGE'}",
    ]
    return ExperimentReport(
        "stream",
        "Incremental delta replay with warm reconvergence",
        "\n".join(lines),
        data={
            "n_seed_nodes": hin.n_nodes,
            "n_final_nodes": session.hin.n_nodes,
            "n_deltas": len(log),
            "n_batches": log.n_batches,
            "updates": [
                {
                    "batch_index": u.batch_index,
                    "n_deltas": u.n_deltas,
                    "op_counts": u.op_counts,
                    "n_new_nodes": u.n_new_nodes,
                    "iterations": u.iterations,
                    "converged": u.converged,
                    "warm": u.warm,
                    "apply_seconds": u.apply_seconds,
                    "fit_seconds": u.fit_seconds,
                    "worst_health": u.worst_health,
                }
                for u in updates
            ],
            "cold_iterations": cold_iterations,
            "max_divergence": max_divergence,
            "predictions_agree": predictions_agree,
            "worst_health": worst_status(u.worst_health for u in updates),
        },
    )


def build_streaming_session(
    *,
    hin_path=None,
    result_path=None,
    scale: float = 1.0,
    seed=0,
    model: TMark | None = None,
) -> StreamingSession:
    """Build a fitted :class:`StreamingSession` — the serving entry hook.

    The seed graph comes from ``hin_path`` (a ``save_hin`` archive) or
    the synthetic stream workload at ``scale``/``seed``.  With
    ``result_path`` (a persisted :func:`~repro.core.persistence.save_result`
    archive) the session resumes from the saved stationary state — no
    refit, the snapshot serves immediately; otherwise the session is
    cold-fitted here.  ``model`` (default ``TMark(**MODEL_PARAMS)``)
    carries every fit setting, the solver included.  Raises
    :class:`~repro.errors.ValidationError` for unreadable inputs — the
    CLIs map that to :data:`EXIT_UNREADABLE`.
    """
    from repro.hin.io import load_hin

    if hin_path:
        seed_hin = _load_input(load_hin, hin_path, "HIN archive")
    else:
        seed_hin = make_stream_seed_hin(scale=scale, seed=seed)
    model = TMark(**MODEL_PARAMS) if model is None else model
    if result_path:
        from repro.core.persistence import load_result

        result = _load_input(load_result, result_path, "result archive")
        return StreamingSession.resume(seed_hin, result, model)
    session = StreamingSession(seed_hin, model)
    session.fit()
    return session


def _load_input(loader, path, what: str):
    """Load an input file, folding OS/parse errors into ValidationError."""
    try:
        return loader(path)
    except ValidationError:
        raise
    except Exception as exc:  # unreadable / truncated / not this format
        raise ValidationError(f"unreadable {what} {path}: {exc}") from exc


def run_stream_cli(args) -> int:
    """Back the ``python -m repro.experiments stream`` subcommand.

    Exit codes: 0 ok, :data:`EXIT_DIVERGED` (2) when the exactness
    check fails, :data:`EXIT_UNHEALTHY` (4) when any reconvergence
    surfaced a non-healthy chain, :data:`EXIT_UNREADABLE` (5) when a
    ``--journal`` / ``--hin`` input cannot be read.  Divergence outranks
    ill health: a wrong answer is worse than a slow one.
    """
    from repro.hin.io import load_hin, save_hin

    try:
        if args.hin:
            seed_hin = _load_input(load_hin, args.hin, "HIN archive")
            print(f"[seed graph: {args.hin} ({seed_hin.n_nodes} nodes)]")
        else:
            seed_hin = make_stream_seed_hin(scale=args.scale, seed=args.seed)
        if args.journal:
            log = _load_input(DeltaLog.load, args.journal, "delta journal")
            print(f"[journal: {args.journal} ({len(log)} deltas)]")
        else:
            log = synthetic_delta_log(
                seed_hin, args.deltas, batch_size=args.batch_size, seed=args.seed + 1
            )
    except ValidationError as exc:
        print(f"error: {exc}")
        return EXIT_UNREADABLE
    report = run_stream(
        scale=args.scale, seed=args.seed, seed_hin=seed_hin, log=log,
        solver=args.solver,
    )
    print(report)
    if args.save_journal:
        print(f"[wrote journal -> {log.save(args.save_journal)}]")
    if args.save_hin:
        final = log.replay(seed_hin)
        print(f"[wrote final graph -> {save_hin(final, args.save_hin)}]")
    if not report.data["predictions_agree"]:
        return EXIT_DIVERGED
    if report.data["worst_health"] != "healthy":
        print(f"[unhealthy reconvergence: {report.data['worst_health']}]")
        return EXIT_UNHEALTHY
    return EXIT_OK
