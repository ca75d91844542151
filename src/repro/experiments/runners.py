"""One runner per paper table / figure.

Each ``run_*`` function regenerates the corresponding artefact on the
calibrated synthetic datasets and returns an
:class:`~repro.experiments.report.ExperimentReport` whose ``data`` field
carries the structured results the benchmark suite asserts against.

Common parameters
-----------------
scale:
    Multiplier on dataset sizes (1.0 = the calibrated defaults).
seed:
    Root RNG seed; every runner is deterministic given it.
n_trials:
    Random splits per grid cell (the paper uses 10; default 3 keeps the
    full grids fast — pass 10 to match the paper's protocol exactly).
fractions:
    Label fractions; default is the paper's {0.1, ..., 0.9}.
"""

from __future__ import annotations

import numpy as np

from repro.core import TMark
from repro.datasets.dblp import DBLP_AREAS
from repro.datasets.movies import MOVIE_GENRES
from repro.datasets.nus import NUS_CLASSES, TAGSET1, TAGSET2
from repro.experiments.harness import PAPER_FRACTIONS, run_grid
from repro.experiments.methods import method_roster, tmark_params
from repro.experiments.report import ExperimentReport
from repro.experiments.tables import format_grid, format_ranking_table, format_series
from repro.hin.stats import relation_homophily
from repro.ml.metrics import accuracy
from repro.ml.splits import stratified_fraction_split
from repro.solvers.base import PLAIN_SOLVER
from repro.utils.rng import ensure_rng


# ----------------------------------------------------------------------
# Dataset factories (single scale knob, shared with user code)
# ----------------------------------------------------------------------
# isort: split
from repro.datasets.registry import (  # noqa: E402 (grouped with usage)
    scaled_acm as _scaled_acm,
    scaled_dblp as _scaled_dblp,
    scaled_movies as _scaled_movies,
    scaled_nus as _registry_scaled_nus,
)


def _scaled_nus(tagset: str, scale: float, seed):
    return _registry_scaled_nus(scale, seed, tagset=tagset)


def _fit_tmark(
    hin, dataset: str, fraction: float, seed, *, operators=None, **overrides
) -> TMark:
    """Fit T-Mark with the dataset's section-6.5 parameters on a split.

    ``operators`` optionally passes a precomputed triple from
    :func:`~repro.core.tmark.build_operators` straight through to
    :meth:`TMark.fit`, for runners that fit the same network repeatedly.
    """
    params = tmark_params(dataset)
    params.update(overrides)
    rng = ensure_rng(seed)
    if hin.multilabel:
        from repro.ml.splits import multilabel_fraction_split

        mask = multilabel_fraction_split(hin.label_matrix, fraction, rng=rng)
    else:
        mask = stratified_fraction_split(hin.y, fraction, rng=rng)
    return TMark(**params).fit(hin.masked(mask), operators=operators)


# ----------------------------------------------------------------------
# Table 2 — top-5 conferences per research area (DBLP link ranking)
# ----------------------------------------------------------------------
def run_table2(*, scale: float = 1.0, seed=0, fraction: float = 0.3) -> ExperimentReport:
    """Table 2: T-Mark's per-area conference ranking on DBLP."""
    hin = _scaled_dblp(scale, seed)
    model = _fit_tmark(hin, "dblp", fraction, seed)
    conference_areas = hin.metadata["conference_areas"]
    rankings: dict[str, list[str]] = {}
    hits = 0
    for area in DBLP_AREAS:
        top5 = model.result_.top_relations(area, count=5)
        rankings[area] = top5
        hits += sum(1 for conf in top5 if conference_areas[conf] == area)
    precision = hits / (5 * len(DBLP_AREAS))
    text = format_ranking_table(
        rankings,
        title="Table 2 — top-5 conferences per research area (T-Mark ranking)",
    )
    text += f"\n\ntop-5 area precision vs ground truth: {precision:.2f}"
    return ExperimentReport(
        "table2",
        "Top 5 conferences of each research area given by T-Mark",
        text,
        data={
            "rankings": rankings,
            "precision": precision,
            "conference_areas": conference_areas,
        },
    )


# ----------------------------------------------------------------------
# Tables 3 / 4 / 11 — the method x fraction grids
# ----------------------------------------------------------------------
def _grid_report(
    experiment_id: str,
    title: str,
    hin,
    dataset: str,
    *,
    seed,
    n_trials: int,
    fractions,
    fast: bool,
    metric: str = "accuracy",
    with_std: bool = False,
    workers: int = 1,
) -> ExperimentReport:
    fractions = PAPER_FRACTIONS if fractions is None else tuple(fractions)
    methods = method_roster(dataset, fast=fast)
    grid = run_grid(
        hin, methods, fractions, n_trials=n_trials, seed=seed, metric=metric,
        workers=workers,
    )
    text = format_grid(grid, title=title, with_std=with_std)
    return ExperimentReport(experiment_id, title, text, data={"grid": grid})


def run_table3(
    *, scale: float = 1.0, seed=0, n_trials: int = 3, fractions=None,
    fast: bool = True, with_std: bool = False, workers: int = 1,
) -> ExperimentReport:
    """Table 3: node classification accuracy on DBLP, 9 methods."""
    hin = _scaled_dblp(scale, seed)
    return _grid_report(
        "table3",
        "Table 3 — node classification accuracy on DBLP",
        hin,
        "dblp",
        seed=seed,
        n_trials=n_trials,
        fractions=fractions,
        fast=fast,
        with_std=with_std,
        workers=workers,
    )


def run_table4(
    *, scale: float = 1.0, seed=0, n_trials: int = 3, fractions=None,
    fast: bool = True, with_std: bool = False, workers: int = 1,
) -> ExperimentReport:
    """Table 4: node classification accuracy on Movies, 9 methods."""
    hin = _scaled_movies(scale, seed)
    return _grid_report(
        "table4",
        "Table 4 — node classification accuracy on Movies",
        hin,
        "movies",
        seed=seed,
        n_trials=n_trials,
        fractions=fractions,
        fast=fast,
        with_std=with_std,
        workers=workers,
    )


def run_table11(
    *, scale: float = 1.0, seed=0, n_trials: int = 3, fractions=None,
    fast: bool = True, with_std: bool = False, workers: int = 1,
) -> ExperimentReport:
    """Table 11: multi-label Macro-F1 on ACM, 9 methods."""
    hin = _scaled_acm(scale, seed)
    return _grid_report(
        "table11",
        "Table 11 — node classification Macro-F1 on ACM (multi-label)",
        hin,
        "acm",
        seed=seed,
        n_trials=n_trials,
        fractions=fractions,
        fast=fast,
        metric="multilabel_macro_f1",
        with_std=with_std,
        workers=workers,
    )


# ----------------------------------------------------------------------
# Table 5 — top-10 directors per movie genre
# ----------------------------------------------------------------------
def run_table5(*, scale: float = 1.0, seed=0, fraction: float = 0.3) -> ExperimentReport:
    """Table 5: T-Mark's per-genre director ranking on Movies."""
    hin = _scaled_movies(scale, seed)
    model = _fit_tmark(hin, "movies", fraction, seed)
    director_genres = hin.metadata["director_genres"]
    rankings: dict[str, list[str]] = {}
    hits = total = 0
    for genre in MOVIE_GENRES:
        top10 = model.result_.top_relations(genre, count=10)
        rankings[genre] = top10
        hits += sum(1 for d in top10 if director_genres[d] == genre)
        total += len(top10)
    precision = hits / total
    text = format_ranking_table(
        rankings, title="Table 5 — top-10 directors per movie genre (T-Mark ranking)"
    )
    text += f"\n\ntop-10 genre precision vs ground truth: {precision:.2f}"
    return ExperimentReport(
        "table5",
        "Top 10 directors of each movie genre",
        text,
        data={
            "rankings": rankings,
            "precision": precision,
            "director_genres": director_genres,
        },
    )


# ----------------------------------------------------------------------
# Tables 6 / 7 — the two NUS tag sets
# ----------------------------------------------------------------------
def run_table6_7(*, scale: float = 1.0, seed=0) -> ExperimentReport:
    """Tables 6 & 7: the Tagset1/Tagset2 link sets with their statistics."""
    hin1 = _scaled_nus("tagset1", scale, seed)
    hin2 = _scaled_nus("tagset2", scale, seed)
    lines = ["Table 6 — Tagset1 (relevance-selected tags):"]
    stats1 = {
        tag: relation_homophily(hin1, tag) for tag in hin1.relation_names
    }
    lines.append(", ".join(TAGSET1))
    lines.append(
        f"mean link homophily: {np.nanmean(list(stats1.values())):.3f}"
    )
    lines.append("")
    lines.append("Table 7 — Tagset2 (frequency-selected tags):")
    stats2 = {
        tag: relation_homophily(hin2, tag) for tag in hin2.relation_names
    }
    lines.append(", ".join(TAGSET2))
    lines.append(
        f"mean link homophily: {np.nanmean(list(stats2.values())):.3f}"
    )
    return ExperimentReport(
        "table6_7",
        "The tags in Tagset1 and Tagset2",
        "\n".join(lines),
        data={"tagset1_homophily": stats1, "tagset2_homophily": stats2},
    )


# ----------------------------------------------------------------------
# Table 8 — T-Mark accuracy on the two NUS link sets
# ----------------------------------------------------------------------
def run_table8(
    *, scale: float = 1.0, seed=0, n_trials: int = 3, fractions=None,
    workers: int = 1,
) -> ExperimentReport:
    """Table 8: T-Mark accuracy, Tagset1 HIN vs Tagset2 HIN."""
    fractions = PAPER_FRACTIONS if fractions is None else tuple(fractions)
    params = tmark_params("nus")
    methods = [
        ("Tagset1", lambda: TMark(**params)),
        ("Tagset2", lambda: TMark(**params)),
    ]
    grids = {}
    for name, factory in methods:
        hin = _scaled_nus(name.lower(), scale, seed)
        grids[name] = run_grid(
            hin, [(name, factory)], fractions, n_trials=n_trials, seed=seed,
            workers=workers,
        )
    merged = grids["Tagset1"]
    merged.cells["Tagset2"] = grids["Tagset2"].cells["Tagset2"]
    text = format_grid(
        merged, title="Table 8 — T-Mark accuracy on NUS: Tagset1 vs Tagset2"
    )
    return ExperimentReport(
        "table8",
        "The node classification accuracy on NUS link sets",
        text,
        data={"grid": merged},
    )


# ----------------------------------------------------------------------
# Tables 9 / 10 — top-12 tags per class in each tag set
# ----------------------------------------------------------------------
def run_table9_10(*, scale: float = 1.0, seed=0, fraction: float = 0.3) -> ExperimentReport:
    """Tables 9 & 10: per-class top-12 tag rankings in each tag set."""
    sections = []
    data = {}
    for table, tagset in (("Table 9", "tagset1"), ("Table 10", "tagset2")):
        hin = _scaled_nus(tagset, scale, seed)
        model = _fit_tmark(hin, "nus", fraction, seed)
        rankings = {
            cls: model.result_.top_relations(cls, count=12) for cls in NUS_CLASSES
        }
        overlap = len(set(rankings[NUS_CLASSES[0]]) & set(rankings[NUS_CLASSES[1]]))
        sections.append(
            format_ranking_table(
                rankings, title=f"{table} — top-12 tags in {tagset} given by T-Mark"
            )
            + f"\nscene/object top-12 overlap: {overlap}/12"
        )
        data[tagset] = {"rankings": rankings, "overlap": overlap}
        if tagset == "tagset1":
            data[tagset]["tag_classes"] = hin.metadata["tag_classes"]
    return ExperimentReport(
        "table9_10",
        "Top-12 tags per class in Tagset1 and Tagset2",
        "\n\n".join(sections),
        data=data,
    )


# ----------------------------------------------------------------------
# Fig. 5 — relative importance of ACM link types
# ----------------------------------------------------------------------
def run_fig5(*, scale: float = 1.0, seed=0, fraction: float = 0.5) -> ExperimentReport:
    """Fig. 5: per-class relative importance of the six ACM link types."""
    hin = _scaled_acm(scale, seed)
    model = _fit_tmark(hin, "acm", fraction, seed)
    scores = model.result_.relation_scores  # (m, q)
    series = {
        label: scores[:, c].tolist() for c, label in enumerate(hin.label_names)
    }
    xs = list(range(hin.n_relations))
    text = format_series(
        series,
        xs,
        title=(
            "Fig. 5 — relative importance of ACM link types per class\n"
            "x-axis order: " + ", ".join(hin.relation_names)
        ),
        x_name="link idx",
    )
    mean_importance = dict(
        zip(hin.relation_names, scores.mean(axis=1).round(6).tolist())
    )
    text += "\nmean importance: " + ", ".join(
        f"{k}={v:.4f}" for k, v in mean_importance.items()
    )
    return ExperimentReport(
        "fig5",
        "The relative importance of link types on ACM given by T-Mark",
        text,
        data={
            "relation_names": list(hin.relation_names),
            "series": series,
            "mean_importance": mean_importance,
        },
    )


# ----------------------------------------------------------------------
# Figs. 6-9 — parameter sweeps
# ----------------------------------------------------------------------
ALPHA_SWEEP: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)
GAMMA_SWEEP: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _parameter_sweep(
    hin,
    dataset: str,
    parameter: str,
    values,
    *,
    fraction: float,
    n_trials: int,
    seed,
) -> list[float]:
    """Mean T-Mark accuracy for each value of one hyper-parameter."""
    from repro.core.tmark import build_operators
    from repro.utils.rng import spawn_rngs

    base = tmark_params(dataset)
    y = hin.y
    # O/R/W depend only on structure+features: build once for the sweep.
    # A probe model resolves the similarity settings the sweep will use
    # (the swept parameter is a chain hyper-parameter, never a W knob).
    probe = TMark(**base)
    operators = build_operators(
        hin,
        similarity_top_k=probe.similarity_top_k,
        similarity_metric=probe.similarity_metric,
    )
    means = []
    for value in values:
        params = dict(base)
        params[parameter] = value
        rngs = spawn_rngs(seed, n_trials)
        accs = []
        for rng in rngs:
            mask = stratified_fraction_split(y, fraction, rng=rng)
            model = TMark(**params).fit(hin.masked(mask), operators=operators)
            accs.append(accuracy(y[~mask], model.predict()[~mask]))
        means.append(float(np.mean(accs)))
    return means


def run_fig6(
    *, scale: float = 1.0, seed=0, n_trials: int = 3, fraction: float = 0.3
) -> ExperimentReport:
    """Fig. 6: T-Mark accuracy vs alpha on DBLP."""
    hin = _scaled_dblp(scale, seed)
    means = _parameter_sweep(
        hin, "dblp", "alpha", ALPHA_SWEEP, fraction=fraction, n_trials=n_trials, seed=seed
    )
    text = format_series(
        {"accuracy": means}, ALPHA_SWEEP, title="Fig. 6 — accuracy vs alpha on DBLP", x_name="alpha"
    )
    return ExperimentReport(
        "fig6", "The accuracy of T-Mark vs parameter alpha on DBLP", text,
        data={"alphas": list(ALPHA_SWEEP), "accuracy": means},
    )


def run_fig7(
    *, scale: float = 1.0, seed=0, n_trials: int = 3, fraction: float = 0.3
) -> ExperimentReport:
    """Fig. 7: T-Mark accuracy vs alpha on NUS (Tagset1)."""
    hin = _scaled_nus("tagset1", scale, seed)
    means = _parameter_sweep(
        hin, "nus", "alpha", ALPHA_SWEEP, fraction=fraction, n_trials=n_trials, seed=seed
    )
    text = format_series(
        {"accuracy": means}, ALPHA_SWEEP, title="Fig. 7 — accuracy vs alpha on NUS", x_name="alpha"
    )
    return ExperimentReport(
        "fig7", "The accuracy of T-Mark vs parameter alpha on NUS", text,
        data={"alphas": list(ALPHA_SWEEP), "accuracy": means},
    )


def run_fig8(
    *, scale: float = 1.0, seed=0, n_trials: int = 3, fraction: float = 0.3
) -> ExperimentReport:
    """Fig. 8: T-Mark accuracy vs gamma on DBLP."""
    hin = _scaled_dblp(scale, seed)
    means = _parameter_sweep(
        hin, "dblp", "gamma", GAMMA_SWEEP, fraction=fraction, n_trials=n_trials, seed=seed
    )
    text = format_series(
        {"accuracy": means}, GAMMA_SWEEP, title="Fig. 8 — accuracy vs gamma on DBLP", x_name="gamma"
    )
    return ExperimentReport(
        "fig8", "The accuracy of T-Mark vs parameter gamma on DBLP", text,
        data={"gammas": list(GAMMA_SWEEP), "accuracy": means},
    )


def run_fig9(
    *, scale: float = 1.0, seed=0, n_trials: int = 3, fraction: float = 0.3
) -> ExperimentReport:
    """Fig. 9: T-Mark accuracy vs gamma on NUS (Tagset1)."""
    hin = _scaled_nus("tagset1", scale, seed)
    means = _parameter_sweep(
        hin, "nus", "gamma", GAMMA_SWEEP, fraction=fraction, n_trials=n_trials, seed=seed
    )
    text = format_series(
        {"accuracy": means}, GAMMA_SWEEP, title="Fig. 9 — accuracy vs gamma on NUS", x_name="gamma"
    )
    return ExperimentReport(
        "fig9", "The accuracy of T-Mark vs parameter gamma on NUS", text,
        data={"gammas": list(GAMMA_SWEEP), "accuracy": means},
    )


# ----------------------------------------------------------------------
# Fig. 10 — convergence curves on the four datasets
# ----------------------------------------------------------------------
def run_fig10(*, scale: float = 1.0, seed=0, fraction: float = 0.3) -> ExperimentReport:
    """Fig. 10: residual rho_t vs iteration on all four datasets."""
    datasets = {
        "DBLP": (_scaled_dblp(scale, seed), "dblp"),
        "Movies": (_scaled_movies(scale, seed), "movies"),
        "NUS": (_scaled_nus("tagset1", scale, seed), "nus"),
        "ACM": (_scaled_acm(scale, seed), "acm"),
    }
    curves: dict[str, list[float]] = {}
    converged: dict[str, bool] = {}
    for name, (hin, dataset) in datasets.items():
        model = _fit_tmark(hin, dataset, fraction, seed)
        # Plot the slowest class chain, as the paper's worst case.
        history = max(model.result_.histories, key=lambda h: h.n_iterations)
        curves[name] = list(history.residuals)
        converged[name] = all(h.converged for h in model.result_.histories)
    depth = max(len(c) for c in curves.values())
    xs = list(range(1, depth + 1))
    padded = {
        name: curve + [float("nan")] * (depth - len(curve))
        for name, curve in curves.items()
    }
    text = format_series(
        padded, xs, title="Fig. 10 — convergence (rho_t per iteration)", x_name="iter"
    )
    text += "\nall chains converged: " + ", ".join(
        f"{k}={v}" for k, v in converged.items()
    )
    return ExperimentReport(
        "fig10",
        "The convergence curve of T-Mark on four datasets",
        text,
        data={"curves": curves, "converged": converged},
    )


# ----------------------------------------------------------------------
# Auxiliary experiments (beyond the paper's artefacts)
# ----------------------------------------------------------------------
#: Fits per ``run example``: enough for a stable per-fit median.
EXAMPLE_FITS = 5


def run_example(
    *, scale: float = 1.0, seed=0, solver: str = PLAIN_SOLVER,
    store: str | None = None, shards: int | None = None,
) -> ExperimentReport:
    """The section 3.2 worked example: classify p3/p4 and rank relations.

    The smallest end-to-end exercise of the full pipeline (4 nodes,
    3 relations, 2 classes) — the CI observability smoke test traces
    this experiment, and ``benchmarks/solver_smoke.py`` records its fits
    under both solvers in one process for the solver smoke.  ``solver``
    is the models' :mod:`repro.solvers` solver.  ``scale`` and ``seed``
    are accepted for CLI uniformity; the example is fixed and T-Mark is
    deterministic.

    The fit runs :data:`EXAMPLE_FITS` times (identical results) so that
    a trace holds several timings of it, and ``trace-diff`` compares
    their per-fit medians instead of one ~11 ms fit.

    ``store`` routes the fit through the out-of-core tier instead: the
    example HIN is saved into (or validated against) the
    :class:`~repro.ooc.store.GraphStore` at that directory and fitted
    with :func:`~repro.ooc.fit.fit_from_store` — the CI smoke that the
    store-backed path converges like the in-memory one.

    ``shards`` runs the fit sharded across fork workers (see
    :mod:`repro.shard`) — the CI shard-invariance smoke compares this
    experiment's sharded trace and report against the serial ones.
    """
    del scale, seed
    from repro.datasets.example import EXAMPLE_GROUND_TRUTH, make_worked_example

    hin = make_worked_example()
    if store is not None:
        from repro.errors import ValidationError
        from repro.ooc import GraphStore, fit_from_store

        try:
            graph_store = GraphStore.open(store)
        except ValidationError:
            graph_store = GraphStore.save(hin, store)
        for _ in range(EXAMPLE_FITS):
            model = fit_from_store(
                graph_store, TMark(alpha=0.8, gamma=0.5, solver=solver),
                shards=shards,
            )
    else:
        for _ in range(EXAMPLE_FITS):
            model = TMark(alpha=0.8, gamma=0.5, solver=solver).fit(
                hin, shards=shards
            )
    predicted = {
        name: hin.label_names[model.predict()[idx]]
        for idx, name in enumerate(hin.node_names)
        if name in EXAMPLE_GROUND_TRUTH
    }
    correct = sum(
        predicted[name] == truth for name, truth in EXAMPLE_GROUND_TRUTH.items()
    )
    rankings = {
        label: model.result_.top_relations(label, count=hin.n_relations)
        for label in hin.label_names
    }
    lines = ["Worked example (section 3.2) — T-Mark on 4 publications"]
    for name, truth in EXAMPLE_GROUND_TRUTH.items():
        lines.append(f"{name}: predicted {predicted[name]}, ground truth {truth}")
    lines.append(f"correct: {correct}/{len(EXAMPLE_GROUND_TRUTH)}")
    lines.append("")
    lines.append(
        format_ranking_table(rankings, title="relation importance per class")
    )
    return ExperimentReport(
        "example",
        "The section 3.2 worked example",
        "\n".join(lines),
        data={
            "predicted": predicted,
            "ground_truth": dict(EXAMPLE_GROUND_TRUTH),
            "rankings": rankings,
            "correct": correct,
        },
    )



def run_extensions(
    *, scale: float = 1.0, seed=0, n_trials: int = 3, fractions=None,
    workers: int = 1,
) -> ExperimentReport:
    """Extension baselines vs T-Mark on DBLP.

    Compares the methods this library adds beyond the paper's roster —
    ZooBP [15] (linearised belief propagation), GNetMine [35] (the
    graph-regularised method behind the DBLP benchmark itself),
    RankClass [16] (ranking-based classification with class-conditional
    relation weights) and WeightedWvRN (homophily-estimated relation
    weights) — against wvRN+RL and T-Mark.
    """
    from repro.baselines import GNetMine, RankClass, WeightedWvRN, WvRNRL, ZooBP
    from repro.experiments.methods import tmark_params

    fractions = (0.1, 0.3, 0.5, 0.7, 0.9) if fractions is None else tuple(fractions)
    hin = _scaled_dblp(scale, seed)
    params = tmark_params("dblp")
    methods = [
        ("T-Mark", lambda: TMark(**params)),
        ("wvRN+RL", WvRNRL),
        ("WeightedWvRN", WeightedWvRN),
        ("ZooBP", ZooBP),
        ("GNetMine", GNetMine),
        ("RankClass", RankClass),
    ]
    grid = run_grid(
        hin, methods, fractions, n_trials=n_trials, seed=seed, workers=workers
    )
    title = "Extensions — ZooBP / GNetMine / WeightedWvRN vs T-Mark on DBLP"
    text = format_grid(grid, title=title)
    return ExperimentReport("extensions", title, text, data={"grid": grid})


def run_dataset_summary(*, scale: float = 1.0, seed=0) -> ExperimentReport:
    """Structural statistics of all four calibrated datasets.

    The generator-calibration companion to docs/datasets.md: node/link
    counts, per-relation density and homophily for each dataset at the
    requested scale.
    """
    from repro.hin.stats import hin_summary

    datasets = {
        "DBLP": _scaled_dblp(scale, seed),
        "Movies": _scaled_movies(scale, seed),
        "NUS-Tagset1": _scaled_nus("tagset1", scale, seed),
        "NUS-Tagset2": _scaled_nus("tagset2", scale, seed),
        "ACM": _scaled_acm(scale, seed),
    }
    sections = []
    data = {}
    for name, hin in datasets.items():
        summary = hin_summary(hin)
        sections.append(f"--- {name}\n{summary}")
        homophilies = [
            rel.homophily for rel in summary.relations if rel.homophily == rel.homophily
        ]
        data[name] = {
            "n_nodes": summary.n_nodes,
            "n_relations": summary.n_relations,
            "n_links": summary.n_links,
            "mean_homophily": float(np.mean(homophilies)) if homophilies else None,
        }
    title = "Dataset summary — calibrated generator statistics"
    return ExperimentReport("summary", title, "\n\n".join(sections), data=data)
