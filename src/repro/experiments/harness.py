"""The evaluation protocol of section 6.

Every classification table in the paper follows one recipe: "randomly
pick up {10, ..., 90}% of the examples as the training data ... for each
given split, 10 test runs were conducted" and report mean accuracy (or
Macro-F1 for ACM).  :func:`run_grid` implements exactly that —
method x fraction with repeated stratified trials — on top of the common
``fit_predict(hin, rng) -> scores`` interface shared by T-Mark and all
baselines.

:func:`run_grid` is the only grid loop.  It validates once, builds one
:class:`~repro.experiments.parallel.CellSpec` per cell and takes each
cell's result from one of two backends: :func:`evaluate_cell` in this
process, or the fork pool of :mod:`repro.experiments.parallel`, which
runs the same :func:`evaluate_cell` in a worker.  One assembly loop then
records the cells and emits ``grid_cell`` for both.
"""

from __future__ import annotations

import hashlib
import itertools
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.tmark import TMark, build_operators
from repro.errors import ValidationError
from repro.experiments.parallel import CellSpec, cells_on_pool
from repro.forkpool import serial_fallback_reason
from repro.hin.graph import HIN
from repro.ml.metrics import accuracy, macro_f1, multilabel_macro_f1
from repro.ml.splits import multilabel_fraction_split, stratified_fraction_split
from repro.obs.recorder import get_recorder, use_recorder
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_positive_int

#: Supported evaluation metrics.
METRICS = ("accuracy", "macro_f1", "multilabel_macro_f1")

#: The label fractions of the paper's tables.
PAPER_FRACTIONS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def scores_to_predictions(scores: np.ndarray) -> np.ndarray:
    """Single-label decision: argmax class index per node."""
    return np.argmax(np.asarray(scores, dtype=float), axis=1)


def scores_to_multilabel(scores: np.ndarray, train_label_matrix: np.ndarray) -> np.ndarray:
    """Multi-label decision by prior matching (see ``TMark.predict_multilabel``).

    Each class accepts its top-scoring nodes at the positive rate
    observed among the training nodes; every node keeps at least its
    argmax class.
    """
    scores = np.asarray(scores, dtype=float)
    train_label_matrix = np.asarray(train_label_matrix, dtype=bool)
    n, q = scores.shape
    labeled = train_label_matrix.any(axis=1)
    n_labeled = max(int(labeled.sum()), 1)
    rates = train_label_matrix[labeled].sum(axis=0) / n_labeled
    rates = np.clip(rates, 1.0 / n, 1.0)
    predictions = np.zeros((n, q), dtype=bool)
    for c in range(q):
        count = max(int(round(rates[c] * n)), 1)
        top = np.argsort(-scores[:, c], kind="stable")[:count]
        predictions[top, c] = True
    predictions[np.arange(n), np.argmax(scores, axis=1)] = True
    return predictions


@dataclass(frozen=True)
class CellResult:
    """Mean/std of one method at one label fraction.

    ``std`` is the *sample* standard deviation (``ddof=1``) across the
    cell's trials — the paper's mean±std over 10 runs is a sample
    statistic — and 0.0 for a single trial, where the sample std is
    undefined.
    """

    mean: float
    std: float
    n_trials: int


@dataclass
class GridResult:
    """A method x fraction result grid (one paper table)."""

    fractions: tuple[float, ...]
    metric: str
    cells: dict[str, list[CellResult]] = field(default_factory=dict)

    @property
    def method_names(self) -> list[str]:
        """Methods in insertion order."""
        return list(self.cells)

    def means(self, method: str) -> list[float]:
        """Mean metric per fraction for one method."""
        return [cell.mean for cell in self.cells[method]]

    def winner(self, fraction_index: int) -> str:
        """Best method at the given fraction index."""
        return max(self.cells, key=lambda m: self.cells[m][fraction_index].mean)


def shared_tmark_operators(hin: HIN, model: TMark, pool: dict):
    """Fetch (or build and memoise) the operator triple for ``model``.

    ``pool`` maps ``(similarity_top_k, similarity_metric)`` to the
    :class:`~repro.core.tmark.TMarkOperators` built on the ground-truth
    ``hin``.  Masked views (``hin.masked(...)``) share the structure and
    features the operators depend on, so one build serves every split
    and trial of a sweep — the dominant fixed cost of the paper grids.
    """
    key = (model.similarity_top_k, model.similarity_metric)
    operators = pool.get(key)
    if operators is None:
        operators = build_operators(
            hin, similarity_top_k=key[0], similarity_metric=key[1]
        )
        pool[key] = operators
    return operators


def evaluate_method(
    hin: HIN,
    method_factory: Callable[[], object],
    fraction: float,
    *,
    n_trials: int = 3,
    seed=None,
    metric: str = "accuracy",
    operator_pool: dict | None = None,
    recorder=None,
    method_name: str | None = None,
) -> CellResult:
    """Mean/std metric of one method at one label fraction.

    Parameters
    ----------
    hin:
        Fully labeled ground-truth HIN (the harness masks test labels).
    method_factory:
        Zero-argument callable returning a fresh classifier exposing
        ``fit_predict(hin, rng) -> (n, q) scores``.
    fraction:
        Training label fraction.
    n_trials:
        Independent random splits (the paper uses 10).  Trial ``t``
        draws its split from the ``2t``-th and its method RNG from the
        ``2t + 1``-th generator of ``spawn_rngs(seed, 2 * n_trials)``.
    metric:
        ``"accuracy"`` (single-label argmax) or
        ``"multilabel_macro_f1"`` (prior-matched decisions).
    operator_pool:
        Optional mutable dict shared across calls on the same
        ground-truth ``hin``.  T-Mark family methods then reuse one
        ``(O, R, W)`` build per similarity setting (see
        :func:`shared_tmark_operators`); other methods are unaffected.
    recorder:
        Optional :class:`repro.obs.Recorder` (default: the ambient one)
        receiving one ``trial`` event per split with the trial's metric
        value and wall clock; it is also installed as the ambient
        recorder around each fit so chain-level events land in the same
        trace.
    method_name:
        Optional display name carried on the emitted ``trial`` events
        (``run_grid`` passes the roster name).

    The returned std is the sample statistic (``ddof=1``); a single
    trial reports 0.0.
    """
    if metric not in METRICS:
        raise ValidationError(f"metric must be one of {METRICS}, got {metric!r}")
    check_positive_int(n_trials, "n_trials")
    rec = get_recorder() if recorder is None else recorder
    rngs = spawn_rngs(seed, 2 * n_trials)
    values = []
    for trial in range(n_trials):
        trial_started = time.perf_counter() if rec.enabled else 0.0
        if metric == "multilabel_macro_f1":
            mask = multilabel_fraction_split(
                hin.label_matrix, fraction, rng=rngs[2 * trial]
            )
        else:
            mask = stratified_fraction_split(hin.y, fraction, rng=rngs[2 * trial])
        train_hin = hin.masked(mask)
        model = method_factory()
        method_rng = rngs[2 * trial + 1]
        with use_recorder(rec):
            if operator_pool is not None and isinstance(model, TMark):
                operators = shared_tmark_operators(hin, model, operator_pool)
                scores = model.fit_predict(
                    train_hin, rng=method_rng, operators=operators
                )
            else:
                scores = model.fit_predict(train_hin, rng=method_rng)
        test = ~mask
        if metric == "multilabel_macro_f1":
            predicted = scores_to_multilabel(scores, train_hin.label_matrix)
            value = multilabel_macro_f1(hin.label_matrix[test], predicted[test])
        elif metric == "macro_f1":
            predicted = scores_to_predictions(scores)
            value = macro_f1(hin.y[test], predicted[test], n_classes=hin.n_labels)
        else:
            predicted = scores_to_predictions(scores)
            value = accuracy(hin.y[test], predicted[test])
        if rec.enabled:
            rec.emit(
                "trial",
                method=method_name,
                fraction=float(fraction),
                trial=trial,
                metric=metric,
                value=float(value),
                seconds=time.perf_counter() - trial_started,
            )
        values.append(float(value))
    values = np.asarray(values)
    std = float(values.std(ddof=1)) if n_trials > 1 else 0.0
    return CellResult(mean=float(values.mean()), std=std, n_trials=n_trials)


def cell_seed_sequence(
    base_entropy: int, method_name: str, fraction: float
) -> np.random.SeedSequence:
    """The deterministic per-cell seed of :func:`run_grid`.

    Derived from ``(base_entropy, method_name, fraction)`` alone — not
    from the cell's position in the grid — so adding, removing or
    reordering roster methods (or fractions) leaves every other cell's
    RNG stream, and therefore its splits and scores, byte-identical.
    The method name enters via a stable SHA-256 digest and the fraction
    via its exact float64 bit pattern.
    """
    digest = hashlib.sha256(method_name.encode("utf-8")).digest()
    name_key = int.from_bytes(digest[:8], "little")
    fraction_key = int(np.float64(fraction).view(np.uint64))
    return np.random.SeedSequence(entropy=[int(base_entropy), name_key, fraction_key])


def _grid_base_entropy(seed) -> int:
    """Resolve ``run_grid``'s ``seed`` argument to a base entropy int."""
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63 - 1))
    if isinstance(seed, (bool, np.bool_)):
        raise ValidationError(
            "seed must not be a bool; pass an explicit integer seed"
        )
    if isinstance(seed, (int, np.integer)):
        if int(seed) < 0:
            raise ValidationError(f"seed must be non-negative, got {seed}")
        return int(seed)
    raise ValidationError(
        f"seed must be None, an int, or a numpy Generator; got {type(seed).__name__}"
    )


def evaluate_cell(
    hin: HIN,
    method_factory: Callable[[], object],
    spec: CellSpec,
    *,
    operator_pool: dict | None,
    recorder,
) -> CellResult:
    """One grid cell: :func:`evaluate_method` under the cell's own seed.

    Both of :func:`run_grid`'s backends run a cell through this function,
    in process or in a pool worker, so a cell draws the same splits
    wherever it runs.
    """
    return evaluate_method(
        hin,
        method_factory,
        spec.fraction,
        n_trials=spec.n_trials,
        seed=np.random.default_rng(
            cell_seed_sequence(spec.base_entropy, spec.method, spec.fraction)
        ),
        metric=spec.metric,
        operator_pool=operator_pool,
        recorder=recorder,
        method_name=spec.method,
    )


def _cells_in_process(hin, factories, specs, recorder):
    """Yield ``(spec, CellResult, seconds)`` per spec, run in this process."""
    operator_pool: dict = {}
    for spec in specs:
        started = time.perf_counter() if recorder.enabled else 0.0
        cell = evaluate_cell(
            hin, factories[spec.method], spec,
            operator_pool=operator_pool, recorder=recorder,
        )
        yield spec, cell, time.perf_counter() - started


def run_grid(
    hin: HIN,
    methods: Sequence[tuple[str, Callable[[], object]]],
    fractions: Sequence[float] = PAPER_FRACTIONS,
    *,
    n_trials: int = 3,
    seed=None,
    metric: str = "accuracy",
    recorder=None,
    workers: int = 1,
) -> GridResult:
    """Run the full method x fraction grid of one paper table.

    ``methods`` is a sequence of ``(name, factory)`` pairs with distinct
    names.  Each cell's RNG stream is derived deterministically from
    ``(seed, method_name, fraction)`` via
    :func:`cell_seed_sequence` — never from the cell's position — so the
    grid is reproducible, cells are genuinely independent, and a cell's
    result is byte-identical no matter which other methods or fractions
    share the roster.

    The T-Mark family methods in the roster share one precomputed
    ``(O, R, W)`` operator triple per similarity setting across every
    fraction and trial (one per pool worker) — the masked training views
    all inherit ``hin``'s structure and features, so the scores are those
    of plain per-trial fits and only the redundant rebuilds disappear.

    ``recorder`` (default: the ambient one) receives one ``grid_cell``
    event per cell with its mean/std and wall clock, on top of the
    per-trial and chain-level events emitted underneath.  To aggregate
    a grid into metrics, pass
    ``recorder=MetricsRecorder(registry, forward=...)``: it folds every
    event, wherever the cell ran; passing the same recorder to several
    grids aggregates across them.

    ``workers`` only chooses where the cells run: the default 1 runs
    them in this process; ``workers > 1`` runs them on the fork pool of
    :func:`repro.experiments.parallel.cells_on_pool`, with bit-identical
    cell results — the per-cell seeding above is position-independent
    precisely so cells may run anywhere.  Where no pool can be built
    (:func:`~repro.forkpool.serial_fallback_reason`) the
    cells run in process after a :class:`RuntimeWarning`.
    """
    check_positive_int(workers, "workers")
    if metric not in METRICS:
        raise ValidationError(f"metric must be one of {METRICS}, got {metric!r}")
    check_positive_int(n_trials, "n_trials")
    methods = list(methods)
    names = [name for name, _ in methods]
    if len(set(names)) != len(names):
        raise ValidationError(f"method names must be distinct, got {names}")
    factories = dict(methods)
    rec = get_recorder() if recorder is None else recorder
    base_entropy = _grid_base_entropy(seed)
    grid = GridResult(
        fractions=tuple(float(f) for f in fractions),
        metric=metric,
        cells={name: [] for name in names},
    )
    specs = [
        CellSpec(
            index=index,
            method=name,
            fraction=fraction,
            n_trials=n_trials,
            metric=metric,
            base_entropy=base_entropy,
        )
        for index, (name, fraction) in enumerate(
            itertools.product(names, grid.fractions)
        )
    ]
    in_process = workers == 1 or not specs
    reason = None if in_process else serial_fallback_reason()
    if reason is not None:
        warnings.warn(
            f"run_grid(workers={workers}) falling back to serial: {reason}",
            RuntimeWarning,
            stacklevel=2,
        )
    if in_process or reason is not None:
        cells = _cells_in_process(hin, factories, specs, rec)
    else:
        cells = cells_on_pool(hin, factories, specs, recorder=rec, workers=workers)
    for spec, cell, seconds in cells:
        grid.cells[spec.method].append(cell)
        if rec.enabled:
            rec.emit(
                "grid_cell",
                method=spec.method,
                fraction=spec.fraction,
                metric=metric,
                mean=cell.mean,
                std=cell.std,
                n_trials=cell.n_trials,
                seconds=seconds,
            )
    return grid
