"""Hyper-parameter search for T-Mark.

Section 6.5 of the paper tunes ``alpha`` and ``gamma`` by sweeping them
per dataset.  :func:`tune_tmark` automates that: grid search over any
``TMark`` constructor parameters, scored by repeated stratified
hold-out evaluation *within the labeled set* (the unlabeled test nodes
are never touched, so tuning cannot leak test information).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.tmark import TMark
from repro.errors import ValidationError
from repro.experiments.harness import shared_tmark_operators
from repro.hin.graph import HIN
from repro.ml.metrics import accuracy
from repro.utils.rng import spawn_rngs
from repro.utils.validation import check_fraction, check_positive_int


@dataclass(frozen=True)
class TuningCandidate:
    """One evaluated parameter setting."""

    params: dict
    mean_score: float
    std_score: float


@dataclass
class TuningResult:
    """All candidates plus the winner."""

    candidates: list[TuningCandidate] = field(default_factory=list)

    @property
    def best(self) -> TuningCandidate:
        """The highest-scoring candidate."""
        return max(self.candidates, key=lambda c: c.mean_score)

    @property
    def best_params(self) -> dict:
        """Constructor kwargs of the winner."""
        return dict(self.best.params)

    def __str__(self) -> str:
        lines = ["T-Mark tuning result:"]
        for cand in sorted(self.candidates, key=lambda c: -c.mean_score):
            marker = " <- best" if cand is self.best else ""
            lines.append(
                f"  {cand.params}: {cand.mean_score:.3f} "
                f"± {cand.std_score:.3f}{marker}"
            )
        return "\n".join(lines)


def tune_tmark(
    hin: HIN,
    param_grid: dict,
    *,
    validation_fraction: float = 0.3,
    n_trials: int = 3,
    seed=None,
) -> TuningResult:
    """Grid-search ``TMark`` parameters on a partially labeled HIN.

    For every parameter combination, ``n_trials`` times: hide a
    stratified ``validation_fraction`` of the *labeled* nodes, fit on
    the rest, and score accuracy on the hidden ones.  Unlabeled nodes
    never contribute to the score.

    Parameters
    ----------
    hin:
        The (partially labeled) network — typically the training view
        the final model will be fitted on.
    param_grid:
        Maps ``TMark`` constructor argument names to candidate values,
        e.g. ``{"alpha": [0.5, 0.8, 0.9], "gamma": [0.2, 0.6]}``.
    validation_fraction:
        Share of labeled nodes held out per trial.
    n_trials:
        Hold-out repetitions per combination.
    seed:
        Root seed; every combination sees the same split sequence so
        comparisons are paired.
    """
    if hin.multilabel:
        raise ValidationError("tune_tmark supports single-label HINs only")
    if not param_grid:
        raise ValidationError("param_grid must not be empty")
    validation_fraction = check_fraction(validation_fraction, "validation_fraction")
    check_positive_int(n_trials, "n_trials")

    y = hin.y
    labeled_idx = np.flatnonzero(y >= 0)
    if labeled_idx.size < 4:
        raise ValidationError(
            f"need at least 4 labeled nodes to tune, got {labeled_idx.size}"
        )

    # Pre-draw paired validation splits (same for every combination).
    splits = []
    for rng in spawn_rngs(seed, n_trials):
        order = rng.permutation(labeled_idx)
        n_val = max(1, int(round(validation_fraction * labeled_idx.size)))
        n_val = min(n_val, labeled_idx.size - 1)
        splits.append(set(order[:n_val].tolist()))

    names = list(param_grid)
    result = TuningResult()
    # Every combination refits the same network with different masks, so
    # the (O, R, W) triple is shared per similarity setting across the
    # whole grid rather than rebuilt n_combinations * n_trials times.
    operator_pool: dict = {}
    for values in itertools.product(*(param_grid[name] for name in names)):
        params = dict(zip(names, values))
        scores = []
        for validation in splits:
            train_mask = np.zeros(hin.n_nodes, dtype=bool)
            train_mask[labeled_idx] = True
            validation_idx = np.fromiter(validation, dtype=np.int64)
            train_mask[validation_idx] = False
            if not train_mask.any():
                raise ValidationError("validation split left no training labels")
            model = TMark(**params)
            operators = shared_tmark_operators(hin, model, operator_pool)
            model.fit(hin.masked(train_mask), operators=operators)
            predictions = model.predict()
            scores.append(accuracy(y[validation_idx], predictions[validation_idx]))
        result.candidates.append(
            TuningCandidate(
                params=params,
                mean_score=float(np.mean(scores)),
                std_score=float(np.std(scores)),
            )
        )
    return result
