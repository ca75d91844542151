"""Auxiliary studies: joint parameter sensitivity and link-noise robustness.

Two experiments beyond the paper's figures that probe its central claims
directly:

* :func:`run_sensitivity` — the paper sweeps alpha (Fig. 6/7) and gamma
  (Fig. 8/9) separately; this runner maps the *joint* alpha x gamma
  surface on DBLP, reusing precomputed operators so the full grid costs
  little more than one fit per cell.
* :func:`run_noise_robustness` — the paper motivates T-Mark by HINs
  containing "many useless links".  This runner injects a growing,
  completely random extra link type into DBLP and tracks T-Mark vs
  wvRN+RL.  T-Mark is shielded structurally: random links diffuse each
  class chain's mass *uniformly*, adding a rank-neutral constant to the
  stationary ``x`` (its ``z`` actually rises with the junk volume since
  ``z`` tracks usage), whereas the equal-weight neighbour vote of wvRN
  is corrupted directly.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import WvRNRL
from repro.core import TMark
from repro.core.tmark import build_operators
from repro.experiments.methods import tmark_params
from repro.experiments.report import ExperimentReport
from repro.experiments.tables import format_series
from repro.hin.graph import HIN
from repro.ml.metrics import accuracy
from repro.ml.splits import stratified_fraction_split
from repro.tensor.sptensor import SparseTensor3
from repro.utils.rng import ensure_rng, spawn_rngs

#: The joint sweep grids.
SENSITIVITY_ALPHAS: tuple[float, ...] = (0.3, 0.5, 0.7, 0.8, 0.9)
SENSITIVITY_GAMMAS: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8)

#: Noise volumes as multiples of the clean HIN's link count.
NOISE_LEVELS: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 4.0)


def inject_noise_relation(
    hin: HIN, n_links: int, *, seed=None, name: str = "noise"
) -> HIN:
    """Return a copy of ``hin`` with an extra relation of random links.

    The new relation joins uniformly random node pairs (undirected), so
    its homophily sits at chance — the "useless link" of section 6.3.
    """
    rng = ensure_rng(seed)
    if name in hin.relation_names:
        raise ValueError(f"relation {name!r} already exists")
    i, j, k = hin.tensor.coords
    values = hin.tensor.values
    sources = rng.integers(0, hin.n_nodes, size=n_links)
    offsets = rng.integers(1, max(hin.n_nodes, 2), size=n_links)
    targets = (sources + offsets) % hin.n_nodes
    new_i = np.concatenate([i, targets, sources])
    new_j = np.concatenate([j, sources, targets])
    new_k = np.concatenate([k, np.full(2 * n_links, hin.n_relations, dtype=np.int64)])
    new_values = np.concatenate([values, np.ones(2 * n_links)])
    tensor = SparseTensor3(
        new_i,
        new_j,
        new_k,
        new_values,
        shape=(hin.n_nodes, hin.n_nodes, hin.n_relations + 1),
    )
    return hin.derive(tensor=tensor, relation_names=[*hin.relation_names, name])


def run_sensitivity(
    *, scale: float = 1.0, seed=0, n_trials: int = 3, fraction: float = 0.3
) -> ExperimentReport:
    """Joint alpha x gamma accuracy surface for T-Mark on DBLP."""
    from repro.datasets.registry import scaled_dblp

    hin = scaled_dblp(scale, seed)
    y = hin.y
    operators = build_operators(hin)
    base = tmark_params("dblp")
    surface = np.zeros((len(SENSITIVITY_ALPHAS), len(SENSITIVITY_GAMMAS)))
    for a_idx, alpha in enumerate(SENSITIVITY_ALPHAS):
        for g_idx, gamma in enumerate(SENSITIVITY_GAMMAS):
            accs = []
            for rng in spawn_rngs(seed, n_trials):
                mask = stratified_fraction_split(y, fraction, rng=rng)
                model = TMark(
                    alpha=alpha,
                    gamma=gamma,
                    label_threshold=base["label_threshold"],
                ).fit(hin.masked(mask), operators=operators)
                accs.append(accuracy(y[~mask], model.predict()[~mask]))
            surface[a_idx, g_idx] = float(np.mean(accs))
    series = {
        f"gamma={gamma}": surface[:, g_idx].tolist()
        for g_idx, gamma in enumerate(SENSITIVITY_GAMMAS)
    }
    text = format_series(
        series,
        SENSITIVITY_ALPHAS,
        title="Sensitivity — T-Mark accuracy over (alpha, gamma) on DBLP",
        x_name="alpha",
    )
    best = np.unravel_index(int(np.argmax(surface)), surface.shape)
    text += (
        f"\nbest cell: alpha={SENSITIVITY_ALPHAS[best[0]]}, "
        f"gamma={SENSITIVITY_GAMMAS[best[1]]} "
        f"({surface[best]:.3f})"
    )
    return ExperimentReport(
        "sensitivity",
        "Joint alpha x gamma sensitivity of T-Mark on DBLP",
        text,
        data={
            "alphas": list(SENSITIVITY_ALPHAS),
            "gammas": list(SENSITIVITY_GAMMAS),
            "surface": surface.tolist(),
            "best": {
                "alpha": SENSITIVITY_ALPHAS[best[0]],
                "gamma": SENSITIVITY_GAMMAS[best[1]],
                "accuracy": float(surface[best]),
            },
        },
    )


def run_noise_robustness(
    *, scale: float = 1.0, seed=0, n_trials: int = 3, fraction: float = 0.2
) -> ExperimentReport:
    """T-Mark vs wvRN+RL accuracy as random noise links are injected."""
    from repro.datasets.registry import scaled_dblp

    clean = scaled_dblp(scale, seed)
    y = clean.y
    base_links = clean.tensor.nnz // 2  # undirected pairs
    params = tmark_params("dblp")
    tmark_curve, wvrn_curve = [], []
    for level in NOISE_LEVELS:
        hin = (
            clean
            if level == 0
            else inject_noise_relation(
                clean, int(level * base_links), seed=seed + 1
            )
        )
        tmark_accs, wvrn_accs = [], []
        for rng in spawn_rngs(seed, n_trials):
            mask = stratified_fraction_split(y, fraction, rng=rng)
            train = hin.masked(mask)
            model = TMark(**params).fit(train)
            tmark_accs.append(accuracy(y[~mask], model.predict()[~mask]))
            scores = WvRNRL().fit_predict(train)
            wvrn_accs.append(
                accuracy(y[~mask], np.argmax(scores, axis=1)[~mask])
            )
        tmark_curve.append(float(np.mean(tmark_accs)))
        wvrn_curve.append(float(np.mean(wvrn_accs)))
    text = format_series(
        {"T-Mark": tmark_curve, "wvRN+RL": wvrn_curve},
        NOISE_LEVELS,
        title=(
            "Noise robustness — accuracy vs injected random-link volume "
            "(multiples of the clean link count, DBLP)"
        ),
        x_name="noise x",
    )
    return ExperimentReport(
        "noise",
        "Robustness to a useless link type: T-Mark vs wvRN+RL",
        text,
        data={
            "noise_levels": list(NOISE_LEVELS),
            "tmark": tmark_curve,
            "wvrn": wvrn_curve,
        },
    )


#: Training-label corruption rates for the label-noise study.
LABEL_NOISE_LEVELS: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3)


def flip_labels(hin: HIN, rate: float, *, seed=None) -> HIN:
    """Return a copy of ``hin`` with ``rate`` of labeled nodes mislabeled.

    Each corrupted (single-label) node is reassigned uniformly to one of
    the *other* classes — the standard symmetric label-noise model.
    """
    if not 0 <= rate <= 1:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    if hin.multilabel:
        raise ValueError("flip_labels supports single-label HINs only")
    rng = ensure_rng(seed)
    labels = hin.label_matrix.copy()
    labeled = np.flatnonzero(labels.any(axis=1))
    n_flip = int(round(rate * labeled.size))
    if n_flip == 0:
        return hin.with_labels(labels)
    victims = rng.choice(labeled, size=n_flip, replace=False)
    q = hin.n_labels
    for idx in victims:
        current = int(np.flatnonzero(labels[idx])[0])
        offset = int(rng.integers(1, q))
        labels[idx] = False
        labels[idx, (current + offset) % q] = True
    return hin.with_labels(labels)


def run_label_noise(
    *, scale: float = 1.0, seed=0, n_trials: int = 3, fraction: float = 0.2
) -> ExperimentReport:
    """T-Mark vs TensorRrCc under symmetric training-label noise.

    The Eq. 12 update folds confident predictions back into the restart
    vector — the classic ICA failure mode is that mislabeled anchors get
    *amplified*.  This runner measures whether the update's low-label
    benefit survives corrupted supervision.
    """
    from repro.core import TensorRrCc
    from repro.datasets.registry import scaled_dblp

    hin = scaled_dblp(scale, seed)
    clean_y = hin.y  # evaluation always uses the true labels
    params = tmark_params("dblp")
    tmark_curve, frozen_curve = [], []
    for rate in LABEL_NOISE_LEVELS:
        tmark_accs, frozen_accs = [], []
        for trial, rng in enumerate(spawn_rngs(seed, n_trials)):
            mask = stratified_fraction_split(clean_y, fraction, rng=rng)
            corrupted = flip_labels(hin, rate, seed=seed * 1000 + trial)
            train = corrupted.masked(mask)
            model = TMark(**params).fit(train)
            tmark_accs.append(
                accuracy(clean_y[~mask], model.predict()[~mask])
            )
            frozen = TensorRrCc(
                alpha=params["alpha"], gamma=params["gamma"]
            ).fit(train)
            frozen_accs.append(
                accuracy(clean_y[~mask], frozen.predict()[~mask])
            )
        tmark_curve.append(float(np.mean(tmark_accs)))
        frozen_curve.append(float(np.mean(frozen_accs)))
    text = format_series(
        {"T-Mark": tmark_curve, "TensorRrCc": frozen_curve},
        LABEL_NOISE_LEVELS,
        title=(
            "Label noise — accuracy vs fraction of mislabeled training "
            "nodes (DBLP, 20% labels; evaluation on true labels)"
        ),
        x_name="flip rate",
    )
    return ExperimentReport(
        "label_noise",
        "Training-label noise: does the Eq. 12 update amplify errors?",
        text,
        data={
            "rates": list(LABEL_NOISE_LEVELS),
            "tmark": tmark_curve,
            "tensorrrcc": frozen_curve,
        },
    )
