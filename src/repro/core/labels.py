"""Restart label vectors: Eq. 11 (initial) and Eq. 12 (ICA update).

The restart vector ``l`` concentrates the random walk on the nodes
believed to carry the current class.  Initially these are the labeled
training nodes (uniform ``1/n_c`` each).  From iteration 3 onwards T-Mark
additionally *accepts* unlabeled nodes whose current stationary confidence
``x_i`` clears a threshold ``lambda`` — the ICA idea of folding confident
predictions back into the supervision.

The paper calls ``lambda`` a "relative threshold" while Eq. 12 writes the
absolute test ``[x]_i > lambda``.  Two facts make the literal reading
unusable: stationary probabilities scale like ``1/n`` (so a fixed
absolute threshold is meaningless across network sizes), and the restart
term concentrates the bulk of the mass on the labeled anchors (so even a
threshold relative to the *global* maximum would never accept an
unlabeled node).  The default here is therefore relative to the best
*candidate*: a node is accepted when
``x_i > lambda * max(x over unlabeled nodes)``.  The absolute variant
remains available for the ablation bench.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.utils.validation import check_array_1d, check_probability

#: Supported interpretations of the Eq. 12 threshold.
THRESHOLD_MODES = ("relative", "absolute")


def initial_label_vector(labeled_class_mask: np.ndarray) -> np.ndarray:
    """The Eq. 11 restart vector for one class.

    Parameters
    ----------
    labeled_class_mask:
        Boolean mask over nodes: ``True`` where the node is a *labeled
        training node of the current class*.

    Returns
    -------
    Length-``n`` distribution: ``1/n_c`` on the masked nodes.  When the
    class has no labeled nodes (possible under tiny label fractions) the
    walk has no anchor and the vector falls back to uniform over all
    nodes, which makes the class's confidence uninformative but keeps the
    chain well-defined.
    """
    mask = np.asarray(labeled_class_mask, dtype=bool)
    if mask.ndim != 1 or mask.size == 0:
        raise ValidationError("labeled_class_mask must be a non-empty 1-D bool mask")
    n_c = int(mask.sum())
    if n_c == 0:
        return np.full(mask.size, 1.0 / mask.size)
    vector = np.zeros(mask.size)
    vector[mask] = 1.0 / n_c
    return vector


def updated_label_vector(
    labeled_class_mask: np.ndarray,
    x: np.ndarray,
    threshold: float,
    *,
    mode: str = "relative",
    return_accepted: bool = False,
):
    """The Eq. 12 restart vector: training nodes plus confident predictions.

    Parameters
    ----------
    labeled_class_mask:
        Boolean mask of labeled training nodes of the current class.
    x:
        Current stationary node distribution for this class.
    threshold:
        The ``lambda`` of Eq. 12, in [0, 1].
    mode:
        ``"relative"`` accepts unlabeled nodes with
        ``x_i > threshold * max(x over unlabeled nodes)`` (default, see
        module docstring); ``"absolute"`` uses the literal Eq. 12 test
        ``x_i > threshold``.
    return_accepted:
        When ``True``, return ``(vector, n_accepted)`` where
        ``n_accepted`` is the number of *unlabeled* nodes the update
        accepted.  In the degenerate uniform fallback (no training node
        and no confident prediction) ``n_accepted`` is 0 — the fallback
        anchors nothing, so counting its support as acceptances would
        corrupt diagnostics.

    Returns
    -------
    Length-``n`` distribution: ``1/n_l`` over the union of training nodes
    and accepted nodes (plus the acceptance count when requested).
    """
    mask = np.asarray(labeled_class_mask, dtype=bool)
    x = check_array_1d(x, "x", size=mask.size)
    threshold = check_probability(threshold, "threshold")
    if mode not in THRESHOLD_MODES:
        raise ValidationError(
            f"mode must be one of {THRESHOLD_MODES}, got {mode!r}"
        )
    candidates = ~mask
    if mode == "relative":
        candidate_max = float(x[candidates].max()) if np.any(candidates) else 0.0
        cutoff = threshold * candidate_max
    else:
        cutoff = threshold
    accepted = mask | (candidates & (x > cutoff))
    n_l = int(accepted.sum())
    if n_l == 0:
        # Degenerate: nothing labeled and nothing confident; stay uniform.
        vector = np.full(mask.size, 1.0 / mask.size)
        return (vector, 0) if return_accepted else vector
    vector = np.zeros(mask.size)
    vector[accepted] = 1.0 / n_l
    if return_accepted:
        return vector, n_l - int(mask.sum())
    return vector


def updated_label_matrix(
    label_matrix: np.ndarray,
    X: np.ndarray,
    threshold: float,
    *,
    mode: str = "relative",
):
    """:func:`updated_label_vector` for every column at once.

    ``label_matrix`` is the ``(n, a)`` boolean mask of labeled training
    nodes per class and ``X`` the matching ``(n, a)`` node
    distributions.  Returns ``(vectors, n_accepted)``: the ``(n, a)``
    Eq. 12 restart vectors and the ``(a,)`` integer counts of accepted
    *unlabeled* nodes, column ``c`` bit-for-bit
    ``updated_label_vector(label_matrix[:, c], X[:, c], threshold,
    mode=mode, return_accepted=True)``.  The chain driver calls this
    once per iteration, so only ``X``'s finiteness is checked here;
    ``threshold`` must already be a validated probability (``TMark``
    checks it at construction).
    """
    masks = np.asarray(label_matrix, dtype=bool)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape != masks.shape or X.shape[0] == 0:
        raise ShapeError(
            f"X must match the (n, a) label matrix {masks.shape}, got {X.shape}"
        )
    # One C-contiguous row per class: every reduction below runs along
    # memory (an F-ordered input transposes without a copy).
    rows = np.ascontiguousarray(X.T)
    if not np.all(np.isfinite(rows)):
        raise ValidationError("X contains non-finite values")
    anchors = np.ascontiguousarray(masks.T)
    candidates = ~anchors
    if mode == "relative":
        # Maxima are exact in any order; a class without candidates
        # gets the 1-D path's 0.0 (its cutoff then tests no node).
        candidate_max = np.where(candidates, rows, -np.inf).max(axis=1)
        candidate_max[~candidates.any(axis=1)] = 0.0
        cutoff = (threshold * candidate_max)[:, None]
    elif mode == "absolute":
        cutoff = threshold
    else:
        raise ValidationError(f"mode must be one of {THRESHOLD_MODES}, got {mode!r}")
    accepted = candidates & (rows > cutoff)
    n_accepted = np.count_nonzero(accepted, axis=1)
    accepted |= anchors
    n_l = np.count_nonzero(accepted, axis=1)
    vectors = accepted * (1.0 / np.maximum(n_l, 1))[:, None]
    # Degenerate classes (nothing labeled, nothing confident) stay uniform.
    vectors[n_l == 0] = 1.0 / X.shape[0]
    return vectors.T, n_accepted
