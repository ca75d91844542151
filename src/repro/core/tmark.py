"""T-Mark: the tensor-based Markov chain collective classifier (Algorithm 1).

For every class ``c`` T-Mark iterates the coupled updates of Eq. 10 and
Eq. 8:

.. math::

    x_t = (1 - \\alpha - \\beta)\\, O \\bar\\times_1 x_{t-1}
          \\bar\\times_3 z_{t-1} + \\beta W x_{t-1} + \\alpha l, \\qquad
    z_t = R \\bar\\times_1 x_t \\bar\\times_2 x_t

until ``||x_t - x_{t-1}||_1 + ||z_t - z_{t-1}||_1 < \\varepsilon``.  The
restart vector ``l`` starts as the uniform distribution over the class's
labeled nodes (Eq. 11) and, from iteration 3 on, additionally accepts
confident predictions (Eq. 12) — the ICA-style extension that
distinguishes T-Mark from its TensorRrCc predecessor.

The stationary ``x`` per class is the classification confidence; the
stationary ``z`` per class is the relative importance of the link types
(the quantity behind Tables 2, 5, 9, 10 and Fig. 5 of the paper).

Note on Algorithm 1's pseudo-code: its step 5 prints ``+ alpha z_{t-1}``,
an evident typo for ``+ alpha l`` — Eq. 10 and Theorem 2 both use ``l``,
and ``z`` has length ``m`` which does not even broadcast against ``x``.
We implement Eq. 10.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.chains import LocalBackend, run_chains
from repro.core.convergence import ChainHistory
from repro.core.features import feature_walk_matrix, walk_matrix_form
from repro.core.labels import THRESHOLD_MODES
from repro.errors import NotFittedError, ValidationError
from repro.hin.graph import HIN
from repro.obs.health import ChainHealth, health_from_history
from repro.obs.recorder import get_recorder
from repro.obs.spans import annotate_span, span
from repro.solvers.base import PLAIN_SOLVER, check_solver
from repro.tensor.transition import build_transition_tensors
from repro.utils.validation import (
    check_fraction,
    check_positive_int,
    check_probability,
)

#: Relational weights below this are floating-point dust from
#: ``1 - alpha - beta`` (e.g. gamma values that round to just under 1)
#: and are clamped to exactly zero so the O-propagation — the dominant
#: per-iteration cost — is skipped when it cannot contribute.
RELATIONAL_WEIGHT_EPS = 1e-12


@dataclass(frozen=True)
class TMarkOperators:
    """Precomputed transition operators for one HIN.

    ``O``, ``R`` and ``W`` depend only on the network structure and the
    node features — not on which labels are visible — so they can be
    built once and shared across fits that differ only in supervision or
    in the chain hyper-parameters (label-fraction grids, alpha/gamma
    sweeps, tuning).  Build with :func:`build_operators` and pass to
    :meth:`TMark.fit` via ``operators=``.

    ``w_matrix`` is whatever :func:`repro.core.features.feature_walk_matrix`
    picked: an exact rank-``(d + 1)``
    :class:`~repro.core.features.LowRankMatrix` for cosine on
    non-negative features when that is cheaper to apply, the top-k CSR
    as a :class:`~repro.tensor.transition.RowWalk` with
    ``similarity_top_k``, and the dense Eq. 9 array otherwise.  The
    store-backed operators (:mod:`repro.ooc`) hold the same forms over
    memory-mapped arrays.  The chain runners only ever compute
    ``w_matrix @ X``; shard workers walk a ``RowWalk``'s rows.
    """

    o_tensor: object
    r_tensor: object
    w_matrix: object
    shape: tuple[int, int]  # (n_nodes, n_relations)
    similarity_top_k: int | None
    similarity_metric: str


def build_operators(
    hin: HIN,
    *,
    similarity_top_k: int | None = None,
    similarity_metric: str = "cosine",
    recorder=None,
) -> TMarkOperators:
    """Precompute the ``(O, R, W)`` operator triple for ``hin``.

    The returned object can be passed to any number of
    :meth:`TMark.fit` calls on HINs sharing this structure and feature
    matrix (e.g. ``hin.masked(...)`` views), skipping the operator
    construction — the dominant fixed cost of parameter sweeps.

    ``recorder`` (default: the ambient :func:`repro.obs.get_recorder`)
    receives one ``operator_build`` event with the O/R and W
    construction wall-clock split.  The event and the
    ``build_operators`` span carry ``w_form`` (``"dense"``,
    ``"factored"`` or ``"sparse"``) and ``w_rank``, the inner dimension
    of one ``W @ X`` product (see
    :func:`repro.core.features.walk_matrix_form`), and ``r_layout``
    (``"rows"`` or ``"columns"``), how ``R``'s Eq. 8 product walks its
    stack (see :func:`repro.tensor.transition.product_operand`).
    """
    rec = get_recorder() if recorder is None else recorder
    with span("build_operators", recorder=rec, n_nodes=hin.n_nodes) as build_span:
        started = time.perf_counter()
        o_tensor, r_tensor = build_transition_tensors(hin.tensor)
        transition_done = time.perf_counter()
        w_matrix = feature_walk_matrix(
            hin.features, top_k=similarity_top_k, metric=similarity_metric
        )
        if rec.enabled:
            feature_done = time.perf_counter()
            w_form, w_rank = walk_matrix_form(w_matrix)
            r_layout = r_tensor.layout
            annotate_span(build_span, w_form=w_form, w_rank=w_rank, r_layout=r_layout)
            rec.emit(
                "operator_build",
                n_nodes=hin.n_nodes,
                n_relations=hin.n_relations,
                similarity_top_k=similarity_top_k,
                similarity_metric=similarity_metric,
                w_form=w_form,
                w_rank=w_rank,
                r_layout=r_layout,
                transition_seconds=transition_done - started,
                feature_seconds=feature_done - transition_done,
            )
    return TMarkOperators(
        o_tensor=o_tensor,
        r_tensor=r_tensor,
        w_matrix=w_matrix,
        shape=(hin.n_nodes, hin.n_relations),
        similarity_top_k=similarity_top_k,
        similarity_metric=similarity_metric,
    )


@dataclass(frozen=True)
class TMarkResult:
    """Stationary distributions of a fitted T-Mark model.

    Attributes
    ----------
    node_scores:
        ``(n, q)`` matrix; column ``c`` is the stationary node
        distribution ``x`` of class ``c`` (each column sums to one).
    relation_scores:
        ``(m, q)`` matrix; column ``c`` is the stationary relation
        distribution ``z`` of class ``c``.
    histories:
        One :class:`ChainHistory` per class.
    label_names, relation_names:
        Names aligned with the score columns / rows.
    node_names:
        Names aligned with the ``node_scores`` rows — the chain-start
        metadata that lets a :class:`repro.stream.StreamingSession`
        resume from a saved result (``None`` on results loaded from
        archives predating the field).
    """

    node_scores: np.ndarray
    relation_scores: np.ndarray
    histories: list[ChainHistory]
    label_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    node_names: tuple[str, ...] | None = None

    @cached_property
    def health(self) -> tuple[ChainHealth, ...]:
        """Per-class convergence verdicts, folded from :attr:`histories`
        once (:func:`~repro.obs.health.health_from_history`) and shared
        by the ``chain_health`` events, the streaming session and the
        serving snapshot."""
        return tuple(
            health_from_history(history, class_index=c, label=self.label_names[c])
            for c, history in enumerate(self.histories)
        )

    def ranked_relations(self, label: int | str) -> list[tuple[str, float]]:
        """Relations sorted by importance for ``label`` (name, score)."""
        c = self._label_idx(label)
        order = np.argsort(-self.relation_scores[:, c], kind="stable")
        return [(self.relation_names[k], float(self.relation_scores[k, c])) for k in order]

    def top_relations(self, label: int | str, count: int = 5) -> list[str]:
        """Names of the ``count`` most important relations for ``label``."""
        return [name for name, _ in self.ranked_relations(label)[:count]]

    def _label_idx(self, label: int | str) -> int:
        if isinstance(label, str):
            try:
                return self.label_names.index(label)
            except ValueError:
                raise ValidationError(f"unknown label name: {label!r}") from None
        c = int(label)
        if not 0 <= c < len(self.label_names):
            raise ValidationError(
                f"label index {c} out of range [0, {len(self.label_names)})"
            )
        return c


class TMark:
    """The T-Mark collective classifier and link ranker.

    Parameters
    ----------
    alpha:
        Restart probability toward the labeled nodes (Eq. 10); the paper
        uses 0.8 on DBLP and 0.9 elsewhere (section 6.5).  ``alpha=0``
        is allowed and reproduces a restart-free walk — without the
        contraction the restart term provides, such chains may never
        converge (periodic structures oscillate; see
        :mod:`repro.obs.health`).
    gamma:
        Feature/relation mix in [0, 1]: 0 = relational information only,
        1 = feature information only.  Internally
        ``beta = gamma * (1 - alpha)``.
    tol:
        The stopping tolerance ``epsilon`` of Algorithm 1.
    max_iter:
        Iteration budget per class chain.
    update_labels:
        Enable the Eq. 12 ICA update from iteration 3 on (the T-Mark
        extension).  ``False`` reproduces TensorRrCc.
    label_threshold:
        The acceptance threshold ``lambda`` of Eq. 12.
    threshold_mode:
        ``"relative"`` (default — ``x_i > lambda * max(x)``) or
        ``"absolute"`` (the literal Eq. 12); see
        :mod:`repro.core.labels`.
    similarity_top_k:
        Optional sparsification of the feature transition matrix ``W``
        (keep the ``k`` strongest similarities per column).
    similarity_metric:
        Node-similarity function behind ``W``: ``"cosine"`` (the
        paper's choice and the default), ``"rbf"`` or ``"jaccard"``
        (section 4.2 allows any distance metric here).
    solver:
        Fixed-point solver for the per-class chains, and the only place
        a fit's solver is chosen: ``"plain"`` (the default — the literal
        Algorithm 1 power iteration, bit-identical to releases predating
        :mod:`repro.solvers`) or ``"anderson"`` (windowed least-squares
        mixing).  Anderson is safeguarded: an extrapolated iterate that
        leaves the simplex is discarded for the plain step, so the
        stationary pair it converges to is the same one
        (argmax-identical predictions, residual ≤ ``tol``).

    Examples
    --------
    >>> from repro.datasets import make_worked_example
    >>> model = TMark(alpha=0.8, gamma=0.5)
    >>> result = model.fit(make_worked_example()).result_
    >>> result.node_scores.shape
    (4, 2)
    """

    def __init__(
        self,
        *,
        alpha: float = 0.8,
        gamma: float = 0.5,
        tol: float = 1e-8,
        max_iter: int = 500,
        update_labels: bool = True,
        label_threshold: float = 0.9,
        threshold_mode: str = "relative",
        similarity_top_k: int | None = None,
        similarity_metric: str = "cosine",
        solver: str = PLAIN_SOLVER,
    ):
        self.alpha = check_fraction(alpha, "alpha", inclusive_low=True)
        self.gamma = check_probability(gamma, "gamma")
        if tol <= 0:
            raise ValidationError(f"tol must be positive, got {tol}")
        self.tol = float(tol)
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.update_labels = bool(update_labels)
        self.label_threshold = check_probability(label_threshold, "label_threshold")
        if threshold_mode not in THRESHOLD_MODES:
            raise ValidationError(
                f"threshold_mode must be one of {THRESHOLD_MODES}, got {threshold_mode!r}"
            )
        self.threshold_mode = threshold_mode
        if similarity_top_k is not None:
            similarity_top_k = check_positive_int(similarity_top_k, "similarity_top_k")
        self.similarity_top_k = similarity_top_k
        from repro.core.features import SIMILARITY_METRICS

        if similarity_metric not in SIMILARITY_METRICS:
            raise ValidationError(
                f"similarity_metric must be one of {SIMILARITY_METRICS}, "
                f"got {similarity_metric!r}"
            )
        self.similarity_metric = similarity_metric
        self.solver = check_solver(solver)
        self.result_: TMarkResult | None = None
        self._hin: HIN | None = None

    @property
    def beta(self) -> float:
        """The feature-walk weight ``beta = gamma * (1 - alpha)``."""
        return self.gamma * (1.0 - self.alpha)

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        hin: HIN,
        *,
        warm_start: bool = False,
        starts=None,
        operators=None,
        recorder=None,
        shards: int | None = None,
        workers: int | None = None,
    ) -> "TMark":
        """Run the per-class chains on ``hin``.

        ``hin.label_matrix`` supplies the supervision: labeled rows are
        the training set, all-``False`` rows are the nodes to classify
        (transductive setting).

        Parameters
        ----------
        warm_start:
            Initialise each class chain from the previous fit's
            stationary pair instead of the Eq. 11 / uniform start.  When
            labels arrive incrementally on the same network, the old
            fixed point is close to the new one and chains converge in a
            fraction of the iterations (see the warm-start bench).
            Requires a previous fit with matching shapes *and* matching
            ``label_names`` / ``relation_names`` (a same-shape fit with
            reordered classes would seed every chain from the wrong
            class's stationary pair); silently falls back to a cold
            start otherwise.
        starts:
            Explicit warm-start pair ``(X0, Z0)`` of shapes ``(n, q)``
            and ``(m, q)`` (each column is projected onto the simplex
            before use).  Takes precedence over ``warm_start`` and,
            unlike it, fails loudly on a shape mismatch — this is the
            entry point for callers that maintain their own chain state,
            such as :class:`repro.stream.StreamingSession`, which pads
            the previous stationary ``x`` for newly added nodes and
            therefore cannot rely on the same-shape heuristic.
        operators:
            Optional :class:`TMarkOperators` precomputed with
            :func:`build_operators` on a HIN sharing this one's
            structure and features.  Skips the O/R/W construction —
            useful when fitting many label masks or hyper-parameter
            settings on one network.
        recorder:
            Optional :class:`repro.obs.Recorder` receiving the fit's
            telemetry (``chain_iteration`` phase timings and per-class
            residuals, one ``fit`` summary).  Defaults to the ambient
            recorder (:func:`repro.obs.get_recorder`), which is a no-op
            unless one was installed.
        shards:
            Partition the node set into this many contiguous shards and
            run the per-iteration propagation in fork-based worker
            processes (see :mod:`repro.shard`).  ``None`` or ``1`` keeps
            the serial chain runner untouched.  With in-memory operators
            the sharded scores are bit-identical to the serial ones for
            any shard count; where no fork pool can be built (platforms
            without ``fork``, nested inside a pool worker) the fit warns
            and runs serially with identical results.
        workers:
            Worker-process count for a sharded fit; defaults to
            ``min(shards, available CPUs)``.  Ignored without ``shards``.

        Warns
        -----
        RuntimeWarning
            When a class chain exhausts ``max_iter`` without reaching
            ``tol`` — the warning names the class and its final
            residual, and the matching :class:`ChainHistory` is marked
            ``exhausted`` with ``converged=False`` (surfaced as the
            ``not_converged`` status on the ``chain_health`` event).
        """
        rec = get_recorder() if recorder is None else recorder
        fit_started = time.perf_counter() if rec.enabled else 0.0
        if not isinstance(hin, HIN):
            raise ValidationError(f"expected a HIN, got {type(hin).__name__}")
        if operators is not None:
            if operators.shape != (hin.n_nodes, hin.n_relations):
                raise ValidationError(
                    f"operators were built for shape {operators.shape}, the HIN "
                    f"has ({hin.n_nodes}, {hin.n_relations})"
                )
        else:
            operators = build_operators(
                hin,
                similarity_top_k=self.similarity_top_k,
                similarity_metric=self.similarity_metric,
                recorder=rec,
            )
        self.fit_operators(
            operators,
            hin.label_matrix,
            label_names=hin.label_names,
            relation_names=hin.relation_names,
            node_names=hin.node_names,
            warm_start=warm_start,
            starts=starts,
            recorder=rec,
            shards=shards,
            workers=workers,
            _fit_started=fit_started,
        )
        self._hin = hin
        return self

    def fit_operators(
        self,
        operators,
        label_matrix,
        *,
        label_names=None,
        relation_names=None,
        node_names=None,
        warm_start: bool = False,
        starts=None,
        recorder=None,
        shards: int | None = None,
        workers: int | None = None,
        _fit_started: float | None = None,
    ) -> "TMark":
        """Run the per-class chains directly on a precomputed operator triple.

        The HIN-free core of :meth:`fit`: everything Algorithm 1 needs
        is the ``(O, R, W)`` operators plus the ``(n, q)`` boolean
        supervision matrix, so callers that never materialise a
        :class:`HIN` — above all the out-of-core tier, where a
        million-node graph lives in a :class:`repro.ooc.GraphStore` and
        the operators stream over memory-mapped slices — enter here.
        :meth:`fit` itself delegates to this method, so both paths are
        one code path with identical telemetry and results.

        Parameters
        ----------
        operators:
            A :class:`TMarkOperators`, from :func:`build_operators` or
            (streaming over a store) from
            :func:`repro.ooc.build_chunked_operators`.
        label_matrix:
            ``(n, q)`` boolean supervision; all-``False`` rows are the
            nodes to classify.
        label_names, relation_names:
            Names attached to the result's score axes; default to
            ``class_<c>`` / ``relation_<k>``.
        node_names:
            Optional node names for the result (``None`` keeps the
            result free of per-node strings — the only sane choice at
            millions of nodes).
        warm_start, starts, recorder, shards, workers:
            As in :meth:`fit`.  In-memory and store-backed operators
            both shard along rows, bit-identical for any shard count.

        Returns
        -------
        ``self``; ``result_`` holds the stationary scores.  After this
        call :meth:`predict_multilabel` requires explicit
        ``positive_rates`` (there is no fitted HIN to infer them from).
        """
        rec = get_recorder() if recorder is None else recorder
        fit_started = (
            (time.perf_counter() if rec.enabled else 0.0)
            if _fit_started is None
            else _fit_started
        )
        solver_name = check_solver(self.solver)
        if (
            operators.similarity_top_k != self.similarity_top_k
            or operators.similarity_metric != self.similarity_metric
        ):
            raise ValidationError(
                "operators were built with different similarity settings "
                f"(top_k={operators.similarity_top_k}, "
                f"metric={operators.similarity_metric!r})"
            )
        label_matrix = np.asarray(label_matrix, dtype=bool)
        if label_matrix.ndim != 2:
            raise ValidationError(
                f"label_matrix must be 2-D (n, q), got shape {label_matrix.shape}"
            )
        n, q = label_matrix.shape
        n_ops, m = operators.shape
        if n_ops != n:
            raise ValidationError(
                f"operators were built for {n_ops} nodes, the label matrix "
                f"has {n} rows"
            )
        if self.beta > 0.0 and operators.w_matrix is None:
            raise ValidationError(
                "operators carry no feature-walk matrix (W) but "
                f"gamma={self.gamma} needs one; rebuild with W or set gamma=0"
            )
        if label_names is None:
            label_names = tuple(f"class_{c}" for c in range(q))
        else:
            label_names = tuple(str(name) for name in label_names)
            if len(label_names) != q:
                raise ValidationError(
                    f"expected {q} label names, got {len(label_names)}"
                )
        if relation_names is None:
            relation_names = tuple(f"relation_{k}" for k in range(m))
        else:
            relation_names = tuple(str(name) for name in relation_names)
            if len(relation_names) != m:
                raise ValidationError(
                    f"expected {m} relation names, got {len(relation_names)}"
                )
        o_tensor, r_tensor, w_matrix = (
            operators.o_tensor,
            operators.r_tensor,
            operators.w_matrix,
        )

        if starts is not None:
            if len(starts) != 2:
                raise ValidationError(
                    "starts must be an (X0, Z0) pair of score matrices"
                )
            x0 = np.asarray(starts[0], dtype=float)
            z0 = np.asarray(starts[1], dtype=float)
            if x0.shape != (n, q) or z0.shape != (m, q):
                raise ValidationError(
                    f"starts shapes {x0.shape} / {z0.shape} do not match the "
                    f"HIN's ({n}, {q}) / ({m}, {q})"
                )
            if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(z0))):
                raise ValidationError(
                    "starts must be finite: (X0, Z0) contains NaN or inf"
                )
            if float(x0.min()) < -1e-6 or float(z0.min()) < -1e-6:
                raise ValidationError(
                    "starts must be non-negative (entries below -1e-6 found); "
                    "warm starts are score matrices, not arbitrary vectors"
                )
            # Valid-but-unnormalised columns (including all-zero ones,
            # which become uniform) are repaired by the per-column
            # simplex projection inside the chain runner.
            starts = (x0, z0)
        else:
            previous = self.result_ if warm_start else None
            if previous is not None and (
                previous.node_scores.shape != (n, q)
                or previous.relation_scores.shape != (m, q)
                or tuple(previous.label_names) != tuple(label_names)
                or tuple(previous.relation_names) != tuple(relation_names)
            ):
                previous = None
            if previous is not None:
                starts = (previous.node_scores, previous.relation_scores)
        if shards is not None:
            shards = check_positive_int(shards, "shards")
        if shards is not None and shards > 1:
            from repro.forkpool import serial_fallback_reason

            reason = serial_fallback_reason()
            if reason is not None:
                warnings.warn(
                    f"fit(shards={shards}) falling back to serial: {reason}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                shards = None
        else:
            shards = None
        with span(
            "fit_chains", recorder=rec, n_classes=q, solver=solver_name
        ):
            if shards is not None:
                from repro.shard import run_chains_sharded

                node_scores, relation_scores, histories = run_chains_sharded(
                    self, o_tensor, r_tensor, w_matrix, label_matrix,
                    shards=shards, workers=workers, starts=starts, recorder=rec,
                )
            else:
                node_scores, relation_scores, histories = run_chains(
                    self, LocalBackend(self, o_tensor, r_tensor, w_matrix, q),
                    label_matrix, starts=starts, recorder=rec,
                )
        for c, history in enumerate(histories):
            if history.exhausted:
                warnings.warn(
                    f"chain for class {label_names[c]!r} exhausted "
                    f"max_iter={self.max_iter} without converging "
                    f"(final residual {history.final_residual:.3e} >= "
                    f"tol {self.tol:.3e})",
                    RuntimeWarning,
                    stacklevel=2,
                )

        self.result_ = TMarkResult(
            node_scores=node_scores,
            relation_scores=relation_scores,
            histories=histories,
            label_names=label_names,
            relation_names=relation_names,
            node_names=tuple(node_names) if node_names is not None else None,
        )
        self._hin = None
        if rec.enabled:
            for verdict in self.result_.health:
                rec.emit("chain_health", **verdict.as_event())
            rec.emit(
                "fit",
                n_nodes=n,
                n_classes=q,
                n_relations=m,
                tol=self.tol,
                solver=solver_name,
                warm_start=starts is not None,
                iterations=max(h.n_iterations for h in histories),
                converged=all(h.converged for h in histories),
                seconds=time.perf_counter() - fit_started,
            )
        return self

    @property
    def _relational_weight(self) -> float:
        """``1 - alpha - beta`` with floating-point dust clamped to zero.

        For ``gamma`` values that are mathematically 1 but round to just
        below it (e.g. ``0.7 + 0.3``), the raw subtraction leaves a
        ~1e-17 residue that would trigger a full O-propagation per
        iteration contributing nothing.
        """
        weight = 1.0 - self.alpha - self.beta
        return 0.0 if weight < RELATIONAL_WEIGHT_EPS else weight

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _require_fitted(self) -> TMarkResult:
        if self.result_ is None:
            raise NotFittedError("TMark.fit must be called before predicting")
        return self.result_

    def predict_scores(self) -> np.ndarray:
        """The raw ``(n, q)`` stationary confidence matrix."""
        return self._require_fitted().node_scores.copy()

    def predict_proba(self) -> np.ndarray:
        """Row-normalised class probabilities per node."""
        scores = self._require_fitted().node_scores
        totals = scores.sum(axis=1, keepdims=True)
        safe = np.where(totals > 0, totals, 1.0)
        proba = scores / safe
        zero_rows = (totals == 0).ravel()
        if np.any(zero_rows):
            proba[zero_rows] = 1.0 / scores.shape[1]
        return proba

    def predict(self) -> np.ndarray:
        """Single-label prediction: class index per node (argmax)."""
        return np.argmax(self._require_fitted().node_scores, axis=1)

    def predict_multilabel(self, positive_rates=None) -> np.ndarray:
        """Multi-label prediction as an ``(n, q)`` boolean matrix.

        Each class accepts its top-scoring nodes at the class's training
        positive rate (prior matching): if 12% of labeled nodes carry
        class ``c``, the 12% highest-scoring nodes are predicted positive.
        Every node receives at least its argmax class so no node ends up
        label-free.

        Parameters
        ----------
        positive_rates:
            Optional length-``q`` per-class positive rates in (0, 1];
            defaults to the rates observed among the fitted HIN's labeled
            nodes.  Must be finite — clipping happens only after shape
            and finiteness are validated, so a NaN cannot slip through
            ``np.clip`` (which propagates it) into the selection counts.
        """
        result = self._require_fitted()
        scores = result.node_scores
        n, q = scores.shape
        if positive_rates is None:
            if self._hin is None:
                raise NotFittedError("positive_rates is required without a fitted HIN")
            labeled = self._hin.labeled_mask
            n_labeled = max(int(labeled.sum()), 1)
            positive_rates = self._hin.label_matrix[labeled].sum(axis=0) / n_labeled
        rates = np.asarray(positive_rates, dtype=float)
        if rates.shape != (q,):
            raise ValidationError(
                f"positive_rates must have shape ({q},), got {rates.shape}"
            )
        if not np.all(np.isfinite(rates)):
            raise ValidationError("positive_rates must be finite, got NaN or inf")
        rates = np.clip(rates, 1.0 / n, 1.0)
        predictions = np.zeros((n, q), dtype=bool)
        for c in range(q):
            count = max(int(round(rates[c] * n)), 1)
            top = np.argsort(-scores[:, c], kind="stable")[:count]
            predictions[top, c] = True
        predictions[np.arange(n), np.argmax(scores, axis=1)] = True
        return predictions

    def diagnostics(self) -> dict[str, dict]:
        """Per-class convergence and label-update diagnostics.

        Returns, per class label: the iteration count, convergence flag,
        final residual, number of labeled anchors, and the number of
        unlabeled nodes the Eq. 12 update had accepted into the restart
        vector at the final iteration (-1 when the update never fired).
        """
        result = self._require_fitted()
        report: dict[str, dict] = {}
        for label, history in zip(result.label_names, result.histories):
            accepted = history.accepted_history
            report[label] = {
                "iterations": history.n_iterations,
                "converged": history.converged,
                "final_residual": history.final_residual,
                "n_anchors": history.n_anchors,
                "final_accepted": accepted[-1] if accepted else -1,
            }
        return report

    def fit_predict(self, hin: HIN, rng=None, *, operators=None) -> np.ndarray:
        """Fit on ``hin`` and return the ``(n, q)`` score matrix.

        This is the common transductive-classifier interface shared with
        the baselines (``rng`` is accepted for uniformity; T-Mark is
        deterministic).  ``operators`` optionally passes a precomputed
        :class:`TMarkOperators` through to :meth:`fit`, letting the
        experiment harness share one operator build across the many
        masked fits of a sweep.
        """
        del rng  # deterministic algorithm; parameter kept for interface parity
        return self.fit(hin, operators=operators).result_.node_scores.copy()
