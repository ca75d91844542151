"""Solver wiring and convergence-edge bugfixes at the TMark level.

Covers the three bugfix satellites of the solver PR: silent ``max_iter``
exhaustion, bad warm ``starts``, and the non-finite
``projected_iterations`` crash — plus the solver trace events the
accelerated paths emit, and golden digests that pin the chain driver's
output and timing-free events bit for bit.
"""

import hashlib
import json
import warnings

import numpy as np
import pytest

from repro.core import TMark
from repro.errors import ValidationError
from repro.obs import ChainHealth, ListRecorder
from repro.obs.health import PROJECTION_NEVER
from tests.conftest import small_labeled_hin


@pytest.fixture(scope="module")
def hin():
    return small_labeled_hin(seed=4, n=25, q=3)


class TestMaxIterExhaustion:
    def test_warns_and_marks_history(self, hin):
        model = TMark(alpha=0.7, gamma=0.4, max_iter=3)
        with pytest.warns(RuntimeWarning, match="exhausted max_iter=3"):
            model.fit(hin)
        for history in model.result_.histories:
            assert not history.converged
            assert history.exhausted

    def test_warning_names_class_and_residual(self, hin):
        with pytest.warns(RuntimeWarning) as caught:
            TMark(alpha=0.7, gamma=0.4, max_iter=3).fit(hin)
        text = " ".join(str(w.message) for w in caught)
        assert "final residual" in text
        assert any(label in text for label in hin.label_names)

    def test_converged_fit_does_not_warn(self, hin):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = TMark(alpha=0.7, gamma=0.4, max_iter=500).fit(hin)
        for history in model.result_.histories:
            assert history.converged
            assert not history.exhausted

    def test_chain_health_event_reports_not_converged(self, hin):
        # A decent budget but an unreachable tolerance: the chains decay
        # geometrically yet exhaust max_iter, the exact shape the old
        # code mislabelled "healthy".
        recorder = ListRecorder()
        with pytest.warns(RuntimeWarning):
            TMark(alpha=0.7, gamma=0.4, tol=1e-14, max_iter=15).fit(
                hin, recorder=recorder
            )
        statuses = {e["status"] for e in recorder.events_of("chain_health")}
        assert "not_converged" in statuses
        assert "healthy" not in statuses


class TestBadStarts:
    @staticmethod
    def good_starts(hin):
        n, q = hin.n_nodes, hin.n_labels
        x0 = np.full((n, q), 1.0 / n)
        z0 = np.full((hin.n_relations, q), 1.0 / hin.n_relations)
        return x0, z0

    def test_nan_starts_rejected(self, hin):
        x0, z0 = self.good_starts(hin)
        x0[0, 0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            TMark().fit(hin, starts=(x0, z0))

    def test_inf_starts_rejected(self, hin):
        x0, z0 = self.good_starts(hin)
        z0[0, 0] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            TMark().fit(hin, starts=(x0, z0))

    def test_negative_starts_rejected(self, hin):
        x0, z0 = self.good_starts(hin)
        x0[0, 0] = -0.5
        with pytest.raises(ValidationError, match="non-negative"):
            TMark().fit(hin, starts=(x0, z0))

    def test_unnormalised_starts_are_renormalised(self, hin):
        x0, z0 = self.good_starts(hin)
        model = TMark(alpha=0.7, gamma=0.4, max_iter=500)
        model.fit(hin, starts=(7.0 * x0, 3.0 * z0))
        reference = TMark(alpha=0.7, gamma=0.4, max_iter=500).fit(
            hin, starts=(x0, z0)
        )
        np.testing.assert_allclose(
            model.result_.node_scores, reference.result_.node_scores, atol=1e-8
        )

    def test_all_zero_columns_get_uniform_mass(self, hin):
        x0, z0 = self.good_starts(hin)
        x0[:, 0] = 0.0
        model = TMark(alpha=0.7, gamma=0.4, max_iter=500).fit(
            hin, starts=(x0, z0)
        )
        assert all(h.converged for h in model.result_.histories)


class TestProjectedIterationsClamp:
    def test_from_event_clamps_inf(self):
        event = ChainHealth(
            class_index=0,
            status="stalled",
            converged=False,
            n_iterations=10,
            final_residual=0.5,
            decay_rate=1.0,
            spectral_gap=0.0,
            projected_iterations=PROJECTION_NEVER,
            oscillation_share=0.0,
            tol=1e-8,
        ).as_event()
        # Traces from a pre-sentinel release could carry inf/nan here.
        for bad in (float("inf"), float("nan")):
            event["projected_iterations"] = bad
            verdict = ChainHealth.from_event(event)
            assert verdict.projected_iterations == PROJECTION_NEVER

    def test_stalled_chain_round_trips_through_trace(self, hin):
        # End-to-end regression: a chain stopped far above tol must fold
        # into a finite verdict (the health CLI crashed on int(inf)).
        from repro.obs import trace_chain_health

        recorder = ListRecorder()
        with pytest.warns(RuntimeWarning):
            TMark(alpha=0.7, gamma=0.4, max_iter=3).fit(hin, recorder=recorder)
        for verdict in trace_chain_health(recorder.events):
            assert isinstance(verdict.projected_iterations, int)


class TestSolverEvents:
    def test_plain_fit_emits_no_solver_events(self, hin):
        recorder = ListRecorder()
        TMark(alpha=0.7, gamma=0.4).fit(hin, recorder=recorder)
        assert recorder.events_of("solver_step") == []
        assert recorder.events_of("solver_restart") == []

    def test_anderson_fit_emits_solver_steps(self, hin):
        recorder = ListRecorder()
        TMark(alpha=0.7, gamma=0.4, solver="anderson").fit(hin, recorder=recorder)
        steps = recorder.events_of("solver_step")
        assert steps
        assert all(e["solver"] == "anderson" for e in steps)
        # The stacked step is timed once per iteration, not per class.
        assert all("seconds" not in e for e in steps)
        iterations = recorder.events_of("chain_iteration")
        assert all(e["solver_seconds"] >= 0.0 for e in iterations)

    def test_plain_fit_iterations_carry_no_solver_seconds(self, hin):
        recorder = ListRecorder()
        TMark(alpha=0.7, gamma=0.4).fit(hin, recorder=recorder)
        iterations = recorder.events_of("chain_iteration")
        assert iterations
        assert all("solver_seconds" not in e for e in iterations)

    def test_fit_event_carries_solver_name(self, hin):
        recorder = ListRecorder()
        TMark(alpha=0.7, gamma=0.4, solver="anderson").fit(hin, recorder=recorder)
        (fit_event,) = recorder.events_of("fit")
        assert fit_event["solver"] == "anderson"

    def test_fit_override_beats_constructor_default(self, hin):
        # The model attribute is the one place a fit's solver is chosen:
        # the harness sets it on factory-built models after construction.
        model = TMark(alpha=0.7, gamma=0.4, solver="anderson")
        model.solver = "plain"
        recorder = ListRecorder()
        model.fit(hin, recorder=recorder)
        assert recorder.events_of("solver_step") == []
        (fit_event,) = recorder.events_of("fit")
        assert fit_event["solver"] == "plain"

    def test_invalid_solver_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="solver"):
            TMark(solver="newton")

    def test_auto_solver_is_gone(self):
        with pytest.raises(ValidationError, match="solver must be one of"):
            TMark(solver="auto")

    def test_invalid_solver_rejected_at_fit(self, hin):
        model = TMark()
        model.solver = "newton"
        with pytest.raises(ValidationError, match="solver"):
            model.fit(hin)

    @pytest.mark.parametrize(
        "entry", [TMark.fit, TMark.fit_operators], ids=lambda f: f.__name__
    )
    def test_fit_entry_points_take_no_solver(self, entry):
        import inspect

        assert "solver" not in inspect.signature(entry).parameters

    def test_label_update_restart_events(self):
        # update_labels fits move the Eq. 12 restart vector mid-run; the
        # solver must drop its history and say so in the trace.
        hin = small_labeled_hin(seed=11, n=30, q=3)
        recorder = ListRecorder()
        TMark(
            alpha=0.7, gamma=0.4, update_labels=True, solver="anderson"
        ).fit(hin, recorder=recorder)
        restarts = recorder.events_of("solver_restart")
        reasons = {e["reason"] for e in restarts}
        assert reasons <= {"label_update", "safeguard"}


def _fit_digest(model, hin) -> str:
    """sha256 over everything a fit computes that carries no wall-clock time."""
    recorder = ListRecorder()
    model.fit(hin, recorder=recorder)
    result = model.result_
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(result.node_scores).tobytes())
    digest.update(np.ascontiguousarray(result.relation_scores).tobytes())
    for history in result.histories:
        digest.update(np.asarray(history.residuals, dtype=float).tobytes())
        digest.update(np.asarray(history.accepted_history, dtype=np.int64).tobytes())
    for event in recorder.events:
        if event["event"] not in ("invariant_probe", "solver_step", "solver_restart"):
            continue
        fields = {k: v for k, v in event.items() if k not in ("seconds", "span_id")}
        digest.update(json.dumps(fields, sort_keys=True).encode())
    return digest.hexdigest()


class TestGoldenDigests:
    """Bit-identity pins for the lockstep chain driver's bookkeeping.

    Each digest covers the node/relation scores, every class's residual
    and Eq. 12 acceptance history, and the timing-free
    ``invariant_probe`` / ``solver_step`` / ``solver_restart`` events of
    a fit with the restart update on.  The configs avoid a dense ``W``
    (``gamma=0`` or a top-k sparse ``W``) so no GEMM's blocking can move
    a bit, and the Anderson step makes no BLAS or LAPACK call, so the
    digests hold whichever OpenBLAS kernel the CPU runs; any change to
    the order of the Eq. 12 / projection / residual / solver
    floating-point operations, or to the memory layout a probe reduces
    over, changes a digest.
    """

    @pytest.fixture(scope="class")
    def partial_hin(self):
        full = small_labeled_hin(seed=7, n=60, q=3, m=2)
        mask = np.zeros(full.n_nodes, dtype=bool)
        mask[::3] = True
        return full.masked(mask)

    @pytest.mark.parametrize(
        "params, digest",
        [
            (
                dict(alpha=0.6, gamma=0.0, label_threshold=0.5),
                "d474b659c6139f70c3d3d9fd149ea34bdc0f5eb07e77d9b061051ca4ecfeee86",
            ),
            (
                dict(alpha=0.6, gamma=0.0, solver="anderson"),
                "7ea973f8ab66e935be26cf1e4f2166c99d7aeac77044bc51cae69380b9d0b46d",
            ),
            (
                dict(alpha=0.6, gamma=0.4, similarity_top_k=5, label_threshold=0.5),
                "fa017abfdc5f6dae5d91b9778661320807bf7f9252fad2cef485f64c58580c70",
            ),
            (
                dict(alpha=0.6, gamma=0.4, similarity_top_k=5, solver="anderson"),
                "c4ddba4dc6ea3d15c708ad0ad744dd963e5c46e5ec70958c2e9b16e8a88a1796",
            ),
            (
                dict(
                    alpha=0.6, gamma=0.0, threshold_mode="absolute",
                    label_threshold=0.02,
                ),
                "e808412de41514a541e8d0f4aebd421881cfa1afb78a2ad64a76676991d811a5",
            ),
            (
                # Absolute-mode acceptances move the restart vector
                # mid-run: pins the label_update solver_restart events.
                dict(
                    alpha=0.6, gamma=0.0, threshold_mode="absolute",
                    label_threshold=0.02, solver="anderson",
                ),
                "1c5ac47536c8820033745892a57875535101e7fda3d187c4ce1fd73f62537803",
            ),
        ],
    )
    def test_fit_digest(self, partial_hin, params, digest):
        model = TMark(update_labels=True, max_iter=200, **params)
        assert _fit_digest(model, partial_hin) == digest
