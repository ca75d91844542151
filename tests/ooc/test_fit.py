"""Tests for store-backed fits: equivalence with the in-memory path."""

import numpy as np
import pytest

from repro.core import TMark
from repro.core.features import topk_cosine_transition_matrix
from repro.core.tmark import TMarkOperators, build_operators
from repro.datasets.synthetic import RelationSpec, make_synthetic_hin
from repro.errors import ValidationError
from repro.forkpool import fork_available
from repro.obs import ListRecorder
from repro.ooc import GraphStore, fit_from_store


@pytest.fixture
def synthetic_hin():
    return make_synthetic_hin(
        40,
        ["a", "b", "c"],
        [
            RelationSpec("strong", n_links=120, homophily=0.9),
            RelationSpec("weak", n_links=40, homophily=0.6),
        ],
        seed=11,
    )


@pytest.fixture
def many_relation_hin():
    """The benchmark's ``dense_fit`` shape, scaled down: 20 link types."""
    return make_synthetic_hin(
        120,
        ["a", "b", "c", "d"],
        [RelationSpec(f"r{k}", n_links=12, homophily=0.5) for k in range(20)],
        seed=23,
    )


def masked(hin, fraction=0.5, seed=0):
    from repro.ml.splits import stratified_fraction_split

    rng = np.random.default_rng(seed)
    return hin.masked(stratified_fraction_split(hin.y, fraction, rng=rng))


class TestEquivalence:
    @pytest.mark.parametrize("solver", ["plain", "anderson"])
    def test_worked_example_argmax_identical(
        self, tmp_path, worked_example, solver
    ):
        store = GraphStore.save(worked_example, tmp_path / "store")
        in_memory = TMark(alpha=0.8, gamma=0.5, solver=solver).fit(worked_example)
        from_store = fit_from_store(
            store, TMark(alpha=0.8, gamma=0.5, solver=solver), chunk_size=2
        )
        assert np.array_equal(in_memory.predict(), from_store.predict())
        assert np.allclose(
            in_memory.result_.node_scores,
            from_store.result_.node_scores,
            atol=1e-8,
        )
        assert np.allclose(
            in_memory.result_.relation_scores,
            from_store.result_.relation_scores,
            atol=1e-8,
        )

    @pytest.mark.parametrize("solver", ["plain", "anderson"])
    def test_synthetic_argmax_identical(self, tmp_path, synthetic_hin, solver):
        hin = masked(synthetic_hin)
        store = GraphStore.save(hin, tmp_path / "store")
        params = dict(alpha=0.7, gamma=0.3, similarity_top_k=5, solver=solver)
        in_memory = TMark(**params).fit(hin)
        from_store = fit_from_store(store, TMark(**params), chunk_size=7)
        assert np.array_equal(in_memory.predict(), from_store.predict())
        assert np.allclose(
            in_memory.result_.node_scores,
            from_store.result_.node_scores,
            atol=1e-8,
        )

    def test_gamma_zero_skips_w(self, tmp_path, synthetic_hin):
        import json

        hin = masked(synthetic_hin)
        store = GraphStore.save(hin, tmp_path / "store")
        fit_from_store(store, TMark(alpha=0.9, gamma=0.0))
        manifest = json.loads(
            (store.operators_dir / "operators.json").read_text(encoding="utf-8")
        )
        assert manifest["w_mode"] == "none"
        in_memory = TMark(alpha=0.9, gamma=0.0).fit(hin)
        from_store = fit_from_store(store, TMark(alpha=0.9, gamma=0.0))
        assert np.array_equal(in_memory.predict(), from_store.predict())

    def test_labels_override_matches_masked_fit(self, tmp_path, synthetic_hin):
        # Save the FULL graph once, fit a split via the labels override.
        store = GraphStore.save(synthetic_hin, tmp_path / "store")
        split = masked(synthetic_hin)
        in_memory = TMark(alpha=0.8, gamma=0.0).fit(split)
        from_store = fit_from_store(
            store,
            TMark(alpha=0.8, gamma=0.0),
            labels=np.asarray(split.label_matrix),
        )
        assert np.array_equal(in_memory.predict(), from_store.predict())

    def test_accepts_path_and_model_instance(self, tmp_path, worked_example):
        GraphStore.save(worked_example, tmp_path / "store")
        model = TMark(alpha=0.8, gamma=0.5)
        fitted = fit_from_store(tmp_path / "store", model)
        assert fitted is model
        assert fitted.result_ is not None


def fitted_bytes(model, recorder):
    """Scores and ``invariant_probe`` events of a fit, span ids dropped."""
    probes = [
        {key: value for key, value in event.items() if key != "span_id"}
        for event in recorder.events_of("invariant_probe")
    ]
    assert probes
    result = model.result_
    return result.node_scores.tobytes(), result.relation_scores.tobytes(), probes


SHARDS = [
    None,
    pytest.param(
        2, marks=pytest.mark.skipif(not fork_available(), reason="needs fork")
    ),
    pytest.param(
        3, marks=pytest.mark.skipif(not fork_available(), reason="needs fork")
    ),
]


class TestByteIdentity:
    """A store-backed fit is the in-memory fit over the same ``W``, byte
    for byte, serial or sharded, at any ``chunk_size``."""

    def assert_store_matches(self, store, params, reference, shards):
        for chunk_size in (1, 7, store.n_nodes):
            recorder = ListRecorder()
            model = fit_from_store(
                store, TMark(**params), chunk_size=chunk_size, shards=shards,
                recorder=recorder,
            )
            assert fitted_bytes(model, recorder) == reference, chunk_size

    @pytest.mark.parametrize("shards", SHARDS)
    def test_no_walk_equals_fit(self, tmp_path, synthetic_hin, shards):
        hin = masked(synthetic_hin)
        store = GraphStore.save(hin, tmp_path / "store")
        params = dict(alpha=0.8, gamma=0.0)
        recorder = ListRecorder()
        reference = fitted_bytes(TMark(**params).fit(hin, recorder=recorder), recorder)
        self.assert_store_matches(store, params, reference, shards)

    @pytest.mark.parametrize("shards", SHARDS)
    def test_topk_walk_equals_fit_operators(self, tmp_path, synthetic_hin, shards):
        hin = masked(synthetic_hin)
        store = GraphStore.save(hin, tmp_path / "store")
        params = dict(alpha=0.7, gamma=0.3, similarity_top_k=5)
        in_memory = build_operators(hin)
        operators = TMarkOperators(
            o_tensor=in_memory.o_tensor,
            r_tensor=in_memory.r_tensor,
            w_matrix=topk_cosine_transition_matrix(hin.features, 5),
            shape=in_memory.shape,
            similarity_top_k=5,
            similarity_metric="cosine",
        )
        recorder = ListRecorder()
        model = TMark(**params).fit_operators(
            operators, hin.label_matrix, recorder=recorder
        )
        reference = fitted_bytes(model, recorder)
        self.assert_store_matches(store, params, reference, shards)

    @pytest.mark.parametrize("shards", SHARDS)
    def test_many_relations_equals_fit(self, tmp_path, many_relation_hin, shards):
        # 20 link types with few links each: most (k, i) rows of O's stack
        # are empty, and each row block indexes its own live rows.  The
        # in-memory R multiplies by columns, the store-backed one by rows.
        hin = masked(many_relation_hin)
        assert build_operators(hin).r_tensor.layout == "columns"
        store = GraphStore.save(hin, tmp_path / "store")
        params = dict(alpha=0.8, gamma=0.0)
        recorder = ListRecorder()
        reference = fitted_bytes(TMark(**params).fit(hin, recorder=recorder), recorder)
        self.assert_store_matches(store, params, reference, shards)

    @pytest.mark.parametrize("shards", SHARDS)
    def test_dense_walk_equals_fit(self, tmp_path, worked_example, shards):
        store = GraphStore.save(worked_example, tmp_path / "store")
        params = dict(alpha=0.8, gamma=0.5)
        recorder = ListRecorder()
        model = TMark(**params).fit(worked_example, recorder=recorder)
        reference = fitted_bytes(model, recorder)
        self.assert_store_matches(store, params, reference, shards)


class TestColumnPassStaysInMemory:
    def test_store_backed_r_never_builds_the_copy(self, tmp_path, many_relation_hin):
        from repro.ooc import build_chunked_operators

        in_memory = build_operators(many_relation_hin).r_tensor
        assert in_memory.live_share < 0.5 and in_memory.layout == "columns"
        store = GraphStore.open(
            GraphStore.save(many_relation_hin, tmp_path / "store").directory
        )
        r_tensor = build_chunked_operators(store, chunk_size=16, build_w=False).r_tensor
        assert r_tensor.layout == "rows"
        for _, _, block in r_tensor.row_walk(0, store.n_nodes):
            assert block.format == "csr"


class TestCacheReuse:
    def test_no_walk_fit_after_topk_build(self, tmp_path, synthetic_hin):
        # A gamma=0 fit reuses a top-k cache's O/R without its W settings.
        store = GraphStore.save(masked(synthetic_hin), tmp_path / "store")
        fit_from_store(store, TMark(alpha=0.8, gamma=0.3, similarity_top_k=5))
        model = fit_from_store(store, TMark(alpha=0.8, gamma=0.0))
        assert model.result_ is not None


class TestResultMetadata:
    def test_node_names_attached_on_small_store(self, tmp_path, worked_example):
        store = GraphStore.save(worked_example, tmp_path / "store")
        model = fit_from_store(store, TMark(alpha=0.8, gamma=0.5))
        assert model.result_.node_names == worked_example.node_names

    def test_node_names_dropped_on_large_store(
        self, tmp_path, worked_example, monkeypatch
    ):
        import repro.ooc.fit

        store = GraphStore.save(worked_example, tmp_path / "store")
        monkeypatch.setattr(
            repro.ooc.fit, "MAX_AUTO_NODE_NAMES", worked_example.n_nodes - 1
        )
        model = fit_from_store(store, TMark(alpha=0.8, gamma=0.5))
        assert model.result_.node_names is None

    def test_label_and_relation_names_from_store(self, tmp_path, worked_example):
        store = GraphStore.save(worked_example, tmp_path / "store")
        model = fit_from_store(store, TMark(alpha=0.8, gamma=0.5))
        assert model.result_.label_names == worked_example.label_names
        assert model.result_.relation_names == worked_example.relation_names


class TestValidation:
    def test_rejects_non_store(self):
        with pytest.raises(ValidationError, match="GraphStore or path"):
            fit_from_store(42, TMark(alpha=0.8))

    def test_rejects_bad_labels_shape(self, tmp_path, worked_example):
        store = GraphStore.save(worked_example, tmp_path / "store")
        with pytest.raises(ValidationError, match="labels must have shape"):
            fit_from_store(
                store, TMark(alpha=0.8), labels=np.zeros((2, 2), dtype=bool)
            )


class TestFitOperatorsGuards:
    def test_shape_mismatch_detected(self, tmp_path, worked_example):
        from repro.ooc import build_chunked_operators

        store = GraphStore.save(worked_example, tmp_path / "store")
        operators = build_chunked_operators(store, build_w=False)
        model = TMark(alpha=0.8, gamma=0.0)
        with pytest.raises(ValidationError, match="label matrix has"):
            model.fit_operators(operators, np.zeros((7, 2), dtype=bool))

    def test_missing_w_rejected_when_beta_positive(
        self, tmp_path, worked_example
    ):
        from repro.ooc import build_chunked_operators

        store = GraphStore.save(worked_example, tmp_path / "store")
        operators = build_chunked_operators(store, build_w=False)
        model = TMark(alpha=0.8, gamma=0.5)
        with pytest.raises(ValidationError, match="no feature-walk matrix"):
            model.fit_operators(
                operators, np.asarray(worked_example.label_matrix)
            )
