"""End-to-end sharded fits: store-backed, streaming and CLI surfaces.

The contract under test: every entry point that grew a ``shards``
parameter — ``fit_from_store``, warm refits from a streaming session's
state and the ``run example`` experiment — produces the same answer as
its serial twin, bit for bit: store-backed operators shard by rows
exactly like in-memory ones.
"""

import numpy as np
import pytest

from repro.core import TMark
from repro.datasets import make_worked_example
from repro.datasets.synthetic import RelationSpec, make_synthetic_hin
from repro.forkpool import fork_available
from repro.ooc import GraphStore, fit_from_store
from repro.ooc.build import build_chunked_operators
from repro.shard import plan_shards, run_chains_sharded
from repro.stream import StreamingSession
from repro.stream.delta import GraphDelta

pytestmark = [
    pytest.mark.skipif(
        not fork_available(), reason="sharded fit requires the fork start method"
    ),
    pytest.mark.usefixtures("no_child_processes"),
]


@pytest.fixture(scope="module")
def synthetic_hin():
    return make_synthetic_hin(
        48,
        ["a", "b", "c"],
        [
            RelationSpec("strong", n_links=150, homophily=0.9),
            RelationSpec("weak", n_links=60, homophily=0.6),
        ],
        seed=11,
    )


class TestStoreBackedFit:
    @pytest.mark.parametrize("gamma", [0.0, 0.4], ids=["no-walk", "walk"])
    def test_sharded_store_fit_matches_serial(
        self, tmp_path, synthetic_hin, gamma
    ):
        store = GraphStore.save(synthetic_hin, tmp_path / "store")
        serial = fit_from_store(store, TMark(alpha=0.8, gamma=gamma), chunk_size=8)
        sharded = fit_from_store(
            store, TMark(alpha=0.8, gamma=gamma), chunk_size=8, shards=2, workers=2
        )
        assert np.array_equal(serial.predict(), sharded.predict())
        assert np.allclose(
            serial.result_.node_scores,
            sharded.result_.node_scores,
            atol=1e-8,
        )
        assert np.allclose(
            serial.result_.relation_scores,
            sharded.result_.relation_scores,
            atol=1e-8,
        )

    def test_worked_example_store_fit(self, tmp_path):
        hin = make_worked_example()
        store = GraphStore.save(hin, tmp_path / "store")
        serial = fit_from_store(store, TMark(alpha=0.8, gamma=0.5), chunk_size=2)
        sharded = fit_from_store(
            store, TMark(alpha=0.8, gamma=0.5), chunk_size=2, shards=2
        )
        assert np.array_equal(serial.predict(), sharded.predict())


class TestColumnsDeterminism:
    """Store-backed shard runs repeat bitwise and one shard is the serial fit.

    (Named for the column shards store-backed fits once used; they now
    shard by rows like in-memory fits.)
    """

    @pytest.mark.parametrize("gamma", [0.0, 0.4], ids=["no-walk", "walk"])
    def test_single_shard_bitwise_serial(self, tmp_path, synthetic_hin, gamma):
        # One row shard streams the same row blocks as the serial walk.
        store = GraphStore.save(synthetic_hin, tmp_path / "store")
        serial = fit_from_store(store, TMark(alpha=0.8, gamma=gamma), chunk_size=8)
        model = TMark(alpha=0.8, gamma=gamma)
        operators = build_chunked_operators(
            store, chunk_size=8, build_w=model.beta > 0
        )
        scores, relations, _ = run_chains_sharded(
            model,
            operators.o_tensor,
            operators.r_tensor,
            operators.w_matrix,
            store.label_matrix,
            shards=1,
            workers=1,
        )
        assert scores.tobytes() == serial.result_.node_scores.tobytes()
        assert relations.tobytes() == serial.result_.relation_scores.tobytes()

    @pytest.mark.parametrize("shards", [2, 3])
    def test_repeat_runs_bitwise(self, tmp_path, synthetic_hin, shards):
        # Row shards write disjoint rows, so repeated runs agree exactly.
        store = GraphStore.save(synthetic_hin, tmp_path / "store")
        operators = build_chunked_operators(store, chunk_size=8, build_w=False)
        plan = plan_shards(operators.o_tensor, operators.r_tensor, None, shards)
        assert plan.n_shards == shards
        first, second = (
            fit_from_store(
                store, TMark(alpha=0.8, gamma=0.4), chunk_size=8,
                shards=shards, workers=2,
            )
            for _ in range(2)
        )
        for attr in ("node_scores", "relation_scores"):
            assert (
                getattr(first.result_, attr).tobytes()
                == getattr(second.result_, attr).tobytes()
            )


def stationary(session):
    """The session's stationary pair: the warm start of its next refit."""
    return session.result.node_scores, session.result.relation_scores


def warm_refit(session, starts, **fit_kwargs):
    """Refit the session's graph from ``starts``, as ``apply`` does."""
    model = TMark()
    model.fit(
        session.hin,
        starts=starts,
        operators=session.operators.operators,
        **fit_kwargs,
    )
    return model.result_


class TestStreaming:
    """A warm refit from a session's state shards bit-identically."""

    def test_reconverge_sharded_bit_identical(self):
        session = StreamingSession(make_worked_example())
        session.fit()
        serial = warm_refit(session, stationary(session))
        sharded = warm_refit(session, stationary(session), shards=2, workers=2)
        assert [h.n_iterations for h in serial.histories] == [
            h.n_iterations for h in sharded.histories
        ]
        assert np.array_equal(serial.node_scores, sharded.node_scores)
        assert np.array_equal(serial.relation_scores, sharded.relation_scores)

    def test_apply_sharded_bit_identical(self):
        session = StreamingSession(make_worked_example())
        session.fit()
        starts = stationary(session)
        session.apply([GraphDelta.set_label("p2", ["DM"])])
        sharded = warm_refit(session, starts, shards=2, workers=2)
        assert np.array_equal(session.result.node_scores, sharded.node_scores)


class TestExperimentSurface:
    def test_run_example_sharded_matches_serial(self):
        from repro.experiments.runners import run_example

        serial = run_example()
        sharded = run_example(shards=2)
        assert sharded.data["predicted"] == serial.data["predicted"]
        assert sharded.data["rankings"] == serial.data["rankings"]
        assert sharded.data["correct"] == serial.data["correct"]

    def test_run_example_sharded_store(self, tmp_path):
        from repro.experiments.runners import run_example

        serial = run_example()
        sharded = run_example(shards=2, store=str(tmp_path / "store"))
        assert sharded.data["predicted"] == serial.data["predicted"]
