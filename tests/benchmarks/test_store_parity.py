"""Tests for CI's store-parity check (benchmarks/store_parity.py).

The contract under test: a store-backed fit and the in-memory fit of
the same graph give the same score bytes for every ``W`` setting it
compares, and a mismatch exits 1.
"""

import sys
from pathlib import Path

from repro.ooc import generate_ooc_store

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import store_parity  # noqa: E402


def small_store(directory):
    return generate_ooc_store(
        directory, n_nodes=80, n_links=240, n_features=6,
        labeled_fraction=0.3, seed=5,
    )


def test_store_fit_matches_in_memory(tmp_path, capsys):
    small_store(tmp_path / "store")
    assert store_parity.main([str(tmp_path / "store")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "similarity_top_k=None (factored W): byte-identical",
        "similarity_top_k=5 (sparse W): byte-identical",
    ]


def test_different_scores_fail(tmp_path, capsys, monkeypatch):
    small_store(tmp_path / "store")
    real = store_parity.fit_from_store

    def nudged(store, model):
        real(store, model)
        if model.similarity_top_k == 5:
            model.result_.node_scores[0, 0] += 1e-12
        return model

    monkeypatch.setattr(store_parity, "fit_from_store", nudged)
    assert store_parity.main([str(tmp_path / "store")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "similarity_top_k=None (factored W): byte-identical",
        "similarity_top_k=5 (sparse W): DIFFERENT scores",
    ]


def test_bad_usage():
    assert store_parity.main([]) == 2
