"""Check that a store-backed fit equals the in-memory fit, byte for byte.

Fits ``TMark(gamma=0.3)`` on one store twice for each ``W`` setting,
``similarity_top_k`` in :data:`TOP_KS`: once through
:func:`repro.ooc.fit_from_store` (the chunked operator cache) and once
through ``TMark.fit(store.to_hin())`` (the in-memory operators).  Both
build ``W`` with :func:`repro.core.features.feature_walk_matrix`, so
``node_scores`` and ``relation_scores`` must match bit for bit.

Usage::

    python benchmarks/store_parity.py STORE

Prints one line per setting and exits 1 if any score differs (2 on bad
usage).  The store-backed fit writes the store's operator cache.
"""

from __future__ import annotations

import sys

from repro.core.features import feature_walk_form
from repro.core.tmark import TMark
from repro.ooc import GraphStore, fit_from_store

#: The ``similarity_top_k`` settings compared: the form the builder
#: picks for the store's features, and a top-k ``W``.
TOP_KS = (None, 5)


def score_bytes(model: TMark) -> tuple[bytes, bytes]:
    """A fitted model's ``(node_scores, relation_scores)`` bytes."""
    result = model.result_
    return result.node_scores.tobytes(), result.relation_scores.tobytes()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: store_parity.py STORE", file=sys.stderr)
        return 2
    store = GraphStore.open(argv[0])
    hin = store.to_hin()
    differs = False
    for top_k in TOP_KS:
        stored = fit_from_store(store, TMark(gamma=0.3, similarity_top_k=top_k))
        in_memory = TMark(gamma=0.3, similarity_top_k=top_k).fit(hin)
        form = feature_walk_form(hin.features, top_k=top_k)
        same = score_bytes(stored) == score_bytes(in_memory)
        differs = differs or not same
        verdict = "byte-identical" if same else "DIFFERENT scores"
        print(f"similarity_top_k={top_k} ({form} W): {verdict}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
