"""Seeded input generation for the benchmark workloads.

Everything here runs outside timing.  The same ``(workload, seed)``
always yields the same inputs; a different seed changes them.

The in-memory graphs follow the model of
:func:`repro.datasets.make_synthetic_hin` (one latent class per node,
topic-model bag-of-words features, per-relation homophily) but are drawn
with whole-array NumPy calls instead of per-node and per-link Python
loops, so a 10k-node, 150k-link graph takes well under a second to make
instead of dominating every run.  The out-of-core store comes from
:func:`repro.ooc.generate_ooc_store` and is cached on disk by seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ValidationError
from repro.hin.graph import HIN
from repro.ooc import GraphStore, generate_ooc_store
from repro.tensor.sptensor import SparseTensor3


#: Bag-of-words feature model shared by every in-memory graph: the share
#: of a node's words drawn from the uniform background rather than its
#: class topic is FEATURE_NOISE.
VOCAB_SIZE = 100
WORDS_PER_NODE = 20
FEATURE_NOISE = 0.6


@dataclass(frozen=True)
class GraphSpec:
    """Shape and link signal of one synthetic in-memory HIN."""

    n_nodes: int
    n_classes: int
    n_relations: int
    links_per_node: float
    homophily: tuple[float, float]  # lowest and highest per-relation value


def workload_rng(workload: str, seed: int, stream: str = "") -> np.random.Generator:
    """An RNG keyed by workload, seed and purpose.

    Separate streams keep the graph independent of, say, how many label
    masks a run draws.  ``crc32`` (not ``hash``) keeps the key stable
    across interpreter runs.
    """
    key = zlib.crc32(f"{workload}/{stream}".encode("utf-8"))
    return np.random.default_rng([int(seed), key])


def make_hin(spec: GraphSpec, rng: np.random.Generator) -> HIN:
    """A fully labelled synthetic HIN drawn from ``spec``."""
    n, q, m = spec.n_nodes, spec.n_classes, spec.n_relations
    y = rng.integers(0, q, size=n)
    y[:q] = np.arange(q)

    # Features: per-class topic block plus a shared uniform background.
    block = VOCAB_SIZE // (q + 1)
    topics = np.zeros((q, VOCAB_SIZE))
    for c in range(q):
        topics[c, c * block:(c + 1) * block] = 1.0 / block
    uniform = np.full(VOCAB_SIZE, 1.0 / VOCAB_SIZE)
    mix = (1.0 - FEATURE_NOISE) * topics + FEATURE_NOISE * uniform
    features = rng.multinomial(WORDS_PER_NODE, mix[y]).astype(float)

    # Links: uniform sources; with the relation's homophily the target
    # shares the source's class, otherwise it is uniform.
    order = np.argsort(y, kind="stable")
    counts = np.bincount(y, minlength=q)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    per_relation = int(round(n * spec.links_per_node / (2 * m)))
    rows, cols, rels = [], [], []
    for k, homophily in enumerate(np.linspace(*spec.homophily, m)):
        src = rng.integers(0, n, size=per_relation)
        dst = rng.integers(0, n, size=per_relation)
        same = rng.random(per_relation) < homophily
        cls = y[src[same]]
        dst[same] = order[offsets[cls] + rng.integers(0, counts[cls])]
        keep = src != dst
        src, dst = src[keep], dst[keep]
        # Undirected: both orientations, as HINBuilder.add_link stores them.
        rows += [dst, src]
        cols += [src, dst]
        rels.append(np.full(2 * src.size, k))
    tensor = SparseTensor3(
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(rels),
        shape=(n, n, m),
    )
    labels = np.zeros((n, q), dtype=bool)
    labels[np.arange(n), y] = True
    return HIN(
        tensor,
        [f"relation_{k}" for k in range(m)],
        features,
        labels,
        [f"class_{c}" for c in range(q)],
    )


def label_mask(n_nodes: int, fraction: float, truth: np.ndarray, rng) -> np.ndarray:
    """A random training mask that covers every class at least once."""
    mask = rng.random(n_nodes) < fraction
    for c in np.unique(truth):
        members = np.flatnonzero(truth == c)
        if not mask[members].any():
            mask[members[0]] = True
    return mask


@dataclass(frozen=True)
class StoreSpec:
    """Shape of the synthetic out-of-core graph store."""

    n_nodes: int
    n_links: int
    n_relations: int
    n_labels: int
    n_features: int
    homophily: float
    feature_noise: float


def cached_store(spec: StoreSpec, seed: int, cache_dir: Path) -> GraphStore:
    """The store for ``(spec, seed)``, generated on first use.

    The directory name carries every spec field, so a changed spec never
    reuses a stale store; a store whose manifest is missing (an
    interrupted generation) is generated again.
    """
    fields = "-".join(str(v) for v in vars(spec).values())
    directory = cache_dir / f"store-{fields}-seed{seed}"
    try:
        return GraphStore.open(directory)
    except ValidationError:
        pass
    return generate_ooc_store(
        directory,
        n_nodes=spec.n_nodes,
        n_links=spec.n_links,
        n_relations=spec.n_relations,
        n_labels=spec.n_labels,
        n_features=spec.n_features,
        homophily=spec.homophily,
        feature_noise=spec.feature_noise,
        seed=workload_rng("store_fit", seed, "store"),
    )
