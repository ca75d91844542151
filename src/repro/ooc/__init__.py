"""``repro.ooc`` — the out-of-core scale tier.

Everything the rest of the library holds in RAM — the adjacency tensor,
the ``(O, R, W)`` operators, the feature matrix — caps T-Mark at a few
hundred thousand nodes.  This package lifts that ceiling with three
pieces, following DGL graphbolt's on-disk CSC design:

* :class:`GraphStore` — a directory of memory-mapped per-relation CSC
  arrays plus feature/label blocks, with a sha256-fingerprinted
  manifest and a bit-identical round trip to the in-RAM
  :class:`~repro.hin.graph.HIN` (:mod:`repro.ooc.store`);
* :func:`build_chunked_operators` — column-block construction of the
  normalised operators straight onto disk, in the in-memory tensors'
  stacked-CSR layout, touching ``O(n * m)`` resident memory plus one
  block and emitting per-chunk ``operator_build`` events
  (:mod:`repro.ooc.build`);
* store-backed operators + :func:`fit_from_store` — the in-memory
  tensors themselves over the memory-mapped stacks
  (``from_stack(..., chunk_size=)``) and ``feature_walk_matrix``'s
  ``W`` over its memory-mapped files (the top-k one a ``RowWalk``),
  walked in ``chunk_size``-row blocks and returned as an ordinary
  :class:`~repro.core.tmark.TMarkOperators`, so
  :meth:`TMark.fit_operators` runs plain or accelerated chains
  byte-identical to the in-memory path (:mod:`repro.ooc.build`,
  :mod:`repro.ooc.fit`).

:func:`generate_ooc_store` (:mod:`repro.ooc.synth`) builds million-node
synthetic stores for the scale benchmarks without ever materialising
the graph in RAM.
"""

from repro.ooc.build import (
    DEFAULT_CHUNK_SIZE,
    MAX_DENSE_W_NODES,
    OPERATORS_FORMAT_VERSION,
    build_chunked_operators,
)
from repro.ooc.fit import fit_from_store
from repro.ooc.store import (
    MANIFEST_NAME,
    OPERATORS_DIRNAME,
    STORE_FORMAT_VERSION,
    GraphStore,
)
from repro.ooc.synth import generate_ooc_store
from repro.tensor.transition import release_pages

__all__ = [
    "GraphStore",
    "build_chunked_operators",
    "fit_from_store",
    "generate_ooc_store",
    "release_pages",
    "DEFAULT_CHUNK_SIZE",
    "MANIFEST_NAME",
    "MAX_DENSE_W_NODES",
    "OPERATORS_DIRNAME",
    "OPERATORS_FORMAT_VERSION",
    "STORE_FORMAT_VERSION",
]
