"""Chunked construction of the ``(O, R, W)`` operators on disk.

Every pass walks a store's per-relation CSC arrays in blocks of
``chunk_size`` columns, so resident memory is ``O(n * m)`` plus one
block and memmap pages instead of the materialised operator — the build
that makes million-node stores fittable on one box.

The cache holds the in-memory layout, **byte-identical** to the in-RAM
build's ``_stacked`` arrays of
:class:`~repro.tensor.transition.NodeTransitionTensor` /
:class:`~repro.tensor.transition.RelationTransitionTensor`:

* ``O`` — the per-``(j, k)`` column sums accumulate the same values in
  the same order as ``SparseTensor3.mode1_column_sums`` (the store's CSC
  concatenation *is* the coalesced COO order), and the normalisation is
  the same multiply-by-reciprocal;
* ``R`` — both builds call the shared fibre kernel
  :func:`repro.tensor.sptensor.normalise_fibres`; a column block holds
  every entry of its ``(i, j)`` fibres in the coalesced k-major order,
  so the per-block sums are the in-RAM build's sums addition for
  addition, and the kernel's sorted linked-pair ids give the
  linked-pair indicator in the same pass;
* the normalised values land in CSC order; one transpose pass per
  operator (:func:`_write_stack`) turns them into the row stack (row
  ``k*n + i`` = row ``i`` of slice ``k``; ``R``'s block ``m`` the pair
  indicator).  Column blocks arrive in ascending ``j``, so every row
  comes out column-sorted, as scipy's CSR is, whatever ``chunk_size``;
* ``W`` — :func:`~repro.core.features.feature_walk_matrix`, as in every
  tier, kept in the form it picks, so a store-backed fit is
  byte-identical to :meth:`TMark.fit` on the same graph.

Artifacts land in ``<store>/operators/``: ``o.{indptr,indices,data}.npy``
and ``r.{indptr,indices,data}.npy`` (the two stacks),
``o.nondangling.npy`` (the ``(m, n)`` non-dangling column mask), ``W``
by its form (``w_mode``: ``w.npy``, the ``w`` CSR triple, or ``F̂`` in
``w.unit`` plus ``w.col_scale.npy`` and ``w.featureless.npy``), and
``operators.json``, which records the build parameters, the store
fingerprint and every file's size, so a stale or torn cache is detected
and rebuilt (:mod:`repro.ooc.publish` swaps each build in whole).  One
``operator_build`` obs event per chunk.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.core.features import (
    SIMILARITY_METRICS,
    LowRankMatrix,
    feature_walk_form,
    feature_walk_matrix,
)
from repro.core.tmark import TMarkOperators
from repro.errors import ValidationError
from repro.obs.recorder import get_recorder
from repro.obs.spans import span
from repro.ooc.publish import StagedDirectory, read_manifest
from repro.ooc.store import GraphStore
from repro.tensor.sptensor import normalise_fibres
from repro.tensor.transition import (
    NodeTransitionTensor,
    RelationTransitionTensor,
    RowWalk,
    release_pages,
)
from repro.utils.validation import check_positive_int

#: Version of the on-disk operator-cache layout (3: published whole, with
#: sizes; 4: ``W`` in :func:`~repro.core.features.feature_walk_matrix`'s form).
OPERATORS_FORMAT_VERSION = 4

#: The cache manifest inside ``<store>/operators/``.
OPERATORS_MANIFEST = "operators.json"

#: Largest store whose ``W`` build may materialise an ``(n, n)`` array
#: (the dense form, or an rbf / jaccard similarity); beyond this it stops
#: being an out-of-core operator in any meaningful sense.
MAX_DENSE_W_NODES = 8192

#: Default number of columns per build block and rows per walked block.
DEFAULT_CHUNK_SIZE = 65536


def load_csr(directory, prefix: str, n_rows: int, n_cols: int) -> sp.csr_matrix:
    """The CSR in ``<prefix>.{data,indices,indptr}.npy``, memory-mapped."""
    arrays = (
        np.load(directory / f"{prefix}.{name}.npy", mmap_mode="r")
        for name in ("data", "indices", "indptr")
    )
    return sp.csr_matrix(tuple(arrays), shape=(n_rows, n_cols), copy=False)


def _column_blocks(indptr, n: int, chunk_size: int):
    """``(chunk, j0, j1, start, stop)`` column blocks of one CSC and their
    entry ranges."""
    for chunk_idx, j0 in enumerate(range(0, n, chunk_size)):
        j1 = min(j0 + chunk_size, n)
        yield chunk_idx, j0, j1, int(indptr[j0]), int(indptr[j1])


def _block_columns(indptr, j0: int, j1: int) -> np.ndarray:
    """The column id of every entry of columns ``[j0, j1)``."""
    counts = np.diff(np.asarray(indptr[j0 : j1 + 1], dtype=np.int64))
    return np.repeat(np.arange(j0, j1, dtype=np.int64), counts)


def _write_stack(stage, prefix: str, parts, n: int, chunk_size: int) -> None:
    """Transpose CSC parts into the row stack ``<prefix>.{indptr,indices,data}.npy``.

    ``parts`` holds one ``(values, indices, indptr)`` CSC per block of
    the stack; row ``b*n + i`` of the stack is row ``i`` of part ``b``.
    A first pass counts each stacked row's entries (``indptr``), a
    second appends every column block's ``(j, value)`` entries to their
    rows; blocks arrive in ascending ``j``, so each row comes out
    column-sorted.  Memory is the ``O(n * len(parts))`` row cursor plus
    one block.
    """
    counts = np.zeros(len(parts) * n, dtype=np.int64)
    for b, (_, indices, indptr) in enumerate(parts):
        for _, _, _, start, stop in _column_blocks(indptr, n, chunk_size):
            np.add.at(counts, b * n + np.asarray(indices[start:stop], np.int64), 1)
    nnz = int(counts.sum())
    # The index dtype scipy's CSR conversion picks for the in-RAM stack.
    index_dtype = np.int64 if max(counts.size, nnz) >= 2**31 else np.int32
    indptr_out = np.zeros(counts.size + 1, dtype=index_dtype)
    np.cumsum(counts, out=indptr_out[1:])
    del counts
    stage.save(f"{prefix}.indptr.npy", indptr_out)
    cursor = indptr_out[:-1].astype(np.int64)
    del indptr_out
    indices_out = stage.memmap(f"{prefix}.indices.npy", index_dtype, (nnz,))
    data_out = stage.memmap(f"{prefix}.data.npy", np.float64, (nnz,))
    for b, (values, indices, indptr) in enumerate(parts):
        for _, j0, j1, start, stop in _column_blocks(indptr, n, chunk_size):
            if start == stop:
                continue
            # scipy's CSC -> CSR conversion is a counting sort that keeps
            # each row's entries in column order.
            block = sp.csc_matrix(
                (values[start:stop], indices[start:stop], indptr[j0:j1 + 1] - start),
                shape=(n, j1 - j0),
            ).tocsr()
            counts = np.diff(block.indptr)
            rows = np.flatnonzero(counts)
            lengths = counts[rows]
            offsets = cursor[b * n + rows] - block.indptr[rows]
            dest = np.repeat(offsets, lengths) + np.arange(block.nnz)
            cursor[b * n + rows] += lengths
            indices_out[dest] = block.indices + j0
            data_out[dest] = block.data
            release_pages(indices_out, data_out)
        release_pages(values, indices, indptr)
    for out in (indices_out, data_out):
        out.flush()


def _build_o(store: GraphStore, stage, chunk_size: int, rec) -> None:
    """Normalise every relation slice column-block-wise, then write the stack."""
    n, m = store.n_nodes, store.n_relations
    nondangling = np.zeros((m, n), dtype=bool)
    emit = rec.enabled
    parts = []
    for k in range(m):
        data, indices, indptr = store.relation_arrays(k)
        out = stage.scratch(f"o.rel{k}.csc.npy", np.float64, (int(data.size),))
        for chunk_idx, j0, j1, start, stop in _column_blocks(indptr, n, chunk_size):
            started = time.perf_counter() if emit else 0.0
            if start != stop:
                values = np.asarray(data[start:stop])
                local_j = _block_columns(indptr, j0, j1) - j0
                col_sums = np.bincount(
                    local_j, weights=values, minlength=j1 - j0
                )
                nonzero = col_sums > 0
                nondangling[k, j0:j1] = nonzero
                scale = np.ones(j1 - j0)
                scale[nonzero] = 1.0 / col_sums[nonzero]
                out[start:stop] = values * scale[local_j]
            if emit:
                rec.emit(
                    "operator_build",
                    operator="O",
                    relation=k,
                    chunk=chunk_idx,
                    columns=j1 - j0,
                    nnz=stop - start,
                    transition_seconds=time.perf_counter() - started,
                    feature_seconds=0.0,
                )
        out.flush()
        release_pages(data, indices, indptr, out)
        parts.append((out, indices, indptr))
    stage.save("o.nondangling.npy", nondangling)
    _write_stack(stage, "o", parts, n, chunk_size)


def _build_r(store: GraphStore, stage, chunk_size: int, rec) -> None:
    """Fibre-normalise across relations column-block-wise, then write the stack.

    A column block loads the matching slice of *every* relation at once
    (the ``(i, j)`` fibre sums run over ``k``), normalises the block's
    entries with :func:`~repro.tensor.sptensor.normalise_fibres` — the
    kernel the in-RAM ``RelationTransitionTensor`` build uses — and
    writes the values back per relation.  The kernel's linked pair
    ids, being sorted, come out in CSC column-major order, so the
    linked-pair indicator pattern is assembled in the same pass.
    """
    n, m = store.n_nodes, store.n_relations
    emit = rec.enabled
    index_dtype = np.int32 if store.manifest["index_dtype"] == "int32" else np.int64
    relations = [store.relation_arrays(k) for k in range(m)]
    outs = [
        stage.scratch(f"r.rel{k}.csc.npy", np.float64, (int(relations[k][0].size),))
        for k in range(m)
    ]
    pair_rows: list[np.ndarray] = []
    pair_counts = np.zeros(n, dtype=np.int64)
    for chunk_idx, j0 in enumerate(range(0, n, chunk_size)):
        started = time.perf_counter() if emit else 0.0
        j1 = min(j0 + chunk_size, n)
        spans = []
        i_parts, j_parts, v_parts = [], [], []
        for k in range(m):
            data, indices, indptr = relations[k]
            start, stop = int(indptr[j0]), int(indptr[j1])
            spans.append((start, stop))
            if start == stop:
                continue
            i_parts.append(np.asarray(indices[start:stop], dtype=np.int64))
            j_parts.append(_block_columns(indptr, j0, j1) - j0)
            v_parts.append(np.asarray(data[start:stop]))
        block_nnz = sum(stop - start for start, stop in spans)
        if block_nnz:
            all_i = np.concatenate(i_parts)
            all_j = np.concatenate(j_parts)
            all_v = np.concatenate(v_parts)
            unique_pairs, normalised = normalise_fibres(all_j * n + all_i, all_v)
            offset = 0
            for k, (start, stop) in enumerate(spans):
                length = stop - start
                if length:
                    outs[k][start:stop] = normalised[offset : offset + length]
                    offset += length
            local_j, pair_i = np.divmod(unique_pairs, n)
            pair_rows.append(pair_i.astype(index_dtype))
            pair_counts[j0:j1] = np.bincount(local_j, minlength=j1 - j0)
        if emit:
            rec.emit(
                "operator_build",
                operator="R",
                relation=-1,
                chunk=chunk_idx,
                columns=j1 - j0,
                nnz=block_nnz,
                transition_seconds=time.perf_counter() - started,
                feature_seconds=0.0,
            )
    for k, out in enumerate(outs):
        out.flush()
        release_pages(*relations[k], out)
    pair_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(pair_counts, out=pair_indptr[1:])
    pairs = np.concatenate(pair_rows) if pair_rows else np.empty(0, index_dtype)
    parts = [(out, ind, ptr) for out, (_, ind, ptr) in zip(outs, relations)]
    parts.append((np.broadcast_to(1.0, pairs.shape), pairs, pair_indptr))
    _write_stack(stage, "r", parts, n, chunk_size)


def _save_matrix(stage, prefix: str, matrix) -> None:
    """Stage ``matrix`` as ``<prefix>.npy`` or, sparse, its CSR triple."""
    if sp.issparse(matrix):
        for name in ("data", "indices", "indptr"):
            stage.save(f"{prefix}.{name}.npy", getattr(matrix, name))
    else:
        stage.save(f"{prefix}.npy", matrix)


def _build_w(store: GraphStore, stage, similarity_top_k, similarity_metric: str,
             rec) -> str:
    """Write :func:`feature_walk_matrix`'s ``W`` on disk; returns its form."""
    n, features = store.n_nodes, store.features
    form = feature_walk_form(features, top_k=similarity_top_k, metric=similarity_metric)
    if n > MAX_DENSE_W_NODES and (form == "dense" or similarity_metric != "cosine"):
        raise ValidationError(
            f"a {form} {similarity_metric} W for {n} nodes needs an n x n "
            f"similarity, which is not an out-of-core operator (limit: "
            f"{MAX_DENSE_W_NODES}); use metric='cosine' with similarity_top_k "
            f"or non-negative features, or gamma=0 to skip the feature walk"
        )
    started = time.perf_counter()
    w = feature_walk_matrix(features, top_k=similarity_top_k, metric=similarity_metric)
    if form == "factored":
        stored = w.unit
        stage.save("w.col_scale.npy", w.col_scale)
        stage.save("w.featureless.npy", w.featureless)
    else:
        stored = w.row_stack(0, n) if form == "sparse" else w
    _save_matrix(stage, "w.unit" if form == "factored" else "w", stored)
    if rec.enabled:
        rec.emit(
            "operator_build",
            operator="W",
            relation=-1,
            chunk=0,
            columns=n,
            nnz=stored.nnz if sp.issparse(stored) else stored.size,
            transition_seconds=0.0,
            feature_seconds=time.perf_counter() - started,
        )
    return form


def _cache_usable(ops_dir, store: GraphStore, similarity_top_k,
                  similarity_metric: str, need_w: bool) -> dict | None:
    """The cached manifest if it matches this build request, else None."""
    try:
        manifest = read_manifest(ops_dir, OPERATORS_MANIFEST, OPERATORS_FORMAT_VERSION)
    except ValidationError:
        return None
    if manifest.get("store_fingerprint") != store.store_fingerprint():
        return None
    if need_w:
        if manifest.get("w_mode") == "none":
            return None
        if (
            manifest.get("similarity_top_k") != similarity_top_k
            or manifest.get("similarity_metric") != similarity_metric
        ):
            return None
    return manifest


def _load_w(store: GraphStore, ops_dir, w_mode: str, chunk_size: int):
    """The cached ``W`` of form ``w_mode`` over its memory-mapped files."""
    def load(prefix: str, n_cols: int):
        path = ops_dir / f"{prefix}.npy"
        if path.exists():
            return np.load(path, mmap_mode="r")
        return load_csr(ops_dir, prefix, store.n_nodes, n_cols)

    if w_mode == "none":
        return None
    if w_mode == "factored":
        return LowRankMatrix(
            load("w.unit", store.n_features),
            np.load(ops_dir / "w.col_scale.npy", mmap_mode="r"),
            np.load(ops_dir / "w.featureless.npy", mmap_mode="r"),
        )
    w = load("w", store.n_nodes)
    return RowWalk(w, chunk_size) if w_mode == "sparse" else w


def _assemble(store: GraphStore, ops_dir, w_mode: str, chunk_size: int,
              similarity_top_k, similarity_metric: str) -> TMarkOperators:
    """The store-backed operators: the in-memory ones over the cache's arrays.

    ``O`` / ``R`` are the in-memory tensor classes over the
    memory-mapped stacks (``from_stack(..., chunk_size=)``) and the
    top-k ``W`` is a :class:`~repro.tensor.transition.RowWalk` over the
    memory-mapped CSR; every one is walked in ``chunk_size``-row blocks
    whose pages are released after each, so one block is resident (plus
    the iterates and ``R``'s ``(m+1, n, q)`` integrands).  A CSR row's
    product depends only on that row's entries, so a store-backed fit
    is byte-identical to the in-memory fit over the same operators.  A
    factored ``W`` is the :class:`~repro.core.features.LowRankMatrix`
    over the memory-mapped ``F̂`` and its two vectors, and a dense ``W``
    the memory-mapped array; both are read whole by each product.
    """
    n, m = store.n_nodes, store.n_relations
    return TMarkOperators(
        o_tensor=NodeTransitionTensor.from_stack(
            load_csr(ops_dir, "o", m * n, n),
            np.load(ops_dir / "o.nondangling.npy"),
            chunk_size=chunk_size,
        ),
        r_tensor=RelationTransitionTensor.from_stack(
            load_csr(ops_dir, "r", (m + 1) * n, n), m, chunk_size=chunk_size
        ),
        w_matrix=_load_w(store, ops_dir, w_mode, chunk_size),
        shape=(n, m),
        similarity_top_k=similarity_top_k,
        similarity_metric=similarity_metric,
    )


def build_chunked_operators(
    store: GraphStore,
    *,
    similarity_top_k: int | None = None,
    similarity_metric: str = "cosine",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    build_w: bool = True,
    rebuild: bool = False,
    recorder=None,
) -> TMarkOperators:
    """Build (or reuse) the chunked ``(O, R, W)`` cache of a store.

    Parameters
    ----------
    store:
        An open :class:`~repro.ooc.store.GraphStore`.
    similarity_top_k, similarity_metric:
        The ``W`` settings — must match the :class:`TMark` model the
        operators will serve (``fit_operators`` enforces this).
    chunk_size:
        Columns per block for the build passes and rows per block for
        the returned operators' products.  The cache does not depend on
        it.
    build_w:
        ``False`` skips the feature-walk matrix entirely — the right
        call for ``gamma=0`` fits (``W`` is never touched) and the only
        option for stores past :data:`MAX_DENSE_W_NODES` whose ``W``
        would be dense (no ``similarity_top_k``, features that do not
        factor) or use an rbf / jaccard metric.
    rebuild:
        Force a fresh build even when a matching cache exists.
    recorder:
        Obs recorder for the per-chunk ``operator_build`` events
        (default: the ambient recorder).

    Returns
    -------
    A :class:`~repro.core.tmark.TMarkOperators` whose products stream
    over the on-disk arrays: ``O`` and ``R`` are the in-memory tensor
    classes over the memory-mapped stacks, walked in ``chunk_size``-row
    blocks (``from_stack``).  ``W`` is the form
    :func:`~repro.core.features.feature_walk_matrix` picks, over its
    memory-mapped files: a :class:`~repro.tensor.transition.RowWalk`
    over the top-k CSR, walked the same way, a
    :class:`~repro.core.features.LowRankMatrix`, or the dense array;
    ``None`` without ``build_w``, whatever ``W`` the cache holds (the
    operators still carry the requested similarity settings).
    """
    if not isinstance(store, GraphStore):
        raise ValidationError(
            f"expected a GraphStore, got {type(store).__name__}"
        )
    chunk_size = check_positive_int(chunk_size, "chunk_size")
    if similarity_top_k is not None:
        similarity_top_k = check_positive_int(similarity_top_k, "similarity_top_k")
    if similarity_metric not in SIMILARITY_METRICS:
        raise ValidationError(
            f"similarity_metric must be one of {SIMILARITY_METRICS}, "
            f"got {similarity_metric!r}"
        )
    rec = get_recorder() if recorder is None else recorder
    ops_dir = store.operators_dir
    if not rebuild:
        cached = _cache_usable(
            ops_dir, store, similarity_top_k, similarity_metric, build_w
        )
        if cached is not None:
            return _assemble(
                store, ops_dir, cached["w_mode"] if build_w else "none",
                chunk_size, similarity_top_k, similarity_metric,
            )
    stage = StagedDirectory(ops_dir, OPERATORS_MANIFEST, loose_arrays=True)
    with stage, span(
        "build_chunked_operators",
        recorder=rec,
        n_nodes=store.n_nodes,
        chunk_size=chunk_size,
    ):
        with span("build_o", recorder=rec):
            _build_o(store, stage, chunk_size, rec)
        with span("build_r", recorder=rec):
            _build_r(store, stage, chunk_size, rec)
        if build_w:
            with span("build_w", recorder=rec):
                w_mode = _build_w(
                    store, stage, similarity_top_k, similarity_metric, rec
                )
        else:
            w_mode = "none"
        stage.publish(
            {
                "format_version": OPERATORS_FORMAT_VERSION,
                "store_fingerprint": store.store_fingerprint(),
                "similarity_top_k": similarity_top_k,
                "similarity_metric": similarity_metric,
                "w_mode": w_mode,
            },
            digests=False,  # sizes catch a torn cache; nothing reads digests
        )
    return _assemble(
        store, ops_dir, w_mode, chunk_size, similarity_top_k, similarity_metric
    )
