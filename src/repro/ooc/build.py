"""Chunked construction of the ``(O, R, W)`` operators on disk.

Generalises the column-block strategy of
:func:`repro.core.features.topk_cosine_transition_matrix` to the two
transition tensors: every normalisation pass walks a store's per-relation
CSC arrays in blocks of ``chunk_size`` columns, so resident memory is
``O(nnz / n_chunks)`` instead of the materialised operator — the build
that makes million-node stores fittable on one box.

The written values are **bit-identical** to the in-RAM build:

* ``O`` — the per-``(j, k)`` column sums accumulate the same values in
  the same order as ``SparseTensor3.mode1_column_sums`` (the store's CSC
  concatenation *is* the coalesced COO order), and the normalisation is
  the same multiply-by-reciprocal the CSC ``@ diags(scale)`` performs;
* ``R`` — both builds call the shared fibre kernel
  :func:`repro.tensor.sptensor.normalise_fibres`; a column block holds
  every entry of its ``(i, j)`` fibres in the coalesced k-major order,
  so the per-block sums are the in-RAM build's sums addition for
  addition, while only the block — not the whole tensor — is resident;
* ``W`` — small stores reuse the dense Eq. 9 code verbatim; larger
  stores require ``similarity_top_k`` and go through the (already
  chunked) top-k cosine path.

Artifacts land in ``<store>/operators/``: ``o.rel<k>.data.npy`` and
``r.rel<k>.data.npy`` share the raw store's ``indices``/``indptr`` (the
sparsity pattern is unchanged by normalisation), ``o.nondangling.npy``
is the ``(m, n)`` non-dangling column mask, ``pair.indices.npy`` /
``pair.indptr.npy`` hold the linked-pair CSC pattern, and
``operators.json`` records the build parameters plus the store
fingerprint so a stale cache is detected and rebuilt.  One
``operator_build`` obs event is emitted per chunk.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.features import (
    SIMILARITY_METRICS,
    feature_transition_matrix,
    topk_cosine_transition_matrix,
)
from repro.errors import ValidationError
from repro.obs.recorder import get_recorder
from repro.obs.spans import span
from repro.ooc.operators import (
    DEFAULT_CHUNK_SIZE,
    ChunkedFeatureWalk,
    ChunkedNodeTransition,
    ChunkedOperators,
    ChunkedRelationTransition,
    release_pages,
)
from repro.ooc.store import GraphStore
from repro.tensor.sptensor import normalise_fibres
from repro.utils.validation import check_positive_int

#: Version of the on-disk operator-cache layout.
OPERATORS_FORMAT_VERSION = 1

#: The cache manifest inside ``<store>/operators/``.
OPERATORS_MANIFEST = "operators.json"

#: Largest store for which a dense ``W`` (``similarity_top_k=None``) is
#: built; beyond this the dense ``(n, n)`` matrix stops being an
#: out-of-core operator in any meaningful sense.
MAX_DENSE_W_NODES = 8192

#: Column-block cap for the top-k cosine similarity pass (each block
#: materialises an ``(n, block)`` similarity panel).
MAX_W_SIMILARITY_CHUNK = 2048


def _write_manifest(ops_dir: Path, manifest: dict) -> None:
    tmp = ops_dir / (OPERATORS_MANIFEST + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    tmp.replace(ops_dir / OPERATORS_MANIFEST)


def _build_o(store: GraphStore, ops_dir: Path, chunk_size: int, rec) -> int:
    """Normalise every relation slice column-block-wise; returns n_dangling."""
    n, m = store.n_nodes, store.n_relations
    nondangling = np.zeros((m, n), dtype=bool)
    emit = rec.enabled
    for k in range(m):
        data, indices, indptr = store.relation_arrays(k)
        out = np.lib.format.open_memmap(
            ops_dir / f"o.rel{k}.data.npy",
            mode="w+",
            dtype=np.float64,
            shape=(int(data.size),),
        )
        for chunk_idx, j0 in enumerate(range(0, n, chunk_size)):
            started = time.perf_counter() if emit else 0.0
            j1 = min(j0 + chunk_size, n)
            start, stop = int(indptr[j0]), int(indptr[j1])
            if start != stop:
                values = np.asarray(data[start:stop])
                counts = np.asarray(indptr[j0 : j1 + 1], dtype=np.int64)
                counts = np.diff(counts)
                local_j = np.repeat(np.arange(j1 - j0), counts)
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
        del out
        release_pages(data, indices, indptr)
    np.save(ops_dir / "o.nondangling.npy", nondangling)
    return int(n * m - nondangling.sum())


def _build_r(store: GraphStore, ops_dir: Path, chunk_size: int, rec) -> int:
    """Fibre-normalise across relations column-block-wise; returns pair count.

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
        np.lib.format.open_memmap(
            ops_dir / f"r.rel{k}.data.npy",
            mode="w+",
            dtype=np.float64,
            shape=(int(relations[k][0].size),),
        )
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
            counts = np.diff(np.asarray(indptr[j0 : j1 + 1], dtype=np.int64))
            i_parts.append(np.asarray(indices[start:stop], dtype=np.int64))
            j_parts.append(np.repeat(np.arange(j1 - j0, dtype=np.int64), counts))
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
        release_pages(*relations[k])
    del outs
    pair_indices = (
        np.concatenate(pair_rows) if pair_rows else np.empty(0, index_dtype)
    )
    pair_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(pair_counts, out=pair_indptr[1:])
    np.save(ops_dir / "pair.indices.npy", pair_indices)
    np.save(ops_dir / "pair.indptr.npy", pair_indptr.astype(index_dtype))
    return int(pair_indices.size)


def _build_w(
    store: GraphStore,
    ops_dir: Path,
    chunk_size: int,
    similarity_top_k,
    similarity_metric: str,
    rec,
) -> str:
    """Build the feature-walk matrix on disk; returns its storage mode."""
    n = store.n_nodes
    emit = rec.enabled
    started = time.perf_counter() if emit else 0.0
    if similarity_top_k is None:
        if n > MAX_DENSE_W_NODES:
            raise ValidationError(
                f"a dense W for {n} nodes is not an out-of-core operator; "
                f"set similarity_top_k (chunked top-k cosine) or gamma=0 "
                f"to skip the feature walk (dense limit: {MAX_DENSE_W_NODES})"
            )
        w = feature_transition_matrix(store.features, metric=similarity_metric)
        np.save(ops_dir / "w.npy", np.asarray(w, dtype=np.float64))
        mode = "dense"
        nnz = n * n
    else:
        if similarity_metric != "cosine":
            raise ValidationError(
                "chunked top-k W supports metric='cosine' only, got "
                f"{similarity_metric!r} (rbf/jaccard need the dense path)"
            )
        w = topk_cosine_transition_matrix(
            store.features,
            similarity_top_k,
            chunk_size=min(chunk_size, MAX_W_SIMILARITY_CHUNK),
        ).tocsc()
        w.sort_indices()
        np.save(ops_dir / "w.data.npy", w.data.astype(np.float64, copy=False))
        np.save(ops_dir / "w.indices.npy", w.indices.astype(np.int64))
        np.save(ops_dir / "w.indptr.npy", w.indptr.astype(np.int64))
        mode = "csc"
        nnz = int(w.nnz)
    if emit:
        rec.emit(
            "operator_build",
            operator="W",
            relation=-1,
            chunk=0,
            columns=n,
            nnz=nnz,
            transition_seconds=0.0,
            feature_seconds=time.perf_counter() - started,
        )
    return mode


def _cache_usable(ops_dir: Path, store: GraphStore, similarity_top_k,
                  similarity_metric: str, need_w: bool) -> dict | None:
    """The cached manifest if it matches this build request, else None."""
    manifest_path = ops_dir / OPERATORS_MANIFEST
    if not manifest_path.exists():
        return None
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return None
    if manifest.get("format_version") != OPERATORS_FORMAT_VERSION:
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


def _assemble(store: GraphStore, ops_dir: Path, manifest: dict,
              chunk_size: int) -> ChunkedOperators:
    n, m = store.n_nodes, store.n_relations

    def store_arrays(k: int):
        _, indices, indptr = store.relation_arrays(k)
        return indices, indptr

    o_tensor = ChunkedNodeTransition(
        [ops_dir / f"o.rel{k}.data.npy" for k in range(m)],
        store_arrays,
        np.load(ops_dir / "o.nondangling.npy", mmap_mode="r"),
        n=n,
        m=m,
        chunk_size=chunk_size,
    )
    r_tensor = ChunkedRelationTransition(
        [ops_dir / f"r.rel{k}.data.npy" for k in range(m)],
        store_arrays,
        (ops_dir / "pair.indices.npy", ops_dir / "pair.indptr.npy"),
        n=n,
        m=m,
        n_linked_pairs=int(manifest["n_linked_pairs"]),
        chunk_size=chunk_size,
    )
    w_mode = manifest["w_mode"]
    if w_mode == "none":
        w_matrix = None
    elif w_mode == "dense":
        w_matrix = ChunkedFeatureWalk(
            "dense", (ops_dir / "w.npy",), n=n, chunk_size=chunk_size
        )
    else:
        w_matrix = ChunkedFeatureWalk(
            "csc",
            (
                ops_dir / "w.data.npy",
                ops_dir / "w.indices.npy",
                ops_dir / "w.indptr.npy",
            ),
            n=n,
            chunk_size=chunk_size,
        )
    return ChunkedOperators(
        o_tensor=o_tensor,
        r_tensor=r_tensor,
        w_matrix=w_matrix,
        shape=(n, m),
        similarity_top_k=manifest["similarity_top_k"],
        similarity_metric=manifest["similarity_metric"],
        chunk_size=chunk_size,
        directory=ops_dir,
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
) -> ChunkedOperators:
    """Build (or reuse) the chunked ``(O, R, W)`` cache of a store.

    Parameters
    ----------
    store:
        An open :class:`~repro.ooc.store.GraphStore`.
    similarity_top_k, similarity_metric:
        The ``W`` settings — must match the :class:`TMark` model the
        operators will serve (``fit_operators`` enforces this).
    chunk_size:
        Columns per block for both the build passes and the returned
        adapters' propagation products.
    build_w:
        ``False`` skips the feature-walk matrix entirely — the right
        call for ``gamma=0`` fits (``W`` is never touched) and the only
        option for million-node stores without ``similarity_top_k``.
    rebuild:
        Force a fresh build even when a matching cache exists.
    recorder:
        Obs recorder for the per-chunk ``operator_build`` events
        (default: the ambient recorder).

    Returns
    -------
    A :class:`~repro.ooc.operators.ChunkedOperators` whose products
    stream over the on-disk arrays.
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
            return _assemble(store, ops_dir, cached, chunk_size)
    ops_dir.mkdir(parents=True, exist_ok=True)
    with span(
        "build_chunked_operators",
        recorder=rec,
        n_nodes=store.n_nodes,
        chunk_size=chunk_size,
    ):
        with span("build_o", recorder=rec):
            n_dangling = _build_o(store, ops_dir, chunk_size, rec)
        with span("build_r", recorder=rec):
            n_linked_pairs = _build_r(store, ops_dir, chunk_size, rec)
        if build_w:
            with span("build_w", recorder=rec):
                w_mode = _build_w(
                    store,
                    ops_dir,
                    chunk_size,
                    similarity_top_k,
                    similarity_metric,
                    rec,
                )
        else:
            w_mode = "none"
    manifest = {
        "format_version": OPERATORS_FORMAT_VERSION,
        "store_fingerprint": store.store_fingerprint(),
        "similarity_top_k": similarity_top_k,
        "similarity_metric": similarity_metric,
        "chunk_size": chunk_size,
        "w_mode": w_mode,
        "n_dangling": n_dangling,
        "n_linked_pairs": n_linked_pairs,
    }
    _write_manifest(ops_dir, manifest)
    if rec.enabled:
        rec.count("chunked_operator_builds")
    return _assemble(store, ops_dir, manifest, chunk_size)
