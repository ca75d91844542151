"""Delta-maintained T-Mark operators: patch ``(O, R, W)`` instead of rebuilding.

:class:`IncrementalOperators` caches the operator triple for a HIN and,
given a :class:`~repro.stream.delta.DeltaBatch`, brings it to the
post-batch state by renormalising only what the batch touched:

* ``O`` — the ``(j, k)`` columns hit by a link edit are recomputed from
  their raw weights (sequential sum, then multiply by the reciprocal —
  the exact float sequence of the full build); only relations with a
  touched column get a fresh CSR slice, every other slice object is
  reused as-is;
* ``R`` — the ``(i, j)`` fibres hit by a link edit are renormalised the
  same way (direct division, matching the full build); only relations
  participating in a touched fibre get fresh slices;
* ``W`` — link and label edits never touch it.  When
  :func:`~repro.core.features.feature_walk_form` picks the exact
  factored form (cosine, non-negative features, ``2 (d + 1) < n``) a
  feature or add-node edit rebuilds ``W`` cold through
  :func:`~repro.core.features.feature_walk_matrix`, which costs only
  ``O(n d)`` and keeps no ``n x n`` buffer.  Dense cosine ``W`` with
  ``top_k=None`` (signed features, or ``d`` too large) updates the
  maintained cosine-similarity rows/columns; a batch that flips the
  selector's choice (say, a feature turning negative) rebuilds ``W``
  cold.  The other metrics / ``top_k`` / sparse-feature configurations
  recompute ``W`` in full.

**Exactness contract** (pinned by ``tests/stream/test_operators.py``):
after ``apply(batch)`` the operators equal ``build_operators`` on
``apply_batch(hin, batch)`` — bitwise for link-only batches (including
columns gaining their first out-link or losing their last, in both
directions), and to tight ``allclose`` tolerance when feature edits
route through the incremental similarity update.  This holds because
raw weights are accumulated in delta order (matching the COO coalescing
order of a rebuild) and the touched-column/fibre sums replicate
``np.bincount``'s left-to-right accumulation.

Dangling transitions need no special-casing in the numerics — a column
or fibre whose raw weights vanish is simply dropped from the store and
from the non-dangling indicator, and the propagation kernels already
apply the uniform correction analytically — but both directions are
exercised explicitly by the equivalence tests.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.core.features import (
    feature_walk_form,
    feature_walk_matrix,
    normalise_similarity_columns,
    unit_feature_rows,
    walk_matrix_form,
)
from repro.core.tmark import TMarkOperators
from repro.errors import ValidationError
from repro.hin.graph import HIN
from repro.obs.recorder import get_recorder
from repro.stream.delta import ResolvedBatch, materialize_batch, resolve_batch
from repro.tensor.sptensor import normalise_fibres
from repro.tensor.transition import (
    NodeTransitionTensor,
    RelationTransitionTensor,
    build_transition_tensors,
)


def _pad_csr(matrix: sp.csr_matrix, n: int) -> sp.csr_matrix:
    """Reshape an ``(n0, n0)`` CSR to ``(n, n)`` by appending empty rows."""
    n0 = matrix.shape[0]
    if n == n0:
        return matrix
    indptr = np.concatenate(
        [matrix.indptr, np.full(n - n0, matrix.indptr[-1], dtype=matrix.indptr.dtype)]
    )
    return sp.csr_matrix((matrix.data, matrix.indices, indptr), shape=(n, n))


class IncrementalOperators:
    """The T-Mark operator triple, kept in sync with an evolving HIN.

    Parameters
    ----------
    hin:
        The seed graph; its operators are built cold on construction.
    similarity_top_k, similarity_metric:
        As in :func:`repro.core.tmark.build_operators`.  With cosine and
        ``top_k=None`` (the paper's configuration), non-negative
        features and ``2 (d + 1) < n`` give the exact factored ``W``,
        which a feature batch rebuilds cold in ``O(n d)`` with no
        ``n x n`` buffer; signed features or a large ``d`` give the
        dense ``W``, patched through a maintained similarity matrix.
        Other settings stay correct via a full ``W`` recompute on
        feature-touching batches.
    """

    def __init__(
        self,
        hin: HIN,
        *,
        similarity_top_k: int | None = None,
        similarity_metric: str = "cosine",
    ):
        if not isinstance(hin, HIN):
            raise ValidationError(f"expected a HIN, got {type(hin).__name__}")
        self._hin = hin
        self._top_k = similarity_top_k
        self._metric = similarity_metric
        self._n = hin.n_nodes
        self._m = hin.n_relations
        self._build_link_stores()
        self._build_w(hin.features)
        # Seed the facades from the reference build so the starting
        # state is the full-build state by construction.
        self._o, self._r = build_transition_tensors(hin.tensor)
        self._o_slices = list(self._o._slices)
        self._r_slices = list(self._r._rel_slices)
        self._pair_i = self._r._pair_i
        self._pair_j = self._r._pair_j

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def hin(self) -> HIN:
        """The graph the cached operators currently describe."""
        return self._hin

    @property
    def operators(self) -> TMarkOperators:
        """The current operator triple, ready for ``TMark.fit(operators=...)``."""
        return TMarkOperators(
            o_tensor=self._o,
            r_tensor=self._r,
            w_matrix=self._w,
            shape=(self._n, self._m),
            similarity_top_k=self._top_k,
            similarity_metric=self._metric,
        )

    def apply(self, deltas, *, recorder=None) -> HIN:
        """Apply a delta batch: patch the operators, return the new HIN.

        Emits one ``operator_patch`` event (touched column/fibre counts,
        wall-clock) on the given or ambient recorder.
        """
        rec = get_recorder() if recorder is None else recorder
        started = time.perf_counter() if rec.enabled else 0.0
        resolved = resolve_batch(self._hin, deltas)
        new_hin = materialize_batch(self._hin, resolved)

        grown = resolved.n_new > resolved.n_old
        self._n = resolved.n_new
        n_cols, n_fibres, o_deltas, r_deltas = self._patch_links(resolved)
        o_clear, o_set = o_deltas
        r_clear, r_set, pairs_added, pairs_removed = r_deltas
        touched_o = set(o_clear) | set(o_set)
        touched_r = set(r_clear) | set(r_set)
        if touched_o or grown:
            self._refresh_o(o_clear, o_set, grown)
        if touched_r or pairs_added or pairs_removed or grown:
            self._refresh_r(r_clear, r_set, pairs_added, pairs_removed, grown)
        full_w_recompute = self._patch_w(resolved, new_hin)
        self._hin = new_hin

        if rec.enabled:
            rec.emit(
                "operator_patch",
                n_link_ops=len(resolved.link_ops),
                n_new_nodes=len(resolved.new_nodes),
                n_nodes=self._n,
                touched_columns=n_cols,
                touched_fibres=n_fibres,
                touched_o_slices=len(touched_o),
                touched_r_slices=len(touched_r),
                full_w_recompute=full_w_recompute,
                w_form=walk_matrix_form(self._w)[0],
                seconds=time.perf_counter() - started,
            )
            rec.count("operator_patches")
        return new_hin

    # ------------------------------------------------------------------
    # Cold build of the raw-weight stores
    # ------------------------------------------------------------------
    def _build_link_stores(self) -> None:
        """Group the tensor's raw entries by O-column and R-fibre.

        ``_o_cols[k][j] = (i_sorted, raw, norm)`` and
        ``_r_fibres[(i, j)] = (k_sorted, raw, norm)``; the normalised
        values are exactly the ones the full build produces (same order,
        same float operations).
        """
        tensor = self._hin.tensor
        n, m = self._n, self._m
        i, j, k = tensor.coords
        values = tensor.values

        # O: coords are sorted by (k, j, i), so mode-1 columns are
        # contiguous runs with i ascending inside each.
        col_sums = tensor.mode1_column_sums()
        cols = k * n + j
        scale = np.ones_like(col_sums)
        nondangling = col_sums > 0
        scale[nondangling] = 1.0 / col_sums[nondangling]
        o_norm = values * scale[cols]
        self._o_cols: list[dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
            {} for _ in range(m)
        ]
        if cols.size:
            unique_cols, starts = np.unique(cols, return_index=True)
            bounds = np.append(starts, cols.size)
            for pos, col in enumerate(unique_cols.tolist()):
                sel = slice(bounds[pos], bounds[pos + 1])
                rel, node = divmod(col, n)
                self._o_cols[rel][node] = (
                    i[sel].copy(),
                    values[sel].copy(),
                    o_norm[sel].copy(),
                )

        # R: fibre (i, j) entries appear at ascending k in the k-major
        # coord order; a stable sort by fibre id preserves that.
        fibres = j * n + i
        linked, r_norm = normalise_fibres(fibres, values)
        self._r_fibres: dict[
            tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        if fibres.size:
            order = np.argsort(fibres, kind="stable")
            sorted_fibres = fibres[order]
            starts = np.searchsorted(sorted_fibres, linked)
            bounds = np.append(starts, sorted_fibres.size)
            for pos, fibre in enumerate(linked.tolist()):
                sel = order[bounds[pos] : bounds[pos + 1]]
                node_j, node_i = divmod(fibre, n)
                self._r_fibres[(node_i, node_j)] = (
                    k[sel].copy(),
                    values[sel].copy(),
                    r_norm[sel].copy(),
                )

    def _build_w(self, features) -> None:
        incremental = (
            self._metric == "cosine"
            and self._top_k is None
            and not sp.issparse(features)
            and feature_walk_form(features) == "dense"
        )
        self._sims = None
        if not incremental:
            self._unit = None
            self._w_n = 0
            self._w = feature_walk_matrix(
                features, top_k=self._top_k, metric=self._metric
            )
            return
        # The buffers are capacity-managed: rows past the logical count
        # ``_w_n`` are always zero, growth reallocates with headroom, and
        # every read slices ``[:n]`` — so a delta batch never pays an
        # O(n * d) copy just to add a node.
        self._unit, _ = unit_feature_rows(features)
        self._w_n = self._unit.shape[0]
        # einsum, matching cosine_similarity_matrix's fixed per-element
        # summation order — a BLAS GEMM here would break the bitwise
        # contract against cold rebuilds.
        sims = np.einsum("nd,cd->nc", self._unit, self._unit)
        np.clip(sims, 0.0, None, out=sims)
        self._sims = sims
        self._w = normalise_similarity_columns(sims.copy())

    # ------------------------------------------------------------------
    # Link patching
    # ------------------------------------------------------------------
    def _patch_links(self, resolved: ResolvedBatch):
        """Replay the batch's tensor edits onto the raw-weight stores.

        For every touched column/fibre the old normalised entries are
        collected into per-relation *clear* triplets and the recomputed
        entries into *set* triplets; :meth:`_refresh_o` /
        :meth:`_refresh_r` turn those into two sparse additions per
        touched slice (``old - C + N``), so slice maintenance costs
        O(touched entries + nnz_slice) in C instead of a Python walk
        over the whole relation.
        """
        col_ops: dict[tuple[int, int], list[tuple[str, int, float]]] = {}
        fibre_ops: dict[tuple[int, int], list[tuple[str, int, float]]] = {}
        for kind, i, j, k, w in resolved.link_ops:
            col_ops.setdefault((k, j), []).append((kind, i, w))
            fibre_ops.setdefault((i, j), []).append((kind, k, w))

        o_clear: dict[int, list] = {}
        o_set: dict[int, list] = {}
        for (k, j), ops in col_ops.items():
            store = self._o_cols[k]
            entry = store.get(j)
            raw = dict(zip(entry[0].tolist(), entry[1].tolist())) if entry else {}
            if entry is not None:
                rows, cols, values = o_clear.setdefault(k, ([], [], []))
                rows.extend(entry[0].tolist())
                cols.extend([j] * entry[0].size)
                values.extend(entry[2].tolist())
            for kind, i, w in ops:
                if kind == "add":
                    raw[i] = raw.get(i, 0.0) + w
                else:
                    raw.pop(i, None)
            if not raw:
                store.pop(j, None)  # column lost its last out-link: dangling
                continue
            i_sorted = sorted(raw)
            raw_arr = np.array([raw[i] for i in i_sorted], dtype=float)
            total = 0.0  # sequential, matching bincount's accumulation order
            for value in raw_arr:
                total += value
            norm = raw_arr * (1.0 / total)
            store[j] = (np.array(i_sorted, dtype=np.int64), raw_arr, norm)
            rows, cols, values = o_set.setdefault(k, ([], [], []))
            rows.extend(i_sorted)
            cols.extend([j] * len(i_sorted))
            values.extend(norm.tolist())

        r_clear: dict[int, list] = {}
        r_set: dict[int, list] = {}
        pairs_added: list[tuple[int, int]] = []
        pairs_removed: list[tuple[int, int]] = []
        for (i, j), ops in fibre_ops.items():
            entry = self._r_fibres.get((i, j))
            raw = dict(zip(entry[0].tolist(), entry[1].tolist())) if entry else {}
            if entry is not None:
                for k_old, v_old in zip(entry[0].tolist(), entry[2].tolist()):
                    rows, cols, values = r_clear.setdefault(k_old, ([], [], []))
                    rows.append(i)
                    cols.append(j)
                    values.append(v_old)
            for kind, k, w in ops:
                if kind == "add":
                    raw[k] = raw.get(k, 0.0) + w
                else:
                    raw.pop(k, None)
            if not raw:
                if self._r_fibres.pop((i, j), None) is not None:
                    pairs_removed.append((i, j))  # pair fully unlinked
                continue
            if entry is None:
                pairs_added.append((i, j))  # pair gained its first relation
            k_sorted = sorted(raw)
            raw_arr = np.array([raw[k] for k in k_sorted], dtype=float)
            total = 0.0
            for value in raw_arr:
                total += value
            norm = raw_arr / total
            self._r_fibres[(i, j)] = (
                np.array(k_sorted, dtype=np.int64),
                raw_arr,
                norm,
            )
            for k_new, v_new in zip(k_sorted, norm.tolist()):
                rows, cols, values = r_set.setdefault(k_new, ([], [], []))
                rows.append(i)
                cols.append(j)
                values.append(v_new)
        return (
            len(col_ops),
            len(fibre_ops),
            (o_clear, o_set),
            (r_clear, r_set, pairs_added, pairs_removed),
        )

    @staticmethod
    def _apply_slice_deltas(slice_k, clear, set_, n: int):
        """Clear-then-set of entries on one slice, as a sorted-key merge.

        The slice's entries are flattened to sorted ``row * n + col``
        keys (CSR canonical order is exactly that), cleared keys are
        dropped with a searchsorted mask and new keys spliced in with
        ``np.insert``.  No float arithmetic touches any value — old
        entries pass through verbatim and new entries are stored as
        given — so untouched entries stay bit-identical to a rebuild by
        construction.
        """
        if slice_k.shape[0] != n:
            slice_k = _pad_csr(slice_k, n)
        if clear is None and set_ is None:
            return slice_k
        counts = np.diff(slice_k.indptr)
        keys = np.repeat(np.arange(n, dtype=np.int64), counts) * n + slice_k.indices
        vals = slice_k.data
        if clear is not None:
            cleared = np.asarray(clear[0], dtype=np.int64) * n + np.asarray(
                clear[1], dtype=np.int64
            )
            cleared.sort()
            keep = np.ones(keys.size, dtype=bool)
            keep[np.searchsorted(keys, cleared)] = False
            keys = keys[keep]
            vals = vals[keep]
        if set_ is not None:
            fresh = np.asarray(set_[0], dtype=np.int64) * n + np.asarray(
                set_[1], dtype=np.int64
            )
            order = np.argsort(fresh)
            fresh = fresh[order]
            slots = np.searchsorted(keys, fresh)
            keys = np.insert(keys, slots, fresh)
            vals = np.insert(vals, slots, np.asarray(set_[2], dtype=float)[order])
        rows, cols = np.divmod(keys, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return sp.csr_matrix((vals, cols, indptr), shape=(n, n))

    def _refresh_o(self, o_clear, o_set, grown: bool) -> None:
        """Patch the touched O slices; pad the rest if grown."""
        n = self._n
        touched = set(o_clear) | set(o_set)
        for k in range(self._m):
            if k in touched or grown:
                self._o_slices[k] = self._apply_slice_deltas(
                    self._o_slices[k], o_clear.get(k), o_set.get(k), n
                )
        nondangling = [
            k * n + np.fromiter(sorted(store), dtype=np.int64, count=len(store))
            for k, store in enumerate(self._o_cols)
            if store
        ]
        flat = (
            np.concatenate(nondangling)
            if nondangling
            else np.empty(0, dtype=np.int64)
        )
        self._o = NodeTransitionTensor.from_parts(
            list(self._o_slices), flat, n=n, m=self._m
        )

    def _refresh_r(
        self, r_clear, r_set, pairs_added, pairs_removed, grown: bool
    ) -> None:
        """Patch the touched R slices; maintain the linked-pair arrays."""
        n = self._n
        touched = set(r_clear) | set(r_set)
        for k in range(self._m):
            if k in touched or grown:
                self._r_slices[k] = self._apply_slice_deltas(
                    self._r_slices[k], r_clear.get(k), r_set.get(k), n
                )
        if pairs_added or pairs_removed or grown:
            # _pair_i/_pair_j are sorted by flat id j*n + i; lexicographic
            # (j, i) order is preserved under a changed n, so re-encoding
            # after growth keeps the array sorted.  Removed/added ids are
            # merged in with searchsorted (all arrays sorted + unique)
            # instead of set routines, which re-sort the whole array.
            pair_flat = self._pair_j * n + self._pair_i
            if pairs_removed:
                removed = np.array(
                    sorted(j * n + i for i, j in pairs_removed), dtype=np.int64
                )
                hits = np.searchsorted(pair_flat, removed)
                keep = np.ones(pair_flat.size, dtype=bool)
                keep[hits] = False
                pair_flat = pair_flat[keep]
            if pairs_added:
                added = np.array(
                    sorted(j * n + i for i, j in pairs_added), dtype=np.int64
                )
                slots = np.searchsorted(pair_flat, added)
                pair_flat = np.insert(pair_flat, slots, added)
            self._pair_j, self._pair_i = np.divmod(pair_flat, n)
        self._r = RelationTransitionTensor.from_parts(
            list(self._r_slices), self._pair_i, self._pair_j, n=n, m=self._m
        )

    # ------------------------------------------------------------------
    # W patching
    # ------------------------------------------------------------------
    def _patch_w(self, resolved: ResolvedBatch, new_hin: HIN) -> bool:
        """Bring ``W`` to the post-batch features; ``True`` if rebuilt cold."""
        if not resolved.touches_features:
            return False
        if self._unit is None or feature_walk_form(new_hin.features) != "dense":
            # No maintained similarity, or the batch made the factored
            # form exact and cheaper (the features lost their last
            # negative entry, or growth passed the cost rule).
            self._build_w(new_hin.features)
            return True
        n_old = self._w_n
        n = self._n
        if n > self._unit.shape[0]:
            # Out of capacity: reallocate with headroom so a long run of
            # growth batches amortises to O(1) copies per node.
            cap = max(n, self._unit.shape[0] + max(64, self._unit.shape[0] // 8))
            unit = np.zeros((cap, self._unit.shape[1]))
            unit[:n_old] = self._unit[:n_old]
            self._unit = unit
            sims = np.zeros((cap, cap))
            sims[:n_old, :n_old] = self._sims[:n_old, :n_old]
            self._sims = sims
        changed = [n_old + offset for offset in range(len(resolved.new_nodes))]
        changed += [idx for idx, _ in resolved.feature_ops]
        new_features = np.asarray(new_hin.features, dtype=float)
        unit = self._unit[:n]
        for idx in changed:
            row = new_features[idx]
            norm = np.linalg.norm(row)
            unit[idx] = row / norm if norm > 0 else 0.0
        # One matvec per changed node refreshes its similarity row/column;
        # zero-norm rows come out zero automatically (their unit row is 0).
        # einsum's matvec reduces in the same per-element order as the
        # full panel above, so refreshed rows carry identical bits.
        for idx in changed:
            sims_row = np.einsum("nd,d->n", unit, unit[idx])
            np.clip(sims_row, 0.0, None, out=sims_row)
            self._sims[idx, :n] = sims_row
            self._sims[:n, idx] = sims_row
        self._w_n = n
        # Same floats as normalise_similarity_columns, without copying
        # the n x n similarity buffer on the common (no zero column) path.
        sims_view = self._sims[:n, :n]
        col_sums = sims_view.sum(axis=0)
        if np.any(col_sums == 0):
            self._w = normalise_similarity_columns(sims_view.copy())
        else:
            self._w = sims_view / col_sums[None, :]
        return False
