"""The memory-mapped on-disk graph store behind the out-of-core tier.

A :class:`GraphStore` is a directory of plain ``.npy`` files plus a JSON
manifest — no pickling, no archives — so every array can be *memory
mapped* (``np.load(..., mmap_mode="r")``) instead of loaded.  The layout
follows DGL graphbolt's on-disk CSC design: one compressed-sparse-column
matrix per relation (column ``j`` holds node ``j``'s out-links, rows are
the targets ``i``), which is exactly the fibre layout the ``O``
normalisation of Eq. 1 consumes, so chunked operator construction can
stream column blocks without ever holding a whole relation in RAM.

Layout of a store directory::

    manifest.json            format version, shapes, names, sha256 + size per file
    rel<k>.data.npy          CSC values of relation k   (float64)
    rel<k>.indices.npy       CSC row indices            (int32 or int64)
    rel<k>.indptr.npy        CSC column pointers        (same dtype)
    features.npy             dense (n, d) features      — or the CSR triple
    features.data.npy / features.indices.npy / features.indptr.npy
    labels.npy               (n, q) boolean label matrix
    node_names.npy           only when names differ from the "node_<i>" default
    operators/               chunked-operator cache (see repro.ooc.build)

The manifest records the size and sha256 of every array file (see
:mod:`repro.ooc.publish`); ``open(path, verify=True)`` re-hashes them and raises
:class:`~repro.errors.ValidationError` on any mismatch, and stores saved
from an in-RAM :class:`~repro.hin.graph.HIN` additionally carry its
:func:`~repro.hin.graph.graph_fingerprint`.
``GraphStore.save`` → ``open`` → :meth:`GraphStore.to_hin` is a
bit-identical round trip: the concatenated per-relation CSC coordinates
reproduce the exact ``(k, j, i)``-sorted COO order ``SparseTensor3``
canonicalises to, and no float arithmetic touches the values.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError
from repro.hin.graph import HIN, graph_fingerprint
from repro.hin.io import jsonable_metadata
from repro.obs.recorder import get_recorder
from repro.ooc.publish import StagedDirectory, read_manifest
from repro.tensor.sptensor import SparseTensor3

#: On-disk format version; bumped on any layout change.
STORE_FORMAT_VERSION = 1

#: The manifest file name inside a store directory.
MANIFEST_NAME = "manifest.json"

#: Subdirectory holding the chunked-operator cache (repro.ooc.build).
OPERATORS_DIRNAME = "operators"


def _index_dtype(n_nodes: int, max_nnz: int):
    """Smallest integer dtype that can index this store's CSC arrays."""
    if n_nodes < np.iinfo(np.int32).max and max_nnz < np.iinfo(np.int32).max:
        return np.int32
    return np.int64


class GraphStore:
    """A memory-mapped HIN: per-relation CSC arrays + feature/label blocks.

    Construct with :meth:`save` (serialise an in-RAM HIN) or :meth:`open`
    (memory-map an existing directory).  The accessor surface mirrors the
    :class:`~repro.hin.graph.HIN` shape properties so operator builders
    can consume either; arrays come back as read-only ``np.memmap`` views
    that only page in what is touched.
    """

    def __init__(self, directory: Path, manifest: dict):
        self._dir = Path(directory)
        self._manifest = manifest
        self._arrays = {
            name: np.load(self._dir / name, mmap_mode="r")
            for name in manifest["files"]
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def save(cls, hin: HIN, directory, *, recorder=None) -> "GraphStore":
        """Write ``hin`` to ``directory`` and return the opened store.

        The store is swapped in whole (:mod:`repro.ooc.publish`): an
        existing store is replaced with its operator cache, which the
        next fit rebuilds; a directory that is not a store is refused
        with :class:`ValidationError` and left untouched.  Emits one
        ``store_save`` obs event.
        """
        if not isinstance(hin, HIN):
            raise ValidationError(f"expected a HIN, got {type(hin).__name__}")
        rec = get_recorder() if recorder is None else recorder
        n, m = hin.n_nodes, hin.n_relations
        idx_dtype = _index_dtype(n, hin.tensor.nnz)
        relation_nnz: list[int] = []
        default_names = tuple(f"node_{i}" for i in range(n)) == hin.node_names
        features_sparse = bool(sp.issparse(hin.features))
        with StagedDirectory(
            directory, MANIFEST_NAME, subdirs=(OPERATORS_DIRNAME,)
        ) as stage:
            for k in range(m):
                csc = hin.tensor.relation_slice(k).tocsc()
                csc.sort_indices()
                relation_nnz.append(int(csc.nnz))
                stage.save(f"rel{k}.data.npy", np.asarray(csc.data, np.float64))
                stage.save(f"rel{k}.indices.npy", csc.indices.astype(idx_dtype))
                stage.save(f"rel{k}.indptr.npy", csc.indptr.astype(idx_dtype))
            if features_sparse:
                feats = sp.csr_matrix(hin.features)
                stage.save("features.data.npy", np.asarray(feats.data, np.float64))
                stage.save("features.indices.npy", feats.indices.astype(idx_dtype))
                stage.save("features.indptr.npy", feats.indptr.astype(idx_dtype))
            else:
                stage.save("features.npy", np.asarray(hin.features, dtype=np.float64))
            stage.save("labels.npy", np.asarray(hin.label_matrix, dtype=bool))
            if not default_names:
                stage.save("node_names.npy", np.asarray(hin.node_names, dtype=np.str_))
            stage.publish({
                "format_version": STORE_FORMAT_VERSION,
                "n_nodes": n,
                "n_relations": m,
                "n_labels": hin.n_labels,
                "n_features": hin.n_features,
                "relation_names": list(hin.relation_names),
                "label_names": list(hin.label_names),
                "node_names": "default" if default_names else "stored",
                "multilabel": hin.multilabel,
                "metadata": jsonable_metadata(hin.metadata),
                "features": "csr" if features_sparse else "dense",
                "index_dtype": np.dtype(idx_dtype).name,
                "nnz": int(hin.tensor.nnz),
                "relation_nnz": relation_nnz,
                "graph_fingerprint": graph_fingerprint(hin),
            })
        if rec.enabled:
            rec.emit(
                "store_save",
                path=str(directory),
                n_nodes=n,
                n_relations=m,
                nnz=int(hin.tensor.nnz),
                n_files=len(stage.names),
            )
        return cls.open(directory)

    @classmethod
    def open(cls, directory, *, verify: bool = False) -> "GraphStore":
        """Memory-map the store at ``directory``.

        Maps (and checks the size of) every array now, so the store reads
        one version even if the directory is replaced later.
        ``verify=True`` re-hashes every array file against the manifest's
        sha256 fingerprints (streaming, constant memory) and raises
        :class:`ValidationError` naming the first mismatching file —
        the integrity gate for stores that travelled between machines.
        Emits one ``store_open`` obs event.
        """
        manifest = read_manifest(
            directory, MANIFEST_NAME, STORE_FORMAT_VERSION, verify=verify
        )
        store = cls(directory, manifest)
        rec = get_recorder()
        if rec.enabled:
            rec.emit(
                "store_open",
                path=str(directory),
                n_nodes=store.n_nodes,
                n_relations=store.n_relations,
                nnz=store.nnz,
                verified=bool(verify),
            )
        return store

    # ------------------------------------------------------------------
    # Shape / name surface (mirrors HIN)
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        """The store's directory on disk."""
        return self._dir

    @property
    def manifest(self) -> dict:
        """The parsed manifest (treat as read-only)."""
        return self._manifest

    @property
    def n_nodes(self) -> int:
        """Number of nodes ``n``."""
        return int(self._manifest["n_nodes"])

    @property
    def n_relations(self) -> int:
        """Number of link types ``m``."""
        return int(self._manifest["n_relations"])

    @property
    def n_labels(self) -> int:
        """Number of classes ``q``."""
        return int(self._manifest["n_labels"])

    @property
    def n_features(self) -> int:
        """Feature dimensionality ``d``."""
        return int(self._manifest["n_features"])

    @property
    def nnz(self) -> int:
        """Total stored adjacency entries across relations."""
        return int(self._manifest["nnz"])

    @property
    def relation_nnz(self) -> tuple[int, ...]:
        """Stored entries per relation."""
        return tuple(int(v) for v in self._manifest["relation_nnz"])

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Names of the ``m`` link types."""
        return tuple(self._manifest["relation_names"])

    @property
    def label_names(self) -> tuple[str, ...]:
        """Names of the ``q`` classes."""
        return tuple(self._manifest["label_names"])

    @property
    def multilabel(self) -> bool:
        """Whether nodes may carry several labels."""
        return bool(self._manifest["multilabel"])

    @property
    def metadata(self) -> dict:
        """The free-form metadata dict saved with the graph."""
        return self._manifest.get("metadata", {})

    @property
    def has_stored_node_names(self) -> bool:
        """Whether custom node names were saved (vs the ``node_<i>`` default)."""
        return self._manifest.get("node_names") == "stored"

    def node_names(self) -> tuple[str, ...]:
        """All node names as a tuple.

        O(n) strings — call only when the result is genuinely needed
        (result labelling on small stores); million-node fits pass
        ``node_names=None`` through to :class:`TMarkResult` instead.
        """
        if self.has_stored_node_names:
            return tuple(str(v) for v in self._arrays["node_names.npy"])
        return tuple(f"node_{i}" for i in range(self.n_nodes))

    # ------------------------------------------------------------------
    # Memory-mapped array surface
    # ------------------------------------------------------------------
    def relation_arrays(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The mmap'd ``(data, indices, indptr)`` CSC triple of relation ``k``."""
        if not 0 <= k < self.n_relations:
            raise ValidationError(
                f"relation index {k} out of range [0, {self.n_relations})"
            )
        return self._triple(f"rel{k}")

    def _triple(self, prefix: str) -> tuple:
        parts = ("data", "indices", "indptr")
        return tuple(self._arrays[f"{prefix}.{part}.npy"] for part in parts)

    @property
    def label_matrix(self) -> np.ndarray:
        """The mmap'd ``(n, q)`` boolean label matrix (read-only)."""
        return self._arrays["labels.npy"]

    @property
    def features(self):
        """The feature matrix: mmap'd dense array or CSR over mmap'd parts."""
        if self._manifest["features"] == "dense":
            return self._arrays["features.npy"]
        return sp.csr_matrix(
            self._triple("features"), shape=(self.n_nodes, self.n_features)
        )

    @property
    def operators_dir(self) -> Path:
        """Where this store's chunked-operator cache lives."""
        return self._dir / OPERATORS_DIRNAME

    def store_fingerprint(self) -> str:
        """One digest over the manifest's per-file sha256 list.

        Keys the chunked-operator cache: operators built against a store
        whose content later changed are detected and rebuilt.
        """
        digest = hashlib.sha256()
        for name in sorted(self._manifest["files"]):
            digest.update(name.encode("utf-8"))
            digest.update(self._manifest["files"][name].encode("ascii"))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def to_hin(self) -> HIN:
        """Materialise the store as an in-RAM :class:`HIN`.

        Bit-identical to the HIN the store was saved from (tests pin
        this): the tensor values pass through untouched and the CSC
        concatenation order is exactly ``SparseTensor3``'s canonical
        sort.  Intended for small/medium graphs; million-node stores
        should stay on the chunked path.
        """
        n, m = self.n_nodes, self.n_relations
        i_parts, j_parts, k_parts, v_parts = [], [], [], []
        for k in range(m):
            data, indices, indptr = self.relation_arrays(k)
            counts = np.diff(np.asarray(indptr, dtype=np.int64))
            i_parts.append(np.asarray(indices, dtype=np.int64))
            j_parts.append(np.repeat(np.arange(n, dtype=np.int64), counts))
            k_parts.append(np.full(int(counts.sum()), k, dtype=np.int64))
            v_parts.append(np.asarray(data, dtype=np.float64))
        tensor = SparseTensor3(
            np.concatenate(i_parts) if i_parts else np.empty(0, np.int64),
            np.concatenate(j_parts) if j_parts else np.empty(0, np.int64),
            np.concatenate(k_parts) if k_parts else np.empty(0, np.int64),
            np.concatenate(v_parts) if v_parts else np.empty(0, float),
            shape=(n, n, m),
        )
        features = self.features
        if sp.issparse(features):
            parts = tuple(np.array(a) for a in self._triple("features"))
            features = sp.csr_matrix(parts, shape=features.shape)
        else:
            features = np.array(features)
        node_names = self.node_names() if self.has_stored_node_names else None
        return HIN(
            tensor,
            self.relation_names,
            features,
            self.label_matrix,
            self.label_names,
            node_names=node_names,
            multilabel=self.multilabel,
            metadata=self.metadata,
        )

    def __repr__(self) -> str:
        return (
            f"GraphStore({str(self._dir)!r}, n_nodes={self.n_nodes}, "
            f"n_relations={self.n_relations}, n_labels={self.n_labels}, "
            f"nnz={self.nnz})"
        )

