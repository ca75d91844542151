"""Fault-injection tests for the one publish path of the out-of-core tier.

Every writer (``GraphStore.save``, ``generate_ooc_store`` and
``build_chunked_operators``) is made to fail at each file it opens for
writing, in turn.  Afterwards a default ``GraphStore.open`` must see the
complete old store or the complete new one, and the next operator build
must be byte-equal to a clean build.  The fault raises at ``open``,
which every array write (``np.save``, ``open_memmap``) and the manifest
write go through.
"""

import builtins
import io
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core.tmark import TMark
from repro.errors import ValidationError
from repro.ooc import (
    MANIFEST_NAME,
    GraphStore,
    build_chunked_operators,
    generate_ooc_store,
)
from repro.ooc.build import OPERATORS_MANIFEST

from tests.ooc.test_build import cache_bytes
from tests.ooc.test_store import sample_hin


class InjectedFault(OSError):
    pass


@contextmanager
def write_faults(root: Path, fail_at: int | None = None):
    """Count the ``.npy`` / ``.json`` files opened for writing under ``root``.

    Yields the list of opened paths; with ``fail_at`` the open with that
    index raises :class:`InjectedFault` instead of opening the file.
    """
    real_open = builtins.open

    def faulty_open(file, mode="r", *args, **kwargs):
        path = str(file) if isinstance(file, (str, Path)) else ""
        if (
            path.startswith(str(root))
            and (".npy" in path or ".json" in path)
            and any(flag in mode for flag in "wax")
        ):
            opened.append(path)
            if len(opened) - 1 == fail_at:
                raise InjectedFault(28, "injected write fault", path)
        return real_open(file, mode, *args, **kwargs)

    opened: list[str] = []
    builtins.open = io.open = faulty_open
    try:
        yield opened
    finally:
        builtins.open = io.open = real_open


def write_count(root: Path, write) -> int:
    """How many files one clean run of ``write`` opens for writing."""
    with write_faults(root) as opened:
        write()
    assert opened, "the writer opened no file: the fault hook is not reached"
    return len(opened)


@pytest.fixture(scope="module")
def walk_hin(tmp_path_factory):
    """A 60-node HIN with non-negative features, so top-k W has n > k."""
    return generate_ooc_store(
        tmp_path_factory.mktemp("source") / "store",
        n_nodes=60,
        n_links=240,
        n_relations=2,
        n_labels=3,
        n_features=6,
        seed=4,
    ).to_hin()


#: Operator-cache builds as ``build_chunked_operators`` keyword sets.
TOPK5 = dict(similarity_top_k=5)
TOPK10 = dict(similarity_top_k=10)
DENSE = dict(similarity_top_k=None)
NO_W = dict(build_w=False)

#: (cache before, build that fails, label): top-k W, dense W,
#: build_w=False and rebuild=True over an existing cache.
OPERATOR_CASES = [
    (TOPK5, TOPK10, "topk"),
    (TOPK5, DENSE, "dense"),
    (None, NO_W, "no_w"),
    (TOPK5, dict(NO_W, rebuild=True), "rebuild_no_w"),
    (DENSE, dict(DENSE, rebuild=True), "rebuild_dense"),
]


def settings_of(kwargs: dict) -> dict:
    """A build request without ``rebuild`` (the settings it asks for)."""
    return {key: value for key, value in kwargs.items() if key != "rebuild"}


def operator_bytes(store, ops) -> tuple:
    """The cache files ``ops`` reads, by name, and ``W @ X`` on a fixed ``X``.

    A cache that also holds a ``W`` serves a ``build_w=False`` request,
    so the ``w.*`` files count only when ``ops`` carries a ``W``.
    """
    files = cache_bytes(store)
    if ops.w_matrix is None:
        files = {k: v for k, v in files.items() if not k.startswith("w.")}
        return files, b""
    x = np.random.default_rng(0).random((store.n_nodes, 3))
    return files, np.asarray(ops.w_matrix @ x).tobytes()


class TestOperatorCacheFaults:
    @pytest.mark.parametrize(
        "before, failing, label", OPERATOR_CASES, ids=[c[2] for c in OPERATOR_CASES]
    )
    def test_fault_at_every_write(self, tmp_path, walk_hin, before, failing, label):
        clean = {}
        for kwargs in filter(None, (before, failing)):
            store = GraphStore.save(walk_hin, tmp_path / f"clean-{len(clean)}")
            ops = build_chunked_operators(store, **settings_of(kwargs))
            clean[str(settings_of(kwargs))] = operator_bytes(store, ops)

        def fresh(name: str) -> GraphStore:
            store = GraphStore.save(walk_hin, tmp_path / name)
            if before is not None:
                build_chunked_operators(store, **before)
            return store

        probe = fresh("probe")
        writes = write_count(
            probe.directory, lambda: build_chunked_operators(probe, **failing)
        )
        for fault in range(writes):
            store = fresh(f"fault-{fault}")
            with write_faults(store.directory, fail_at=fault):
                with pytest.raises(InjectedFault):
                    build_chunked_operators(store, **failing)
            # The next build of either request reuses an intact cache or
            # rebuilds; both must equal a clean build byte for byte.
            for kwargs in filter(None, (before, failing)):
                ops = build_chunked_operators(store, **settings_of(kwargs))
                got = operator_bytes(store, ops)
                assert got == clean[str(settings_of(kwargs))], (label, fault)


def published_state(directory: Path):
    """What a default open serves: the manifest's records and the graph."""
    store = GraphStore.open(directory)
    hin = store.to_hin()
    i, j, k = hin.tensor.coords
    features = hin.features
    features = features.toarray() if hasattr(features, "toarray") else features
    arrays = (i, j, k, hin.tensor.values, features, hin.label_matrix)
    return (
        store.manifest["files"],
        hin.node_names,
        hin.multilabel,
        tuple(np.asarray(a).tobytes() for a in arrays),
    )


def assert_old_or_new(directory: Path, old, new, context) -> None:
    """A default open serves exactly ``old`` or ``new``, files intact."""
    state = published_state(directory)
    assert state in (old, new), context
    GraphStore.open(directory, verify=True)


class TestStoreFaults:
    def test_save_over_existing_store(self, tmp_path):
        old_hin = sample_hin()
        new_hin = sample_hin(sparse_features=True, multilabel=True)
        GraphStore.save(old_hin, tmp_path / "old")
        GraphStore.save(new_hin, tmp_path / "new")
        old = published_state(tmp_path / "old")
        new = published_state(tmp_path / "new")
        assert old != new
        writes = write_count(
            tmp_path, lambda: GraphStore.save(new_hin, tmp_path / "probe")
        )
        for fault in range(writes):
            target = tmp_path / f"fault-{fault}"
            store = GraphStore.save(old_hin, target)
            build_chunked_operators(store, build_w=False)
            cached = cache_bytes(store)
            with write_faults(tmp_path, fail_at=fault):
                with pytest.raises(InjectedFault):
                    GraphStore.save(new_hin, target)
            assert_old_or_new(target, old, new, fault)
            # The old store keeps its operator cache, and the next build
            # reuses it.
            build_chunked_operators(GraphStore.open(target), build_w=False)
            assert cache_bytes(store) == cached
            assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]

    def test_synth_over_existing_store(self, tmp_path):
        shape = dict(n_nodes=50, n_links=120, n_relations=2, n_labels=2,
                     n_features=4)
        generate_ooc_store(tmp_path / "old", seed=1, **shape)
        generate_ooc_store(tmp_path / "new", seed=2, **shape)
        old = published_state(tmp_path / "old")
        new = published_state(tmp_path / "new")
        assert old != new
        writes = write_count(
            tmp_path, lambda: generate_ooc_store(tmp_path / "probe", seed=2, **shape)
        )
        for fault in range(writes):
            target = tmp_path / f"fault-{fault}"
            generate_ooc_store(target, seed=1, **shape)
            with write_faults(tmp_path, fail_at=fault):
                with pytest.raises(InjectedFault):
                    generate_ooc_store(target, seed=2, **shape)
            assert_old_or_new(target, old, new, fault)
            assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]

    def test_completed_save_replaces_the_whole_directory(self, tmp_path):
        target = tmp_path / "store"
        store = GraphStore.save(sample_hin(), target)
        build_chunked_operators(store, build_w=False)
        GraphStore.save(sample_hin(sparse_features=True), target)
        assert not (target / "features.npy").exists()
        assert not (target / "operators").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]


class TestHeldOpen:
    """Operators and memmaps opened before a rebuild keep their bytes."""

    def test_fit_operators_survive_rebuild_and_resave(self, tmp_path, walk_hin):
        store = GraphStore.save(walk_hin, tmp_path / "store")
        ops = build_chunked_operators(store, similarity_top_k=5)
        labels = np.asarray(walk_hin.label_matrix)
        kwargs = dict(
            label_names=store.label_names, relation_names=store.relation_names
        )
        model = TMark(alpha=0.8, gamma=0.5, similarity_top_k=5)

        def scores() -> bytes:
            fitted = model.fit_operators(ops, labels, **kwargs)
            return fitted.result_.node_scores.tobytes()

        before = scores()
        build_chunked_operators(store, similarity_top_k=10)
        assert scores() == before
        resaved = GraphStore.save(sample_hin(), tmp_path / "store")
        build_chunked_operators(resaved, similarity_top_k=2)
        assert scores() == before

    def test_store_memmaps_survive_resave(self, tmp_path, walk_hin):
        store = GraphStore.save(walk_hin, tmp_path / "store")
        data, indices, indptr = store.relation_arrays(0)
        copies = [np.array(a) for a in (data, indices, indptr, store.features)]
        GraphStore.save(sample_hin(), tmp_path / "store")
        for held, copy in zip((data, indices, indptr, store.features), copies):
            assert np.array_equal(held, copy)
        # Arrays first touched after the re-save come from the old version
        # too: the store mapped every array when it was opened.
        assert np.array_equal(store.label_matrix, walk_hin.label_matrix)
        assert store.to_hin().tensor == walk_hin.tensor


class TestReader:
    def test_manifest_without_sizes_opens(self, tmp_path):
        # Stores written before sizes were recorded carry only digests.
        GraphStore.save(sample_hin(), tmp_path / "store")
        path = tmp_path / "store" / MANIFEST_NAME
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["sizes"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        GraphStore.open(tmp_path / "store", verify=True)

    def test_truncated_array_refused(self, tmp_path):
        GraphStore.save(sample_hin(), tmp_path / "store")
        target = tmp_path / "store" / "labels.npy"
        target.write_bytes(target.read_bytes()[:-1])
        with pytest.raises(ValidationError, match="torn or modified"):
            GraphStore.open(tmp_path / "store")

    def test_truncated_cache_is_rebuilt(self, tmp_path):
        store = GraphStore.save(sample_hin(), tmp_path / "store")
        build_chunked_operators(store, build_w=False)
        clean = cache_bytes(store)
        target = store.operators_dir / "o.data.npy"
        target.write_bytes(target.read_bytes()[:-8])
        manifest = store.operators_dir / OPERATORS_MANIFEST
        assert json.loads(manifest.read_text(encoding="utf-8"))["sizes"]
        build_chunked_operators(store, build_w=False)
        assert cache_bytes(store) == clean

    def test_saves_into_an_empty_directory(self, tmp_path):
        (tmp_path / "empty").mkdir()
        GraphStore.save(sample_hin(), tmp_path / "empty")
        GraphStore.open(tmp_path / "empty", verify=True)


def tree(directory: Path) -> dict:
    """Every file under ``directory`` with its bytes."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


#: Directories that are not stores: name -> {file: bytes}.
FOREIGN = {
    "notes": {"notes.txt": b"keep me"},
    "bad_json_manifest": {MANIFEST_NAME: b"{not json", "a.npy": b"x"},
    "other_manifest": {MANIFEST_NAME: b'{"name": "my project"}'},
    "manifest_without_records": {MANIFEST_NAME: b'{"format_version": 1}'},
    "unrecorded_file": {
        MANIFEST_NAME: b'{"format_version": 1, "files": {"a.npy": "0"}}',
        "a.npy": b"x",
        "b.npy": b"y",
    },
    "only_arrays": {"mine.npy": b"x"},
    "subdirectory": {"data/mine.npy": b"x"},
}


class TestRefusal:
    """Only a directory shown to be a store or cache is ever replaced."""

    def populate(self, directory: Path, files: dict) -> None:
        for name, content in files.items():
            (directory / name).parent.mkdir(parents=True, exist_ok=True)
            (directory / name).write_bytes(content)

    @pytest.mark.parametrize("case", sorted(FOREIGN))
    def test_writers_refuse_a_foreign_directory(self, tmp_path, case):
        target = tmp_path / "mine"
        self.populate(target, FOREIGN[case])
        before = tree(target)
        with pytest.raises(ValidationError, match="refusing to replace"):
            GraphStore.save(sample_hin(), target)
        with pytest.raises(ValidationError, match="refusing to replace"):
            generate_ooc_store(target, n_nodes=20, n_links=40, n_relations=1,
                               n_labels=2, n_features=2, seed=1)
        assert tree(target) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mine"]

    def test_run_example_keeps_a_foreign_manifest(self, tmp_path):
        from repro.experiments.runners import run_example

        target = tmp_path / "mine"
        self.populate(target, FOREIGN["other_manifest"])
        with pytest.raises(ValidationError, match="refusing to replace"):
            run_example(store=str(target))
        assert tree(target) == {MANIFEST_NAME: b'{"name": "my project"}'}

    def test_cli_reports_a_refused_target(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        target = tmp_path / "mine"
        self.populate(target, FOREIGN["notes"])
        for argv in (["store", "synth", str(target), "--nodes", "20"],
                     ["store", "build", str(target), "--dataset", "acm",
                      "--scale", "0.05"]):
            assert main(argv) == 5
            out = capsys.readouterr().out
            assert out.startswith("cannot write store: refusing to replace")
        assert tree(target) == {"notes.txt": b"keep me"}

    def test_store_keeps_cache_leftovers_replaceable(self, tmp_path):
        # A cache build killed mid-write leaves .operators.staging in the
        # store; re-saving the store replaces it along with the rest.
        store = GraphStore.save(sample_hin(), tmp_path / "store")
        (store.directory / ".operators.staging" / "scratch").mkdir(parents=True)
        GraphStore.save(sample_hin(), tmp_path / "store")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]

    def test_cache_written_in_place_is_replaced(self, tmp_path):
        # An earlier in-place cache writer left bare arrays (and maybe its
        # manifest) in operators/: the cache is replaced, not refused.
        store = GraphStore.save(sample_hin(), tmp_path / "store")
        clean = GraphStore.save(sample_hin(), tmp_path / "clean")
        build_chunked_operators(clean, build_w=False)
        store.operators_dir.mkdir()
        np.save(store.operators_dir / "o.indptr.npy", np.zeros(3))
        (store.operators_dir / OPERATORS_MANIFEST).write_text(
            '{"format_version": 2}', encoding="utf-8"
        )
        build_chunked_operators(store, build_w=False)
        assert cache_bytes(store) == cache_bytes(clean)


class TestSwap:
    """The two renames that swap a published directory in."""

    def test_failed_second_rename_restores_the_old_directory(
        self, tmp_path, monkeypatch
    ):
        import repro.ooc.publish as publish

        target = tmp_path / "store"
        GraphStore.save(sample_hin(), target)
        old = published_state(target)
        real_rename = os.rename
        renames = []

        def failing_rename(src, dst):
            renames.append(src)
            if len(renames) == 2:
                raise InjectedFault(28, "injected rename fault", str(src))
            real_rename(src, dst)

        monkeypatch.setattr(publish.os, "rename", failing_rename)
        with pytest.raises(InjectedFault):
            GraphStore.save(sample_hin(sparse_features=True), target)
        monkeypatch.undo()
        assert published_state(target) == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]

    def test_kill_between_renames_is_recovered(self, tmp_path):
        # A writer killed between its renames (no __exit__) leaves the
        # old store at .store.old, nothing at the path and its staging.
        target = tmp_path / "store"
        GraphStore.save(sample_hin(), target)
        old = published_state(target)
        os.rename(target, tmp_path / ".store.old")
        (tmp_path / ".store.staging").mkdir()
        with pytest.raises(ValidationError, match=r"\.store\.old"):
            GraphStore.open(target)
        new_hin = sample_hin(sparse_features=True)
        GraphStore.save(new_hin, target)
        assert published_state(target) != old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]

    def test_leftovers_of_a_killed_writer_are_removed(self, tmp_path):
        # Killed after the swap (old version left) and killed while
        # staging (staging left): the next write removes both, whatever
        # the number of retries.
        target = tmp_path / "store"
        GraphStore.save(sample_hin(), target)
        (tmp_path / ".store.old").mkdir()
        (tmp_path / ".store.staging").mkdir()
        np.save(tmp_path / ".store.staging" / "rel0.data.npy", np.ones(4))
        for _ in range(2):
            GraphStore.save(sample_hin(), target)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]
