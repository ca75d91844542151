"""The traced per-layer table.

Each probe times calls into one module's public functions from outside
(no instrumentation inside ``src/``) or reads the events the program
already emits into a recorder passed to ``fit``.  Every row names the
end-to-end metric, and the workload, it should move
(:data:`LAYER_TABLE`); ``README.md`` carries the same table.

Problem sizes come from the workloads (:mod:`perfbench.workloads`) and
the run's seed, so a traced run measures the layers on the inputs the
timed runs use.  Byte and flop counts are computed from array sizes,
not measured, and are named ``*_computed``.
"""

from __future__ import annotations

import itertools
import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from perfbench.harness import (
    Metric,
    Tally,
    in_child,
    median,
    peak_rss_since_reset_mb,
    reset_peak_rss,
)
from perfbench.inputs import StoreSpec, cached_store, label_mask, make_hin, workload_rng
from perfbench.workloads import (
    CLASSIFY_BATCH,
    DENSE_FIT,
    SERVE_MODEL,
    SPARSE_FIT,
    Client,
    DaemonProcess,
    fit_problems,
    serve_batches,
    serve_graph,
)
from repro.core.features import feature_transition_matrix
from repro.core.tmark import TMark
from repro.obs import ListRecorder
from repro.ooc import build_chunked_operators, fit_from_store
from repro.serve import Snapshot
from repro.stream import StreamingSession, synthetic_delta_log

_FITS = "op_p50_ms on dense_fit and sparse_fit"
_DENSE = "setup_s, peak_rss_mb, op_p50_ms on dense_fit; update_visible_p50_ms on serve_mixed"
_SPARSE = "setup_s, peak_rss_mb, op_p50_ms on sparse_fit"
_UPDATE = "update_visible_p50_ms on serve_mixed"
_SERVE = "op_p50_ms and update_visible_p50_ms on serve_mixed"
_STORE = "none gated: store_fit is not a timed workload (see README.md)"
_SHARD = "none gated: would move op_p50_ms on sparse_fit only if sharding became the default"

#: name -> (unit, better, the end-to-end metric and workload it should move)
LAYER_TABLE = {
    "tmark.label_update_ms": ("ms", "lower", _FITS),
    "tmark.o_propagation_ms": ("ms", "lower", _FITS),
    "tmark.feature_walk_ms": ("ms", "lower", _FITS),
    "tmark.r_contraction_ms": ("ms", "lower", _FITS),
    "tmark.projection_ms": ("ms", "lower", _FITS),
    "tmark.iterations": ("count", "lower", _FITS),
    "tmark.phase_coverage": ("fraction", "higher", _FITS),
    "obs.trace_overhead_frac": ("fraction", "lower", "op_p50_ms of the traced workload"),
    "features.build_s": ("s", "lower", _DENSE),
    "features.w_mb": ("MB", "lower", _DENSE),
    "features.walk_ms": ("ms", "lower", _DENSE),
    "features.walk_flops_computed": ("flop", "lower", _DENSE),
    "tensor.build_s": ("s", "lower", _SPARSE),
    "tensor.build_peak_mb": ("MB", "lower", _SPARSE),
    "tensor.build_peak_mb.half": ("MB", "lower", _SPARSE),
    "tensor.o_propagate_ms": ("ms", "lower", _SPARSE),
    "tensor.r_propagate_ms": ("ms", "lower", _SPARSE),
    "tensor.o_bytes_computed": ("B", "lower", _SPARSE),
    "tensor.r_bytes_computed": ("B", "lower", _SPARSE),
    "solvers.iterations_plain": ("count", "lower", _UPDATE),
    "solvers.iterations_anderson": ("count", "lower", _UPDATE),
    "solvers.accept_frac": ("fraction", "higher", _UPDATE),
    "stream.patch_ms": ("ms", "lower", _UPDATE),
    "stream.reconverge_ms": ("ms", "lower", _UPDATE),
    "stream.reconverge_iterations": ("count", "lower", _UPDATE),
    "serve.snapshot_build_ms": ("ms", "lower", _SERVE),
    "serve.classify_ms": ("ms", "lower", _SERVE),
    "serve.http_overhead_ms": ("ms", "lower", _SERVE),
    "serve.journal_save_ms.len100": ("ms", "lower", _UPDATE),
    "serve.journal_save_ms.len1000": ("ms", "lower", _UPDATE),
    "ooc.build_s": ("s", "lower", _STORE),
    "ooc.propagate_ms": ("ms", "lower", _STORE),
    "ooc.fit_sys_frac": ("fraction", "lower", _STORE),
    "shard.serial_fit_ms": ("ms", "lower", _SHARD),
    "shard.fit_ms": ("ms", "lower", _SHARD),
    "shard.speedup": ("x", "higher", _SHARD),
    "shard.exchange_ms": ("ms", "lower", _SHARD),
    "shard.exchange_bytes": ("B", "lower", _SHARD),
    "shard.scores_identical": ("bool", "higher", _SHARD),
}

#: The out-of-core graph: ~100k nodes, ~800k links, q=4.
STORE_SPEC = StoreSpec(
    n_nodes=100_000, n_links=800_000, n_relations=2, n_labels=4,
    n_features=16, homophily=0.5, feature_noise=0.3,
)
SHARDS = 2


def _row(name: str, value: float, samples: int = 1) -> tuple[str, Metric]:
    return name, Metric(float(value), LAYER_TABLE[name][0], samples)


def _timed(fn, repeats: int) -> float:
    """Median wall time of ``repeats`` calls to ``fn``, in seconds."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return median(times)


def _uniform_columns(n: int, q: int) -> np.ndarray:
    return np.full((n, q), 1.0 / n)


def features_rows(seed: int) -> dict:
    """``W`` build, size and one ``W @ X`` walk on the dense_fit graph."""
    hin = make_hin(DENSE_FIT.spec, workload_rng(DENSE_FIT.name, seed, "graph"))
    build_s = _timed(lambda: feature_transition_matrix(hin.features), 3)
    w = feature_transition_matrix(hin.features)
    n, q = hin.n_nodes, hin.n_labels
    x = _uniform_columns(n, q)
    return dict([
        _row("features.build_s", build_s, 3),
        _row("features.w_mb", w.nbytes / 2**20),
        _row("features.walk_ms", _timed(lambda: w @ x, 30) * 1e3, 30),
        _row("features.walk_flops_computed", 2.0 * n * n * q),
    ])


def _csr_bytes(matrix) -> int:
    return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes


def _measured_build(hin):
    """sparse_fit's O/R build, with its seconds and peak RSS growth in MB."""
    base = reset_peak_rss()
    started = time.perf_counter()
    operators = SPARSE_FIT.build(hin)
    seconds = time.perf_counter() - started
    return operators, seconds, peak_rss_since_reset_mb() - base


def _build_peak_child(hin) -> float:
    return _measured_build(hin)[2]


def _sparse_child(hin, mask, all_cpus) -> dict:
    """Tensor build, propagation and sharded-fit probes on the sparse_fit graph."""
    operators, seconds, peak = _measured_build(hin)
    o_tensor, r_tensor = operators.o_tensor, operators.r_tensor
    n, _, m = o_tensor.shape
    q = hin.n_labels
    x, z = _uniform_columns(n, q), np.full((m, q), 1.0 / m)
    dense_bytes = x.nbytes
    o_slices = [o_tensor.relation_slice(k) for k in range(m)]
    r_slices = list(r_tensor.row_blocks(0, n)) + [r_tensor.pair_rows(0, n)]
    rows = dict([
        _row("tensor.build_s", seconds),
        _row("tensor.build_peak_mb", peak),
        _row("tensor.o_propagate_ms", _timed(lambda: o_tensor.propagate_many(x, z), 20) * 1e3, 20),
        _row("tensor.r_propagate_ms", _timed(lambda: r_tensor.propagate_many(x, x), 20) * 1e3, 20),
        # Per slice: read the sparse operand and X, write the product and
        # read-modify-write the accumulator.
        _row("tensor.o_bytes_computed",
             sum(_csr_bytes(s) for s in o_slices) + len(o_slices) * 4 * dense_bytes),
        _row("tensor.r_bytes_computed",
             sum(_csr_bytes(s) for s in r_slices) + len(r_slices) * 4 * dense_bytes),
    ])

    # Sharded vs serial fit of one mask, on every CPU the run may use.
    os.sched_setaffinity(0, all_cpus)
    train = hin.masked(mask)
    fits = {}

    def fit(shards=None, recorder=None):
        model = TMark(**SPARSE_FIT.model)
        model.fit(train, operators=operators, shards=shards,
                  workers=shards, recorder=recorder)
        fits[shards] = model.result_

    serial = _timed(fit, 3)
    sharded = _timed(lambda: fit(SHARDS), 3)
    recorder = ListRecorder(probes=False)
    fit(SHARDS, recorder)
    exchanges = recorder.events_of("boundary_exchange")
    identical = all(
        np.array_equal(getattr(fits[None], f), getattr(fits[SHARDS], f))
        for f in ("node_scores", "relation_scores")
    )
    rows.update([
        _row("shard.serial_fit_ms", serial * 1e3, 3),
        _row("shard.fit_ms", sharded * 1e3, 3),
        _row("shard.speedup", serial / sharded),
        _row("shard.exchange_ms", sum(e["seconds"] for e in exchanges) * 1e3, len(exchanges)),
        _row("shard.exchange_bytes", sum(e["bytes_exchanged"] for e in exchanges), len(exchanges)),
        _row("shard.scores_identical", float(identical)),
    ])
    return {"rows": rows, "problems": fit_problems(fits[None]) + fit_problems(fits[SHARDS])}


def sparse_rows(seed: int, tally: Tally, all_cpus) -> dict:
    """The tensor and shard layers, each build in a fresh process.

    Each build runs in its own forked child so its RSS high-water mark is
    its own; the half-size graph shows how the build's peak grows with n.
    """
    spec = SPARSE_FIT.spec
    hin = make_hin(spec, workload_rng(SPARSE_FIT.name, seed, "graph"))
    half = make_hin(
        replace(spec, n_nodes=spec.n_nodes // 2),
        workload_rng(SPARSE_FIT.name, seed, "half-graph"),
    )
    half_peak = in_child(_build_peak_child, half)
    mask = label_mask(
        hin.n_nodes, SPARSE_FIT.label_fraction, hin.y,
        workload_rng(SPARSE_FIT.name, seed, "shard-mask"),
    )
    probe = in_child(_sparse_child, hin, mask, all_cpus)
    rows = probe["rows"]
    identical = rows["shard.scores_identical"].value == 1.0
    tally.record(probe["problems"] + ([] if identical else ["sharded scores differ from serial"]))
    rows.update([_row("tensor.build_peak_mb.half", half_peak)])
    return rows


def serving_rows(seed: int, tally: Tally, cache_dir: Path) -> dict:
    """Solver, stream and serve layers on the serve_mixed graph."""
    hin, _, _ = serve_graph(seed)
    rows = {}

    # Solvers: the same problem, plain vs Anderson, at tol 1e-8.
    iterations = {}
    for solver in ("plain", "anderson"):
        recorder = ListRecorder(probes=False)
        model = TMark(**{**SERVE_MODEL, "solver": solver, "tol": 1e-8})
        model.fit(hin, recorder=recorder)
        tally.record(fit_problems(model.result_))
        iterations[solver] = max(h.n_iterations for h in model.result_.histories)
    steps = len(recorder.events_of("solver_step"))
    rejected = sum(
        1 for e in recorder.events_of("solver_restart") if e["reason"] == "safeguard"
    )
    rows.update([
        _row("solvers.iterations_plain", iterations["plain"]),
        _row("solvers.iterations_anderson", iterations["anderson"]),
        _row("solvers.accept_frac", steps / max(steps + rejected, 1), steps + rejected),
    ])

    # Serve: snapshot build and in-process classify, then the same
    # request over HTTP to a daemon child serving the same seed graph.
    session = StreamingSession(hin, TMark(**SERVE_MODEL))
    session.fit()
    rng = workload_rng("serve_mixed", seed, "layer-reads")
    name_sets = [
        [hin.node_names[i] for i in rng.choice(hin.n_nodes, CLASSIFY_BATCH, replace=False)]
        for _ in range(100)
    ]
    snapshot = Snapshot.from_session(session)
    next_names = itertools.cycle(name_sets)
    classify_s = _timed(lambda: snapshot.classify(next(next_names)), 50)
    with DaemonProcess(hin) as daemon:
        client = Client(daemon.port)
        http_times = []
        for names in name_sets:
            started = time.perf_counter()
            status, _ = client.request("POST", "/classify", {"nodes": names})
            http_times.append(time.perf_counter() - started)
            tally.record([] if status == 200 else [f"/classify returned {status}"])
        client.close()
    rows.update([
        _row("serve.snapshot_build_ms", _timed(lambda: Snapshot.from_session(session), 20) * 1e3, 20),
        _row("serve.classify_ms", classify_s * 1e3, 50),
        _row("serve.http_overhead_ms", (median(http_times) - classify_s) * 1e3, len(http_times)),
    ])

    # Journal: DeltaLog.save rewrites the whole file, so its cost grows
    # with the journal's length.
    cache_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache_dir) as scratch:
        for length in (100, 1000):
            log = synthetic_delta_log(
                hin, length, seed=workload_rng("serve_mixed", seed, f"journal-{length}")
            )
            path = Path(scratch) / f"journal-{length}.jsonl"
            rows.update([
                _row(f"serve.journal_save_ms.len{length}", _timed(lambda: log.save(path), 5) * 1e3, 5)
            ])

    # Stream: operator patch and warm reconverge per applied batch.
    updates = [session.apply(batch) for batch in serve_batches(hin, seed, 10)]
    tally.record(fit_problems(session.result))
    rows.update([
        _row("stream.patch_ms", median([u.apply_seconds for u in updates]) * 1e3, len(updates)),
        _row("stream.reconverge_ms", median([u.fit_seconds for u in updates]) * 1e3, len(updates)),
        _row("stream.reconverge_iterations", median([u.iterations for u in updates]), len(updates)),
    ])
    return rows


def store_rows(seed: int, tally: Tally, cache_dir: Path) -> dict:
    """Out-of-core build, propagation and fit on the ~100k-node store."""
    store = cached_store(STORE_SPEC, seed, cache_dir)
    build_s = _timed(
        lambda: build_chunked_operators(store, build_w=False, rebuild=True), 3
    )
    operators = build_chunked_operators(store, build_w=False)
    n, q, m = store.n_nodes, store.n_labels, store.n_relations
    x, z = _uniform_columns(n, q), np.full((m, q), 1.0 / m)
    propagate_s = _timed(lambda: operators.o_tensor.propagate_many(x, z), 5)

    truth = np.load(store.directory / "ground_truth.npy")
    mask = label_mask(n, 0.1, truth, workload_rng("store_fit", seed, "mask"))
    labels = np.zeros((n, q), dtype=bool)
    labels[np.flatnonzero(mask), truth[mask]] = True
    before = os.times()
    model = fit_from_store(store, TMark(alpha=0.8, gamma=0.0), labels=labels)
    after = os.times()
    tally.record(fit_problems(model.result_))
    user, system = after.user - before.user, after.system - before.system
    return dict([
        _row("ooc.build_s", build_s, 3),
        _row("ooc.propagate_ms", propagate_s * 1e3, 5),
        _row("ooc.fit_sys_frac", system / (user + system)),
    ])


def measure(seed: int, cache_dir: Path, tally: Tally, *, all_cpus) -> dict:
    """Every layer row that does not come from the workload's own ops."""
    rows = {}
    rows.update(features_rows(seed))
    rows.update(sparse_rows(seed, tally, all_cpus))
    rows.update(serving_rows(seed, tally, cache_dir))
    rows.update(store_rows(seed, tally, cache_dir))
    return rows
