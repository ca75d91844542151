"""Sharded-fit benchmark: shard workers must pay for themselves.

:meth:`TMark.fit` with ``shards=K, workers=N`` dispatches the
per-iteration O-propagation / R-contraction products to fork workers
(:mod:`repro.shard`).  Every worker computes complete output rows
with the exact serial operation sequence, so the
sharded fit is *bit-identical* to the serial one — sharding buys
wall-clock only.  This bench pins both halves of that promise on a
``q = 8`` synthetic workload (~30k nodes, ~900k links):

1. **Same answers, always.**  The 4-shard stationary scores must match
   the serial ones bit-for-bit (``scores_identical``), and an
   ``anderson``-accelerated sharded fit must predict the same classes
   as its serial twin (``argmax_identical_anderson``) — on any machine,
   gating nothing.
2. **Speedup >= 1.8x, when the cores exist.**  With at least 4 usable
   cores, the 4-worker sharded fit must run at least 1.8x faster than
   the serial loop.  On smaller machines (CI runners with 1-2 cores)
   the timing half is recorded but not asserted — the entry's
   ``multicore`` field gates the guard (see
   ``benchmarks/check_trajectory.py``).

Results append to ``BENCH_sharded_fit.json`` at the repo root.

Run standalone (nightly CI does this)::

    PYTHONPATH=src python -m benchmarks.bench_sharded_fit --assert

or under pytest as part of the bench suite.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.tmark import TMark, TMarkOperators
from repro.datasets.synthetic import RelationSpec, make_synthetic_hin
from repro.forkpool import available_workers, fork_available
from repro.tensor.transition import build_transition_tensors

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_sharded_fit.json"

#: Shards and workers used for the sharded half of the comparison.
N_SHARDS = 4

#: The timing guard only applies when N_SHARDS workers can actually run
#: concurrently.
SPEEDUP_FLOOR = 1.8


def _workload(seed: int = 0, n_nodes: int = 30_000, n_classes: int = 8):
    """A large sparse HIN: the propagation products dominate the fit."""
    label_names = [f"c{c}" for c in range(n_classes)]
    hin = make_synthetic_hin(
        n_nodes,
        label_names,
        [
            RelationSpec("cites", n_links=18 * n_nodes, homophily=0.85),
            RelationSpec("co_author", n_links=12 * n_nodes, homophily=0.75),
        ],
        vocab_size=100,
        seed=seed,
    )
    # gamma=0 never touches W, so build only the (O, R) pair — the
    # default build_operators would materialise a dense 30k x 30k
    # similarity matrix (7.2 GB) the fit then ignores.  Sharing one
    # operator triple across every fit keeps the timings about the
    # chain loop, not the build.
    o_tensor, r_tensor = build_transition_tensors(hin.tensor)
    operators = TMarkOperators(
        o_tensor=o_tensor,
        r_tensor=r_tensor,
        w_matrix=None,
        shape=(hin.n_nodes, hin.n_relations),
        similarity_top_k=None,
        similarity_metric="cosine",
    )
    return hin, operators


def _fit(hin, operators, *, solver="plain", shards=None, workers=None):
    # gamma=0: the O / R products are the sharded hot path under test.
    model = TMark(alpha=0.85, gamma=0.0, tol=1e-8, max_iter=60, solver=solver)
    model.fit(hin, operators=operators, shards=shards, workers=workers)
    return model


def run_bench(seed: int = 0, assert_results: bool = True) -> dict:
    """Fit serially and with 4 shard workers; record the comparison."""
    hin, operators = _workload(seed)
    multicore = fork_available() and available_workers() >= N_SHARDS

    # Warm the kernels (one fit) outside the timings.
    _fit(hin, operators)

    # Best-of-repeats per path, so one background-load spike does not
    # decide the comparison.
    repeats = 2
    serial_seconds, serial = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        model = _fit(hin, operators)
        serial_seconds = min(serial_seconds, time.perf_counter() - started)
        serial = model

    sharded_seconds, sharded = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        model = _fit(hin, operators, shards=N_SHARDS, workers=N_SHARDS)
        sharded_seconds = min(sharded_seconds, time.perf_counter() - started)
        sharded = model

    scores_identical = bool(
        np.array_equal(
            serial.result_.node_scores, sharded.result_.node_scores
        )
        and np.array_equal(
            serial.result_.relation_scores, sharded.result_.relation_scores
        )
    )

    serial_anderson = _fit(hin, operators, solver="anderson")
    sharded_anderson = _fit(
        hin, operators, solver="anderson", shards=N_SHARDS, workers=N_SHARDS
    )
    argmax_identical_anderson = bool(
        np.array_equal(serial_anderson.predict(), sharded_anderson.predict())
    )
    speedup = serial_seconds / sharded_seconds

    results = {
        "n_nodes": hin.n_nodes,
        "n_classes": hin.n_labels,
        "n_shards": N_SHARDS,
        "usable_cores": available_workers(),
        "multicore": bool(multicore),
        "serial_seconds": serial_seconds,
        "sharded_seconds": sharded_seconds,
        "speedup": speedup,
        "scores_identical": scores_identical,
        "argmax_identical_anderson": argmax_identical_anderson,
        "iterations": max(
            h.n_iterations for h in serial.result_.histories
        ),
    }
    _record(results)
    if assert_results:
        assert scores_identical, (
            f"{N_SHARDS}-shard fit diverged bitwise from the serial fit "
            f"on {hin.n_nodes} nodes"
        )
        assert argmax_identical_anderson, (
            f"{N_SHARDS}-shard anderson fit predicts different classes "
            "than the serial anderson fit"
        )
        if multicore:
            assert speedup >= SPEEDUP_FLOOR, (
                f"{N_SHARDS}-worker sharded fit only {speedup:.2f}x faster "
                f"than serial (required: >= {SPEEDUP_FLOOR}x on "
                f"{available_workers()} cores)"
            )
    return results


def _record(results: dict) -> Path:
    """Append one entry to the ``BENCH_sharded_fit.json`` trajectory."""
    if BENCH_PATH.exists():
        payload = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    else:
        payload = {
            "bench": "sharded_fit",
            # Nightly CI re-checks every entry against these bounds
            # (benchmarks/check_trajectory.py).  The identity guards are
            # ungated — bit-identity holds on any machine; the speedup
            # guard is gated on the entry's ``multicore`` flag.
            "guards": [
                {"field": "scores_identical", "equals": True},
                {"field": "argmax_identical_anderson", "equals": True},
                {"field": "speedup", "min": SPEEDUP_FLOOR, "gate": "multicore"},
            ],
            "entries": [],
        }
    entry = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), **results}
    payload["entries"].append(entry)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return BENCH_PATH


def test_sharded_fit_identical():
    """Bench-suite entry: bit-identical scores (+ speedup on multicore)."""
    results = run_bench(assert_results=True)
    assert results["scores_identical"]
    assert results["argmax_identical_anderson"]


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--assert",
        dest="assert_results",
        action="store_true",
        help="fail (non-zero exit) when a threshold is violated",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    results = run_bench(seed=args.seed, assert_results=args.assert_results)
    for key, value in results.items():
        print(f"{key}: {value}")
    print(f"[recorded -> {BENCH_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
