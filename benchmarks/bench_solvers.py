"""Solver benchmark: acceleration must pay for itself on slow chains.

The :mod:`repro.solvers` accelerator promises two things (see the
package docstring): accelerated fits land on the *same* stationary point
as the plain power iteration (argmax-identical predictions), and on
slow-mixing chains they get there in materially fewer iterations.  This
bench pins both on a deliberately slow workload: a strongly homophilous
two-relation HIN with a tiny restart weight (``alpha = 0.01``), whose
per-class chains decay at rate ~0.93 — about 30 plain iterations per
residual decade at ``tol = 1e-10``.

1. **Same answers, always.**  The accelerated fit's node argmax must
   match the plain fit exactly, and every chain must converge.
2. **Anderson cuts iterations by >= 1.5x.**  Total chain iterations
   (summed over classes) under ``solver="anderson"`` must be at least
   :data:`REDUCTION_FLOOR` times fewer than plain.  (Measured ~11x;
   the floor is the ISSUE's acceptance threshold, kept loose so noisy
   CI machines never flake on it.)

Entries recorded before ``solver="auto"`` was deleted also carry
``auto_*`` fields; new entries measure Anderson only.

Results append to ``BENCH_solvers.json`` at the repo root.

Run standalone (nightly CI does this)::

    PYTHONPATH=src python -m benchmarks.bench_solvers --assert

or under pytest as part of the bench suite.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.tmark import TMark
from repro.datasets.synthetic import RelationSpec, make_synthetic_hin

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_solvers.json"

#: Anderson must need at least this factor fewer total iterations.
REDUCTION_FLOOR = 1.5

#: The accelerated solvers measured against the plain baseline.
ACCELERATED = ("anderson",)

#: Chain hyper-parameters: a tiny restart weight makes the walk nearly
#: periodic on the homophilous graph, which is exactly the slow-mixing
#: regime the solvers exist for.
ALPHA, GAMMA, TOL, MAX_ITER = 0.01, 0.5, 1e-10, 6000


def _workload(seed: int = 7, n_nodes: int = 80):
    """A strongly homophilous 3-class HIN whose chains mix slowly."""
    return make_synthetic_hin(
        n_nodes,
        ["a", "b", "c"],
        [
            RelationSpec("strong", n_links=4 * n_nodes, homophily=0.98),
            RelationSpec("weak", n_links=n_nodes, homophily=0.95),
        ],
        feature_noise=0.05,
        seed=seed,
    )


def _fit(hin, solver: str):
    """Fit one solver; return (total iterations, argmax, seconds, ok)."""
    model = TMark(
        alpha=ALPHA,
        gamma=GAMMA,
        tol=TOL,
        max_iter=MAX_ITER,
        update_labels=False,
        solver=solver,
    )
    started = time.perf_counter()
    model.fit(hin)
    seconds = time.perf_counter() - started
    result = model.result_
    iterations = sum(h.n_iterations for h in result.histories)
    converged = all(h.converged for h in result.histories)
    return iterations, result.node_scores.argmax(axis=1), seconds, converged


def run_bench(seed: int = 7, assert_results: bool = True) -> dict:
    """Fit the slow workload under every solver; record the comparison."""
    hin = _workload(seed)
    plain_iters, plain_argmax, plain_seconds, plain_ok = _fit(hin, "plain")

    results = {
        "n_nodes": hin.n_nodes,
        "n_classes": hin.n_labels,
        "alpha": ALPHA,
        "gamma": GAMMA,
        "tol": TOL,
        "plain_iterations": plain_iters,
        "plain_seconds": plain_seconds,
        "all_converged": bool(plain_ok),
        "all_argmax_identical": True,
    }
    for solver in ACCELERATED:
        iters, argmax, seconds, ok = _fit(hin, solver)
        identical = bool(np.array_equal(argmax, plain_argmax))
        results[f"{solver}_iterations"] = iters
        results[f"{solver}_seconds"] = seconds
        results[f"{solver}_reduction"] = plain_iters / iters
        results[f"{solver}_argmax_identical"] = identical
        results["all_converged"] = results["all_converged"] and ok
        results["all_argmax_identical"] = (
            results["all_argmax_identical"] and identical
        )

    _record(results)
    if assert_results:
        assert results["all_converged"], "a solver failed to converge"
        assert results["all_argmax_identical"], (
            "an accelerated solver changed predictions: "
            + ", ".join(
                f"{s}={results[f'{s}_argmax_identical']}" for s in ACCELERATED
            )
        )
        assert results["anderson_reduction"] >= REDUCTION_FLOOR, (
            f"anderson only cut iterations {results['anderson_reduction']:.2f}x "
            f"(required: >= {REDUCTION_FLOOR}x; plain={plain_iters}, "
            f"anderson={results['anderson_iterations']})"
        )
    return results


def _record(results: dict) -> Path:
    """Append one entry to the ``BENCH_solvers.json`` trajectory."""
    if BENCH_PATH.exists():
        payload = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    else:
        payload = {
            "bench": "solvers",
            # Nightly CI re-checks every entry against these bounds
            # (benchmarks/check_trajectory.py).
            "guards": [
                {"field": "all_argmax_identical", "equals": True},
                {"field": "all_converged", "equals": True},
                {"field": "anderson_reduction", "min": REDUCTION_FLOOR},
            ],
            "entries": [],
        }
    entry = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), **results}
    payload["entries"].append(entry)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return BENCH_PATH


def test_solver_acceleration():
    """Bench-suite entry: argmax-identical + Anderson reduction floor."""
    results = run_bench(assert_results=True)
    assert results["anderson_reduction"] >= REDUCTION_FLOOR


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--assert",
        dest="assert_results",
        action="store_true",
        help="fail (non-zero exit) when a threshold is violated",
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    results = run_bench(seed=args.seed, assert_results=args.assert_results)
    for key, value in results.items():
        print(f"{key}: {value}")
    print(f"[recorded -> {BENCH_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
