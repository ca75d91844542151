"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload dense_fit --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs the traced layer probes and reports the
per-layer table instead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give every metric with its unit and sample count, and the
run's CPU set, BLAS thread count, host steal fraction and host factor.
Any failed output check makes the exit code 1.  The program is imported
from ``src/`` next to this directory; without it the run exits with 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import harness  # noqa: E402  (no NumPy import yet)

#: Where generated inputs that are worth keeping between runs live.
CACHE_DIR = ROOT / ".perfbench_cache"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def run(args, all_cpus: set) -> harness.RunResult:
    """Dispatch one run (the program must already be importable)."""
    from perfbench import layers, workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}"
        )
    serve = args.workload == "serve_mixed"
    if args.trace:
        if serve:
            result = workloads.run_serve_traced(args.seed)
        else:
            result = workloads.run_fit_traced(
                workloads.FIT_WORKLOADS[args.workload], args.seed
            )
        result.metrics.update(
            layers.measure(args.seed, CACHE_DIR, result.tally, all_cpus=all_cpus)
        )
        return result
    if serve:
        result = workloads.run_serve_timed(args.seed, args.seconds, CACHE_DIR)
    else:
        result = workloads.run_fit_timed(
            workloads.FIT_WORKLOADS[args.workload], args.seed, args.seconds
        )
    tally = result.tally
    result.metrics["ok_frac"] = harness.Metric(tally.ok_frac, "fraction", tally.attempted)
    return result


def report(result: harness.RunResult, notes: dict, moves: dict) -> dict:
    """Print the human-readable lines; return the final JSON object.

    ``moves`` maps a layer metric to the end-to-end metric it should move.
    """
    tally = result.tally
    print(json.dumps({"run": {**notes, **result.notes}}, sort_keys=True))
    for name, metric in result.metrics.items():
        line = f"{name} = {metric.value!r} {metric.unit} (samples={metric.samples})"
        if name in moves:
            line += f"; should move: {moves[name]}"
        print(line)
    for problem in tally.problems[:10]:
        print(f"check failed: {problem}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metric.value), "unit": metric.unit}
            for name, metric in result.metrics.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    harness.single_thread_blas()
    cpu, all_cpus = harness.pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    stat_before = harness.cpu_times()
    result = run(args, all_cpus)
    notes = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_set": sorted(os.sched_getaffinity(0)),
        "pinned_cpu": cpu,
        "blas_threads": harness.blas_threads(),
        "host_steal_frac": harness.steal_fraction(stat_before, harness.cpu_times()),
    }
    from perfbench.layers import LAYER_TABLE

    final = report(result, notes, {name: row[2] for name, row in LAYER_TABLE.items()})
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
