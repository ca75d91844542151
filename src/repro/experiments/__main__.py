"""Command-line entry point: ``python -m repro.experiments``.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run table3 [--scale 1.0] [--seed 0]
                                           [--trials 3] [--full] [--std]
                                           [--save-dir DIR] [--trace PATH]
                                           [--solver anderson]
    python -m repro.experiments run all
    python -m repro.experiments compare table3 [--trials 10]
    python -m repro.experiments tune dblp [--fraction 0.3]
    python -m repro.experiments trace-summary PATH [--json]
    python -m repro.experiments health PATH [--tol 1e-8]
    python -m repro.experiments trace-diff OLD NEW [--threshold 0.2]
    python -m repro.experiments obs export PATH [--chrome] [-o OUT]
    python -m repro.experiments obs flight URL [--last N] [-o OUT]
    python -m repro.experiments stream [--deltas 50] [--batch-size 10]
                                       [--journal PATH] [--hin PATH]
                                       [--save-journal PATH] [--save-hin PATH]
                                       [--solver anderson]
    python -m repro.experiments serve [--port 8731] [--hin PATH]
                                      [--result PATH] [--journal PATH]
                                      [--solver anderson] [--max-seconds S]
    python -m repro.experiments store build DIR (--hin PATH | --dataset NAME)
    python -m repro.experiments store synth DIR [--nodes N] [--links L]
    python -m repro.experiments store inspect DIR [--verify]
    python -m repro.experiments run example --store DIR

``--full`` switches the neural/ensemble baselines to their full training
budgets; ``--trials 10`` matches the paper's 10-runs-per-split protocol;
``--std`` prints mean±std cells (the paper's format); ``compare`` scores
a measured grid against the paper's published numbers; ``tune``
grid-searches T-Mark's hyper-parameters inside a dataset's labeled set;
``--trace`` records chain/harness telemetry as JSONL (see
:mod:`repro.obs`) and ``trace-summary`` aggregates such a file into a
phase-time breakdown table.  ``health`` folds a trace's residual series
into per-class convergence verdicts (exit 4 when any chain is
unhealthy); ``trace-diff`` compares two traces phase-by-phase with a
relative-change threshold (exit 3 on regressions) — the CI gate that a
run has not slowed down or lost convergence.  ``stream`` exits 2 when
the warm/cold exactness check fails, 4 when a reconvergence surfaced an
unhealthy chain, 5 for unreadable input files; ``serve`` runs the
:mod:`repro.serve` prediction daemon over a fitted streaming session
(exit 4 when the background updater dies, 5 for unreadable inputs).
``obs export`` converts a JSONL trace (gzipped or not) into Chrome
trace-event JSON for ``ui.perfetto.dev``; ``obs flight`` pulls the ring
buffer of a live daemon's flight recorder (``GET /debug/trace``) and
summarizes or saves it — exit 1 for unreadable inputs/unreachable
daemons.  ``store`` manages the out-of-core tier (:mod:`repro.ooc`): ``build``
converts a HIN into a memory-mapped :class:`~repro.ooc.store.GraphStore`
directory, ``synth`` generates a synthetic store directly on disk, and
``inspect`` prints (and with ``--verify`` re-hashes) a store's manifest
— exit 5 for unreadable inputs or a target directory that is not a store.  ``run ... --store DIR`` routes a
supporting experiment through the store-backed fit path.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.registry import experiment_ids, get_experiment, run_experiment
from repro.solvers.base import PLAIN_SOLVER, SOLVER_NAMES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the T-Mark paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the registered experiments")
    compare = sub.add_parser(
        "compare",
        help="run a grid experiment and compare it against the paper's numbers",
    )
    compare.add_argument("experiment", help="a grid experiment id, e.g. table3")
    compare.add_argument("--scale", type=float, default=1.0)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--trials", type=int, default=3)
    compare.add_argument(
        "--workers",
        type=int,
        default=1,
        help="grid-cell worker processes (1 = serial; results are identical)",
    )
    tune = sub.add_parser(
        "tune", help="grid-search T-Mark's alpha/gamma/lambda on a dataset"
    )
    tune.add_argument(
        "dataset", help="dataset name: dblp, movies, nus (single-label only)"
    )
    tune.add_argument("--scale", type=float, default=0.5)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--fraction", type=float, default=0.3,
                      help="labeled fraction to tune within")
    tune.add_argument("--trials", type=int, default=3)
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id, e.g. table3, or 'all'")
    run.add_argument("--scale", type=float, default=1.0, help="dataset size multiplier")
    run.add_argument("--seed", type=int, default=0, help="root RNG seed")
    run.add_argument(
        "--trials", type=int, default=3, help="random splits per grid cell (paper: 10)"
    )
    run.add_argument(
        "--full",
        action="store_true",
        help="full training budgets for the neural/ensemble baselines",
    )
    run.add_argument(
        "--std",
        action="store_true",
        help="print mean±std cells in grid tables (the paper's format)",
    )
    run.add_argument(
        "--save-dir",
        default=None,
        help="also write <id>.txt/.json (and .csv for grids) to this directory",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record chain/harness telemetry to this JSONL file (repro.obs)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="grid-cell worker processes (1 = serial; results are identical)",
    )
    run.add_argument(
        "--solver",
        default=None,
        choices=SOLVER_NAMES,
        help="fixed-point solver for the T-Mark chains (repro.solvers)",
    )
    run.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="fit through the out-of-core GraphStore at DIR instead of in "
             "RAM (experiments that support it, e.g. 'example'; the store "
             "is created there on first use)",
    )
    run.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="partition the fit into K node shards run by fork workers "
             "(repro.shard; experiments that support it, e.g. 'example'; "
             "scores are bit-identical to the serial fit)",
    )
    store = sub.add_parser(
        "store",
        help="build, synthesise or inspect an out-of-core graph store "
             "(repro.ooc)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_build = store_sub.add_parser(
        "build", help="save a HIN into a mmap-able GraphStore directory"
    )
    store_build.add_argument("directory", help="target store directory")
    source = store_build.add_mutually_exclusive_group(required=True)
    source.add_argument("--hin", default=None, metavar="PATH",
                        help="a save_hin .npz archive to convert")
    source.add_argument("--dataset", default=None, metavar="NAME",
                        help="a calibrated dataset name (dblp, movies, ...)")
    store_build.add_argument("--scale", type=float, default=1.0,
                             help="dataset size multiplier (with --dataset)")
    store_build.add_argument("--seed", type=int, default=0)
    store_synth = store_sub.add_parser(
        "synth",
        help="generate a synthetic out-of-core store directly on disk",
    )
    store_synth.add_argument("directory", help="target store directory")
    store_synth.add_argument("--nodes", type=int, default=100_000)
    store_synth.add_argument("--links", type=int, default=110_000,
                             help="requested links per relation (pre-dedup)")
    store_synth.add_argument("--relations", type=int, default=2)
    store_synth.add_argument("--labels", type=int, default=2)
    store_synth.add_argument("--features", type=int, default=32)
    store_synth.add_argument("--labeled-fraction", type=float, default=0.05)
    store_synth.add_argument("--homophily", type=float, default=0.8)
    store_synth.add_argument("--seed", type=int, default=0)
    store_inspect = store_sub.add_parser(
        "inspect", help="print a store's manifest summary"
    )
    store_inspect.add_argument("directory", help="store directory to inspect")
    store_inspect.add_argument(
        "--verify",
        action="store_true",
        help="re-hash every data file against the manifest fingerprints",
    )
    trace_summary = sub.add_parser(
        "trace-summary",
        help="aggregate a --trace JSONL file into a phase-time breakdown",
    )
    trace_summary.add_argument("path", help="a JSONL trace written by run --trace")
    trace_summary.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as machine-readable JSON instead of a table",
    )
    obs = sub.add_parser(
        "obs",
        help="operational trace tooling: Perfetto export and live "
             "flight-recorder access",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_export = obs_sub.add_parser(
        "export",
        help="convert a JSONL trace (.jsonl or .jsonl.gz) for ui.perfetto.dev",
    )
    obs_export.add_argument("path", help="a JSONL trace written by run --trace")
    obs_export.add_argument(
        "--chrome",
        action="store_true",
        help="Chrome trace-event JSON (the default and only format)",
    )
    obs_export.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="output file (default: <trace>.chrome.json)",
    )
    obs_flight = obs_sub.add_parser(
        "flight",
        help="fetch a live daemon's flight-recorder ring via GET /debug/trace",
    )
    obs_flight.add_argument(
        "url", help="daemon base URL, e.g. http://127.0.0.1:8731"
    )
    obs_flight.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only the N most recent ring events",
    )
    obs_flight.add_argument(
        "--chrome",
        action="store_true",
        help="write Chrome trace-event JSON instead of JSONL (needs -o)",
    )
    obs_flight.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="save the ring events (default: print a trace summary)",
    )
    health = sub.add_parser(
        "health",
        help="per-class convergence verdicts for a --trace JSONL file",
    )
    health.add_argument("path", help="a JSONL trace written by run --trace")
    health.add_argument(
        "--tol",
        type=float,
        default=None,
        help="fallback tolerance for traces without fit-event tolerances",
    )
    trace_diff = sub.add_parser(
        "trace-diff",
        help="compare two --trace JSONL files for perf/convergence regressions",
    )
    trace_diff.add_argument("old", help="the baseline trace")
    trace_diff.add_argument("new", help="the candidate trace")
    trace_diff.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="relative-change threshold for flagging a regression (default 0.2)",
    )
    stream = sub.add_parser(
        "stream",
        help="replay a delta journal through a warm streaming session",
    )
    stream.add_argument("--scale", type=float, default=1.0,
                        help="synthetic seed-graph size multiplier")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--deltas", type=int, default=50,
                        help="synthetic journal length (ignored with --journal)")
    stream.add_argument("--batch-size", type=int, default=10,
                        help="deltas per synthetic batch (ignored with --journal)")
    stream.add_argument("--journal", default=None, metavar="PATH",
                        help="replay this JSONL delta journal instead")
    stream.add_argument("--hin", default=None, metavar="PATH",
                        help="seed graph archive (save_hin) instead of synthetic")
    stream.add_argument("--save-journal", default=None, metavar="PATH",
                        help="write the replayed journal as JSONL")
    stream.add_argument("--save-hin", default=None, metavar="PATH",
                        help="write the final evolved graph as .npz")
    stream.add_argument("--trace", default=None, metavar="PATH",
                        help="record streaming telemetry to this JSONL file")
    stream.add_argument("--solver", default=PLAIN_SOLVER,
                        choices=SOLVER_NAMES,
                        help="fixed-point solver for the reconvergence fits")
    serve = sub.add_parser(
        "serve",
        help="serve classify/top-k/relation queries over HTTP from "
             "snapshot-swapped stationary state",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8731,
                       help="bind port (0 picks a free ephemeral port)")
    serve.add_argument("--scale", type=float, default=0.5,
                       help="synthetic seed-graph size multiplier")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--hin", default=None, metavar="PATH",
                       help="seed graph archive (save_hin) instead of synthetic")
    serve.add_argument("--result", default=None, metavar="PATH",
                       help="persisted save_result archive to resume from "
                            "(skips the startup fit)")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="append accepted /update deltas to this JSONL journal")
    serve.add_argument("--solver", default=PLAIN_SOLVER,
                       choices=SOLVER_NAMES,
                       help="fixed-point solver for background reconvergences")
    serve.add_argument("--max-seconds", type=float, default=None,
                       help="self-terminate after this many seconds (smoke tests)")
    return parser


def _run_one(experiment_id: str, args) -> None:
    experiment = get_experiment(experiment_id)
    kwargs = {"scale": args.scale, "seed": args.seed}
    import inspect

    parameters = inspect.signature(experiment.runner).parameters
    # (flag, runner parameter, value, whether the flag was moved off its
    # default).  --trials, --full and --workers reach every runner that
    # takes them; the others only when given.  A given flag the runner
    # does not take is reported rather than dropped silently.
    options = (
        ("--trials", "n_trials", args.trials, args.trials != 3),
        ("--full", "fast", not args.full, args.full),
        ("--std", "with_std", True, args.std),
        ("--workers", "workers", args.workers, args.workers != 1),
        ("--solver", "solver", args.solver, bool(args.solver)),
        ("--store", "store", args.store, bool(args.store)),
        ("--shards", "shards", args.shards, bool(args.shards)),
    )
    for flag, parameter, value, given in options:
        if parameter not in parameters:
            if given:
                print(
                    f"[{flag} ignored: {experiment_id!r} does not take it]",
                    file=sys.stderr,
                )
        elif given or parameter in ("n_trials", "fast", "workers"):
            kwargs[parameter] = value
    from repro.obs import span

    started = time.perf_counter()
    # Root span of a traced run: every fit/pool/store event below shares
    # its trace_id (no-op when --trace is absent).
    with span("experiment", experiment=experiment_id):
        report = run_experiment(experiment_id, **kwargs)
    elapsed = time.perf_counter() - started
    print(report)
    if args.save_dir:
        from repro.experiments.export import save_report

        for path in save_report(report, args.save_dir):
            print(f"[wrote {path}]")
    print(f"[{experiment_id} finished in {elapsed:.1f}s]\n")


def _default_chrome_out(path):
    """``trace.jsonl[.gz]`` -> ``trace.chrome.json`` (sibling file)."""
    from pathlib import Path

    path = Path(path)
    name = path.name
    for suffix in (".jsonl.gz", ".jsonl"):
        if name.endswith(suffix):
            return path.with_name(name[: -len(suffix)] + ".chrome.json")
    return path.with_name(name + ".chrome.json")


def _obs_cli(args) -> int:
    """The ``obs`` subcommand: export / flight (exit 1 on bad input)."""
    import os

    from repro.obs import (
        format_trace_summary,
        read_trace,
        summarize_trace,
        write_chrome_trace,
    )

    if args.obs_command == "export":
        if not os.path.exists(args.path):
            print(f"no such trace file: {args.path}")
            return 1
        events = read_trace(args.path, strict=False)
        out = args.output if args.output else _default_chrome_out(args.path)
        write_chrome_trace(events, out)
        print(f"[chrome trace: {len(events)} events -> {out}]")
        print("[open in ui.perfetto.dev or chrome://tracing]")
        return 0
    if args.obs_command == "flight":
        import json
        import urllib.error
        import urllib.request

        url = args.url.rstrip("/") + "/debug/trace"
        if args.last is not None:
            url += f"?last={args.last}"
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                body = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as error:
            print(f"could not fetch {url}: {error}")
            return 1
        events = body.get("events", [])
        print(
            f"[flight recorder: {len(events)} of {body.get('total_events', '?')} "
            f"events (ring capacity {body.get('capacity', '?')}), "
            f"snapshot v{body.get('snapshot_version', '?')}]"
        )
        if args.output and args.chrome:
            write_chrome_trace(events, args.output)
            print(f"[chrome trace -> {args.output}]")
        elif args.output:
            import gzip

            opener = gzip.open if str(args.output).endswith(".gz") else open
            with opener(args.output, "wt", encoding="utf-8") as handle:
                for event in events:
                    handle.write(json.dumps(event) + "\n")
            print(f"[jsonl trace -> {args.output}]")
        else:
            print(format_trace_summary(summarize_trace(events)))
        return 0
    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def _store_cli(args) -> int:
    """The ``store`` subcommand: build / synth / inspect (exit 5 on bad input)."""
    from repro.errors import ValidationError
    from repro.ooc import GraphStore, generate_ooc_store

    if args.store_command == "build":
        try:
            if args.hin is not None:
                from repro.hin.io import load_hin

                hin = load_hin(args.hin)
            else:
                from repro.datasets import get_dataset

                hin = get_dataset(args.dataset, scale=args.scale, seed=args.seed)
        except (OSError, ValueError, KeyError, ValidationError) as exc:
            print(f"cannot load source graph: {exc}")
            return 5
        try:
            store = GraphStore.save(hin, args.directory)
        except ValidationError as exc:
            print(f"cannot write store: {exc}")
            return 5
        print(
            f"[store: {store.n_nodes} nodes, {store.n_relations} relations, "
            f"{store.nnz} links -> {args.directory}]"
        )
        return 0
    if args.store_command == "synth":
        try:
            store = generate_ooc_store(
                args.directory,
                n_nodes=args.nodes,
                n_links=args.links,
                n_relations=args.relations,
                n_labels=args.labels,
                n_features=args.features,
                labeled_fraction=args.labeled_fraction,
                homophily=args.homophily,
                seed=args.seed,
            )
        except ValidationError as exc:
            print(f"cannot write store: {exc}")
            return 5
        print(
            f"[store: {store.n_nodes} nodes, {store.n_relations} relations, "
            f"{store.nnz} links -> {args.directory}]"
        )
        return 0
    # inspect
    try:
        store = GraphStore.open(args.directory, verify=args.verify)
    except ValidationError as exc:
        print(f"unreadable store: {exc}")
        return 5
    print(f"store: {args.directory}")
    print(f"  nodes:      {store.n_nodes}")
    print(f"  relations:  {store.n_relations} ({', '.join(store.relation_names)})")
    print(f"  labels:     {store.n_labels} ({', '.join(store.label_names)})")
    print(f"  features:   {store.n_features}")
    print(f"  links:      {store.nnz}  per-relation {list(store.relation_nnz)}")
    print(f"  multilabel: {store.multilabel}")
    print(f"  fingerprint: {store.store_fingerprint()}")
    if args.verify:
        print("  verify:     all file hashes match")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "store":
        return _store_cli(args)
    if args.command == "obs":
        return _obs_cli(args)
    if args.command == "list":
        for experiment_id in experiment_ids():
            print(f"{experiment_id:10s} {get_experiment(experiment_id).title}")
        return 0
    if args.command == "tune":
        import numpy as np

        from repro.datasets import get_dataset
        from repro.experiments.tuning import tune_tmark
        from repro.ml.splits import stratified_fraction_split

        hin = get_dataset(args.dataset, scale=args.scale, seed=args.seed)
        if hin.multilabel:
            print(f"{args.dataset} is multi-label; tune supports single-label only")
            return 1
        mask = stratified_fraction_split(
            hin.y, args.fraction, rng=np.random.default_rng(args.seed)
        )
        grid = {
            "alpha": [0.5, 0.7, 0.8, 0.9],
            "gamma": [0.2, 0.4, 0.6],
            "label_threshold": [0.8, 0.95],
        }
        result = tune_tmark(
            hin.masked(mask), grid, n_trials=args.trials, seed=args.seed
        )
        print(result)
        print(f"\nbest parameters: {result.best_params}")
        return 0
    if args.command == "compare":
        from repro.experiments.paper import PAPER_GRIDS, compare_with_paper

        if args.experiment not in PAPER_GRIDS:
            print(
                f"no paper reference grid for {args.experiment!r}; "
                f"available: {', '.join(sorted(PAPER_GRIDS))}"
            )
            return 1
        import inspect

        compare_kwargs = {}
        runner = get_experiment(args.experiment).runner
        if "workers" in inspect.signature(runner).parameters:
            compare_kwargs["workers"] = args.workers
        report = run_experiment(
            args.experiment,
            scale=args.scale,
            seed=args.seed,
            n_trials=args.trials,
            **compare_kwargs,
        )
        print(report)
        comparison = compare_with_paper(args.experiment, report.data["grid"])
        print()
        print(comparison)
        return 0 if comparison.all_shapes_hold else 2
    if args.command == "serve":
        from repro.serve.daemon import run_serve_cli

        return run_serve_cli(args)
    if args.command == "stream":
        from repro.experiments.streaming import run_stream_cli

        if args.trace:
            from repro.obs import JsonlTraceRecorder, use_recorder

            with JsonlTraceRecorder(args.trace) as recorder, use_recorder(recorder):
                code = run_stream_cli(args)
            print(f"[trace: {recorder.n_events} events -> {args.trace}]")
            return code
        return run_stream_cli(args)
    if args.command == "trace-summary":
        import os

        from repro.obs import format_trace_summary, read_trace, summarize_trace

        if not os.path.exists(args.path):
            print(f"no such trace file: {args.path}")
            return 1
        events = read_trace(args.path, strict=False)
        summary = summarize_trace(events)
        if args.json:
            import json

            print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
        else:
            print(format_trace_summary(summary))
        return 0
    if args.command == "health":
        import os

        from repro.obs import format_health_report, read_trace, trace_chain_health

        if not os.path.exists(args.path):
            print(f"no such trace file: {args.path}")
            return 1
        verdicts = trace_chain_health(
            read_trace(args.path, strict=False), tol=args.tol
        )
        print(format_health_report(verdicts))
        return 0 if all(v.ok for v in verdicts) else 4
    if args.command == "trace-diff":
        import os

        from repro.obs import diff_traces, format_trace_diff, read_trace

        for path in (args.old, args.new):
            if not os.path.exists(path):
                print(f"no such trace file: {path}")
                return 1
        kwargs = {}
        if args.threshold is not None:
            kwargs["threshold"] = args.threshold
        diff = diff_traces(
            read_trace(args.old, strict=False),
            read_trace(args.new, strict=False),
            **kwargs,
        )
        print(format_trace_diff(diff))
        return 0 if diff.passed else 3
    targets = experiment_ids() if args.experiment == "all" else [args.experiment]
    if getattr(args, "trace", None):
        from repro.obs import JsonlTraceRecorder, use_recorder

        with JsonlTraceRecorder(args.trace) as recorder, use_recorder(recorder):
            for experiment_id in targets:
                _run_one(experiment_id, args)
        print(f"[trace: {recorder.n_events} events -> {args.trace}]")
        return 0
    for experiment_id in targets:
        _run_one(experiment_id, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
