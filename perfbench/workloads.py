"""The timed workloads: ``dense_fit``, ``sparse_fit`` and ``serve_mixed``.

Every workload is a closed loop with a fixed op count, run by one client
on one pinned CPU.  Inputs (graphs, label masks, request scripts) are
drawn from the seed before any timing starts.  ``run_*_timed`` report
the end-to-end metrics of :data:`harness.END_TO_END_UNITS`;
``run_*_traced`` repeat the workload's ops in traced/untraced pairs and
report the per-workload rows of the layer table (``tmark.*`` and
``obs.trace_overhead_frac``).

Why these workloads is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import gc
import http.client
import json
import multiprocessing
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench.harness import (
    HostClock,
    Metric,
    RunResult,
    Tally,
    in_child,
    latency_metrics,
    median,
    peak_rss_mb,
)
from perfbench.inputs import GraphSpec, label_mask, make_hin, workload_rng
from repro.core.tmark import TMark, TMarkOperators, build_operators
from repro.obs import CHAIN_PHASES, ListRecorder
from repro.serve import PredictionDaemon
from repro.stream import StreamingSession, synthetic_delta_log
from repro.tensor.transition import build_transition_tensors

#: Every timed fit workload runs at least this many ops, so its p90 has
#: ten samples beyond it.
MIN_FIT_OPS = 100

#: Nominal fit rate: a run of S seconds times S * rate fits (at least
#: MIN_FIT_OPS), whatever the machine's speed.
FIT_OPS_PER_SECOND = 15.0

#: Operator builds per run; ``setup_s`` is their median.
FIT_SETUP_REPEATS = 5

#: Untimed ops before the timed loop (allocator and cache warm-up).
WARMUP_OPS = 2

#: Traced runs time this many traced/untraced pairs.
TRACED_PAIRS = 30

#: An op's host factor comes from the reference samples this many ops
#: either side of it.
CLOCK_RADIUS = 2

#: Score columns must sum to one within this tolerance.
MASS_TOL = 1e-9


@dataclass(frozen=True)
class FitWorkload:
    """A workload whose op is one cold ``TMark.fit`` on shared operators."""

    name: str
    spec: GraphSpec
    model: dict
    label_fraction: float

    def build(self, hin) -> TMarkOperators:
        """The set-up the workload times: operator construction."""
        if self.model["gamma"] > 0:
            return build_operators(hin)
        # gamma = 0 never touches W, so only O and R are built.
        o_tensor, r_tensor = build_transition_tensors(hin.tensor)
        return TMarkOperators(
            o_tensor=o_tensor,
            r_tensor=r_tensor,
            w_matrix=None,
            shape=(hin.n_nodes, hin.n_relations),
            similarity_top_k=None,
            similarity_metric="cosine",
        )


DENSE_FIT = FitWorkload(
    name="dense_fit",
    # The paper's section 6 setting: ~2.5k nodes, q=4, ~20 link types,
    # bag-of-words features, dense cosine W.
    spec=GraphSpec(
        n_nodes=2500, n_classes=4, n_relations=20, links_per_node=4.0,
        homophily=(0.2, 0.7),
    ),
    model=dict(alpha=0.8, gamma=0.5, update_labels=True, solver="plain"),
    label_fraction=0.2,
)

SPARSE_FIT = FitWorkload(
    name="sparse_fit",
    # Link-heavy: ~30 links per node over 2 link types, features unused.
    spec=GraphSpec(
        n_nodes=10_000, n_classes=8, n_relations=2, links_per_node=30.0,
        homophily=(0.3, 0.6),
    ),
    model=dict(alpha=0.8, gamma=0.0, update_labels=True, solver="plain"),
    label_fraction=0.1,
)

FIT_WORKLOADS = {w.name: w for w in (DENSE_FIT, SPARSE_FIT)}


def fit_problems(result) -> list[str]:
    """Output checks on one fitted result (empty list = all passed)."""
    problems = []
    for what, scores in (("node", result.node_scores), ("relation", result.relation_scores)):
        if not np.all(np.isfinite(scores)):
            problems.append(f"non-finite {what} scores")
            continue
        drift = float(np.abs(scores.sum(axis=0) - 1.0).max())
        if drift > MASS_TOL:
            problems.append(f"{what} score columns sum to 1 +- {drift:.3g}")
    exhausted = [h for h in result.histories if h.exhausted]
    if exhausted:
        problems.append(f"{len(exhausted)} chain(s) exhausted max_iter")
    return problems


def accuracy(node_scores: np.ndarray, truth: np.ndarray, rows: np.ndarray) -> float:
    """Share of ``rows`` whose top class equals the ground truth."""
    return float(np.mean(np.argmax(node_scores[rows], axis=1) == truth[rows]))


def _fit_inputs(workload: FitWorkload, seed: int, n_ops: int):
    hin = make_hin(workload.spec, workload_rng(workload.name, seed, "graph"))
    truth = hin.y
    rng = workload_rng(workload.name, seed, "masks")
    masks = [
        label_mask(hin.n_nodes, workload.label_fraction, truth, rng)
        for _ in range(n_ops)
    ]
    return hin, truth, masks, [hin.masked(mask) for mask in masks]


def _build_seconds(workload: FitWorkload, hin) -> float:
    started = time.perf_counter()
    workload.build(hin)
    return time.perf_counter() - started


def _timed_setup(workload: FitWorkload, hin):
    """Operator build, timed ``FIT_SETUP_REPEATS`` times, each in a fresh process.

    A build repeated inside one process reuses pages its predecessor
    faulted in, which hides most of the cost of large temporaries (the
    n^2 fibre-sum array of the R build is 2.2 s fresh, 0.6 s repeated).
    So every repeat but the last runs in a forked child, and the last
    one, in this process, keeps its operators for the timed ops.
    """
    times = [
        in_child(_build_seconds, workload, hin)
        for _ in range(FIT_SETUP_REPEATS - 1)
    ]
    gc.collect()
    started = time.perf_counter()
    operators = workload.build(hin)
    times.append(time.perf_counter() - started)
    return operators, times


def run_fit_timed(workload: FitWorkload, seed: int, seconds: float) -> RunResult:
    n_ops = max(MIN_FIT_OPS, round(seconds * FIT_OPS_PER_SECOND))
    hin, truth, masks, views = _fit_inputs(workload, seed, n_ops + WARMUP_OPS)
    clock = HostClock()
    operators, setup_times = _timed_setup(workload, hin)
    tally = Tally()
    for view in views[:WARMUP_OPS]:
        clock.sample()
        tally.record(fit_problems(TMark(**workload.model).fit(view, operators=operators).result_))
    raw, times, accs = [], [], []
    gc.collect()
    for mask, view in zip(masks[WARMUP_OPS:], views[WARMUP_OPS:]):
        clock.sample()
        model = TMark(**workload.model)
        started = time.perf_counter()
        model.fit(view, operators=operators)
        raw.append(time.perf_counter() - started)
        tally.record(fit_problems(model.result_))
        accs.append(accuracy(model.result_.node_scores, truth, ~mask))
    for index, seconds in enumerate(raw, start=WARMUP_OPS):
        # The reference samples just before and after this op.
        times.append(seconds * clock.factor(index - CLOCK_RADIUS, index + CLOCK_RADIUS + 1))
    factor = clock.factor()
    metrics = {
        "setup_s": Metric(median(setup_times) * factor, "s", len(setup_times)),
        **latency_metrics(times),
        "ops_per_s": Metric(len(times) / sum(times), "1/s", len(times)),
    }
    # A refit is how new supervision becomes visible on a batch workload:
    # the new scores exist once the fit returns.
    metrics["update_visible_p50_ms"] = metrics["op_p50_ms"]
    metrics["accuracy"] = Metric(float(np.mean(accs)), "fraction", len(accs))
    metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB")
    notes = {
        "n_nodes": hin.n_nodes,
        "n_ops": n_ops,
        "host_factor": factor,
        "raw_op_p50_ms": median(raw) * 1e3,
        "raw_setup_s": median(setup_times),
    }
    return RunResult(tally, metrics, notes)


def fit_phase_rows(fit_events: list[list[dict]]) -> dict:
    """``tmark.*`` layer rows from the events of several traced fits.

    Each element holds one fit's events.  Phase times are summed over a
    fit's ``chain_iteration`` events, then the median over fits is taken.
    """
    per_fit = {phase: [] for phase in CHAIN_PHASES}
    iterations, coverage = [], []
    for events in fit_events:
        steps = [e for e in events if e["event"] == "chain_iteration"]
        fit_seconds = sum(e["seconds"] for e in events if e["event"] == "fit")
        totals = {p: sum(e["phases"][p] for e in steps) for p in CHAIN_PHASES}
        for phase, total in totals.items():
            per_fit[phase].append(total)
        iterations.append(len(steps))
        coverage.append(sum(totals.values()) / fit_seconds)
    n = len(fit_events)
    rows = {
        f"tmark.{phase}_ms": Metric(median(values) * 1e3, "ms", n)
        for phase, values in per_fit.items()
    }
    rows["tmark.iterations"] = Metric(median(iterations), "count", n)
    rows["tmark.phase_coverage"] = Metric(median(coverage), "fraction", n)
    return rows


def overhead_row(untraced: list[float], traced: list[float]) -> Metric:
    """``obs.trace_overhead_frac`` from paired op times."""
    base = median(untraced)
    return Metric((median(traced) - base) / base, "fraction", len(traced))


def run_fit_traced(workload: FitWorkload, seed: int) -> RunResult:
    hin, _, _, views = _fit_inputs(workload, seed, TRACED_PAIRS + WARMUP_OPS)
    operators = workload.build(hin)
    tally = Tally()
    for view in views[:WARMUP_OPS]:
        TMark(**workload.model).fit(view, operators=operators)
    untraced, traced, fit_events = [], [], []
    for index, view in enumerate(views[WARMUP_OPS:]):
        # Alternate which side runs first so drift cancels in the pair.
        for traced_side in ((False, True) if index % 2 == 0 else (True, False)):
            recorder = ListRecorder(probes=False) if traced_side else None
            model = TMark(**workload.model)
            started = time.perf_counter()
            model.fit(view, operators=operators, recorder=recorder)
            elapsed = time.perf_counter() - started
            tally.record(fit_problems(model.result_))
            (traced if traced_side else untraced).append(elapsed)
            if traced_side:
                fit_events.append(recorder.events)
    rows = fit_phase_rows(fit_events)
    rows["obs.trace_overhead_frac"] = overhead_row(untraced, traced)
    return RunResult(tally, rows)


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
# n=2200, not 2000: an n x n float64 array must stay above glibc's 32 MiB
# ceiling for its dynamic mmap threshold at every graph size the stream
# reaches.  Around 2000-2048 nodes the W temporaries of each update flip
# between mmap (returned on free) and the heap (kept), and the daemon's
# peak RSS jumped between 262 and 290 MB from run to run.
SERVE_SPEC = GraphSpec(
    n_nodes=2200, n_classes=8, n_relations=3, links_per_node=6.0,
    homophily=(0.3, 0.7),
)
SERVE_MODEL = dict(alpha=0.8, gamma=0.5, update_labels=True, solver="anderson")
SERVE_LABEL_FRACTION = 0.2
SERVE_SETUP_REPEATS = 3
#: Reads per cycle: this many ``/classify`` requests plus one ``/topk``.
CLASSIFY_PER_CYCLE = 8
CLASSIFY_BATCH = 128
TOPK_K = 10
DELTAS_PER_UPDATE = 10
#: At least this many timed cycles: 270 reads, so the read p90 has 27
#: samples beyond it.
MIN_CYCLES = 30
CYCLES_PER_SECOND = 4.5
#: Interval between ``/healthz`` polls after an update (small next to
#: the ~100-200 ms an update takes to become visible).
POLL_SECONDS = 0.005
UPDATE_TIMEOUT_SECONDS = 60.0
CHILD_TIMEOUT_SECONDS = 60.0
#: Reference-kernel samples per cycle (the daemon is idle meanwhile).
CLOCK_SAMPLES_PER_CYCLE = 3


def serve_graph(seed: int):
    """The seed graph a serving session starts from, and its truth."""
    hin = make_hin(SERVE_SPEC, workload_rng("serve_mixed", seed, "graph"))
    truth = hin.y
    mask = label_mask(
        hin.n_nodes, SERVE_LABEL_FRACTION, truth,
        workload_rng("serve_mixed", seed, "mask"),
    )
    return hin.masked(mask), truth, mask


def serve_batches(hin, seed: int, n_batches: int):
    """The ``/update`` delta batches of a run, drawn from the seed."""
    log = synthetic_delta_log(
        hin,
        n_batches * DELTAS_PER_UPDATE,
        batch_size=DELTAS_PER_UPDATE,
        seed=workload_rng("serve_mixed", seed, "deltas"),
    )
    return [list(batch) for batch in log.batches()]


def _daemon_main(conn, hin, journal) -> None:
    """Child process: build, fit and serve a session until told to stop."""
    try:
        started = time.perf_counter()
        session = StreamingSession(hin, TMark(**SERVE_MODEL))
        session.fit()
        daemon = PredictionDaemon(
            session, solver=SERVE_MODEL["solver"], journal=journal
        ).start()
        conn.send(("ready", daemon.port, time.perf_counter() - started))
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        conn.send(("error", repr(exc), 0.0))
        return
    try:
        conn.recv()
    except EOFError:  # the parent went away; nobody to report to
        daemon.stop()
        return
    daemon.stop()
    conn.send(("stopped", peak_rss_mb(), 0.0))


class DaemonProcess:
    """A :class:`PredictionDaemon` in a forked child on the parent's CPU.

    The child inherits the parent's CPU pinning.  ``setup_seconds`` is
    the child's own session build + cold fit + daemon start time.
    """

    def __init__(self, hin, *, journal=None):
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self._proc = context.Process(
            target=_daemon_main, args=(child_conn, hin, journal), daemon=True
        )
        self._proc.start()
        child_conn.close()
        if not self._conn.poll(CHILD_TIMEOUT_SECONDS):
            self._kill()
            raise RuntimeError("daemon child did not start in time")
        status, value, seconds = self._conn.recv()
        if status != "ready":
            self._kill()
            raise RuntimeError(f"daemon child failed: {value}")
        self.port = value
        self.setup_seconds = seconds

    def stop(self) -> float:
        """Stop the daemon; returns the child's peak RSS in MB."""
        rss = None
        try:
            self._conn.send("stop")
            if self._conn.poll(CHILD_TIMEOUT_SECONDS):
                _, rss, _ = self._conn.recv()
        except (BrokenPipeError, EOFError):
            pass
        self._proc.join(CHILD_TIMEOUT_SECONDS)
        self._kill()
        if rss is None:
            raise RuntimeError("daemon child exited without reporting its peak RSS")
        return rss

    def _kill(self) -> None:
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()

    def __enter__(self) -> "DaemonProcess":
        return self

    def __exit__(self, *exc) -> None:
        if self._proc.is_alive():
            self.stop()


class Client:
    """One keep-alive HTTP/1.1 connection returning ``(status, json)``."""

    def __init__(self, port: int):
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, payload=None):
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self._conn.close()


def classify_problems(status, body, names, last_version) -> list[str]:
    """Checks on one ``/classify`` reply."""
    if status != 200:
        return [f"/classify returned {status}"]
    problems = []
    if body.get("snapshot_version", -1) < last_version:
        problems.append("snapshot_version went backwards")
    results = body.get("results", [])
    if [r["node"] for r in results] != list(names):
        problems.append("/classify answered for other nodes")
    for r in results:
        if r["label"] != max(r["scores"], key=r["scores"].get):
            problems.append(f"label of {r['node']} is not its top score")
            break
    return problems


def topk_problems(status, body, last_version) -> list[str]:
    """Checks on one ``/topk`` reply."""
    if status != 200:
        return [f"/topk returned {status}"]
    problems = []
    if body.get("snapshot_version", -1) < last_version:
        problems.append("snapshot_version went backwards")
    scores = [r["score"] for r in body.get("results", [])]
    if len(scores) != TOPK_K or any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("/topk results are not the k best in order")
    return problems


def _serve_script(seed: int, n_cycles: int, hin):
    """Per-cycle read requests: classify name batches and a topk label."""
    rng = workload_rng("serve_mixed", seed, "reads")
    names = hin.node_names
    return [
        (
            [
                [names[i] for i in rng.choice(len(names), CLASSIFY_BATCH, replace=False)]
                for _ in range(CLASSIFY_PER_CYCLE)
            ],
            hin.label_names[int(rng.integers(len(hin.label_names)))],
        )
        for _ in range(n_cycles)
    ]


def _run_cycle(client, reads, batch, tally, state):
    """One scripted cycle: reads, then one update polled until visible.

    Returns the read latencies and the update's time to visibility
    (``None`` when the update was refused), in seconds.
    """
    classify_batches, topk_label = reads
    read_times = []
    for names in classify_batches:
        started = time.perf_counter()
        status, body = client.request("POST", "/classify", {"nodes": names})
        read_times.append(time.perf_counter() - started)
        tally.record(classify_problems(status, body, names, state["version"]))
        state["version"] = max(state["version"], body.get("snapshot_version", -1))
    started = time.perf_counter()
    status, body = client.request("GET", f"/topk?label={topk_label}&k={TOPK_K}")
    read_times.append(time.perf_counter() - started)
    tally.record(topk_problems(status, body, state["version"]))

    payload = {"deltas": [delta.to_dict() for delta in batch]}
    started = time.perf_counter()
    status, body = client.request("POST", "/update", payload)
    if status != 202:
        tally.record([f"/update returned {status}"])
        return read_times, None
    before = body["snapshot_version"]
    deadline = started + UPDATE_TIMEOUT_SECONDS
    while True:
        health_status, health = client.request("GET", "/healthz")
        if health["snapshot_version"] > before or time.perf_counter() > deadline:
            break
        time.sleep(POLL_SECONDS)
    visible = time.perf_counter() - started
    problems = []
    if health["snapshot_version"] != before + 1:
        problems.append(f"update not visible as version {before + 1}")
    if health_status != 200:
        problems.append(f"served snapshot unhealthy: {health.get('worst_health')}")
    tally.record(problems)
    state["version"] = health["snapshot_version"]
    return read_times, visible


def _served_labels(client, names) -> list[str]:
    """The served label of every node, asked in the workload's batch size."""
    labels = []
    for start in range(0, len(names), CLASSIFY_BATCH):
        chunk = list(names[start:start + CLASSIFY_BATCH])
        status, body = client.request("POST", "/classify", {"nodes": chunk})
        if status != 200:
            raise RuntimeError(f"/classify returned {status}")
        labels += [r["label"] for r in body["results"]]
    return labels


def reference_session(hin, batches, recorder=None) -> StreamingSession:
    """An in-process session that applied the same batches as the daemon."""
    session = StreamingSession(hin, TMark(**SERVE_MODEL))
    session.fit(recorder=recorder)
    for batch in batches:
        session.apply(batch, recorder=recorder)
    return session


def run_serve_timed(seed: int, seconds: float, cache_dir: Path) -> RunResult:
    n_cycles = max(MIN_CYCLES, round(seconds * CYCLES_PER_SECOND))
    hin, truth, mask = serve_graph(seed)
    batches = serve_batches(hin, seed, n_cycles + 1)
    script = _serve_script(seed, len(batches), hin)
    relabelled = {
        d.name for batch in batches for d in batch if d.op == "set_label"
    }
    tally = Tally()
    cache_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache_dir) as scratch:
        setups = []
        for repeat in range(SERVE_SETUP_REPEATS):
            journal = Path(scratch) / f"journal-{repeat}.jsonl"
            daemon = DaemonProcess(hin, journal=journal)
            setups.append(daemon.setup_seconds)
            if repeat < SERVE_SETUP_REPEATS - 1:
                daemon.stop()
        with daemon:
            client = Client(daemon.port)
            state = {"version": 0}
            # Cycle 0 is warm-up: checked, not timed.
            _run_cycle(client, script[0], batches[0], tally, state)
            clock = HostClock()
            cycles = []
            gc.collect()
            for reads, batch in zip(script[1:], batches[1:]):
                for _ in range(CLOCK_SAMPLES_PER_CYCLE):
                    clock.sample()
                started = time.perf_counter()
                read_times, visible = _run_cycle(client, reads, batch, tally, state)
                cycles.append((read_times, visible, time.perf_counter() - started))
            reference = reference_session(hin, batches)
            names = reference.hin.node_names
            served = _served_labels(client, names)
            client.close()
            rss = daemon.stop()
    result = reference.result
    expected = [result.label_names[c] for c in np.argmax(result.node_scores, axis=1)]
    mismatched = sum(a != b for a, b in zip(served, expected))
    tally.record(
        [f"{mismatched} served labels differ from the in-process session"]
        if mismatched or len(served) != len(expected)
        else []
    )
    tally.record(fit_problems(result))

    seed_names = hin.node_names
    rows = np.array([
        i for i in range(len(seed_names))
        if not mask[i] and seed_names[i] not in relabelled
    ])
    served_idx = np.array([result.label_names.index(label) for label in served[: len(seed_names)]])
    # Each cycle's times are scaled by the reference samples taken just
    # before it and around its neighbours.
    read_times, visible_times, wall = [], [], 0.0
    raw_reads, raw_visible = [], []
    per = CLOCK_SAMPLES_PER_CYCLE
    for index, (reads, visible, seconds) in enumerate(cycles):
        factor = clock.factor(per * (index - 1), per * (index + 2))
        raw_reads += reads
        read_times += [t * factor for t in reads]
        if visible is not None:
            raw_visible.append(visible)
            visible_times.append(visible * factor)
        wall += seconds * factor
    n_ops = len(read_times) + len(visible_times)
    factor = clock.factor()
    metrics = {
        "setup_s": Metric(median(setups) * factor, "s", len(setups)),
        **latency_metrics(read_times),
        # Reads and updates both count as completed ops.
        "ops_per_s": Metric(n_ops / wall, "1/s", n_ops),
        "update_visible_p50_ms": Metric(
            median(visible_times) * 1e3, "ms", len(visible_times)
        ),
    }
    metrics["accuracy"] = Metric(
        float(np.mean(served_idx[rows] == truth[rows])), "fraction", rows.size
    )
    metrics["peak_rss_mb"] = Metric(rss, "MB")
    notes = {
        "n_nodes": hin.n_nodes,
        "cycles": len(visible_times),
        "reads": len(read_times),
        "poll_interval_ms": POLL_SECONDS * 1e3,
        "host_factor": factor,
        "raw_op_p50_ms": median(raw_reads) * 1e3,
        "raw_update_visible_p50_ms": median(raw_visible) * 1e3,
        "raw_setup_s": median(setups),
    }
    return RunResult(tally, metrics, notes)


def run_serve_traced(seed: int) -> RunResult:
    """Paired replay of the update path: traced vs untraced sessions."""
    hin, _, _ = serve_graph(seed)
    batches = serve_batches(hin, seed, TRACED_PAIRS)
    sessions = {False: StreamingSession(hin, TMark(**SERVE_MODEL)),
                True: StreamingSession(hin, TMark(**SERVE_MODEL))}
    for session in sessions.values():
        session.fit()
    tally = Tally()
    untraced, traced, fit_events = [], [], []
    for index, batch in enumerate(batches):
        for traced_side in ((False, True) if index % 2 == 0 else (True, False)):
            recorder = ListRecorder(probes=False) if traced_side else None
            started = time.perf_counter()
            sessions[traced_side].apply(batch, recorder=recorder)
            elapsed = time.perf_counter() - started
            tally.record(fit_problems(sessions[traced_side].result))
            (traced if traced_side else untraced).append(elapsed)
            if traced_side:
                fit_events.append(recorder.events)
    rows = fit_phase_rows(fit_events)
    rows["obs.trace_overhead_frac"] = overhead_row(untraced, traced)
    return RunResult(tally, rows)


WORKLOADS = ("dense_fit", "sparse_fit", "serve_mixed")
