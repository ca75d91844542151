"""Measurement plumbing shared by the workloads and the layer probes.

Nothing here imports NumPy at module load: ``run.py`` must set the BLAS
thread variables before the first NumPy import, and it imports this
module first.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Percentile reporting rule: a tail percentile is only reported when at
#: least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10

#: Environment variables that cap BLAS / OpenMP thread pools.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: The end-to-end metrics every timed run reports, with their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "update_visible_p50_ms": "ms",
    "accuracy": "fraction",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


def single_thread_blas() -> None:
    """Cap every BLAS / OpenMP pool at one thread (before NumPy loads)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def pin_to_one_cpu() -> tuple[int, set]:
    """Pin this process (and every child forked later) to one CPU.

    The highest-numbered CPU of the allowed set is chosen, leaving CPU 0
    (where the kernel tends to steer interrupts) to everything else.
    Returns the chosen CPU and the set allowed before pinning.
    """
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return cpu, allowed


def blas_threads() -> int | None:
    """The thread count OpenBLAS reports, or ``None`` if it cannot be asked.

    Reads the symbol from whichever OpenBLAS build NumPy loaded (plain or
    the ``scipy_openblas`` 64-bit-index build).
    """
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {
            line.split()[-1] for line in maps if "openblas" in line.lower()
        }
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` as integers."""
    with open("/proc/stat", encoding="utf-8") as stat:
        return [int(v) for v in stat.readline().split()[1:]]


def steal_fraction(before: list[int], after: list[int]) -> float:
    """Share of host CPU time stolen by the hypervisor between two reads."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # guest time is already inside user/nice
    steal = delta[7] if len(delta) > 7 else 0
    return steal / total if total > 0 else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> float:
    """Restart this process's RSS high-water mark; returns the current RSS in MB.

    Writing ``5`` to ``/proc/self/clear_refs`` resets ``VmHWM`` (Linux
    4.0+), so a later :func:`peak_rss_since_reset_mb` covers only what
    ran in between.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")
    return _status_mb("VmRSS")


def peak_rss_since_reset_mb() -> float:
    """``VmHWM`` in MB: the peak RSS since the last :func:`reset_peak_rss`."""
    return _status_mb("VmHWM")


def _status_mb(field: str) -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/self/status has no {field}")


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie beyond a tail percentile, so no run can report a p90 it
    did not measure.
    """
    data = sorted(samples)
    if not data:
        raise ValueError("no samples")
    beyond = len(data) * (100.0 - q) / 100.0
    if q > 50 and beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{len(data)} samples give {beyond:.1f}"
        )
    position = (len(data) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def median(samples) -> float:
    """Median of ``samples``."""
    return float(statistics.median(samples))


@dataclass
class Metric:
    """One reported number with its unit and the samples behind it."""

    value: float
    unit: str
    samples: int = 1


@dataclass
class Tally:
    """Checked-op bookkeeping behind ``attempted``, ``failed`` and ``ok_frac``."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems: list[str]) -> bool:
        """Count one op; it fails when any check reported a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(problems[0])
        return not problems

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


@dataclass
class RunResult:
    """What one benchmark run hands back to ``run.py``."""

    tally: Tally
    metrics: dict  # name -> Metric
    notes: dict = field(default_factory=dict)  # extra context printed before the result


class HostClock:
    """Tracks the speed of a shared host with a fixed reference kernel.

    On a shared virtual machine the same code runs 10-30% faster or
    slower from one minute (sometimes one second) to the next, as
    neighbours load the host.  The reference kernel -- a sparse product,
    a small dense product and a JSON round trip, none of it code from
    this repository -- is timed between the workload's ops.  An op's
    reported time is its raw time multiplied by the factor of the
    reference samples around it (:meth:`factor`): what the op would have
    taken on the host at nominal speed.
    """

    #: Median reference-kernel time on the box the bounds were set on
    #: (2 vCPU Xeon at 2.1 GHz, one BLAS thread, quiet host).
    NOMINAL_SECONDS = 0.0060

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        self._sparse = sp.random(
            10_000, 10_000, density=3e-3, format="csr", random_state=rng
        )
        self._columns = rng.random((10_000, 8))
        self._dense = rng.random((1500, 1500))
        self._dense_columns = rng.random((1500, 4))
        self._payload = {
            "results": [
                {"node": f"node_{i}", "scores": {f"class_{c}": c / 8 for c in range(8)}}
                for i in range(128)
            ]
        }
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the reference kernel once."""
        import json

        started = time.perf_counter()
        self._sparse @ self._columns
        self._dense @ self._dense_columns
        json.loads(json.dumps(self._payload))
        self.samples.append(time.perf_counter() - started)

    def factor(self, start: int = 0, stop: int | None = None) -> float:
        """Nominal over the median of ``samples[start:stop]`` (< 1 on a slow host).

        ``start`` is clamped at 0; the default covers the whole run.
        """
        return self.NOMINAL_SECONDS / median(self.samples[max(start, 0):stop])


def latency_metrics(seconds: list[float]) -> dict:
    """``op_p50_ms`` and ``op_p90_ms`` from per-op times in seconds."""
    n = len(seconds)
    return {
        "op_p50_ms": Metric(median(seconds) * 1e3, "ms", n),
        "op_p90_ms": Metric(percentile(seconds, 90) * 1e3, "ms", n),
    }


def in_child(fn, *args, timeout: float = 170.0):
    """Run ``fn(*args)`` in a forked child process and return its result.

    The child starts from this process's state, so it pays the first-touch
    costs (page faults, allocator growth) a fresh program would, and its
    memory high-water mark is its own.  Raises ``RuntimeError`` when the
    child raised, died or overran ``timeout``.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def target():
        try:
            sender.send(("ok", fn(*args)))
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            sender.send(("error", repr(exc)))

    # Not a daemonic process: the sharded-fit probe forks workers from it.
    process = context.Process(target=target)
    process.start()
    sender.close()
    try:
        if not receiver.poll(timeout):
            raise RuntimeError(f"child running {fn.__name__} overran {timeout}s")
        status, payload = receiver.recv()
    except EOFError:
        raise RuntimeError(f"child running {fn.__name__} died") from None
    finally:
        if process.is_alive():
            process.join(timeout)
        if process.is_alive():
            process.kill()
            process.join()
        receiver.close()
    if status != "ok":
        raise RuntimeError(f"child running {fn.__name__} failed: {payload}")
    return payload
