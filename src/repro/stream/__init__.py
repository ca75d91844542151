"""The streaming / incremental-update layer.

An evolving HIN is modelled as a seed graph plus an ordered journal of
:class:`GraphDelta` edits.  :class:`IncrementalOperators` keeps the
T-Mark operator triple ``(O, R, W)`` in sync with the graph (``O`` /
``R`` rebuilt from the post-batch tensor, ``W`` refreshed only when
features change; exact against a full rebuild), and :class:`StreamingSession` warm-starts the per-class
chains from the previous stationary distributions so each update
reconverges in a fraction of the cold-start iterations.
"""

from repro.stream.delta import (
    DELTA_OPS,
    DeltaBatch,
    GraphDelta,
    apply_batch,
    as_batch,
    resolve_batch,
)
from repro.stream.journal import DeltaLog
from repro.stream.operators import IncrementalOperators
from repro.stream.session import StreamUpdate, StreamingSession
from repro.stream.workload import synthetic_delta_log

__all__ = [
    "DELTA_OPS",
    "DeltaBatch",
    "DeltaLog",
    "GraphDelta",
    "IncrementalOperators",
    "StreamUpdate",
    "StreamingSession",
    "apply_batch",
    "as_batch",
    "resolve_batch",
    "synthetic_delta_log",
]
