"""Online prediction service over snapshot-swapped stationary state.

A fitted T-Mark model answers every query — classify a node, rank the
top-k candidates of a class, report relation weights — by reading the
frozen stationary pair ``(X, Z)``.  This package turns that shape into
a low-latency serving tier:

* :class:`Snapshot` (``snapshot.py``) — one immutable, precomputed
  serving state (scores, argmax labels, top-k rankings, chain health).
* :mod:`~repro.serve.handlers` — pure endpoint functions over a shared
  :class:`ServingState` whose snapshot reference is replaced by atomic
  assignment, never mutated.
* :class:`PredictionDaemon` (``daemon.py``) — a daemon on the stdlib's
  ``http.server``: reader threads serve JSON from the current snapshot,
  encoded by ``orjson`` (compact, shortest round-trip floats), while a
  single updater thread journals incoming delta batches, reconverges
  the streaming session warm, and swaps the fresh snapshot in.

See ``docs/architecture.md`` ("Serving") for the lifecycle diagram and
readiness semantics.
"""

from repro.serve.daemon import PredictionDaemon, serve_forever
from repro.serve.handlers import ServingState
from repro.serve.snapshot import Snapshot

__all__ = [
    "PredictionDaemon",
    "ServingState",
    "Snapshot",
    "serve_forever",
]
