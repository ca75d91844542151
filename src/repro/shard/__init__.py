"""Sharded multi-process fits: contiguous node shards + fork workers.

Public surface:

* :func:`plan_shards` / :class:`ShardPlan` / :class:`Shard` — the
  balanced-nnz contiguous row partitioner, for in-memory and
  store-backed operators alike.
* :class:`ShardBackend` — the fork pool as a
  :class:`~repro.core.chains.LocalBackend` subclass: workers compute
  operator parts into shared buffers, the inherited Eq. 10 mix and
  the operators' own closed forms finish them; and
  :func:`run_chains_sharded`, the entry point that runs the one chain
  driver (:func:`repro.core.chains.run_chains`) over it (bit-identical
  scores for any shard count).
* :func:`shard_fallback_reason` — why sharding is unavailable here
  (``None`` when it is): the pools' shared
  :func:`repro.experiments.parallel.serial_fallback_reason`, re-exported;
  callers fall back to the serial path with a ``RuntimeWarning``
  exactly like the parallel grid does.

Entry points thread through the stack: ``TMark.fit(shards=K,
workers=N)``, :func:`repro.ooc.fit_from_store`,
``StreamingSession.reconverge`` and the CLI's ``run --shards``.
"""

from repro.experiments.parallel import serial_fallback_reason as shard_fallback_reason
from repro.shard.engine import ShardBackend, run_chains_sharded
from repro.shard.plan import Shard, ShardPlan, plan_shards

__all__ = [
    "Shard",
    "ShardBackend",
    "ShardPlan",
    "plan_shards",
    "run_chains_sharded",
    "shard_fallback_reason",
]
