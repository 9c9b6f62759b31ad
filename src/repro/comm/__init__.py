"""Simulated Horovod-like communication substrate.

The paper's implementation communicates through Horovod's ``allreduce()``,
``allgather()`` and ``broadcast()`` with asynchronous handles and a fusion
buffer (§II-D, §V-A).  This package reproduces those semantics for
*simulated* workers living in one process:

- :mod:`repro.comm.backend` — the :class:`World`: ranks, op matching with
  deadlock detection, byte/time accounting;
- :mod:`repro.comm.collectives` — data-moving ring allreduce/allgather,
  binomial-tree broadcast, reduce-scatter (bit-level testable);
- :mod:`repro.comm.handles` — the one :class:`~repro.comm.handles.Handle`
  every collective launch returns (a blocking call is launch + wait);
- :mod:`repro.comm.costmodel` — alpha-beta cost functions for the same
  algorithms (drives the paper's scaling results);
- :mod:`repro.comm.fusion` — Horovod's fusion buffer (accumulate small
  tensors, flush as one bandwidth-bound allreduce);
- :mod:`repro.comm.engine` — the pipelining policy: factor-exchange
  bucketing, deterministic compute-overlap budgets, and exposed vs. hidden
  communication time keyed by scheduler task (SPD-KFAC-style overlap);
- :mod:`repro.comm.horovod` — a ``hvd``-flavoured per-rank frontend
  (``size``/``rank``/``allreduce``/``allgather``/``broadcast``/``barrier``/
  ``broadcast_parameters``, and ``DistributedOptimizer``).
"""

from repro.comm.backend import OverlapStats, World
from repro.comm.engine import (
    estimate_second_order_seconds,
    partition_buckets,
    symmetric_payload_nbytes,
)
from repro.comm.collectives import (
    binomial_broadcast,
    ring_allgather,
    ring_allreduce,
    ring_reduce_scatter,
)
from repro.comm.costmodel import (
    NetworkProfile,
    allgather_time,
    allreduce_time,
    broadcast_time,
)
from repro.comm.fusion import (
    FusionBuffer,
    tri_len,
    tri_pack,
    tri_unpack,
)
from repro.comm.horovod import Average, DistributedOptimizer, HorovodContext, Sum

__all__ = [
    "World",
    "OverlapStats",
    "estimate_second_order_seconds",
    "partition_buckets",
    "symmetric_payload_nbytes",
    "tri_len",
    "tri_pack",
    "tri_unpack",
    "ring_allreduce",
    "ring_allgather",
    "ring_reduce_scatter",
    "binomial_broadcast",
    "NetworkProfile",
    "allreduce_time",
    "allgather_time",
    "broadcast_time",
    "FusionBuffer",
    "HorovodContext",
    "DistributedOptimizer",
    "Average",
    "Sum",
]
