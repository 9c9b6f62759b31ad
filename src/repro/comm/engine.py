"""Pipelining policy: bucketing and deterministic compute-overlap budgets.

- **Bucketing** — :func:`partition_buckets` splits the K-FAC factor
  exchange into pipelineable chunks (SPD-KFAC's tensor partitioning:
  chunks small enough that communication of chunk ``k+1`` can hide behind
  compute on chunk ``k``, large enough to stay bandwidth-bound).  Under
  symmetric factor communication the partition runs over the *packed*
  triangular payloads (:func:`symmetric_payload_nbytes`), so the pipeline
  depth follows the roughly-halved bytes actually on the wire.
- **Overlap budgets** — a launched collective's ``wait(overlap_seconds)``
  hides up to that much of its cost.  Budgets must be *deterministic*
  (simulated seconds, never wall clock), so this module prices the
  eigendecomposition and preconditioning work the pipelined K-FAC step
  interleaves between launches and waits at a nominal throughput.
- **Overlap report** — :func:`task_overlap_profile` keys the world's
  exposed/hidden seconds by scheduler task kind.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.comm.fusion import tri_len

__all__ = [
    "DEFAULT_BUCKET_BYTES",
    "estimate_precondition_seconds",
    "estimate_second_order_seconds",
    "partition_buckets",
    "symmetric_payload_nbytes",
    "task_overlap_profile",
]

#: default pipeline chunk size — small enough that a ResNet-scale factor
#: exchange splits into many chunks, large enough to stay bandwidth-bound.
DEFAULT_BUCKET_BYTES = 4 << 20

#: nominal dense eigensolver throughput (FLOP/s) for overlap budgets.
#: Deliberately a *model* constant, not a measurement: budgets must be
#: identical across machines so pipelined runs stay deterministic.
NOMINAL_SECOND_ORDER_FLOPS = 25.0e9

#: syevd-style eigendecomposition costs ~(26/3) n^3 FLOPs; explicit damped
#: inversion (Cholesky + solve) ~2 n^3.
EIG_FLOP_COEF = 26.0 / 3.0
INV_FLOP_COEF = 2.0


def estimate_second_order_seconds(factors: Sequence[Any], eigen: bool = True) -> float:
    """Deterministic simulated seconds to eigendecompose/invert factors.

    ``factors`` are the factors handled locally between an async launch and
    its wait — side lengths, or metas carrying ``dim`` / ``diagonal`` (a
    diagonal factor costs one pass over ``dim`` elements, not ``dim^3``);
    the result prices how much in-flight communication that compute can hide.

    Example
    -------
    >>> from repro.comm.engine import estimate_second_order_seconds
    >>> t = estimate_second_order_seconds([256, 512])
    >>> t == estimate_second_order_seconds([256, 512])   # deterministic
    True
    >>> t > estimate_second_order_seconds([256])
    True
    """
    coef = EIG_FLOP_COEF if eigen else INV_FLOP_COEF
    flops = 0.0
    for f in factors:
        dim = float(getattr(f, "dim", f))
        flops += dim if getattr(f, "diagonal", False) else coef * dim**3
    return flops / NOMINAL_SECOND_ORDER_FLOPS


def estimate_precondition_seconds(layers: Sequence[tuple[Any, Any]]) -> float:
    """Deterministic simulated seconds to precondition layer gradients.

    ``layers`` are ``(G side, A side)`` pairs of the layers preconditioned
    locally between an async launch and its wait, or ``(G side, A side,
    k)`` triples for a layer preconditioned as ``k`` gradient slices (a
    conv layer's kernel offsets); a side is its length, or a meta carrying
    ``dim`` / ``diagonal``.  The eigenbasis path rotates each ``g x a``
    slice into and out of each dense side's basis — ``4 g^2 a`` FLOPs for
    the G side, ``4 g a^2`` for the A side — while a diagonal side is a
    scaling folded into the rescale, priced at nothing.  The nominal
    throughput is the second-order estimator's, so graph-scheduler overlap
    budgets stay machine-independent.

    Example
    -------
    >>> from repro.comm.engine import estimate_precondition_seconds
    >>> from repro.core.assignment import FactorMeta
    >>> t = estimate_precondition_seconds([(10, 20)])
    >>> t == estimate_precondition_seconds([(10, 20)])   # deterministic
    True
    >>> t < estimate_precondition_seconds([(10, 20), (30, 30)])
    True
    >>> vec = FactorMeta("emb", "A", 20, diagonal=True)
    >>> estimate_precondition_seconds([(10, vec)]) == 4 * 10**2 * 20 / NOMINAL_SECOND_ORDER_FLOPS
    True
    >>> conv = (FactorMeta("conv", "G", 16), FactorMeta("conv", "A", 8), 9)  # 3x3, C_in 8
    >>> flops = 9 * (4 * 16**2 * 8 + 4 * 16 * 8**2)
    >>> estimate_precondition_seconds([conv]) == flops / NOMINAL_SECOND_ORDER_FLOPS
    True
    """
    flops = 0.0
    for g_side, a_side, *k in layers:
        sides = (g_side, a_side)
        g, a = (float(getattr(s, "dim", s)) for s in sides)
        dense = [float(getattr(s, "dim", s)) for s in sides if not getattr(s, "diagonal", False)]
        flops += (k[0] if k else 1) * 4.0 * g * a * sum(dense)
    return flops / NOMINAL_SECOND_ORDER_FLOPS


#: comm phase -> scheduler task kind responsible for that traffic
_PHASE_TO_TASK_KIND = {
    "factor_comm": "FactorComm",
    "eig_comm": "EigShare",
    "precond_comm": "GradShare",
    "grad_allreduce": "GradAllReduce",
}


def task_overlap_profile(overlap) -> dict[str, dict[str, float]]:
    """Exposed/hidden seconds keyed by scheduler task kind.

    Translates the per-phase :class:`repro.comm.backend.OverlapStats` into
    the task vocabulary of :mod:`repro.sched` (``FactorComm``, ``EigShare``,
    ``GradShare``, ...), so training histories can report which *task kind*
    paid exposed communication and which overlapped.  Every mapped task
    kind is always present — kinds that never ran report zeroed fields, so
    downstream tables see a stable schema.  Phases without a task mapping
    keep their phase name.

    Example
    -------
    >>> from repro.comm.backend import OverlapStats
    >>> from repro.comm.engine import task_overlap_profile
    >>> stats = OverlapStats()
    >>> stats.record("factor_comm", exposed=0.2, hidden=0.8)
    >>> profile = task_overlap_profile(stats)
    >>> profile["FactorComm"]
    {'exposed': 0.2, 'hidden': 0.8}
    >>> sorted(profile)                       # zeroed kinds still present
    ['EigShare', 'FactorComm', 'GradAllReduce', 'GradShare']
    >>> profile["EigShare"]
    {'exposed': 0.0, 'hidden': 0.0}
    """
    out: dict[str, dict[str, float]] = {
        kind: {"exposed": 0.0, "hidden": 0.0}
        for kind in _PHASE_TO_TASK_KIND.values()
    }
    for phase, entry in overlap.as_dict().items():
        kind = _PHASE_TO_TASK_KIND.get(phase, phase)
        bucket = out.setdefault(kind, {"exposed": 0.0, "hidden": 0.0})
        bucket["exposed"] += entry["exposed"]
        bucket["hidden"] += entry["hidden"]
    return out


def symmetric_payload_nbytes(dims: Sequence[int], itemsize: int = 4) -> list[int]:
    """Per-factor wire bytes under triangular packing.

    A ``d x d`` symmetric factor ships as ``d*(d+1)/2`` elements; feed the
    result to :func:`partition_buckets` to derive the pipeline chunking
    the packed exchange actually sees.

    Example
    -------
    >>> from repro.comm.engine import symmetric_payload_nbytes
    >>> symmetric_payload_nbytes([3, 4])      # 6 and 10 elements, fp32
    [24, 40]
    """
    return [tri_len(int(d)) * int(itemsize) for d in dims]


def partition_buckets(nbytes_list: Sequence[int], bucket_bytes: int) -> list[list[int]]:
    """Split item indices into contiguous buckets of at most ``bucket_bytes``.

    Items larger than the capacity get a bucket of their own; order is
    preserved so every rank derives the identical partition from the same
    metadata (a hard requirement for lockstep matching).

    Example
    -------
    >>> from repro.comm.engine import partition_buckets
    >>> partition_buckets([10, 10, 10, 25], bucket_bytes=20)
    [[0, 1], [2], [3]]
    """
    if bucket_bytes <= 0:
        raise ValueError(f"bucket_bytes must be positive, got {bucket_bytes}")
    buckets: list[list[int]] = []
    current: list[int] = []
    current_bytes = 0
    for i, nbytes in enumerate(nbytes_list):
        if current and current_bytes + int(nbytes) > bucket_bytes:
            buckets.append(current)
            current = []
            current_bytes = 0
        current.append(i)
        current_bytes += int(nbytes)
    if current:
        buckets.append(current)
    return buckets
