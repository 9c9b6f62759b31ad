"""Alpha-beta (latency-bandwidth) cost model for collectives.

Horovod's allreduce "is implemented by using the scatter-reduce algorithm,
which is bandwidth optimal in the ring topology" (§II-D).  The standard
costs for ``p`` ranks and an ``n``-byte payload on a link with latency
``alpha`` (s) and bandwidth ``beta`` (B/s):

- ring allreduce       : 2(p-1) alpha + 2 n (p-1)/p / beta
- ring reduce-scatter  :  (p-1) alpha +   n (p-1)/p / beta
- ring allgather       :  (p-1) alpha +   n (p-1)/p / beta   (n = total gathered)
- binomial broadcast   : ceil(log2 p) (alpha + n / beta)

These functions are used (a) by the data-moving collectives to charge
simulated seconds and (b) by :mod:`repro.perfmodel` to project the paper's
16–256 GPU scaling behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "NetworkProfile",
    "allreduce_time",
    "allgather_time",
    "broadcast_time",
    "scatter_broadcast_time",
    "EDR_LIKE",
    "SLOW_ETHERNET",
]


@dataclass(frozen=True)
class NetworkProfile:
    """Point-to-point link model.

    Attributes
    ----------
    latency:
        Per-message latency in seconds (alpha).
    bandwidth:
        Link bandwidth in bytes/second (1/beta).
    name:
        Label for reports.
    """

    latency: float
    bandwidth: float
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")

    def transfer_time(self, nbytes: float) -> float:
        """Time for a single point-to-point message.

        Example
        -------
        >>> from repro.comm.costmodel import NetworkProfile
        >>> net = NetworkProfile(latency=1e-6, bandwidth=1e9)
        >>> net.transfer_time(1e9)     # 1 GB at 1 GB/s (+1 us latency)
        1.000001
        """
        return self.latency + nbytes / self.bandwidth


#: InfiniBand EDR-like profile (Frontera GPU subsystem, §VI-A): ~100 Gb/s
#: per link, ~2 microseconds latency.  Effective bandwidth derated to
#: account for protocol overheads seen by NCCL/Horovod in practice.
EDR_LIKE = NetworkProfile(latency=2.0e-6, bandwidth=10.5e9, name="infiniband-edr")

#: A slow-network profile for ablation studies.
SLOW_ETHERNET = NetworkProfile(latency=50.0e-6, bandwidth=1.1e9, name="10gbe")


def _check(nbytes: float, p: int) -> None:
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes}")
    if p < 1:
        raise ValueError(f"world size must be >= 1, got {p}")


def allreduce_time(nbytes: float, p: int, net: NetworkProfile) -> float:
    """Ring allreduce time for an ``nbytes`` payload across ``p`` ranks.

    Example
    -------
    >>> from repro.comm.costmodel import EDR_LIKE, allreduce_time
    >>> allreduce_time(1 << 20, 1, EDR_LIKE)            # no peers, no cost
    0.0
    >>> t8 = allreduce_time(1 << 20, 8, EDR_LIKE)
    >>> t64 = allreduce_time(1 << 20, 64, EDR_LIKE)
    >>> 0.0 < t8 < t64                                  # bandwidth-bound
    True
    """
    _check(nbytes, p)
    if p == 1 or nbytes == 0:
        return 0.0
    steps = 2 * (p - 1)
    return steps * net.latency + 2.0 * nbytes * (p - 1) / p / net.bandwidth


def allgather_time(total_nbytes: float, p: int, net: NetworkProfile) -> float:
    """Ring allgather time (``total_nbytes`` = size of the gathered result).

    Example
    -------
    >>> from repro.comm.costmodel import EDR_LIKE, allgather_time
    >>> 0.0 < allgather_time(1 << 20, 4, EDR_LIKE) < allgather_time(1 << 20, 8, EDR_LIKE)
    True
    """
    _check(total_nbytes, p)
    if p == 1 or total_nbytes == 0:
        return 0.0
    return (p - 1) * net.latency + total_nbytes * (p - 1) / p / net.bandwidth


def broadcast_time(nbytes: float, p: int, net: NetworkProfile) -> float:
    """Binomial-tree broadcast time.

    Example
    -------
    >>> from repro.comm.costmodel import EDR_LIKE, broadcast_time
    >>> t4, t8 = (broadcast_time(1 << 10, p, EDR_LIKE) for p in (4, 8))
    >>> round(t8 / t4, 2)                # ceil(log2 p) rounds: 3/2
    1.5
    """
    _check(nbytes, p)
    if p == 1 or nbytes == 0:
        return 0.0
    rounds = math.ceil(math.log2(p))
    return rounds * net.transfer_time(nbytes)


def scatter_broadcast_time(nbytes: float, p: int, net: NetworkProfile) -> float:
    """Bandwidth-optimal large-payload broadcast: scatter + ring allgather.

    The van-de-Geijn algorithm NCCL-style collectives use above the
    latency regime: the root scatters ``1/p`` chunks, then a ring
    allgather reassembles them — ``2 (p-1) alpha + 2 n (p-1)/p / beta``,
    strictly increasing in ``p`` for fixed payload (unlike the stepwise
    binomial tree).  This prices the second-stage preconditioned-gradient
    broadcasts of the gradient-worker-fraction placement.

    Example
    -------
    >>> from repro.comm.costmodel import EDR_LIKE, scatter_broadcast_time
    >>> t33 = scatter_broadcast_time(1 << 20, 33, EDR_LIKE)
    >>> t64 = scatter_broadcast_time(1 << 20, 64, EDR_LIKE)
    >>> 0.0 < t33 < t64
    True
    """
    _check(nbytes, p)
    if p == 1 or nbytes == 0:
        return 0.0
    steps = 2 * (p - 1)
    return steps * net.latency + 2.0 * nbytes * (p - 1) / p / net.bandwidth
