"""The record that describes a collective, and the handle its launch returns.

Every collective is described once, by a :class:`Launch`: its kind, this
rank's tensor, its tag and phase, and the member ranks, root, reduction
and wire codec it needs.  Both worlds start one from that record
(:meth:`repro.comm.backend.World.start`,
:meth:`repro.comm.backend.RankView.start`).

Horovod registers a collective and resolves it later (§V-A: "handles are
registered to communication operations ... and wait to do the
communication in batches").  Every launch here returns a :class:`Handle`
whose ``wait(overlap_seconds=...)`` runs one callable exactly once:

- a phase-style :class:`repro.comm.backend.World` moves the data at launch
  (its ranks are deterministic) and *settles* the simulated cost at wait,
  splitting it into exposed seconds and seconds hidden behind the
  ``overlap_seconds`` of compute done since the launch;
- an SPMD :class:`repro.comm.backend.RankView` *posts* this rank's
  contribution at wait, blocking until the op is matched, and forwards the
  overlap budget (the least-overlapped rank sets the barrier).

A blocking collective is ``launch(...).wait()``: a zero budget charges the
whole cost as exposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generic, TypeVar

import numpy as np

__all__ = ["Launch", "Handle"]

T = TypeVar("T")

_PENDING: Any = object()


@dataclass
class Launch:
    """One collective: ``kind`` is ``"allreduce"``, ``"allgather"`` or ``"broadcast"``.

    ``tensor`` is this rank's contribution (``None`` for a rank that
    sends nothing: a non-member of the group, or a broadcast's non-root).
    ``tag`` names the op and must be identical on every rank.  ``ranks``
    restricts the op to a worker group, in ring order (``None`` = the
    whole world); ``root`` is a broadcast's source, ``op`` an allreduce's
    reduction (``"average"``/``"sum"``) and ``codec`` its wire
    compression (``"fp16"``/``"bf16"``; ``None`` keeps the dtype).  A
    ``"barrier"`` (SPMD only) matches the ranks and moves nothing.

    Equality ignores ``tensor``: two ranks' launches of the same op
    compare equal, and comparing them never touches the payloads.

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.handles import Launch
    >>> a = Launch("allgather", np.ones(2), "share", "eig_comm", ranks=[2, 3])
    >>> a == Launch("allgather", None, "share", "eig_comm", ranks=(2, 3)), a.ranks
    (True, (2, 3))
    >>> a.matches(a, 3), a.matches(Launch("allgather", None, "share", "eig_comm", ranks=(2, 3)), 1)
    (True, True)
    >>> a.matches(a, 1)                          # a non-member sends nothing
    False
    """

    kind: str
    tensor: np.ndarray | None = field(compare=False, repr=False)
    tag: str
    phase: str
    ranks: tuple[int, ...] | None = None
    root: int = 0
    op: str = "average"
    codec: str | None = None

    def __post_init__(self) -> None:
        if self.ranks is not None:
            self.ranks = tuple(self.ranks)

    def matches(self, other: Launch, rank: int) -> bool:
        """Whether ``other`` is a valid launch of this op by ``rank``.

        It must be the same record, carry a tensor exactly when ``rank``
        sends one (a broadcast's root, every member otherwise), and give
        an allreduce the same shape.
        """
        if other != self:
            return False
        if self.kind == "broadcast":
            sends = rank == self.root
        else:
            sends = self.ranks is None or rank in self.ranks
        if (other.tensor is not None) != sends:
            return False
        return self.kind != "allreduce" or other.tensor.shape == self.tensor.shape


class Handle(Generic[T]):
    """A launched collective, resolved by :meth:`wait`.

    Example
    -------
    >>> from repro.comm.handles import Handle
    >>> calls = []
    >>> h = Handle(lambda overlap: calls.append(overlap) or len(calls))
    >>> h.wait(0.5), h.wait(0.5), calls        # run once, then cached
    (1, 1, [0.5])
    """

    def __init__(self, fn: Callable[[float], T]) -> None:
        self._fn = fn
        self._result: Any = _PENDING

    def wait(self, overlap_seconds: float = 0.0) -> T:
        """The op's result; the first call settles or posts it.

        A call that raises caches nothing, so a retried wait re-posts.
        """
        if self._result is _PENDING:
            self._result = self._fn(overlap_seconds)
        return self._result
