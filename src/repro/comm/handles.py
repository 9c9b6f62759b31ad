"""The handle every collective launch returns.

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

from typing import Any, Callable, Generic, TypeVar

__all__ = ["Handle"]

T = TypeVar("T")

_PENDING: Any = object()


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
