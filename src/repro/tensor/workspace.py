"""Reusable scratch-buffer arena for hot-path temporaries.

Steady-state training performs the same tensor ops with the same shapes
every iteration.  A :class:`Workspace` pools the largest temporaries —
each ``Conv2d``'s saved patch matrix or zero-padded NHWC input, its
im2col staging and shifted-GEMM scratch, and the factor stage's rows
staged for a bias column or an NCHW copy: :meth:`request` hands out a
buffer (recycled when one of matching size exists, freshly allocated
otherwise) and :meth:`release` returns it to the pool, so after a
warm-up iteration those paths allocate no scratch.

Buffers are keyed by ``(dtype, element count)`` — exact-size matching,
which is the right policy for a fixed-shape training loop — and handed out
*uninitialized* (callers must overwrite, exactly like ``np.empty``).
``list.append``/``list.pop`` are atomic under the GIL, so a shared arena is
safe for the threaded SPMD driver: a popped buffer is exclusively owned by
the thread that popped it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace", "default_workspace"]


class Workspace:
    """Size-keyed pool of reusable scratch arrays.

    Example
    -------
    >>> from repro.tensor.workspace import Workspace
    >>> ws = Workspace()
    >>> a = ws.request((4, 4), "float32")     # warm-up: allocates
    >>> ws.release(a)
    >>> b = ws.request((2, 8), "float32")     # same element count: recycled
    >>> ws.hits, ws.misses
    (1, 1)
    """

    def __init__(self) -> None:
        self._pool: dict[tuple[str, int], list[np.ndarray]] = {}
        #: requests served from the pool (steady state: every request hits)
        self.hits = 0
        #: requests that had to allocate (warm-up / shape changes)
        self.misses = 0

    def request(self, shape: tuple[int, ...], dtype: np.dtype | str) -> np.ndarray:
        """A buffer of ``shape``/``dtype`` with *uninitialized* contents.

        Recycles a pooled buffer of the exact element count when one is
        available; otherwise allocates.  The caller owns the buffer until
        it is :meth:`release`-d back.
        """
        dt = np.dtype(dtype)
        size = 1
        for s in shape:
            size *= int(s)
        stack = self._pool.get((dt.str, size))
        if stack:
            # pop() itself is atomic under the GIL, but check-then-pop is
            # not: another thread may drain the stack in between, so treat
            # an empty pop as a miss rather than crashing
            try:
                buf = stack.pop()
            except IndexError:
                pass
            else:
                self.hits += 1
                return buf.reshape(shape)
        self.misses += 1
        return np.empty(shape, dtype=dt)

    def release(self, arr: np.ndarray | None) -> None:
        """Return a buffer to the pool (no-op for None / non-contiguous views).

        The caller must not touch ``arr`` afterwards — the next
        :meth:`request` of the same size may hand it to someone else.
        """
        if arr is None or not arr.flags.c_contiguous:
            return
        key = (arr.dtype.str, int(arr.size))
        self._pool.setdefault(key, []).append(arr.reshape(-1))

    @property
    def pooled_buffers(self) -> int:
        """Number of buffers currently parked in the pool."""
        return sum(len(v) for v in self._pool.values())

    @property
    def pooled_bytes(self) -> int:
        """Bytes currently parked in the pool."""
        return sum(b.nbytes for v in self._pool.values() for b in v)

    def clear(self) -> None:
        """Drop every pooled buffer (frees the memory) and reset counters."""
        self._pool.clear()
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Workspace(buffers={self.pooled_buffers}, bytes={self.pooled_bytes}, "
            f"hits={self.hits}, misses={self.misses})"
        )


_DEFAULT = Workspace()


def default_workspace() -> Workspace:
    """The process-wide shared arena (used by layers unless given their own).

    Example
    -------
    >>> from repro.tensor.workspace import Workspace, default_workspace
    >>> default_workspace() is default_workspace()   # one shared arena
    True
    >>> isinstance(default_workspace(), Workspace)
    True
    """
    return _DEFAULT
