"""Horovod-style tensor fusion buffer and triangular factor packing.

Horovod accumulates small tensors into a 16–32 MB fusion buffer and issues
one allreduce per full buffer "to guarantee that each allreduce() is
bandwidth dominated" (§II-D).  This class reproduces that batching for the
phase-style world: callers ``add`` named per-rank tensor groups; once the
accumulated payload reaches capacity the buffer flushes as a *single*
fused ring allreduce (one latency charge instead of one per tensor).

Buffers are meant to be *persistent*: build one per (op, phase) and reuse
it every iteration, as :class:`repro.parallel.trainer.DataParallelTrainer`
does for its gradient exchange — capacity-respecting flushes then carry
across iterations and ``flush_count``/``bytes_flushed`` accumulate over the
whole run.

Planning-time bucket partitioning (deciding *which* factors fuse into
which pipeline chunk, before any tensor exists) lives elsewhere:
:func:`repro.sched.planner.plan_buckets` is the single entry point, and
:func:`repro.comm.engine.partition_buckets` the shared greedy primitive.

**Triangular packing** (:func:`tri_pack` / :func:`tri_unpack`): a Kronecker
factor is symmetric, so its ``d*d`` payload carries ``d*(d-1)/2`` redundant
elements.  Packing the upper triangle into a flat ``d*(d+1)/2`` vector
before the factor allreduce nearly halves the factor-stage bytes (the
Osawa et al. 2019 symmetry-aware communication trick); since averaging is
elementwise, reducing packed triangles then mirroring is *bit-identical*
to reducing the full matrices — provided the inputs are exactly symmetric,
which :func:`repro.tensor.gram.gram` guarantees by construction.

**The factor wire** (:class:`WirePlan`): the arena positions of all of one
granularity's packed factor units, so one ``np.take`` packs K-FAC's flat
factor arena and two scatters write both triangles back.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.comm.backend import World
from repro.comm.compression import ErrorFeedback, WireCodec, get_codec, wire_nbytes
from repro.tensor.gram import mirror_upper

__all__ = [
    "FusionBuffer",
    "WirePlan",
    "shared_wire_plan",
    "tri_len",
    "tri_pack",
    "tri_unpack",
]

#: cached packed-row offsets, keyed by side length: row ``i`` of the upper
#: triangle occupies ``flat[offsets[i]:offsets[i+1]]`` (row-major layout)
_ROW_OFFSET_CACHE: dict[int, np.ndarray] = {}


def _row_offsets(d: int) -> np.ndarray:
    offs = _ROW_OFFSET_CACHE.get(d)
    if offs is None:
        offs = np.zeros(d + 1, dtype=np.int64)
        np.cumsum(np.arange(d, 0, -1), out=offs[1:])
        _ROW_OFFSET_CACHE[d] = offs
    return offs


def tri_len(d: int) -> int:
    """Packed length of one ``d x d`` symmetric matrix: ``d*(d+1)/2``.

    Example
    -------
    >>> from repro.comm.fusion import tri_len
    >>> tri_len(4)
    10
    """
    return d * (d + 1) // 2


def tri_pack(mat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Flatten the upper triangle (row-major, diagonal included) of ``mat``.

    The matrix is *assumed* symmetric — only the upper triangle is read, so
    any asymmetry in the lower triangle is silently discarded.  Row-wise
    contiguous slice copies (~14x faster than a fancy-index gather at
    ResNet factor sizes).

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.fusion import tri_pack
    >>> m = np.array([[1.0, 2.0], [2.0, 3.0]])
    >>> tri_pack(m).tolist()
    [1.0, 2.0, 3.0]
    """
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"tri_pack expects a square matrix, got {mat.shape}")
    d = mat.shape[0]
    if out is None:
        out = np.empty(tri_len(d), dtype=mat.dtype)
    elif out.shape != (tri_len(d),) or out.dtype != mat.dtype:
        raise ValueError(
            f"tri_pack out must be ({tri_len(d)},) {mat.dtype}, "
            f"got {out.shape} {out.dtype}"
        )
    offs = _row_offsets(d)
    for i in range(d):
        out[offs[i] : offs[i + 1]] = mat[i, i:]
    return out


def tri_unpack(flat: np.ndarray, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rebuild the full symmetric ``d x d`` matrix from a packed triangle.

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.fusion import tri_unpack
    >>> tri_unpack(np.array([1.0, 2.0, 3.0]), 2).tolist()
    [[1.0, 2.0], [2.0, 3.0]]
    """
    if flat.shape != (tri_len(d),):
        raise ValueError(
            f"packed triangle for d={d} must have {tri_len(d)} elements, "
            f"got shape {flat.shape}"
        )
    if out is None:
        out = np.empty((d, d), dtype=flat.dtype)
    elif out.shape != (d, d) or out.dtype != flat.dtype:
        raise ValueError(
            f"tri_unpack out must be ({d}, {d}) {flat.dtype}, "
            f"got {out.shape} {out.dtype}"
        )
    offs = _row_offsets(d)
    for i in range(d):
        out[i, i:] = flat[offs[i] : offs[i + 1]]
    return mirror_upper(out)


class WirePlan:
    """Where one granularity's factor units sit in an arena and on the wire.

    ``units`` lists, in wire order, ``(offset, side, lo, dim, diagonal)``:
    the ``dim``-wide diagonal block at row/col ``lo`` of the ``side x side``
    factor stored row-major at ``arena[offset:]`` (a diagonal factor: its
    ``side``-vector, ``lo = 0``).  A unit ships its packed upper triangle
    when ``symmetric``, else its whole block; a diagonal factor its ``dim``
    elements.  ``offsets[i]:offsets[i + 1]`` is unit ``i``'s wire slice, so
    a contiguous run of units — a bucket — is a contiguous slice.  The
    index costs two ``intp`` per wire element, whatever the unit's width.

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.fusion import WirePlan
    >>> arena = np.array([1., 2., 2., 3., 7., 8.])   # a 2x2 factor, a 2-vector
    >>> plan = WirePlan([(0, 2, 0, 2, False), (4, 2, 0, 2, True)], symmetric=True)
    >>> wire = plan.pack(arena)
    >>> wire.tolist(), plan.offsets
    ([1.0, 2.0, 3.0, 7.0, 8.0], (0, 3, 5))
    >>> plan.unpack(wire[:3] * 10, arena, 0, 1)      # install unit 0 only
    >>> arena.tolist()
    [10.0, 20.0, 20.0, 30.0, 7.0, 8.0]
    """

    def __init__(self, units: Sequence[tuple[int, int, int, int, bool]], symmetric: bool) -> None:
        gather, mirror, offsets = [], [], [0]
        for offset, side, lo, dim, diag in units:
            if diag:
                upper = lower = np.arange(offset, offset + dim)
            else:
                if symmetric:
                    rows, cols = np.triu_indices(dim)
                else:
                    rows, cols = np.indices((dim, dim)).reshape(2, -1)
                upper = offset + (lo + rows) * side + lo + cols
                lower = offset + (lo + cols) * side + lo + rows
            gather.append(upper)
            mirror.append(lower)
            offsets.append(offsets[-1] + upper.size)
        self.offsets = tuple(offsets)
        #: arena position of each wire element, in wire order; the scatter
        #: writes the lower triangle through the transposed ``mirror``
        self.gather = np.concatenate(gather or [[]]).astype(np.intp)
        self.mirror = np.concatenate(mirror or [[]]).astype(np.intp) if symmetric else None
        for index in (self.gather, self.mirror):
            if index is not None:
                index.setflags(write=False)  # plans are shared (shared_wire_plan)

    def pack(self, arena: np.ndarray) -> np.ndarray:
        """The wire, gathered from ``arena``."""
        # positions are valid by construction; "wrap" skips the bounds pass
        return np.take(arena, self.gather, mode="wrap")

    def unpack(self, wire: np.ndarray, arena: np.ndarray, first: int, last: int) -> None:
        """Write ``wire``, the slice of units ``[first, last)``, into both
        triangles of each unit in ``arena`` (cast to its dtype) — and nowhere
        else (a block's off-block entries stay as they are)."""
        a, b = self.offsets[first], self.offsets[last]
        if wire.shape != (b - a,):
            raise ValueError(
                f"units [{first}, {last}) span {b - a} wire elements, got {wire.shape}"
            )
        for index in (self.gather, self.mirror):
            if index is not None:
                arena[index[a:b]] = wire


@functools.lru_cache(maxsize=8)
def shared_wire_plan(units: tuple, symmetric: bool) -> WirePlan:
    """The :class:`WirePlan` of a layout, built once per process: the
    replicas of one model hold identical arenas, so one index set serves
    them all."""
    return WirePlan(units, symmetric)


class FusionBuffer:
    """Accumulate named tensors and allreduce them in fused batches.

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.backend import World
    >>> from repro.comm.fusion import FusionBuffer
    >>> buf = FusionBuffer(World(2), capacity_bytes=1 << 20)
    >>> buf.add("w", [np.array([2.0]), np.array([4.0])])
    >>> buf.flush()
    >>> [v.tolist() for v in buf.pop("w")]     # averaged, one per rank
    [[3.0], [3.0]]
    """

    def __init__(
        self,
        world: World,
        capacity_bytes: int = 16 << 20,
        op: str = "average",
        phase: str = "fused_allreduce",
        codec: WireCodec | str | None = None,
        error_feedback: bool = True,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.world = world
        self.capacity_bytes = capacity_bytes
        self.op = op
        self.phase = phase
        #: wire compression for every flush (fp16/bf16 transport with fp32
        #: reduction accumulators); ``error_feedback`` banks each tensor's
        #: per-rank quantization residual and re-injects it on the next add
        self.codec = get_codec(codec)
        self._error_feedback: ErrorFeedback | None = (
            ErrorFeedback(self.codec) if self.codec is not None and error_feedback else None
        )
        self._entries: list[tuple[str, list[np.ndarray]]] = []
        self._pending_bytes = 0
        self._results: dict[str, list[np.ndarray]] = {}
        self.flush_count = 0
        #: cumulative per-rank payload actually sent through fused flushes —
        #: the "true fused payload" a persistent buffer accumulates across
        #: iterations (trainer accounting reads this), priced at the wire
        #: itemsize when a codec is set.
        self.bytes_flushed = 0

    def add(self, name: str, per_rank_tensors: list[np.ndarray]) -> None:
        """Queue one named tensor group (one tensor per rank) for reduction."""
        if len(per_rank_tensors) != self.world.size:
            raise ValueError(
                f"{name!r}: expected {self.world.size} tensors, got {len(per_rank_tensors)}"
            )
        if name in self._results or any(n == name for n, _ in self._entries):
            raise ValueError(f"duplicate tensor name {name!r} in fusion buffer")
        shape = per_rank_tensors[0].shape
        for r, t in enumerate(per_rank_tensors):
            if t.shape != shape:
                raise ValueError(f"{name!r}: rank {r} shape {t.shape} != {shape}")
        tensors = list(per_rank_tensors)
        if self._error_feedback is not None:
            tensors = [
                self._error_feedback.apply((name, r), t) for r, t in enumerate(tensors)
            ]
        self._entries.append((name, tensors))
        self._pending_bytes += wire_nbytes(tensors[0], self.codec)
        if self._pending_bytes >= self.capacity_bytes:
            self.flush()

    def flush(self) -> None:
        """Fuse all queued tensors into one flat allreduce and scatter results."""
        if not self._entries:
            return
        names = [n for n, _ in self._entries]
        shapes = [tensors[0].shape for _, tensors in self._entries]
        sizes = [int(np.prod(s)) if s else 1 for s in shapes]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        fused = [
            np.concatenate([tensors[r].reshape(-1) for _, tensors in self._entries])
            for r in range(self.world.size)
        ]
        reduced = self.world.allreduce(
            fused, op=self.op, phase=self.phase, codec=self.codec
        )
        for i, name in enumerate(names):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            self._results[name] = [r[lo:hi].reshape(shapes[i]).copy() for r in reduced]
        self._entries.clear()
        self._pending_bytes = 0
        self.flush_count += 1
        self.bytes_flushed += wire_nbytes(fused[0], self.codec)

    def rescale_residuals(self, factor: float) -> None:
        """Rescale banked error-feedback residuals (no-op without EF).

        Callers feeding *loss-scaled* gradients must invoke this with
        ``new_scale / old_scale`` whenever the scale changes, so residuals
        banked in old-scale units re-inject at the right magnitude.
        """
        if self._error_feedback is not None:
            self._error_feedback.rescale(factor)

    def pop(self, name: str) -> list[np.ndarray]:
        """Return (and forget) the reduced per-rank results for ``name``.

        Flushes first if the tensor is still queued.
        """
        if name not in self._results:
            self.flush()
        if name not in self._results:
            raise KeyError(f"tensor {name!r} was never added to the fusion buffer")
        return self._results.pop(name)

    @property
    def pending_bytes(self) -> int:
        return self._pending_bytes
