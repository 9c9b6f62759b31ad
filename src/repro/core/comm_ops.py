"""Communication requests yielded by the K-FAC step generator.

Algorithm 1 is implemented exactly once, as a generator that *yields*
communication requests and receives their results (see
:mod:`repro.core.preconditioner`).  The two transports in
:mod:`repro.core.distributed` execute those requests:

- phase-style (a lockstep controller matching requests across simulated
  workers and executing fused :class:`repro.comm.World` collectives), or
- SPMD-style (each rank's thread resolves requests through matched
  Horovod-like collectives).

A world of one needs no transport: its generator yields nothing
(``KFAC.step()``).  This mirrors how the real implementation separates
the K-FAC math from Horovod communication handles (§V-A).

The launch/wait protocol
------------------------
Every collective is a *launch* followed by a *wait* (SPD-KFAC style), so
the generator can interleave local compute with in-flight communication:

1. ``yield Launch(kind, tensor, tag, phase, ...)`` — one
   :class:`repro.comm.handles.Launch` record describes every collective
   (an allreduce, a world or group allgather, a group broadcast); the
   driver starts it and resumes the generator immediately with ``None``.
   ``tag`` must be unique within the step and identical across ranks
   (drivers match launches by position *and* by every field but the
   tensor).
2. The generator performs local work (e.g. eigendecomposing factor
   chunks whose reduction already completed), accumulating a
   *deterministic* estimate of the simulated seconds spent (see
   :func:`repro.comm.engine.estimate_second_order_seconds`).
3. ``yield WaitRequest(tag, compute_seconds)`` — the driver resolves the
   matching launch and responds with the collective's result: the
   reduced tensor for an allreduce, ``[contribution_rank0, ...]`` for an
   allgather.  ``compute_seconds`` is the local compute performed
   since the previous wait; the world credits ``min(compute_seconds
   across ranks)`` of the op's cost as *hidden* (overlapped) rather than
   exposed time.

Every rank must wait every tag it launched, in the same order — drivers
may deadlock-check but do not reorder.  The synchronous schedule
(``scheduler="sync"``) is the degenerate case of the same protocol: each
launch is followed at once by ``WaitRequest(tag, 0.0)``, so the whole
cost is exposed.

For the group collectives *every* rank yields the launch and the wait in
lockstep — ranks that send nothing (non-members, a broadcast's non-root
members) pass ``tensor=None``, and non-members receive ``None`` —
so the gradient-worker-fraction share steps can overlap with other
in-flight work (the task-graph scheduler in :mod:`repro.sched` relies on
this).

Packing
-------
:func:`pack_arrays`/:func:`unpack_arrays` flatten tensor groups for fused
transport.  Packing *preserves the caller's dtype* (promoting mixed inputs
via ``np.result_type``), so a float64 factor crossing a worker boundary
comes back float64 and multi-worker precision matches a single worker's.

The factor allreduce ships no list of tensors: each launch carries one
flat slice of the factor wire (see :class:`repro.comm.fusion.WirePlan`),
so the drivers reduce it as is, with nothing to fuse or split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WaitRequest",
    "pack_arrays",
    "unpack_arrays",
]


@dataclass
class WaitRequest:
    """Block on a previously launched collective identified by ``tag``.

    ``compute_seconds`` is the *simulated* local compute performed since
    the previous wait (deterministic estimate, never wall clock); the
    driver forwards it as the overlap budget so that much of the op's cost
    is accounted as hidden rather than exposed.
    """

    tag: str
    compute_seconds: float = 0.0


def pack_arrays(arrays: list[np.ndarray], dtype: str | np.dtype | None = None) -> np.ndarray:
    """Concatenate arrays into one flat buffer (deterministic order).

    The buffer dtype defaults to ``np.result_type`` of the inputs, so the
    caller's precision survives the collective round trip; pass ``dtype``
    explicitly to force a transport precision (e.g. empty contributions
    that must match peers' dtype).
    """
    if not arrays:
        return np.zeros(0, dtype=dtype if dtype is not None else "float32")
    if dtype is None:
        dtype = np.result_type(*arrays)
    return np.concatenate([np.ascontiguousarray(a, dtype=dtype).reshape(-1) for a in arrays])


def unpack_arrays(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Split a flat buffer back into arrays of the given shapes."""
    sizes = [int(np.prod(s)) if s else 1 for s in shapes]
    total = sum(sizes)
    if flat.size != total:
        raise ValueError(f"flat buffer has {flat.size} elements, shapes need {total}")
    out = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        out.append(flat[offset : offset + size].reshape(shape).copy())
        offset += size
    return out
