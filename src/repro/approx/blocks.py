"""Block-diagonal factor partitioning (the ``diag_blocks`` policy).

The paper eigendecomposes every d×d Kronecker factor exactly — cubic in
``d``, dominated by ResNet-50's widest 3×3×512 factor (d = 4608).  A
block-diagonal approximation keeps only ``k`` diagonal blocks of each
factor, cutting the eig cost from ``d^3`` to roughly ``d^3 / k^2`` and
the shipped triangle from ``d(d+1)/2`` to the sum of the block
triangles.

**Widest-layer-first policy.**  ``diag_blocks=k`` fixes a target block
edge from the *widest* factor in the model: ``block_dim =
ceil(max_dim / k)``.  The widest factor gets ``k`` blocks; narrower
factors get proportionally fewer (``ceil(d / block_dim)``), and factors
narrower than one block stay exact.  This concentrates the
approximation where the FLOP/byte savings live and leaves small layers
untouched, matching the ``diag_blocks`` idiom of block-diagonal K-FAC
preconditioners for wide layers.

This module is pure index arithmetic — no numerics — so the planner,
the perfmodel, and the hypothesis test suite can all share one source
of truth for what a "block" is.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "block_boundaries",
    "widest_first_block_dim",
    "plan_block_bounds",
    "block_eig_elements",
]

#: A factor's block partition: ``((lo, hi), ...)`` half-open row/col ranges.
Bounds = tuple[tuple[int, int], ...]


def block_boundaries(dim: int, n_blocks: int) -> Bounds:
    """Split ``range(dim)`` into ``n_blocks`` contiguous near-equal blocks.

    Ragged splits put the larger blocks first; ``n_blocks`` is clamped to
    ``[1, dim]`` so ``k > d`` degrades gracefully to one block per index.
    The returned ranges tile ``[0, dim)`` exactly — the hypothesis suite
    holds this for arbitrary ``(dim, n_blocks)``.

    Example
    -------
    >>> from repro.approx.blocks import block_boundaries
    >>> block_boundaries(7, 3)
    ((0, 3), (3, 5), (5, 7))
    >>> block_boundaries(2, 5)        # k > d: clamped to d singleton blocks
    ((0, 1), (1, 2))
    >>> block_boundaries(4, 1)
    ((0, 4),)
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    n = min(n_blocks, dim)
    base, extra = divmod(dim, n)
    bounds = []
    lo = 0
    for i in range(n):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return tuple(bounds)


def widest_first_block_dim(dims: Sequence[int], diag_blocks: int) -> int:
    """Target block edge: the widest factor split into ``diag_blocks``.

    Example
    -------
    >>> from repro.approx.blocks import widest_first_block_dim
    >>> widest_first_block_dim([97, 36, 17], 4)    # ceil(97 / 4)
    25
    """
    if not dims:
        raise ValueError("dims must be non-empty")
    if diag_blocks < 1:
        raise ValueError(f"diag_blocks must be >= 1, got {diag_blocks}")
    return max(1, math.ceil(max(dims) / diag_blocks))


def plan_block_bounds(
    dims: Sequence[int], diag_blocks: int, diagonal: Sequence[bool] | None = None
) -> list[Bounds]:
    """Per-factor block partitions under the widest-layer-first policy.

    Each factor of dimension ``d`` gets ``ceil(d / block_dim)`` blocks
    where ``block_dim = ceil(max(dims) / diag_blocks)`` — the widest
    factor gets ``diag_blocks`` blocks, narrow factors stay exact.
    Factors flagged in ``diagonal`` already equal every block partition
    of themselves: they stay whole, and the edge comes from dense dims only.

    Example
    -------
    >>> from repro.approx.blocks import plan_block_bounds
    >>> plan_block_bounds([97, 36, 17], 4)        # block edge 25
    [((0, 25), (25, 49), (49, 73), (73, 97)), ((0, 18), (18, 36)), ((0, 17),)]
    >>> plan_block_bounds([97, 36, 17], 1)        # k = 1: everything exact
    [((0, 97),), ((0, 36),), ((0, 17),)]
    >>> plan_block_bounds([97, 36], 2, diagonal=[True, False])   # edge 18
    [((0, 97),), ((0, 18), (18, 36))]
    """
    flags = list(diagonal) if diagonal is not None else [False] * len(dims)
    dense = [d for d, diag in zip(dims, flags) if not diag]
    if diag_blocks == 1 or not dense:
        return [((0, d),) for d in dims]
    block_dim = widest_first_block_dim(dense, diag_blocks)
    return [
        ((0, d),) if diag else block_boundaries(d, math.ceil(d / block_dim))
        for d, diag in zip(dims, flags)
    ]


def block_eig_elements(bounds: Bounds) -> int:
    """Elements of one factor's blocked eigenbasis: ``sum(db^2 + db)``.

    Per block, the dense basis ``Q`` (``db^2``) plus the eigenvalue
    vector (``db``) — the payload an EigShare task ships for that
    factor.  With a single block this is the exact path's ``d^2 + d``.

    Example
    -------
    >>> from repro.approx.blocks import block_boundaries, block_eig_elements
    >>> block_eig_elements(block_boundaries(4, 1))    # 16 + 4
    20
    >>> block_eig_elements(block_boundaries(4, 2))    # 2 * (4 + 2)
    12
    """
    return sum((hi - lo) ** 2 + (hi - lo) for lo, hi in bounds)
