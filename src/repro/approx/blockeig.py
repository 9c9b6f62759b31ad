"""Blocked eigenbases: per-block decomposition and preconditioning.

A :class:`BlockFactorEig` holds one :class:`~repro.core.inverse.FactorEig`
per diagonal block of a factor.  Mathematically it is exactly the
eigendecomposition of the block-diagonal *approximation* of the factor:
the dense basis is the block-diagonal assembly of the per-block ``Q``'s
and the spectrum is the concatenation of the per-block eigenvalues — so
:func:`precondition_block_eigen` with blocked bases equals
:func:`~repro.core.inverse.precondition_eigen` applied to that assembled
dense basis, while costing only ``sum(db^3)`` instead of ``d^3``.

With a single block everything delegates to the exact-path functions,
which keeps ``diag_blocks=1`` bit-identical to the seed code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.approx.blocks import Bounds
from repro.core.inverse import FactorEig, eigendecompose, precondition_eigen

__all__ = [
    "BlockFactorEig",
    "block_eigendecompose",
    "precondition_block_eigen",
]


@dataclass
class BlockFactorEig:
    """Eigendecomposition of a factor's block-diagonal approximation.

    Exposes the same ``Q`` / ``lam`` / ``dim`` / ``arrays()`` surface as
    :class:`~repro.core.inverse.FactorEig` (the dense properties assemble
    the block-diagonal basis), so checkpointing and the elastic
    redistribute path work unchanged on blocked state.

    Example
    -------
    >>> import numpy as np
    >>> from repro.approx.blockeig import block_eigendecompose
    >>> eig = block_eigendecompose(np.diag([4.0, 9.0]), ((0, 1), (1, 2)))
    >>> eig.n_blocks, eig.dim, eig.lam.tolist()
    (2, 2, [4.0, 9.0])
    >>> eig.Q.shape                    # dense block-diagonal assembly
    (2, 2)
    """

    blocks: tuple[FactorEig, ...]
    bounds: Bounds

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.bounds):
            raise ValueError(
                f"{len(self.blocks)} blocks for {len(self.bounds)} bounds"
            )
        for eig, (lo, hi) in zip(self.blocks, self.bounds):
            if eig.dim != hi - lo:
                raise ValueError(
                    f"block dim {eig.dim} != bound width {hi - lo} at ({lo}, {hi})"
                )

    @property
    def dim(self) -> int:
        return self.bounds[-1][1]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def lam(self) -> np.ndarray:
        """Concatenated per-block eigenvalues (the full spectrum)."""
        return np.concatenate([b.lam for b in self.blocks])

    @property
    def Q(self) -> np.ndarray:
        """Dense block-diagonal basis (for checkpoints; not the hot path)."""
        d = self.dim
        out = np.zeros((d, d), dtype=self.blocks[0].Q.dtype)
        for eig, (lo, hi) in zip(self.blocks, self.bounds):
            out[lo:hi, lo:hi] = eig.Q
        return out

    def arrays(self) -> list[np.ndarray]:
        """The dense ``[Q, lam]`` a share or checkpoint carries."""
        return [self.Q, self.lam]

    def nbytes(self) -> int:
        return sum(b.nbytes() for b in self.blocks)


def block_eigendecompose(factor: np.ndarray, bounds: Bounds) -> BlockFactorEig:
    """Eigendecompose each diagonal block of ``factor`` independently.

    Off-block entries are discarded — this *is* the approximation.  Cost
    drops from ``d^3`` to ``sum(db^3)`` (``~d^3 / k^2`` for ``k`` equal
    blocks).

    Example
    -------
    >>> import numpy as np
    >>> from repro.approx.blockeig import block_eigendecompose
    >>> eig = block_eigendecompose(np.eye(4), ((0, 2), (2, 4)))
    >>> [b.dim for b in eig.blocks]
    [2, 2]
    """
    if factor.ndim != 2 or factor.shape[0] != factor.shape[1]:
        raise ValueError(f"factor must be square, got {factor.shape}")
    if bounds[-1][1] != factor.shape[0]:
        raise ValueError(
            f"bounds cover {bounds[-1][1]} rows, factor has {factor.shape[0]}"
        )
    return BlockFactorEig(
        blocks=tuple(
            eigendecompose(np.ascontiguousarray(factor[lo:hi, lo:hi]))
            for lo, hi in bounds
        ),
        bounds=bounds,
    )


def _as_blocks(eig: "FactorEig | BlockFactorEig") -> tuple[tuple, Bounds]:
    if isinstance(eig, BlockFactorEig):
        return eig.blocks, eig.bounds
    return (eig,), ((0, eig.dim),)


def precondition_block_eigen(
    grad: np.ndarray,
    eig_A: "FactorEig | BlockFactorEig",
    eig_G: "FactorEig | BlockFactorEig",
    gamma: float,
) -> np.ndarray:
    """Eqs. 13–15 with block-diagonal bases, never densifying ``Q``.

    Each side's rotation is applied block-by-block (``Q_b^T x`` on the
    row blocks of ``grad``, ``x Q_b`` on the column blocks), the damped
    denominator uses the concatenated spectra, and the inverse rotations
    mirror the forward ones.  When both sides are plain
    :class:`~repro.core.inverse.FactorEig` this delegates to
    :func:`~repro.core.inverse.precondition_eigen`, making the single
    block case bit-identical to the exact path.

    Example
    -------
    >>> import numpy as np
    >>> from repro.approx.blockeig import (block_eigendecompose,
    ...                                    precondition_block_eigen)
    >>> eig = block_eigendecompose(np.eye(2), ((0, 1), (1, 2)))
    >>> precondition_block_eigen(np.ones((2, 2)), eig, eig, gamma=1.0).tolist()
    [[0.5, 0.5], [0.5, 0.5]]
    """
    if grad.shape != (eig_G.dim, eig_A.dim):
        raise ValueError(
            f"grad shape {grad.shape} incompatible with factors "
            f"G:{eig_G.dim} A:{eig_A.dim}"
        )
    if gamma <= 0:
        raise ValueError(f"damping must be positive for the eigen path, got {gamma}")
    if not isinstance(eig_A, BlockFactorEig) and not isinstance(eig_G, BlockFactorEig):
        return precondition_eigen(grad, eig_A, eig_G, gamma)

    a_blocks, a_bounds = _as_blocks(eig_A)
    g_blocks, g_bounds = _as_blocks(eig_G)

    # an exact diagonal side (FactorEig with Q None) is its own single
    # block in the identity basis: its rotations are skipped
    v1 = np.array(grad)
    for eig, (lo, hi) in zip(g_blocks, g_bounds):
        if eig.Q is not None:
            v1[lo:hi, :] = eig.Q.T @ grad[lo:hi, :]
    for eig, (lo, hi) in zip(a_blocks, a_bounds):
        if eig.Q is not None:
            v1[:, lo:hi] = v1[:, lo:hi] @ eig.Q

    out = v1 / (np.outer(eig_G.lam, eig_A.lam) + gamma)
    for eig, (lo, hi) in zip(g_blocks, g_bounds):
        if eig.Q is not None:
            out[lo:hi, :] = eig.Q @ out[lo:hi, :]
    for eig, (lo, hi) in zip(a_blocks, a_bounds):
        if eig.Q is not None:
            out[:, lo:hi] = out[:, lo:hi] @ eig.Q.T
    return out
