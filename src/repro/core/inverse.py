"""The two K-FAC update algorithms the paper compares (§IV-A).

1. **Explicit factored inverse** (Eq. 11–12)::

       precond = (G + gamma I)^{-1} grad (A + gamma I)^{-1}

   i.e. the damping is applied *per factor*.  Note this is NOT the exact
   Tikhonov-damped inverse of the Kronecker block: expanding the product
   introduces cross terms ``gamma(A (x) I + I (x) G) + gamma^2 I`` instead
   of ``gamma I``.  The paper shows this approximation degrades validation
   accuracy as batch size grows (Table I).

2. **Implicit eigendecomposition** (Eqs. 13–15, from Grosse & Martens
   App. A.2)::

       A = Q_A diag(v_A) Q_A^T,   G = Q_G diag(v_G) Q_G^T
       V1 = Q_G^T grad Q_A
       V2 = V1 / (v_G v_A^T + gamma)
       precond = Q_G V2 Q_A^T

   which IS the exact ``(G (x) A + gamma I)^{-1} vec(grad)`` under
   row-major ``vec`` — the property our tests verify against a dense
   reference.

(The paper's §IV-A prose swaps the ``Q_A``/``Q_G`` symbols when stating the
decompositions; we implement the mathematically consistent pairing: ``Q_G``
acts on the output dimension, ``Q_A`` on the input dimension.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

__all__ = [
    "FactorEig",
    "eigendecompose",
    "explicit_damped_inverse",
    "precondition_eigen",
    "precondition_inverse",
    "dense_fisher_block",
    "dense_damped_inverse_apply",
]


@dataclass
class FactorEig:
    """Eigendecomposition of a symmetric PSD factor: ``M = Q diag(lam) Q^T``.

    ``Q is None`` is the identity basis of a *diagonal* factor: ``lam`` is
    its diagonal in index order, and consumers skip that side's rotation.
    A *blocked* basis (the ``diag_blocks`` approximation) decomposes each
    diagonal block of the factor on its own: ``blocks`` holds one
    ``(hi - lo, hi - lo)`` basis per ``(lo, hi)`` range in ``bounds``,
    ``lam`` the concatenated spectrum, and ``Q`` is None — the dense
    block-diagonal basis is assembled only by :meth:`arrays`.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.inverse import eigendecompose
    >>> eig = eigendecompose(np.eye(3, dtype=np.float64))
    >>> eig.dim, eig.lam.tolist()
    (3, [1.0, 1.0, 1.0])
    >>> diag = eigendecompose(np.array([4.0, 9.0]))     # O(dim), no LAPACK
    >>> diag.Q is None, diag.lam.tolist(), len(diag.arrays())
    (True, [4.0, 9.0], 1)
    >>> blk = eigendecompose(np.diag([4.0, 9.0]), bounds=((0, 1), (1, 2)))
    >>> blk.blocked, blk.lam.tolist(), blk.arrays()[0].shape
    (True, [4.0, 9.0], (2, 2))
    """

    Q: np.ndarray | None
    lam: np.ndarray
    blocks: tuple[np.ndarray, ...] = ()
    bounds: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.bounds):
            raise ValueError(f"{len(self.blocks)} blocks for {len(self.bounds)} bounds")
        for q, (lo, hi) in zip(self.blocks, self.bounds):
            if q.shape != (hi - lo, hi - lo):
                raise ValueError(
                    f"block basis {q.shape} != bound width {hi - lo} at ({lo}, {hi})"
                )

    @classmethod
    def from_blocks(
        cls, parts: Sequence["FactorEig"], bounds: tuple[tuple[int, int], ...]
    ) -> "FactorEig":
        """A blocked basis from the per-block decompositions ``parts``."""
        return cls(
            None,
            np.concatenate([p.lam for p in parts]),
            tuple(p.Q for p in parts),
            tuple(bounds),
        )

    @property
    def dim(self) -> int:
        return self.lam.shape[0]

    @property
    def blocked(self) -> bool:
        """Is this one basis per diagonal block (``diag_blocks > 1``)?"""
        return bool(self.bounds)

    def arrays(self) -> list[np.ndarray]:
        """What a share or checkpoint carries: ``[Q, lam]``, or ``[lam]``.

        A blocked basis ships its dense block-diagonal assembly.
        """
        if self.blocked:
            q = np.zeros((self.dim, self.dim), dtype=self.blocks[0].dtype)
            for b, (lo, hi) in zip(self.blocks, self.bounds):
                q[lo:hi, lo:hi] = b
            return [q, self.lam]
        return [self.lam] if self.Q is None else [self.Q, self.lam]


def eigendecompose(
    factor: np.ndarray,
    clip_negative: bool = True,
    bounds: tuple[tuple[int, int], ...] | None = None,
) -> FactorEig:
    """Symmetric eigendecomposition via LAPACK's divide-and-conquer ``?syevd``.

    Factors are covariance matrices, hence PSD up to floating-point noise;
    ``clip_negative`` zeroes tiny negative eigenvalues so the damped
    denominator ``v_G v_A^T + gamma`` can never cross zero — this numerical
    robustness is the mechanism behind the eigen path's stability advantage
    in Table I.  A 1-D ``factor`` is the diagonal of a diagonal matrix:
    identity basis, the (clipped) vector as spectrum — ``eigh``'s answer up
    to a signed permutation that cancels exactly in :func:`precondition_eigen`.
    ``bounds`` (a block partition, see
    :func:`repro.approx.blocks.plan_block_bounds`) decomposes each diagonal
    block on its own and returns the blocked basis: off-block entries are
    discarded — that *is* the approximation — and the cost drops from
    ``d^3`` to ``sum(db^3)``.  ``?syevd`` (``eigh(driver="evd")``) is both
    faster than ``eigh``'s default ``?syevr`` at factor sizes and more
    accurate: on Gram factors its basis is orthogonal to a fraction of
    ``d * eps``, where ``?syevr``'s is off by one to ten ``d * eps``.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.inverse import eigendecompose
    >>> eig = eigendecompose(np.diag([4.0, 9.0]))
    >>> sorted(eig.lam.tolist())
    [4.0, 9.0]
    >>> recon = eig.Q @ np.diag(eig.lam) @ eig.Q.T
    >>> bool(np.allclose(recon, np.diag([4.0, 9.0])))
    True
    >>> [b.shape for b in eigendecompose(np.eye(4), bounds=((0, 2), (2, 4))).blocks]
    [(2, 2), (2, 2)]
    """
    if factor.ndim == 1:
        lam = np.maximum(factor, 0.0) if clip_negative else factor.copy()
        return FactorEig(Q=None, lam=lam)
    if factor.ndim != 2 or factor.shape[0] != factor.shape[1]:
        raise ValueError(f"factor must be square, got {factor.shape}")
    if bounds is not None:
        if bounds[-1][1] != factor.shape[0]:
            raise ValueError(
                f"bounds cover {bounds[-1][1]} rows, factor has {factor.shape[0]}"
            )
        return FactorEig.from_blocks(
            [
                eigendecompose(np.ascontiguousarray(factor[lo:hi, lo:hi]), clip_negative)
                for lo, hi in bounds
            ],
            bounds,
        )
    lam, q = scipy.linalg.eigh(factor, driver="evd")
    if clip_negative:
        np.maximum(lam, 0.0, out=lam)
    return FactorEig(Q=np.ascontiguousarray(q), lam=lam)


def explicit_damped_inverse(factor: np.ndarray, gamma: float) -> np.ndarray:
    """``(factor + gamma I)^{-1}`` via Cholesky, falling back to ``pinv``.

    The fallback mirrors what happens in practice when the damped factor is
    numerically singular at FP32 — the resulting preconditioner is the
    source of the accuracy loss the paper reports for the inverse method.
    A 1-D (diagonal) factor inverts elementwise and stays a vector; its
    counterpart of the fallback maps entries the damping leaves
    non-positive to 0, as ``pinv`` does for a singular direction.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.inverse import explicit_damped_inverse
    >>> inv = explicit_damped_inverse(np.eye(2), gamma=1.0)
    >>> bool(np.allclose(inv, 0.5 * np.eye(2)))    # (I + I)^-1
    True
    >>> explicit_damped_inverse(np.array([3.0, 15.0]), gamma=1.0).tolist()
    [0.25, 0.0625]
    >>> explicit_damped_inverse(np.array([4.0, 0.0]), gamma=0.0).tolist()
    [0.25, 0.0]
    """
    if gamma < 0:
        raise ValueError(f"damping must be non-negative, got {gamma}")
    if factor.ndim == 1:
        # 1/sqrt twice, not 1/x: the roundings of the Cholesky solve below
        # on the dense diagonal matrix, so both forms agree bit for bit;
        # a non-positive entry keeps sqrt's inf placeholder and inverts to 0
        damped = factor + factor.dtype.type(gamma)
        r = 1.0 / np.sqrt(damped, where=~(damped <= 0), out=np.full_like(damped, np.inf))
        return r * r
    if factor.ndim != 2 or factor.shape[0] != factor.shape[1]:
        raise ValueError(f"factor must be square, got {factor.shape}")
    damped = factor + gamma * np.eye(factor.shape[0], dtype=factor.dtype)
    try:
        cho = scipy.linalg.cho_factor(damped, lower=True)
        return scipy.linalg.cho_solve(cho, np.eye(factor.shape[0], dtype=factor.dtype))
    except scipy.linalg.LinAlgError:
        return np.linalg.pinv(damped)


def precondition_eigen(
    grad: np.ndarray, eig_A: FactorEig, eig_G: FactorEig, gamma: float
) -> np.ndarray:
    """Apply Eqs. 13–15: the exact damped Kronecker inverse of the gradient.

    Parameters
    ----------
    grad:
        Gradient matrix of shape ``(d_out, d_in)`` (bias column included
        when the layer has one), or a ``(k, d_out, d_in)`` stack of them
        preconditioned against the same factors — the solve with
        ``A (x) I_k`` of a conv layer's offset slices.
    eig_A / eig_G:
        Dense, diagonal (``Q is None``) or blocked bases, in any pairing;
        a blocked side rotates block by block.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.inverse import eigendecompose, precondition_eigen
    >>> eig = eigendecompose(np.eye(2))
    >>> grad = np.ones((2, 2))
    >>> precondition_eigen(grad, eig, eig, gamma=1.0).tolist()
    [[0.5, 0.5], [0.5, 0.5]]
    >>> precondition_eigen(np.ones((3, 2, 2)), eig, eig, gamma=1.0).shape
    (3, 2, 2)
    """
    if grad.shape[-2:] != (eig_G.dim, eig_A.dim):
        raise ValueError(
            f"grad shape {grad.shape} incompatible with factors "
            f"G:{eig_G.dim} A:{eig_A.dim}"
        )
    if gamma <= 0:
        raise ValueError(f"damping must be positive for the eigen path, got {gamma}")
    if eig_A.bounds or eig_G.bounds:
        return _precondition_blocked(grad, eig_A, eig_G, gamma)
    # a side whose basis is the identity (Q is None) skips both rotations
    v1 = grad if eig_G.Q is None else eig_G.Q.T @ grad
    if eig_A.Q is not None:
        v1 = v1 @ eig_A.Q
    v2 = v1 / (np.outer(eig_G.lam, eig_A.lam) + gamma)
    out = v2 if eig_G.Q is None else eig_G.Q @ v2
    return out if eig_A.Q is None else out @ eig_A.Q.T


def _rotations(eig: FactorEig) -> list[tuple[np.ndarray, int, int]]:
    """``(basis, lo, hi)`` per rotation one side applies: one per block,
    its dense basis over the whole range, or none for the identity."""
    if eig.blocked:
        return [(q, lo, hi) for q, (lo, hi) in zip(eig.blocks, eig.bounds)]
    return [] if eig.Q is None else [(eig.Q, 0, eig.dim)]


def _precondition_blocked(
    grad: np.ndarray, eig_A: FactorEig, eig_G: FactorEig, gamma: float
) -> np.ndarray:
    """Eqs. 13–15 with a blocked side, never densifying its basis.

    Each rotation is applied block by block (``Q_b^T x`` on the row
    blocks of ``grad``, ``x Q_b`` on the column blocks); the damped
    denominator uses the concatenated spectra.  The result equals
    :func:`precondition_eigen` on the assembled block-diagonal basis at
    ``sum(db^3)`` instead of ``d^3`` cost.
    """
    g_rot, a_rot = _rotations(eig_G), _rotations(eig_A)
    v1 = np.array(grad)
    for q, lo, hi in g_rot:
        v1[..., lo:hi, :] = q.T @ grad[..., lo:hi, :]
    for q, lo, hi in a_rot:
        v1[..., lo:hi] = v1[..., lo:hi] @ q
    out = v1 / (np.outer(eig_G.lam, eig_A.lam) + gamma)
    for q, lo, hi in g_rot:
        out[..., lo:hi, :] = q @ out[..., lo:hi, :]
    for q, lo, hi in a_rot:
        out[..., lo:hi] = out[..., lo:hi] @ q.T
    return out


def precondition_inverse(
    grad: np.ndarray, inv_A: np.ndarray, inv_G: np.ndarray
) -> np.ndarray:
    """Apply Eq. 12: ``inv_G @ grad @ inv_A`` (factored damping).

    A 1-D inverse is the diagonal of a diagonal one: it scales the
    gradient's rows (``inv_G``) or columns (``inv_A``) instead.  ``grad``
    may carry one leading stack axis, as in :func:`precondition_eigen`.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.inverse import precondition_inverse
    >>> precondition_inverse(np.ones((2, 2)), 0.5 * np.eye(2), np.eye(2)).tolist()
    [[0.5, 0.5], [0.5, 0.5]]
    >>> precondition_inverse(np.ones((2, 2)), np.array([0.5, 0.25]), np.eye(2)).tolist()
    [[0.5, 0.25], [0.5, 0.25]]
    """
    if grad.shape[-2:] != (inv_G.shape[0], inv_A.shape[0]):
        raise ValueError(
            f"grad shape {grad.shape} incompatible with inverses "
            f"G:{inv_G.shape} A:{inv_A.shape}"
        )
    out = inv_G[:, None] * grad if inv_G.ndim == 1 else inv_G @ grad
    return out * inv_A if inv_A.ndim == 1 else out @ inv_A


def dense_fisher_block(a_factor: np.ndarray, g_factor: np.ndarray) -> np.ndarray:
    """Dense ``F_hat = G (x) A`` under row-major ``vec`` (testing reference).

    For ``W`` of shape ``(d_out, d_in)`` and ``vec = W.reshape(-1)``,
    ``(G (x) A) vec(W) == vec(G @ W @ A^T)``.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.inverse import dense_fisher_block
    >>> dense_fisher_block(np.eye(2), 2.0 * np.eye(3)).shape
    (6, 6)
    """
    return np.kron(g_factor, a_factor)


def dense_damped_inverse_apply(
    grad: np.ndarray, a_factor: np.ndarray, g_factor: np.ndarray, gamma: float
) -> np.ndarray:
    """Reference ``(F_hat + gamma I)^{-1} vec(grad)``, reshaped like ``grad``.

    Cubic in ``d_out * d_in`` — only usable on tiny layers, which is the
    point: it is the ground truth the fast paths are tested against.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.inverse import dense_damped_inverse_apply
    >>> grad = np.ones((2, 2))
    >>> out = dense_damped_inverse_apply(grad, np.eye(2), np.eye(2), gamma=1.0)
    >>> out.tolist()                       # (I (x) I + I)^-1 vec = vec / 2
    [[0.5, 0.5], [0.5, 0.5]]
    """
    f_hat = dense_fisher_block(a_factor, g_factor)
    n = f_hat.shape[0]
    damped = f_hat + gamma * np.eye(n, dtype=f_hat.dtype)
    flat = np.linalg.solve(damped, grad.reshape(-1))
    return flat.reshape(grad.shape)
