"""Symmetric Gram products ``X^T X`` via BLAS rank-k updates.

Every K-FAC factor is a Gram matrix, and a plain GEMM computes both
triangles of that symmetric result — twice the necessary FLOPs.  BLAS
``?syrk`` computes only one triangle (half the multiply-accumulates); we
mirror it into the other triangle once, which also makes the result
*exactly* symmetric — the property the triangular-packed factor
communication in :mod:`repro.comm.fusion` relies on for losslessness.

Implementation note: for a C-contiguous ``X`` of shape ``(m, n)``, ``X.T``
is Fortran-contiguous, so ``syrk(a=X.T, trans=0)`` computes
``X^T (X^T)^T = X^T X`` with zero input copies; passing ``c=out.T`` with
``overwrite_c`` makes BLAS fill the *upper* triangle of our C-ordered
``out`` in place.  Falls back to ``X.T @ X`` (symmetrized) for dtypes
without a syrk routine or when SciPy is unavailable.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gram", "gram_upper", "has_syrk", "mirror_upper"]

try:  # SciPy ships with the toolchain; gate anyway so the GEMM path survives
    from scipy.linalg.blas import dsyrk as _dsyrk
    from scipy.linalg.blas import ssyrk as _ssyrk

    _SYRK = {np.dtype(np.float32): _ssyrk, np.dtype(np.float64): _dsyrk}
except ImportError:  # pragma: no cover - scipy is a baked-in dependency
    _SYRK = {}

#: cached strict-lower-triangle masks, keyed by diagonal tile side length
_TRIL_MASKS: dict[int, np.ndarray] = {}

#: mirror tile side: big enough to amortize the python loop, small enough
#: that a (tile, tile) block transpose stays cache-resident — measured ~8x
#: faster than a whole-matrix fancy-index mirror at ResNet factor sizes.
_MIRROR_TILE = 256


def has_syrk(dtype: np.dtype | str) -> bool:
    """True when a BLAS rank-k kernel exists for ``dtype``.

    Example
    -------
    >>> from repro.tensor.gram import has_syrk
    >>> has_syrk("float16")    # halves fall back to the GEMM path
    False
    """
    return np.dtype(dtype) in _SYRK


def _tril_mask(n: int) -> np.ndarray:
    mask = _TRIL_MASKS.get(n)
    if mask is None:
        mask = _TRIL_MASKS[n] = np.tri(n, k=-1, dtype=bool)
    return mask


def mirror_upper(mat: np.ndarray) -> np.ndarray:
    """Copy the upper triangle into the lower, in place; returns ``mat``.

    Tiled: off-diagonal blocks are blockwise transposed copies (cache
    friendly); each diagonal block is one masked copy of its transpose.

    Example
    -------
    >>> import numpy as np
    >>> from repro.tensor.gram import mirror_upper
    >>> m = np.array([[1., 2.], [0., 3.]], dtype=np.float32)
    >>> mirror_upper(m)
    array([[1., 2.],
           [2., 3.]], dtype=float32)
    """
    n = mat.shape[0]
    if n <= 1:
        return mat
    tile = _MIRROR_TILE
    for i0 in range(0, n, tile):
        i1 = min(i0 + tile, n)
        for j0 in range(0, i0, tile):
            j1 = min(j0 + tile, n)
            mat[i0:i1, j0:j1] = mat[j0:j1, i0:i1].T
        blk = mat[i0:i1, i0:i1]
        np.copyto(blk, blk.T, where=_tril_mask(i1 - i0))
    return mat


def gram_upper(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The upper triangle of ``x.T @ x`` into ``out`` (an optional
    C-contiguous ``(n, n)`` buffer of ``x``'s dtype), at half the GEMM FLOPs.

    The kernel under :func:`gram`: the strict lower triangle is left as it
    was (the GEMM fallback fills it too), for a caller that mirrors many
    Gram products at once (``KFAC``'s factor sweep).

    Example
    -------
    >>> import numpy as np
    >>> from repro.tensor.gram import gram_upper
    >>> x = np.array([[1., 2.], [3., 4.]], dtype=np.float32)
    >>> gram_upper(x, out=np.zeros((2, 2), np.float32))
    array([[10., 14.],
           [ 0., 20.]], dtype=float32)
    """
    if x.ndim != 2:
        raise ValueError(f"gram expects a 2-D matrix, got shape {x.shape}")
    n = x.shape[1]
    if out is None:
        out = np.empty((n, n), dtype=x.dtype)
    elif out.shape != (n, n) or out.dtype != x.dtype or not out.flags.c_contiguous:
        raise ValueError(
            f"gram out buffer must be C-contiguous {(n, n)} {x.dtype}, "
            f"got {out.shape} {out.dtype}"
        )
    fn = _SYRK.get(x.dtype)
    if fn is None:
        out[...] = x.T @ x
    else:
        # lower=1 on the F-ordered view c=out.T fills out's *upper* triangle;
        # a C-contiguous out of x's dtype is written in place, never copied
        fn(alpha=1.0, a=x.T, trans=0, lower=1, c=out.T, overwrite_c=1)
    return out


def gram(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x.T @ x`` as an exactly symmetric matrix, at half the GEMM FLOPs:
    :func:`gram_upper`, then :func:`mirror_upper`.

    Parameters
    ----------
    x:
        Data matrix of shape ``(m, n)``; rows are samples.
    out:
        Optional ``(n, n)`` C-contiguous output buffer (e.g. from a
        :class:`repro.tensor.workspace.Workspace`); contents are
        overwritten.

    Returns
    -------
    numpy.ndarray
        ``(n, n)`` Gram matrix with ``gram(x) == gram(x).T`` holding
        bit-for-bit.

    Example
    -------
    >>> import numpy as np
    >>> from repro.tensor.gram import gram
    >>> x = np.random.default_rng(0).normal(size=(64, 8)).astype(np.float32)
    >>> G = gram(x)
    >>> bool(np.array_equal(G, G.T))          # exactly symmetric
    True
    >>> bool(np.allclose(G, x.T @ x, atol=1e-4))
    True
    """
    return mirror_upper(gram_upper(x, out))
