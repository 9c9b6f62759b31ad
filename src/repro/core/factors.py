"""Kronecker factor computation (Eq. 5) and running averages (Eqs. 16–17).

Conventions
-----------
Let the training loss be the *mean* over the local mini-batch of ``N``
examples (that is what ``repro.nn`` losses produce, matching PyTorch).  The
backward pass therefore yields ``g0 = d(mean loss)/d(layer output)``; the
per-example gradient of the *summed* loss is ``N * g0``.  With that:

- **Linear** (input ``a``: ``(N, d_in)``; output grad ``g0``: ``(N, d_out)``)::

      A = a^T a / N                      (append a ones column when bias)
      G = N * g0^T g0                    ( = (1/N) sum_i (N g0_i)(N g0_i)^T )

- **Conv2d** (KFC, Grosse & Martens 2016).  With ``patches`` the im2col
  expansion ``(N*L, C_in*kh*kw)`` over ``L`` spatial positions and ``g0``
  reshaped to ``(N*L, C_out)``::

      A = patches^T patches / (N * L)    (Omega, expectation over (n, t))
      G = N * g0^T g0                    ( = |T| * Gamma with de-averaged grads)

  so that ``G (x) A`` equals KFC's ``|T| * Omega (x) Gamma`` approximation
  of the Fisher block for the *mean* loss scaled consistently with the
  Linear case.  (Row-major ``vec``: the Fisher block on ``vec(W)`` is
  ``G (x) A``, with ``W`` of shape ``(d_out, d_in)``.)

Exactness anchor (tested): for a single sample through a Linear layer,
``vec(dW) vec(dW)^T == G (x) A`` holds *exactly*.

Symmetry fast path: every Gram product goes through
:func:`repro.tensor.gram.gram` (BLAS ``?syrk``, half the GEMM FLOPs), so
factors are *exactly* symmetric by construction — the invariant that makes
the triangular-packed factor communication in :mod:`repro.comm.fusion`
lossless.  ``conv2d_factor_A_from_patches`` accepts the patch matrix a
``Conv2d`` forward already lowered, skipping the second ``im2col`` pass
over the activations; every function takes an optional
:class:`repro.tensor.workspace.Workspace` whose scratch makes the whole
factor stage allocation-free at steady state.

Running average (paper Eqs. 16–17): the paper writes the new reading with
weight ``xi in [0.9, 1)``, but the reference implementation (and any sane
running average) weights the *old* value by the decay; we follow the
implementation: ``ema = decay * ema + (1 - decay) * new`` with
``decay = 0.95`` by default (the paper's ``xi`` is our ``1 - decay``).
"""

from __future__ import annotations

import numpy as np

from repro.tensor.gram import gram
from repro.tensor.im2col import im2col
from repro.tensor.workspace import Workspace

__all__ = [
    "append_bias_column",
    "linear_factor_A",
    "linear_factor_G",
    "conv2d_factor_A",
    "conv2d_factor_A_from_patches",
    "conv2d_factor_G",
    "embedding_factor_A",
    "ema_update",
]


def append_bias_column(mat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Append a column of ones (homogeneous coordinates for the bias).

    With ``out`` (shape ``(rows, cols + 1)``, e.g. workspace scratch) the
    augmentation writes in place instead of allocating a concatenation.
    """
    rows, cols = mat.shape
    if out is None:
        out = np.empty((rows, cols + 1), dtype=mat.dtype)
    elif out.shape != (rows, cols + 1) or out.dtype != mat.dtype:
        raise ValueError(
            f"bias-column buffer must be {(rows, cols + 1)} {mat.dtype}, "
            f"got {out.shape} {out.dtype}"
        )
    out[:, :cols] = mat
    out[:, cols] = 1.0
    return out


def _gram_scaled(
    mat: np.ndarray, count: int, multiply: bool, workspace: Workspace | None
) -> np.ndarray:
    """Gram product via syrk, scaled ``* count`` or ``/ count`` in place.

    Workspace-backed outputs are owned by the caller, who releases them
    once folded into the running average.
    """
    d = mat.shape[1]
    out = workspace.request((d, d), mat.dtype) if workspace is not None else None
    factor = gram(mat, out=out)
    if multiply:
        factor *= count
    else:
        factor /= count
    return factor


def linear_factor_A(
    a: np.ndarray, has_bias: bool, workspace: Workspace | None = None
) -> np.ndarray:
    """Activation covariance for a Linear layer.

    Parameters
    ----------
    a:
        Layer input, shape ``(N, d_in)``.
    has_bias:
        Append the homogeneous ones column when the layer has a bias.
    workspace:
        Optional scratch arena for the bias column and the factor itself.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.factors import linear_factor_A
    >>> a = np.ones((8, 3), dtype=np.float32)
    >>> linear_factor_A(a, has_bias=True).shape    # (d_in + 1)^2
    (4, 4)
    """
    if a.ndim != 2:
        raise ValueError(f"linear activations must be (N, d_in), got {a.shape}")
    n = a.shape[0]
    if not has_bias:
        return _gram_scaled(a, n, False, workspace)
    shape = (n, a.shape[1] + 1)
    if workspace is not None:
        with workspace.borrow(shape, a.dtype) as scratch:
            biased = append_bias_column(a, out=scratch)
            return _gram_scaled(biased, n, False, workspace)
    return _gram_scaled(append_bias_column(a), n, False, None)


def linear_factor_G(
    g0: np.ndarray, batch_averaged: bool = True, workspace: Workspace | None = None
) -> np.ndarray:
    """Output-gradient covariance for a Linear layer.

    Parameters
    ----------
    g0:
        Gradient w.r.t. the layer output, shape ``(N, d_out)``.
    batch_averaged:
        True when ``g0`` came from a mean-reduced loss (our convention);
        the per-example gradients are then recovered as ``N * g0``.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.factors import linear_factor_G
    >>> g0 = np.ones((8, 2), dtype=np.float32)
    >>> G = linear_factor_G(g0)
    >>> G.shape, bool(np.array_equal(G, G.T))
    ((2, 2), True)
    """
    if g0.ndim != 2:
        raise ValueError(f"output grads must be (N, d_out), got {g0.shape}")
    n = g0.shape[0]
    return _gram_scaled(g0, n, batch_averaged, workspace)


def conv2d_factor_A(
    x: np.ndarray,
    kernel_size: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
    has_bias: bool,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Patch covariance (KFC's Omega) for a Conv2d layer.

    Parameters
    ----------
    x:
        Layer input, shape ``(N, C_in, H, W)``.

    Notes
    -----
    Lowers ``x`` with a fresh ``im2col`` pass.  The K-FAC capture hooks
    avoid this entirely by feeding the patch matrix the layer's forward
    already produced to :func:`conv2d_factor_A_from_patches`.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.factors import conv2d_factor_A
    >>> x = np.ones((2, 3, 4, 4), dtype=np.float32)
    >>> conv2d_factor_A(x, (3, 3), (1, 1), (1, 1), has_bias=False).shape
    (27, 27)
    """
    patches = im2col(x, kernel_size, stride, padding)
    factor = conv2d_factor_A_from_patches(patches, has_bias, workspace)
    return factor


def conv2d_factor_A_from_patches(
    patches: np.ndarray, has_bias: bool, workspace: Workspace | None = None
) -> np.ndarray:
    """Patch covariance from an already-lowered im2col matrix ``(N*L, D)``.

    Bit-identical to :func:`conv2d_factor_A` on the matching input — the
    patch matrix cached by ``Conv2d.forward`` *is* the im2col expansion —
    but skips the second lowering pass, the single largest redundant
    compute in the training loop.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.factors import conv2d_factor_A, conv2d_factor_A_from_patches
    >>> from repro.tensor.im2col import im2col
    >>> x = np.random.default_rng(0).normal(size=(2, 1, 4, 4)).astype(np.float32)
    >>> cached = im2col(x, (3, 3), (1, 1), (1, 1))
    >>> a = conv2d_factor_A_from_patches(cached, has_bias=False)
    >>> b = conv2d_factor_A(x, (3, 3), (1, 1), (1, 1), has_bias=False)
    >>> bool(np.array_equal(a, b))
    True
    """
    if patches.ndim != 2:
        raise ValueError(f"patches must be (N*L, D), got {patches.shape}")
    if patches.dtype == np.float16:
        # AMP caches fp16 patches, but factors accumulate in fp32 (the
        # precision-policy rule) — and fp16 has no BLAS syrk anyway
        patches = patches.astype(np.float32)
    rows = patches.shape[0]
    if not has_bias:
        return _gram_scaled(patches, rows, False, workspace)
    shape = (rows, patches.shape[1] + 1)
    if workspace is not None:
        with workspace.borrow(shape, patches.dtype) as scratch:
            biased = append_bias_column(patches, out=scratch)
            return _gram_scaled(biased, rows, False, workspace)
    return _gram_scaled(append_bias_column(patches), rows, False, None)


def conv2d_factor_G(
    g0: np.ndarray, batch_averaged: bool = True, workspace: Workspace | None = None
) -> np.ndarray:
    """Output-gradient covariance (scaled KFC Gamma) for a Conv2d layer.

    Parameters
    ----------
    g0:
        Gradient w.r.t. the layer output, shape ``(N, C_out, OH, OW)``.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.factors import conv2d_factor_G
    >>> g0 = np.ones((2, 4, 3, 3), dtype=np.float32)
    >>> conv2d_factor_G(g0).shape      # (C_out, C_out)
    (4, 4)
    """
    if g0.ndim != 4:
        raise ValueError(f"conv output grads must be (N, C, OH, OW), got {g0.shape}")
    n, c, oh, ow = g0.shape
    if workspace is not None:
        with workspace.borrow((n * oh * ow, c), g0.dtype) as flat:
            np.copyto(flat.reshape(n, oh, ow, c), g0.transpose(0, 2, 3, 1))
            return _gram_scaled(flat, n, batch_averaged, workspace)
    flat = g0.transpose(0, 2, 3, 1).reshape(-1, c)  # (N*L, C_out)
    return _gram_scaled(flat, n, batch_averaged, None)


def embedding_factor_A(
    indices: np.ndarray,
    num_embeddings: int,
    dtype: np.dtype | type = np.float32,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Activation covariance of an Embedding layer, as its ``(V,)`` diagonal.

    An embedding is a Linear layer applied to one-hot rows, so its ``A``
    factor is ``onehot^T onehot / rows = diag(bincount(indices)) / rows``
    — *exactly* diagonal.  This returns that diagonal as a vector and
    nothing downstream widens it: EMA, wire, eigendecomposition (identity
    basis), preconditioner and checkpoint all carry ``V`` numbers
    (``FactorMeta.diagonal``).  Neither the one-hot matrix nor a ``(V, V)``
    factor is ever built; ``np.diag`` of the result is bit-identical to the
    dense one-hot Gram product (0/1 products and their sums are exact in
    floating point) — the oracle the tests keep.

    Parameters
    ----------
    indices:
        Integer index array of any shape; ``indices.size`` is the row
        (sample) count.
    num_embeddings:
        Vocabulary size ``V`` — the length of the returned diagonal.
    dtype:
        Factor dtype (the owning weight's dtype).

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.factors import embedding_factor_A
    >>> embedding_factor_A(np.array([0, 2, 2, 1]), num_embeddings=3).tolist()
    [0.25, 0.25, 0.5]
    """
    if not np.issubdtype(np.asarray(indices).dtype, np.integer):
        raise ValueError(f"indices must be integers, got {np.asarray(indices).dtype}")
    flat = np.asarray(indices).ravel()
    if flat.size == 0:
        raise ValueError("cannot build an embedding factor from zero indices")
    if flat.min() < 0 or flat.max() >= num_embeddings:
        raise ValueError(
            f"indices out of range [0, {num_embeddings}): "
            f"[{flat.min()}, {flat.max()}]"
        )
    counts = np.bincount(flat, minlength=num_embeddings)
    dt = np.dtype(dtype)
    if workspace is not None:
        out = workspace.request((num_embeddings,), dt)
    else:
        out = np.empty(num_embeddings, dtype=dt)
    out[...] = counts
    out /= flat.size  # same in-place divide as the dense Gram path
    return out


def ema_update(
    ema: np.ndarray | None,
    new: np.ndarray,
    decay: float,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Running-average update, ``decay`` weighting the old value.

    On the first call (``ema is None``) the new reading is adopted
    directly, avoiding cold-start bias.  With a ``workspace`` the scaled
    temporary comes from pooled scratch, making the steady-state update
    allocation-free (bit-identical arithmetic either way).

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.factors import ema_update
    >>> first = ema_update(None, np.array([2.0]), decay=0.9)
    >>> first.tolist()                     # cold start adopts the reading
    [2.0]
    >>> ema_update(first, np.array([0.0]), decay=0.9).tolist()
    [1.8]
    """
    if not 0.0 <= decay < 1.0:
        raise ValueError(f"decay must be in [0, 1), got {decay}")
    if ema is None:
        return new.copy()
    if ema.shape != new.shape:
        raise ValueError(f"EMA shape {ema.shape} != new reading shape {new.shape}")
    if workspace is not None and ema.dtype == new.dtype:
        with workspace.borrow(new.shape, new.dtype) as scratch:
            np.multiply(new, new.dtype.type(1.0 - decay), out=scratch)
            ema *= decay
            ema += scratch
        return ema
    ema *= decay
    ema += (1.0 - decay) * new
    return ema
