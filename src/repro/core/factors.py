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

- **Conv2d** (KFC, Grosse & Martens 2016, with their
  spatially-uncorrelated-activations approximation, SUA).  With ``x`` the
  layer input read as ``(N*H*W, C_in)`` NHWC rows and ``g0`` reshaped to
  ``(N*L, C_out)`` over the ``L`` output positions::

      A = x^T x / (N * H * W)            (A_c; a ones channel when bias)
      G = N * g0^T g0                    ( = |T| * Gamma with de-averaged grads)

  KFC's patch covariance ``Omega`` over ``C_in*kh*kw`` is approximated by
  ``A_c (x) I_{kh*kw}``: activations at different kernel offsets are
  treated as uncorrelated and every offset sees the same channel
  covariance.  The handler applies it that way
  (:class:`repro.core.layers.Conv2dKFACLayer`), so ``G (x) A_c (x) I``
  stands for KFC's ``|T| * Omega (x) Gamma`` scaled consistently with the
  Linear case.  (Row-major ``vec``: the Fisher block on ``vec(W)`` is
  ``G (x) A``, with ``W`` of shape ``(d_out, d_in)``.)

Exactness anchor (tested): for a single sample through a Linear layer,
``vec(dW) vec(dW)^T == G (x) A`` holds *exactly*.

Symmetry fast path: every Gram product goes through
:func:`repro.tensor.gram.gram_upper` (BLAS ``?syrk``, half the GEMM
FLOPs) and its upper triangle is mirrored, so factors are *exactly*
symmetric by construction — the invariant that makes the
triangular-packed factor communication in :mod:`repro.comm.fusion`
lossless.  Given a C-contiguous ``out`` (``KFAC``'s factor sweep hands
each layer its slots of one fresh arena, then mirrors the whole arena at
once), a function writes only the upper triangle into it (a diagonal
factor: its vector, ``out``'s dtype winning); without, it returns a new
mirrored factor.  A channels-last conv reading (a ``Conv2d`` output
gradient, or an input that a ``Conv2d`` / ``BatchNorm2d`` / ``ReLU``
wrote) is read in place as its ``(N*H*W, C)`` rows; only a bias column
or another layout stages the rows, in an optional
:class:`repro.tensor.workspace.Workspace`'s scratch, so the factor stage
allocates nothing at steady state.

Running average (paper Eqs. 16–17): the paper writes the new reading with
weight ``xi in [0.9, 1)``, but the reference implementation (and any sane
running average) weights the *old* value by the decay; we follow the
implementation: ``ema = decay * ema + (1 - decay) * new`` with
``decay = 0.95`` by default (the paper's ``xi`` is our ``1 - decay``).
"""

from __future__ import annotations

import numpy as np

from repro.tensor.gram import gram, gram_upper
from repro.tensor.workspace import Workspace

__all__ = [
    "linear_factor_A",
    "linear_factor_G",
    "conv2d_factor_A",
    "conv2d_factor_G",
    "embedding_factor_A",
    "ema_update",
]


def _gram_scaled(
    mat: np.ndarray, count: int, multiply: bool, out: np.ndarray | None
) -> np.ndarray:
    """``mat``'s Gram product scaled ``* count`` or ``/ count`` in place:
    its upper triangle into ``out``, else a new mirrored factor."""
    factor = gram(mat) if out is None else gram_upper(mat, out)
    if multiply:
        factor *= count
    else:
        factor /= count
    return factor


def _rows_gram(
    x: np.ndarray,
    count: int,
    multiply: bool,
    has_bias: bool,
    workspace: Workspace | None,
    out: np.ndarray | None,
) -> np.ndarray:
    """Gram of ``x``'s rows — an ``(N, C)`` matrix, or a 4-D tensor's
    ``(N*H*W, C)`` NHWC rows — with a ones column appended when
    ``has_bias``; scaled as :func:`_gram_scaled` does.  Contiguous rows
    without a ones column (a channels-last conv reading) are read in place;
    the rest are staged in scratch."""
    c = x.shape[1]
    rows = x.transpose(0, 2, 3, 1) if x.ndim == 4 else x
    if rows.flags.c_contiguous and not has_bias:
        return _gram_scaled(rows.reshape(-1, c), count, multiply, out)
    shape = (x.size // c, c + int(has_bias))
    staged = np.empty(shape, x.dtype) if workspace is None else workspace.request(shape, x.dtype)
    staged.reshape(rows.shape[:-1] + shape[1:])[..., :c] = rows
    if has_bias:
        staged[:, c] = 1.0
    factor = _gram_scaled(staged, count, multiply, out)
    if workspace is not None:
        workspace.release(staged)
    return factor


def linear_factor_A(
    a: np.ndarray,
    has_bias: bool,
    workspace: Workspace | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Activation covariance for a Linear layer.

    Parameters
    ----------
    a:
        Layer input, shape ``(N, d_in)``.
    has_bias:
        Append the homogeneous ones column when the layer has a bias.
    workspace:
        Optional scratch arena for the rows with the bias column.

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
        return _gram_scaled(a, n, False, out)
    return _rows_gram(a, n, False, True, workspace, out)


def linear_factor_G(
    g0: np.ndarray, batch_averaged: bool = True, out: np.ndarray | None = None
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
    return _gram_scaled(g0, n, batch_averaged, out)


def conv2d_factor_A(
    x: np.ndarray,
    has_bias: bool,
    workspace: Workspace | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Channel covariance ``A_c`` of a Conv2d layer's input (KFC's SUA).

    One ``C_in x C_in`` Gram over every example and input position,
    ``(C_in + 1)^2`` with a bias's ones channel.  The layer's handler
    applies it as ``A_c (x) I_{kh*kw}`` to the ``(C_out, C_in*kh*kw)``
    gradient, so neither the kernel nor the patch matrix enters here.

    Parameters
    ----------
    x:
        Layer input, shape ``(N, C_in, H, W)``.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.factors import conv2d_factor_A
    >>> x = np.ones((2, 3, 4, 4), dtype=np.float32)
    >>> conv2d_factor_A(x, has_bias=True).shape      # (C_in + 1)^2
    (4, 4)
    >>> conv2d_factor_A(x, has_bias=False)[0].tolist()
    [1.0, 1.0, 1.0]
    """
    if x.ndim != 4:
        raise ValueError(f"conv activations must be (N, C, H, W), got {x.shape}")
    n, _, h, w = x.shape
    return _rows_gram(x, n * h * w, False, has_bias, workspace, out)


def conv2d_factor_G(
    g0: np.ndarray,
    batch_averaged: bool = True,
    workspace: Workspace | None = None,
    out: np.ndarray | None = None,
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
    return _rows_gram(g0, g0.shape[0], batch_averaged, False, workspace, out)


def embedding_factor_A(
    indices: np.ndarray,
    num_embeddings: int,
    dtype: np.dtype | type = np.float32,
    out: np.ndarray | None = None,
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
    if out is None:
        out = np.empty(num_embeddings, dtype=dtype)
    out[...] = counts
    out /= flat.size  # same in-place divide as the dense Gram path
    return out


def ema_update(ema: np.ndarray | None, new: np.ndarray, decay: float) -> np.ndarray:
    """Running-average update, ``decay`` weighting the old value, in place.

    On the first call (``ema is None``) the new reading is adopted
    directly, avoiding cold-start bias.  Elementwise, so one call folds a
    whole arena of factors (``KFAC``'s factor sweep) exactly as one call
    per factor would.

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
    ema *= decay
    ema += (1.0 - decay) * new
    return ema
