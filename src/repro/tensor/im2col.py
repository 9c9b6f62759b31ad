"""im2col / col2im transforms for ``(N, C, H, W)`` tensors.

``im2col`` lowers a convolution to one matrix multiplication: each row
of its output is one receptive-field patch, ``C_in * kh * kw`` wide, at
one spatial location of one example.  ``Conv2d`` uses it for the kernels
its shape rule does not run as shifted GEMMs (1x1 and strided kernels,
few channels, small outputs); the K-FAC factors never read it.

Both transforms work through a zero-bordered NHWC buffer, so every
kernel position moves contiguous channel runs: the forward copies ``x``
into it once (a contiguous copy when ``x`` is channels-last) and fills
the patch matrix with one strided slab copy per kernel position; the
inverse adds the same slabs into it, in the same kernel-position order,
and returns its interior as a channels-last view.
"""

from __future__ import annotations

import numpy as np

__all__ = ["conv_out_size", "im2col", "col2im"]


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial size of a convolution along one dimension.

    Example
    -------
    >>> from repro.tensor.im2col import conv_out_size
    >>> conv_out_size(224, 7, 2, 3)     # ResNet stem conv
    112
    >>> conv_out_size(8, 3, 1, 1)       # 'same' 3x3
    8
    """
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray,
    kernel_size: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
    out: np.ndarray | None = None,
    staging: np.ndarray | None = None,
) -> np.ndarray:
    """Extract convolution patches.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel_size, stride, padding:
        ``(height, width)`` pairs.
    out:
        Optional preallocated ``(N*OH*OW, C*kh*kw)`` C-contiguous output
        (e.g. a recycled :class:`repro.tensor.workspace.Workspace` buffer);
        contents are overwritten.
    staging:
        Optional preallocated ``(N, H+2ph, W+2pw, C)`` buffer for the
        zero-bordered NHWC copy of ``x``; contents are overwritten, border
        included.

    Returns
    -------
    numpy.ndarray
        Patch matrix of shape ``(N * OH * OW, C * kh * kw)``.  The column
        layout is ``(C, kh, kw)`` flattened C-contiguously, matching
        ``weight.reshape(C_out, -1)``.

    Example
    -------
    >>> import numpy as np
    >>> from repro.tensor.im2col import im2col
    >>> x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    >>> im2col(x, (3, 3), (1, 1), (0, 0)).shape   # 2x2 positions, 9-el patches
    (4, 9)
    """
    if x.ndim != 4:
        raise ValueError(f"im2col expects NCHW input, got shape {x.shape}")
    n, c, h, w = x.shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    oh = conv_out_size(h, kh, sh, ph)
    ow = conv_out_size(w, kw, sw, pw)
    expected = (n * oh * ow, c * kh * kw)
    if out is None:
        out = np.empty(expected, dtype=x.dtype)
    elif out.shape != expected or out.dtype != x.dtype or not out.flags.c_contiguous:
        raise ValueError(
            f"im2col out buffer must be C-contiguous {expected} {x.dtype}, "
            f"got {out.shape} {out.dtype}"
        )
    padded = (n, h + 2 * ph, w + 2 * pw, c)
    if staging is None:
        staging = np.empty(padded, dtype=x.dtype)
    elif staging.shape != padded or staging.dtype != x.dtype:
        raise ValueError(f"staging must be {padded} {x.dtype}, got {staging.shape} {staging.dtype}")
    staging[:, :ph] = staging[:, ph + h :] = 0
    staging[:, :, :pw] = staging[:, :, pw + w :] = 0
    staging[:, ph : ph + h, pw : pw + w] = x.transpose(0, 2, 3, 1)
    # one slab per kernel position: (N, OH, OW, C) -> the (i, j) column of
    # every channel's patch, i.e. out viewed as (N, OH, OW, C, kh, kw)
    patches = out.reshape(n, oh, ow, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            patches[..., i, j] = staging[:, i : i + sh * oh : sh, j : j + sw * ow : sw]
    return out


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel_size: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
) -> np.ndarray:
    """Adjoint of :func:`im2col` (overlap-add scatter back to the input).

    Parameters
    ----------
    cols:
        Patch matrix of shape ``(N * OH * OW, C * kh * kw)``.
    x_shape:
        Shape of the original (unpadded) input.

    Returns
    -------
    numpy.ndarray
        Array of shape ``x_shape`` where every patch value has been added
        back into its source position: the ``transpose(0, 3, 1, 2)`` view
        of the interior of a fresh zero-bordered NHWC accumulator, so it is
        channels-last (C-contiguous as NHWC when there is no padding).

    Example
    -------
    >>> import numpy as np
    >>> from repro.tensor.im2col import col2im, im2col
    >>> x = np.ones((1, 1, 3, 3), dtype=np.float32)
    >>> cols = im2col(x, (2, 2), (1, 1), (0, 0))
    >>> back = col2im(cols, x.shape, (2, 2), (1, 1), (0, 0))
    >>> float(back[0, 0, 1, 1])          # centre pixel overlaps 4 patches
    4.0
    """
    n, c, h, w = x_shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    oh = conv_out_size(h, kh, sh, ph)
    ow = conv_out_size(w, kw, sw, pw)
    if cols.shape != (n * oh * ow, c * kh * kw):
        raise ValueError(
            f"col2im shape mismatch: cols {cols.shape}, "
            f"expected {(n * oh * ow, c * kh * kw)}"
        )

    patches = cols.reshape(n, oh, ow, c, kh, kw)
    acc = np.zeros((n, h + 2 * ph, w + 2 * pw, c), cols.dtype)
    for i in range(kh):
        for j in range(kw):
            acc[:, i : i + sh * oh : sh, j : j + sw * ow : sw] += patches[..., i, j]
    return acc[:, ph : ph + h, pw : pw + w].transpose(0, 3, 1, 2)
