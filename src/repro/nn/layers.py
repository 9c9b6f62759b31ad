"""Core layers: Linear, Conv2d, BatchNorm2d, activations, pooling.

Each layer caches exactly what its backward pass needs during forward, and
releases intermediate state lazily (overwritten on the next forward).  The
K-FAC preconditioner supports ``Linear`` and ``Conv2d``; every other layer
is "ignored by the K-FAC preconditioner and updated normally" (§V), same as
the paper's implementation.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.tensor.amp import amp_matmul, amp_operand, cast_compute_storage
from repro.tensor.dtypes import DEFAULT_DTYPE
from repro.tensor.im2col import col2im, conv_out_size, im2col
from repro.tensor.initializers import kaiming_normal, kaiming_uniform, zeros_init
from repro.tensor.workspace import Workspace, default_workspace

__all__ = [
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Identity",
]


def _pair(v: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(v, tuple):
        return v
    return (v, v)


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``.

    Weight shape is ``(out_features, in_features)`` (PyTorch layout), so the
    K-FAC factor shapes are ``A: (in[+1], in[+1])`` and ``G: (out, out)``.

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.layers import Linear
    >>> layer = Linear(3, 2, rng=np.random.default_rng(0))
    >>> layer(np.ones((4, 3), dtype=np.float32)).shape
    (4, 2)
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            kaiming_uniform((out_features, in_features), rng), name="weight"
        )
        self.bias = Parameter(zeros_init((out_features,)), name="bias") if bias else None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Linear expects (N, in_features), got {x.shape}")
        self._x = x
        y = amp_matmul(x, self.weight.data.T)
        if self.bias is not None:
            y += self.bias.data
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward called before forward"
        self.weight.grad += amp_matmul(grad_out.T, self._x)
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return amp_matmul(grad_out, self.weight.data)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )


class Conv2d(Module):
    """2-D convolution as GEMMs over channels-last rows.

    Weight shape ``(out_channels, in_channels, kh, kw)``; the flattened
    weight matrix ``(out, in*kh*kw)`` is what K-FAC preconditions, with
    factors ``A: (in[+1])^2`` — the input's channel covariance, applied
    once per kernel offset (KFC's spatially-uncorrelated-activations
    approximation) — and ``G: out^2``.

    The output is channels-last: the ``transpose(0, 3, 1, 2)`` view of a
    C-contiguous NHWC buffer, which BatchNorm, the next conv and the K-FAC
    factors read as ``(N*H*W, C)`` rows.  :meth:`shifted` picks the kernel
    by shape: ``kh*kw`` shifted GEMMs over the flat zero-padded NHWC input
    (forward, ``dW`` and ``dX``; no patch matrix), or im2col + one GEMM.
    Both multiply as :func:`~repro.tensor.amp.amp_matmul` does.  What
    backward needs (the padded input or the patch matrix) and the scratch
    come from a :class:`~repro.tensor.workspace.Workspace` arena and go
    back to it, so steady-state training allocates no scratch.

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.layers import Conv2d
    >>> conv = Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(0))
    >>> y = conv(np.zeros((2, 3, 8, 8), dtype=np.float32))
    >>> y.shape, y.transpose(0, 2, 3, 1).flags.c_contiguous
    ((2, 8, 8, 8), True)
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] = 1,
        padding: int | tuple[int, int] = 0,
        bias: bool = False,
        rng: np.random.Generator | None = None,
        workspace: Workspace | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        kh, kw = self.kernel_size
        self.weight = Parameter(
            kaiming_normal((out_channels, in_channels, kh, kw), rng), name="weight"
        )
        self.bias = Parameter(zeros_init((out_channels,)), name="bias") if bias else None
        self.workspace = workspace if workspace is not None else default_workspace()
        self._saved: np.ndarray | None = None  # patch matrix, or padded NHWC input
        self._x_shape: tuple[int, int, int, int] | None = None

    def out_shape(self, x_shape: tuple[int, ...]) -> tuple[int, int, int, int]:
        n, _, h, w = x_shape
        oh = conv_out_size(h, self.kernel_size[0], self.stride[0], self.padding[0])
        ow = conv_out_size(w, self.kernel_size[1], self.stride[1], self.padding[1])
        return (n, self.out_channels, oh, ow)

    def shifted(self, x_shape: tuple[int, ...]) -> bool:
        """The kernel rule (measured in ``docs/architecture.md``, "Memory
        layout"): shifted GEMMs for a stride-1, 'same'-padded kernel wider
        than 1x1 over >= 8 channels and >= 2**14 input values whose padded
        grid is at most 1.7x the output rows; im2col otherwise."""
        n, c, h, w = x_shape
        (kh, kw), (ph, pw) = self.kernel_size, self.padding
        return (
            self.stride == (1, 1) and (kh, kw) == (2 * ph + 1, 2 * pw + 1) and kh * kw > 1
            and c >= 8 and n * c * h * w >= 1 << 14 and (h + kh - 1) * (w + kw - 1) <= 1.7 * h * w
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {c}")
        self._x_shape = (n, c, h, w)
        _, out_c, oh, ow = self.out_shape(self._x_shape)
        kh, kw = self.kernel_size
        # consecutive forwards with no backward (eval): recycle the
        # previous buffer instead of orphaning it
        self.workspace.release(self._saved)
        # the lowering runs in the compute dtype (fp16 patches under AMP:
        # half the lowering traffic, the Osawa et al. half-precision capture)
        x_c = cast_compute_storage(x)
        if self.shifted(x.shape):
            taps = amp_operand(self.weight.data).transpose(2, 3, 1, 0).reshape(kh * kw, c, out_c)
            pad = self._saved = self._padded(x_c, np.result_type(np.float32, x_c, taps))
            y = self._shifted_gemms(pad, taps)
        else:
            ph, pw = self.padding
            cols = self._saved = self.workspace.request((n * oh * ow, c * kh * kw), x_c.dtype)
            stage = self.workspace.request((n, h + 2 * ph, w + 2 * pw, c), x_c.dtype)
            im2col(x_c, self.kernel_size, self.stride, self.padding, out=cols, staging=stage)
            self.workspace.release(stage)
            y = amp_matmul(cols, self.weight.data.reshape(out_c, -1).T)
        if self.bias is not None:
            y += self.bias.data
        return y.reshape(n, oh, ow, out_c).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._saved is not None and self._x_shape is not None
        out_c, (kh, kw) = self.out_channels, self.kernel_size
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=(0, 2, 3))
        if self._saved.ndim == 2:
            dy = grad_out.transpose(0, 2, 3, 1).reshape(-1, out_c)
            w_mat = self.weight.data.reshape(out_c, -1)
            self.weight.grad += amp_matmul(dy.T, self._saved).reshape(self.weight.data.shape)
            dcols = amp_matmul(dy, w_mat)
            dx = col2im(dcols, self._x_shape, self.kernel_size, self.stride, self.padding)
        else:
            # 'same' padding puts dY on the padded grid where X sits, so
            # output row r is grid row r + the centre offset's shift: dW_k
            # pairs those rows with X's rows at shift k, and dX is the
            # shifted GEMMs of dY with the kernel flipped
            pad, c = self._saved, self.in_channels
            grid = self._padded(amp_operand(grad_out), pad.dtype)
            dy, flat = grid.reshape(-1, out_c), pad.reshape(-1, c)
            shifts, rows = self._shifts()
            start = shifts[len(shifts) // 2]
            dw = np.empty((len(shifts), out_c, c), pad.dtype)
            for k, s in enumerate(shifts):
                np.matmul(dy[start : start + rows].T, flat[s : s + rows], out=dw[k])
            self.weight.grad += dw.transpose(1, 2, 0).reshape(self.weight.data.shape)
            flipped = amp_operand(self.weight.data)[:, :, ::-1, ::-1]
            dx = self._shifted_gemms(grid, flipped.transpose(2, 3, 0, 1).reshape(kh * kw, out_c, c))
            self.workspace.release(grid)
            dx = dx.transpose(0, 3, 1, 2)
        self.workspace.release(self._saved)
        self._saved = None
        return dx

    def _padded(self, x: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """``x`` in a zero-bordered NHWC workspace buffer of ``dtype``."""
        n, c, h, w = x.shape
        ph, pw = self.padding
        pad = self.workspace.request((n, h + 2 * ph, w + 2 * pw, c), dtype)
        pad[:, :ph] = pad[:, ph + h :] = 0
        pad[:, :, :pw] = pad[:, :, pw + w :] = 0
        pad[:, ph : ph + h, pw : pw + w] = x.transpose(0, 2, 3, 1)
        return pad

    def _shifts(self) -> tuple[list[int], int]:
        """Each kernel offset ``(i, j)``'s row shift ``i*Wp + j`` in a flat
        padded grid, and the rows one shifted GEMM covers."""
        n, _, h, w = self._x_shape
        (kh, kw), (ph, pw) = self.kernel_size, self.padding
        wp = w + 2 * pw
        shifts = [i * wp + j for i in range(kh) for j in range(kw)]
        return shifts, n * (h + 2 * ph) * wp - shifts[-1]

    def _shifted_gemms(self, pad: np.ndarray, taps: np.ndarray) -> np.ndarray:
        """``Y[r] = sum_k P[r + shift_k] @ taps[k]`` over the flat padded
        grid ``P``: the valid ``(N, H, W, C_out)`` rows, C-contiguous."""
        n, _, h, w = self._x_shape
        shifts, rows = self._shifts()
        flat = pad.reshape(-1, pad.shape[3])
        full = self.workspace.request(pad.shape[:3] + taps.shape[2:], pad.dtype)
        acc = full.reshape(-1, taps.shape[2])[:rows]
        np.matmul(flat[:rows], taps[0], out=acc)
        for s, tap in zip(shifts[1:], taps[1:]):
            acc += flat[s : s + rows] @ tap
        y = np.empty((n, h, w, taps.shape[2]), pad.dtype)
        y[...] = full[:, :h, :w]
        self.workspace.release(full)
        return y

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding}, "
            f"bias={self.bias is not None})"
        )


def _channel_sums(rows: np.ndarray) -> np.ndarray:
    """Per-column sums of ``rows`` as one BLAS matrix-vector product
    (~10x numpy's axis-0 reduction at ResNet shapes)."""
    return np.ones(rows.shape[0], np.result_type(rows, np.float32)) @ rows


class BatchNorm2d(Module):
    """Batch normalization over (N, H, W) per channel, with running stats.

    As in the paper, BN layers are *not* preconditioned by K-FAC; they are
    trained with the wrapped first-order optimizer.  Running statistics stay
    rank-local (the paper does not use distributed/sync BN — that is called
    out in §III-A as a hardware-specific technique they avoid).

    Both passes read ``(N*H*W, C)`` rows (a view of a channels-last tensor)
    and reduce them as BLAS products: one pass takes ``sum x`` and
    ``sum x^2``, the backward ``sum dy`` and ``sum dy * x``.  The output and
    ``dx`` are channels-last.

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.layers import BatchNorm2d
    >>> bn = BatchNorm2d(4)
    >>> y = bn(np.random.default_rng(0).normal(size=(8, 4, 2, 2)))
    >>> bool(abs(y.mean()) < 1e-6)        # normalized per channel
    True
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=DEFAULT_DTYPE), name="weight")
        self.bias = Parameter(np.zeros(num_features, dtype=DEFAULT_DTYPE), name="bias")
        self.register_buffer("running_mean", np.zeros(num_features, dtype=DEFAULT_DTYPE))
        self.register_buffer("running_var", np.ones(num_features, dtype=DEFAULT_DTYPE))
        # (input rows, batch mean, 1 / std)
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(f"BatchNorm2d expects (N,{self.num_features},H,W), got {x.shape}")
        n, c, h, w = x.shape
        rows = x.transpose(0, 2, 3, 1).reshape(-1, c)
        mean, var = self.running_mean, self.running_var
        if self.training:
            count = len(rows)
            mean = _channel_sums(rows) / count
            var = np.maximum(_channel_sums(rows * rows) / count - mean * mean, 0)
            unbiased = var * count / max(count - 1, 1)
            for name, stat in (("running_mean", mean), ("running_var", unbiased)):
                running = (1 - self.momentum) * getattr(self, name) + self.momentum * stat
                self._set_buffer(name, running)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        if self.training:
            self._cache = (rows, mean, inv_std)
        scale = self.weight.data * inv_std
        out = rows * scale
        out += self.bias.data - mean * scale
        return out.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward requires a training-mode forward"
        rows, mean, inv_std = self._cache
        n, c, h, w = grad_out.shape
        dy, count = grad_out.transpose(0, 2, 3, 1).reshape(-1, c), len(rows)
        prod = dy * rows
        sum_dy = _channel_sums(dy)
        # sum(dy * x_hat), from sum(dy * x) without forming x_hat
        sum_dy_xhat = (_channel_sums(prod) - mean * sum_dy) * inv_std
        self.weight.grad += sum_dy_xhat
        self.bias.grad += sum_dy
        k1 = self.weight.data * inv_std
        k2 = -k1 * inv_std * sum_dy_xhat / count
        dx = dy * k1
        dx += np.multiply(rows, k2, out=prod)
        dx += -k1 * sum_dy / count - k2 * mean
        return dx.reshape(n, h, w, c).transpose(0, 3, 1, 2)


class ReLU(Module):
    """Rectified linear unit: ``max(x, 0)``, gradient ``grad * (x > 0)``.

    A NaN input propagates (``max(nan, 0)`` is NaN), as in ``torch.relu``;
    on finite inputs the values equal ``where(x > 0, x, 0)``.  The dtype
    and memory layout of the input are kept.

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.layers import ReLU
    >>> ReLU()(np.array([-1.0, 2.0], dtype=np.float32)).tolist()
    [0.0, 2.0]
    """

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return grad_out * self._mask


class MaxPool2d(Module):
    """Max pooling (general kernel/stride/padding, via per-channel im2col).

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.layers import MaxPool2d
    >>> x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    >>> MaxPool2d(2, 2)(x)[0, 0].tolist()
    [[5.0, 7.0], [13.0, 15.0]]
    """

    def __init__(
        self,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] | None = None,
        padding: int | tuple[int, int] = 0,
    ) -> None:
        super().__init__()
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride) if stride is not None else self.kernel_size
        self.padding = _pair(padding)
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        self._x_shape = (n, c, h, w)
        flat = x.reshape(n * c, 1, h, w)
        if any(self.padding):
            # pad with -inf so padded cells never win the max
            ph, pw = self.padding
            flat = np.pad(
                flat,
                ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                constant_values=-np.inf,
            )
            cols = im2col(flat, self.kernel_size, self.stride, (0, 0))
        else:
            cols = im2col(flat, self.kernel_size, self.stride, (0, 0))
        self._argmax = np.argmax(cols, axis=1)
        out = cols[np.arange(cols.shape[0]), self._argmax]
        oh = conv_out_size(h, self.kernel_size[0], self.stride[0], self.padding[0])
        ow = conv_out_size(w, self.kernel_size[1], self.stride[1], self.padding[1])
        return np.ascontiguousarray(out.reshape(n, c, oh, ow))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._argmax is not None and self._x_shape is not None
        n, c, h, w = self._x_shape
        ph, pw = self.padding
        hp, wp = h + 2 * ph, w + 2 * pw
        kh, kw = self.kernel_size
        dy = grad_out.reshape(-1)
        dcols = np.zeros((dy.shape[0], kh * kw), dtype=grad_out.dtype)
        dcols[np.arange(dy.shape[0]), self._argmax] = dy
        dx_flat = col2im(dcols, (n * c, 1, hp, wp), self.kernel_size, self.stride, (0, 0))
        dx = dx_flat.reshape(n, c, hp, wp)
        if ph or pw:
            dx = dx[:, :, ph : ph + h, pw : pw + w]
        return np.ascontiguousarray(dx)


class AvgPool2d(Module):
    """Average pooling.

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.layers import AvgPool2d
    >>> x = np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2)
    >>> AvgPool2d(2, 2)(x)[0, 0].tolist()
    [[1.5]]
    """

    def __init__(
        self,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] | None = None,
        padding: int | tuple[int, int] = 0,
    ) -> None:
        super().__init__()
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride) if stride is not None else self.kernel_size
        self.padding = _pair(padding)
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        self._x_shape = (n, c, h, w)
        flat = x.reshape(n * c, 1, h, w)
        cols = im2col(flat, self.kernel_size, self.stride, self.padding)
        out = cols.mean(axis=1)
        oh = conv_out_size(h, self.kernel_size[0], self.stride[0], self.padding[0])
        ow = conv_out_size(w, self.kernel_size[1], self.stride[1], self.padding[1])
        return np.ascontiguousarray(out.reshape(n, c, oh, ow))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x_shape is not None
        n, c, h, w = self._x_shape
        kh, kw = self.kernel_size
        dy = grad_out.reshape(-1, 1) / (kh * kw)
        dcols = np.broadcast_to(dy, (dy.shape[0], kh * kw)).astype(grad_out.dtype)
        dx_flat = col2im(
            np.ascontiguousarray(dcols), (n * c, 1, h, w), self.kernel_size, self.stride, self.padding
        )
        return dx_flat.reshape(n, c, h, w)


class GlobalAvgPool2d(Module):
    """Mean over the spatial dimensions: (N, C, H, W) -> (N, C).

    The gradient it writes is channels-last.

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.layers import GlobalAvgPool2d
    >>> GlobalAvgPool2d()(np.ones((2, 3, 4, 4), dtype=np.float32)).shape
    (2, 3)
    """

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape  # type: ignore[assignment]
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x_shape is not None
        n, c, h, w = self._x_shape
        dx = np.empty((n, h, w, c), grad_out.dtype)
        dx[...] = (grad_out * (1.0 / (h * w)))[:, None, None, :]
        return dx.transpose(0, 3, 1, 2)


class Flatten(Module):
    """(N, ...) -> (N, prod(...)).

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.layers import Flatten
    >>> Flatten()(np.zeros((2, 3, 4, 4), dtype=np.float32)).shape
    (2, 48)
    """

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x_shape is not None
        return grad_out.reshape(self._x_shape)


class Identity(Module):
    """Pass-through (used for parameter-free residual shortcuts).

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.layers import Identity
    >>> x = np.ones(3, dtype=np.float32)
    >>> Identity()(x) is x
    True
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out
