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
from repro.tensor.amp import amp_matmul, cast_compute_storage
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
    """2-D convolution implemented as im2col + GEMM.

    Weight shape ``(out_channels, in_channels, kh, kw)``; the flattened
    weight matrix ``(out, in*kh*kw)`` is what K-FAC preconditions, with
    factors ``A: (in[+1])^2`` — the input's channel covariance, applied
    once per kernel offset (KFC's spatially-uncorrelated-activations
    approximation) — and ``G: out^2``.

    The im2col patch matrix — the largest live buffer in the model — is
    drawn from a :class:`~repro.tensor.workspace.Workspace` arena and
    recycled at the end of ``backward``, so steady-state training
    re-lowers into the same buffer every iteration instead of allocating a
    fresh one.  K-FAC never reads it.

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.layers import Conv2d
    >>> conv = Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(0))
    >>> conv(np.zeros((2, 3, 8, 8), dtype=np.float32)).shape
    (2, 8, 8, 8)
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
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def out_shape(self, x_shape: tuple[int, ...]) -> tuple[int, int, int, int]:
        n, _, h, w = x_shape
        oh = conv_out_size(h, self.kernel_size[0], self.stride[0], self.padding[0])
        ow = conv_out_size(w, self.kernel_size[1], self.stride[1], self.padding[1])
        return (n, self.out_channels, oh, ow)

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {c}")
        self._x_shape = (n, c, h, w)
        _, _, oh, ow = self.out_shape((n, c, h, w))
        kh, kw = self.kernel_size
        if self._cols is not None:
            # consecutive forwards with no backward (eval): recycle the
            # previous lowering instead of orphaning it
            self.workspace.release(self._cols)
            self._cols = None
        # im2col runs in the compute dtype (fp16 patches under AMP: half
        # the lowering traffic, the Osawa et al. half-precision capture)
        x_c = cast_compute_storage(x)
        cols = self.workspace.request((n * oh * ow, c * kh * kw), x_c.dtype)
        with self.workspace.borrow(self._padded_nhwc(self._x_shape), x_c.dtype) as stage:
            im2col(x_c, self.kernel_size, self.stride, self.padding, out=cols, staging=stage)
        self._cols = cols
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        y = amp_matmul(cols, w_mat.T)  # (N*OH*OW, out), fp32+ accumulation
        if self.bias is not None:
            y += self.bias.data
        return np.ascontiguousarray(
            y.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cols is not None and self._x_shape is not None
        n, out_c, oh, ow = grad_out.shape
        dy = grad_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, out_c)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        self.weight.grad += amp_matmul(dy.T, self._cols).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += dy.sum(axis=0)
        dcols = amp_matmul(dy, w_mat)
        self.workspace.release(self._cols)
        self._cols = None
        scratch = self.workspace.request(self._padded_nhwc(self._x_shape), dcols.dtype)
        dx = col2im(
            dcols, self._x_shape, self.kernel_size, self.stride, self.padding,
            scratch=scratch,
        )
        # the NHWC -> NCHW result is usually a copy, but a single channel
        # with a contiguous interior stays a view of scratch — then the
        # buffer must escape, not be pooled
        if not np.shares_memory(dx, scratch):
            self.workspace.release(scratch)
        return dx

    def _padded_nhwc(self, x_shape: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
        """Shape of the zero-bordered NHWC buffer im2col/col2im work in."""
        n, c, h, w = x_shape
        ph, pw = self.padding
        return (n, h + 2 * ph, w + 2 * pw, c)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding}, "
            f"bias={self.bias is not None})"
        )


class BatchNorm2d(Module):
    """Batch normalization over (N, H, W) per channel, with running stats.

    As in the paper, BN layers are *not* preconditioned by K-FAC; they are
    trained with the wrapped first-order optimizer.  Running statistics stay
    rank-local (the paper does not use distributed/sync BN — that is called
    out in §III-A as a hardware-specific technique they avoid).

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
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(f"BatchNorm2d expects (N,{self.num_features},H,W), got {x.shape}")
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self._set_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean + self.momentum * mean,
            )
            n = x.shape[0] * x.shape[2] * x.shape[3]
            unbiased = var * n / max(n - 1, 1)
            self._set_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * unbiased,
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        if self.training:
            self._cache = (x_hat, inv_std.astype(x.dtype), np.asarray(mean))
        return self.weight.data[None, :, None, None] * x_hat + self.bias.data[None, :, None, None]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward requires a training-mode forward"
        x_hat, inv_std, _ = self._cache
        n = grad_out.shape[0] * grad_out.shape[2] * grad_out.shape[3]
        self.weight.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.bias.grad += grad_out.sum(axis=(0, 2, 3))
        g = grad_out * self.weight.data[None, :, None, None]
        g_mean = g.mean(axis=(0, 2, 3), keepdims=True)
        gx_mean = (g * x_hat).mean(axis=(0, 2, 3), keepdims=True)
        dx = (g - g_mean - x_hat * gx_mean) * inv_std[None, :, None, None]
        # note: the batch statistics see all N*H*W samples, hence the means.
        del n
        return dx


class ReLU(Module):
    """Rectified linear unit.

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
        return np.where(self._mask, x, 0.0).astype(x.dtype)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._mask is not None
        return np.where(self._mask, grad_out, 0.0).astype(grad_out.dtype)


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
        scale = 1.0 / (h * w)
        return np.broadcast_to(
            grad_out[:, :, None, None] * scale, (n, c, h, w)
        ).astype(grad_out.dtype)


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
