"""Channels-last activations: both conv kernels, BatchNorm, the layout a
ResNet keeps from layer to layer, and conv factors read as views.

Every 4-D activation past the stem is the ``transpose(0, 3, 1, 2)`` view
of a C-contiguous NHWC buffer.  The tests check

1. ``Conv2d`` forward, ``dW``, ``db`` and ``dX`` against a float64
   im2col reference within an ``n * eps`` bound, through both kernels
   (im2col, and the shifted GEMMs wherever they apply), for NCHW-contiguous
   and channels-last inputs;
2. ``BatchNorm2d`` forward, backward and running stats against a float64
   reference in both layouts;
3. that a ``resnet20_cifar`` training step hands every Conv2d / BatchNorm2d
   / ReLU past the stem a channels-last input;
4. that ``conv2d_factor_A`` / ``conv2d_factor_G`` read a channels-last
   tensor in place, bit-identical to staging a contiguous copy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factors import conv2d_factor_A, conv2d_factor_G
from repro.core.preconditioner import KFAC
from repro.nn.layers import BatchNorm2d, Conv2d, ReLU
from repro.nn.loss import CrossEntropyLoss
from repro.nn.resnet import resnet20_cifar
from repro.optim.sgd import SGD
from repro.tensor.im2col import col2im, conv_out_size, im2col
from tests.test_layers import check_input_grad, check_param_grad


def channels_last(x: np.ndarray) -> np.ndarray:
    """``x`` as the NCHW view of a C-contiguous NHWC copy."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def is_channels_last(x: np.ndarray) -> bool:
    return x.transpose(0, 2, 3, 1).flags.c_contiguous


def kernels(conv: Conv2d) -> list[bool]:
    """The kernels that can run ``conv``: im2col always, the shifted GEMMs
    for a stride-1, 'same'-padded kernel."""
    (kh, kw), (ph, pw) = conv.kernel_size, conv.padding
    same = conv.stride == (1, 1) and (kh, kw) == (2 * ph + 1, 2 * pw + 1)
    return [False, True] if same else [False]


def reference(conv: Conv2d, x: np.ndarray, dy: np.ndarray):
    """Float64 im2col conv: (y, dW, db, dX) and, elementwise, the sums of
    absolute products each one accumulates with their term counts."""
    k, s, p = conv.kernel_size, conv.stride, conv.padding
    x64, w64 = x.astype(np.float64), conv.weight.data.astype(np.float64)
    n, _, oh, ow = dy.shape
    cols = im2col(x64, k, s, p)
    w_mat = w64.reshape(conv.out_channels, -1)
    d = dy.astype(np.float64).transpose(0, 2, 3, 1).reshape(-1, conv.out_channels)

    def nchw(rows):
        return rows.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)

    b = 0 if conv.bias is None else conv.bias.data.astype(np.float64)
    y = nchw(cols @ w_mat.T + b)
    dx = col2im(d @ w_mat, x.shape, k, s, p)
    want = (y, (d.T @ cols).reshape(w64.shape), d.sum(axis=0), dx)
    mags = (
        nchw(np.abs(cols) @ np.abs(w_mat).T + np.abs(b)),
        (np.abs(d).T @ np.abs(cols)).reshape(w64.shape),
        np.abs(d).sum(axis=0),
        col2im(np.abs(d) @ np.abs(w_mat), x.shape, k, s, p),
    )
    # the shifted GEMMs also add the zero rows of the padded grid
    hp, wp = x.shape[2] + 2 * p[0], x.shape[3] + 2 * p[1]
    terms = (w_mat.shape[1] + 1, n * hp * wp, n * hp * wp, w_mat.shape[0])
    return want, mags, terms


@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from([1, 3]))
    padding = draw(st.integers(0, 1))
    stride = draw(st.integers(1, 2))
    h = draw(st.integers(max(1, k - 2 * padding), 9))
    w = draw(st.integers(max(1, k - 2 * padding), 9))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 12)), h, w)
    return (
        shape, draw(st.integers(1, 9)), k, stride, padding, draw(st.booleans()),
        draw(st.sampled_from([np.float32, np.float64])),
    )


class TestConvKernels:
    @staticmethod
    def _check(shape, out_c, k, stride, padding, bias, dtype, seed):
        rng = np.random.default_rng(seed)
        conv = Conv2d(shape[1], out_c, k, stride=stride, padding=padding, bias=bias, rng=rng)
        for p in conv.parameters():
            p.data = rng.normal(size=p.data.shape).astype(dtype)
        x = rng.normal(size=shape).astype(dtype)
        oh = conv_out_size(shape[2], k, stride, padding)
        ow = conv_out_size(shape[3], k, stride, padding)
        dy = rng.normal(size=(shape[0], out_c, oh, ow)).astype(dtype)
        want, mags, terms = reference(conv, x, dy)
        eps = np.finfo(dtype).eps
        for shifted in kernels(conv):
            conv.shifted = lambda x_shape, shifted=shifted: shifted
            for inp in (x, channels_last(x)):
                for p in conv.parameters():
                    p.grad = np.zeros_like(p.data)
                y = conv.forward(inp)
                dx = conv.backward(channels_last(dy))
                got = (y, conv.weight.grad, None if conv.bias is None else conv.bias.grad, dx)
                assert is_channels_last(y) and y.dtype == dx.dtype == dtype
                for g, r, m, t in zip(got, want, mags, terms):
                    if g is not None:
                        assert np.all(np.abs(g - r) <= 2 * t * eps * m + 1e-300), (shifted, g - r)

    @settings(max_examples=60, deadline=None)
    @given(case=conv_cases(), seed=st.integers(0, 10_000))
    def test_both_kernels_match_float64_reference(self, case, seed):
        self._check(*case, seed)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_resnet_shapes_under_the_rule(self, dtype):
        """The rule's own choice on ResNet-20 (width 0.5, 14x14) shapes:
        shifted for the stage-1 and stage-2 3x3 convs, im2col elsewhere."""
        assert Conv2d(8, 8, 3, padding=1).shifted((32, 8, 14, 14))
        assert Conv2d(16, 16, 3, padding=1).shifted((32, 16, 7, 7))
        assert not Conv2d(32, 32, 3, padding=1).shifted((32, 32, 4, 4))  # grid 2.25x
        assert not Conv2d(3, 8, 3, padding=1).shifted((32, 3, 14, 14))  # stem
        assert not Conv2d(8, 16, 3, stride=2, padding=1).shifted((32, 8, 14, 14))
        assert not Conv2d(8, 8, 3, padding=1).shifted((8, 8, 10, 10))  # < 2**14 values
        self._check((8, 8, 16, 16), 8, 3, 1, 1, False, dtype, seed=0)

    def test_shifted_central_differences(self, rng):
        """float64 dX and dW of the shifted kernel against central
        differences, with a bias and a non-square kernel."""
        conv = Conv2d(8, 3, (3, 1), padding=(1, 0), bias=True, rng=rng)
        conv.shifted = lambda x_shape: True
        conv.weight.data = conv.weight.data.astype(np.float64)
        conv.bias.data = conv.bias.data.astype(np.float64)
        x = rng.normal(size=(2, 8, 4, 3))
        check_input_grad(conv, x)
        check_param_grad(conv, x, conv.weight)
        check_param_grad(conv, x, conv.bias)


def bn_reference(x, weight, bias, dy, eps):
    x, dy = x.astype(np.float64), dy.astype(np.float64)
    mean = x.mean(axis=(0, 2, 3), keepdims=True)
    var = x.var(axis=(0, 2, 3), keepdims=True)
    x_hat = (x - mean) / np.sqrt(var + eps)
    w = weight.astype(np.float64)[None, :, None, None]
    y = w * x_hat + bias.astype(np.float64)[None, :, None, None]
    g = dy * w
    dx = (g - g.mean(axis=(0, 2, 3), keepdims=True)
          - x_hat * (g * x_hat).mean(axis=(0, 2, 3), keepdims=True)) / np.sqrt(var + eps)
    return y, dx, (dy * x_hat).sum(axis=(0, 2, 3)), dy.sum(axis=(0, 2, 3)), mean.ravel(), var.ravel()


class TestBatchNormLayouts:
    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_float64_reference(self, layout, dtype, rng):
        n, c, h, w = 6, 5, 7, 4
        x = (rng.normal(size=(n, c, h, w)) * 1.5 + 0.5).astype(dtype)
        dy = rng.normal(size=x.shape).astype(dtype)
        if layout == "channels_last":
            x, dy = channels_last(x), channels_last(dy)
        bn = BatchNorm2d(c, momentum=0.3)
        for p in bn.parameters():
            p.data = rng.normal(size=c).astype(dtype)
            p.grad = np.zeros_like(p.data)
        y = bn.forward(x)
        dx = bn.backward(dy)
        y_r, dx_r, dw_r, db_r, mean_r, var_r = bn_reference(
            x, bn.weight.data, bn.bias.data, dy, bn.eps
        )
        tol = dict(rtol=1e-4, atol=1e-4) if dtype == np.float32 else dict(rtol=1e-10, atol=1e-10)
        assert is_channels_last(y) and is_channels_last(dx)
        assert y.dtype == dx.dtype == dtype
        np.testing.assert_allclose(y, y_r, **tol)
        np.testing.assert_allclose(dx, dx_r, **tol)
        np.testing.assert_allclose(bn.weight.grad, dw_r, **tol)
        np.testing.assert_allclose(bn.bias.grad, db_r, **tol)
        count = n * h * w  # running stats are stored at the default dtype
        np.testing.assert_allclose(bn.running_mean, 0.3 * mean_r, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(
            bn.running_var, 0.7 + 0.3 * var_r * count / (count - 1), rtol=1e-5, atol=1e-6
        )
        bn.eval()
        y_eval = bn.forward(x)
        assert is_channels_last(y_eval)
        want = (x - bn.running_mean[None, :, None, None]) / np.sqrt(
            bn.running_var[None, :, None, None] + bn.eps
        ) * bn.weight.data[None, :, None, None] + bn.bias.data[None, :, None, None]
        np.testing.assert_allclose(y_eval, want, **tol)


def test_resnet_step_keeps_activations_channels_last():
    """One K-FAC training step of resnet20_cifar: every Conv2d / BatchNorm2d
    / ReLU input past the stem conv is channels-last, and so is every
    Conv2d and BatchNorm2d output gradient (the conv ``G`` reading)."""
    rng = np.random.default_rng(0)
    model = resnet20_cifar(rng=rng, width_multiplier=0.5)
    kfac = KFAC(model, damping=0.01, fac_update_freq=1, kfac_update_freq=1)
    opt = SGD(model.parameters(), lr=0.01)
    inputs, grads, removers = {}, {}, []
    for name, m in model.named_modules():
        if isinstance(m, (Conv2d, BatchNorm2d, ReLU)):
            removers.append(m.register_forward_hook(
                lambda m, x, out, name=name: inputs.__setitem__(name, x)
            ))
        if isinstance(m, (Conv2d, BatchNorm2d)):
            removers.append(m.register_backward_hook(
                lambda m, g, name=name: grads.__setitem__(name, g)
            ))
    x = rng.normal(size=(16, 3, 14, 14)).astype(np.float32)  # NCHW-contiguous
    y = rng.integers(0, 10, size=16)
    loss = CrossEntropyLoss()
    loss(model(x), y)
    model.backward(loss.backward())
    kfac.step()
    opt.step()
    hooked = [m for _, m in model.named_modules() if isinstance(m, (Conv2d, BatchNorm2d, ReLU))]
    assert len(inputs) == len(hooked) and len(grads) == len(hooked) - 19  # 19 ReLUs
    assert any(m.shifted(inputs[name].shape) for name, m in model.named_modules()
               if isinstance(m, Conv2d))
    stem = next(name for name, m in model.named_modules() if isinstance(m, Conv2d))
    assert not is_channels_last(inputs.pop(stem))
    assert [name for name, a in inputs.items() if not is_channels_last(a)] == []
    assert [name for name, g in grads.items() if not is_channels_last(g)] == []
    for remove in removers:
        remove()


class TestFactorViews:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 8, 6, 6), (2, 3, 5, 7), (1, 16, 1, 1)])
    def test_channels_last_reads_equal_staged_copies(self, shape, dtype, rng):
        x = channels_last(rng.normal(size=shape).astype(dtype))
        dense = np.ascontiguousarray(x)
        assert not is_channels_last(dense) or shape[2] * shape[3] == 1
        for has_bias in (False, True):
            assert np.array_equal(
                conv2d_factor_A(x, has_bias), conv2d_factor_A(dense, has_bias)
            )
        assert np.array_equal(conv2d_factor_G(x), conv2d_factor_G(dense))
        out = np.zeros((shape[1], shape[1]), dtype)
        conv2d_factor_A(x, False, out=out)
        assert np.array_equal(np.triu(out), np.triu(conv2d_factor_A(dense, False)))
