"""im2col / col2im correctness and adjointness."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.im2col import col2im, conv_out_size, im2col


def naive_im2col(x, kh, kw, sh, sw, ph, pw):
    n, c, h, w = x.shape
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n * oh * ow, c * kh * kw), dtype=x.dtype)
    row = 0
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                patch = xp[b, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                out[row] = patch.reshape(-1)
                row += 1
    return out


class TestConvOutSize:
    def test_basic(self):
        assert conv_out_size(8, 3, 1, 1) == 8
        assert conv_out_size(8, 3, 2, 1) == 4
        assert conv_out_size(224, 7, 2, 3) == 112

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            conv_out_size(2, 5, 1, 0)


class TestIm2col:
    @pytest.mark.parametrize(
        "shape,k,s,p",
        [
            ((2, 3, 8, 8), (3, 3), (1, 1), (1, 1)),
            ((1, 2, 7, 9), (3, 2), (2, 1), (0, 1)),
            ((3, 1, 5, 5), (1, 1), (1, 1), (0, 0)),
            ((2, 4, 6, 6), (3, 3), (2, 2), (1, 1)),
            ((1, 3, 10, 10), (5, 5), (3, 3), (2, 2)),
        ],
    )
    def test_matches_naive(self, shape, k, s, p):
        rng = np.random.default_rng(0)
        x = rng.normal(size=shape).astype(np.float32)
        got = im2col(x, k, s, p)
        want = naive_im2col(x, k[0], k[1], s[0], s[1], p[0], p[1])
        np.testing.assert_array_equal(got, want)

    def test_rejects_non_4d(self):
        with pytest.raises(ValueError):
            im2col(np.zeros((3, 3)), (1, 1), (1, 1), (0, 0))

    def test_identity_kernel(self):
        """1x1 kernel, stride 1: rows are just channel vectors per pixel."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        cols = im2col(x, (1, 1), (1, 1), (0, 0))
        want = x.transpose(0, 2, 3, 1).reshape(-1, 3)
        np.testing.assert_array_equal(cols, want)


class TestCol2im:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            col2im(np.zeros((5, 9)), (1, 1, 4, 4), (3, 3), (1, 1), (1, 1))

    def test_non_overlapping_roundtrip(self):
        """With stride == kernel and no padding, col2im inverts im2col."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        cols = im2col(x, (2, 2), (2, 2), (0, 0))
        back = col2im(cols, x.shape, (2, 2), (2, 2), (0, 0))
        np.testing.assert_allclose(back, x, rtol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        size=st.integers(4, 9),
        k=st.integers(1, 3),
        s=st.integers(1, 2),
        p=st.integers(0, 1),
        seed=st.integers(0, 10_000),
    )
    def test_adjoint_property(self, n, c, size, k, s, p, seed):
        """<im2col(x), y> == <x, col2im(y)> for all x, y (true adjoint)."""
        if size + 2 * p < k:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, size, size))
        oh = conv_out_size(size, k, s, p)
        ow = conv_out_size(size, k, s, p)
        y = rng.normal(size=(n * oh * ow, c * k * k))
        lhs = float((im2col(x, (k, k), (s, s), (p, p)) * y).sum())
        rhs = float((x * col2im(y, x.shape, (k, k), (s, s), (p, p))).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def naive_col2im(cols, x_shape, kh, kw, sh, sw, ph, pw):
    """Per-patch scatter-add, kernel position (i, j) outermost — the order
    every pixel's overlapping contributions must be summed in."""
    n, c, h, w = x_shape
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    patches = cols.reshape(n, oh, ow, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            for b in range(n):
                for y in range(oh):
                    for x in range(ow):
                        xp[b, :, y * sh + i, x * sw + j] += patches[b, y, x, :, i, j]
    return xp[:, :, ph : ph + h, pw : pw + w]


def _nan_like(shape, dtype):
    return np.full(shape, np.nan, dtype=dtype)


@st.composite
def lowering_cases(draw):
    """(x_shape, kernel, stride, padding, dtype) with a non-empty output:
    asymmetric and zero padding, C = 1 (the pooling layers' per-channel
    shape) included."""
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    ph, pw = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    h = draw(st.integers(max(1, kh - 2 * ph), 9))
    w = draw(st.integers(max(1, kw - 2 * pw), 9))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)), h, w)
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64]))
    return shape, (kh, kw), stride, (ph, pw), dtype


class TestBitForBit:
    """The NHWC staged lowering moves the same values into the same
    layout, and col2im adds them in the same (i, j) order, as the naive
    definitions: equal bit for bit, whatever a recycled buffer held; and
    col2im's result is channels-last."""

    @staticmethod
    def _check(shape, k, s, p, dtype, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape).astype(dtype)
        n, c, h, w = shape
        oh, ow = conv_out_size(h, k[0], s[0], p[0]), conv_out_size(w, k[1], s[1], p[1])
        staging_shape = (n, h + 2 * p[0], w + 2 * p[1], c)
        want = naive_im2col(x, k[0], k[1], s[0], s[1], p[0], p[1])
        assert np.array_equal(im2col(x, k, s, p), want)
        cols = im2col(
            x, k, s, p,
            out=_nan_like((n * oh * ow, c * k[0] * k[1]), dtype),
            staging=_nan_like(staging_shape, dtype),
        )
        assert np.array_equal(cols, want)  # no NaN border leaked in

        dcols = rng.normal(size=want.shape).astype(dtype)
        back = naive_col2im(dcols, shape, k[0], k[1], s[0], s[1], p[0], p[1])
        got = col2im(dcols, shape, k, s, p)
        assert got.shape == shape and got.dtype == dtype
        assert np.array_equal(got, back)
        assert got.strides[1] == got.itemsize  # channels-last: C is the fastest axis

    @settings(max_examples=60, deadline=None)
    @given(case=lowering_cases(), seed=st.integers(0, 10_000))
    def test_matches_naive_bitwise(self, case, seed):
        self._check(*case, seed)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape,k,s,p",
        [
            ((8, 1, 9, 9), (3, 3), (2, 2), (0, 0)),  # MaxPool2d(3, 2, 1), pre-padded
            ((6, 1, 4, 4), (2, 2), (2, 2), (0, 0)),  # AvgPool2d(2)
            ((6, 1, 5, 5), (3, 3), (2, 2), (1, 1)),  # padded AvgPool2d
            ((4, 3, 6, 6), (1, 1), (2, 2), (0, 0)),  # 1x1 stride-2 shortcut
        ],
    )
    def test_pooling_and_shortcut_shapes(self, shape, k, s, p, dtype):
        self._check(shape, k, s, p, dtype, seed=0)

    def test_rejects_wrong_buffers(self):
        x = np.zeros((1, 2, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            im2col(x, (3, 3), (1, 1), (1, 1), staging=np.zeros((1, 2, 6, 6), np.float32))
        with pytest.raises(ValueError):
            im2col(x, (3, 3), (1, 1), (1, 1), staging=np.zeros((1, 6, 6, 2), np.float64))
