"""Microbenchmarks of the hot kernels (real timing, multiple rounds).

These are genuine pytest-benchmark measurements of the library's compute
primitives: im2col, col2im, conv forward/backward, factor computation,
the Gram triangle mirror, eigendecomposition, eigen-basis preconditioning, and ring allreduce —
plus the symmetry fast path: syrk-vs-GEMM Gram products and
triangular-packed vs full factor allreduce at real ResNet-50 factor
shapes.  CI runs this file as a smoke job and uploads the
``BENCH_micro.json`` artifact so the perf trajectory is tracked across
PRs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.collectives import ring_allreduce
from repro.comm.fusion import tri_pack, tri_unpack
from repro.core.factors import conv2d_factor_A, conv2d_factor_G
from repro.core.inverse import eigendecompose, precondition_eigen
from repro.nn.layers import Conv2d
from repro.tensor.gram import gram, mirror_upper
from repro.tensor.im2col import col2im, im2col

RNG = np.random.default_rng(0)

#: real ResNet-50 Gram shapes (rows = batch 8 x spatial L, cols = a_dim):
#: a 3x3 stage-1 conv (64ch @ 56^2 / batch-of-2 slice) and the widest 3x3
#: conv's factor dimension (512*3*3 = 4608) at a small row count.
R50_GRAM_SHAPES = {
    "conv2_3x3": (8 * 28 * 28, 64 * 3 * 3),  # tall-skinny: rows dominate
    "conv5_3x3": (2 * 7 * 7, 512 * 3 * 3),  # wide: factor dim dominates
}

#: ResNet-50 factor side lengths for the packed-allreduce comparison:
#: 576 = 64*3*3 (early 3x3 conv A), 2304 = 256*3*3 (stage-3 conv A).
R50_FACTOR_DIMS = (576, 2304)


def test_im2col_kernel(benchmark):
    x = RNG.normal(size=(16, 16, 16, 16)).astype(np.float32)
    benchmark(im2col, x, (3, 3), (1, 1), (1, 1))


def test_col2im_kernel(benchmark):
    x_shape = (16, 16, 16, 16)
    cols = RNG.normal(size=(16 * 16 * 16, 16 * 3 * 3)).astype(np.float32)
    benchmark(col2im, cols, x_shape, (3, 3), (1, 1), (1, 1))


def test_conv_forward(benchmark):
    conv = Conv2d(16, 32, 3, padding=1, rng=RNG)
    x = RNG.normal(size=(8, 16, 16, 16)).astype(np.float32)
    benchmark(conv.forward, x)


def test_conv_backward(benchmark):
    conv = Conv2d(16, 32, 3, padding=1, rng=RNG)
    x = RNG.normal(size=(8, 16, 16, 16)).astype(np.float32)
    g = RNG.normal(size=conv.out_shape(x.shape)).astype(np.float32)

    # backward consumes the cached patch matrix (recycled into the
    # workspace arena), so each round re-primes with a fresh forward
    def setup():
        conv.zero_grad()
        conv.forward(x)
        return (g,), {}

    benchmark.pedantic(conv.backward, setup=setup, rounds=20)


def test_conv_factor_A(benchmark):
    # the C_in x C_in channel Gram of the layer input (no patch lowering)
    x = RNG.normal(size=(16, 16, 12, 12)).astype(np.float32)
    benchmark(conv2d_factor_A, x, False)


def test_conv_factor_G(benchmark):
    g = RNG.normal(size=(16, 32, 12, 12)).astype(np.float32)
    benchmark(conv2d_factor_G, g)


def test_mirror_upper(benchmark):
    # 288 = 32*3*3, a 3x3 conv's A factor side
    mat = RNG.normal(size=(288, 288)).astype(np.float32)
    benchmark(mirror_upper, mat)


@pytest.mark.parametrize("dim", [64, 256, 288])
def test_eigendecomposition(benchmark, dim):
    m = RNG.normal(size=(dim, dim)).astype(np.float32)
    factor = m @ m.T / dim
    benchmark(eigendecompose, factor)


def test_precondition_eigen(benchmark):
    a = RNG.normal(size=(144, 144)).astype(np.float32)
    g = RNG.normal(size=(64, 64)).astype(np.float32)
    eig_a = eigendecompose(a @ a.T / 144)
    eig_g = eigendecompose(g @ g.T / 64)
    grad = RNG.normal(size=(64, 144)).astype(np.float32)
    benchmark(precondition_eigen, grad, eig_a, eig_g, 0.01)


@pytest.mark.parametrize("world", [2, 8])
def test_ring_allreduce(benchmark, world):
    bufs = [RNG.normal(size=65536).astype(np.float32) for _ in range(world)]
    benchmark(ring_allreduce, bufs)


# ---------------------------------------------------------------------------
# symmetry fast path: syrk Gram vs plain GEMM at ResNet-50 factor shapes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("shape_name", sorted(R50_GRAM_SHAPES))
def test_gram_syrk(benchmark, shape_name):
    rows, cols = R50_GRAM_SHAPES[shape_name]
    x = RNG.normal(size=(rows, cols)).astype(np.float32)
    out = np.empty((cols, cols), dtype=np.float32)
    result = benchmark(gram, x, out)
    assert np.array_equal(result, result.T)


@pytest.mark.parametrize("shape_name", sorted(R50_GRAM_SHAPES))
def test_gram_gemm_baseline(benchmark, shape_name):
    rows, cols = R50_GRAM_SHAPES[shape_name]
    x = RNG.normal(size=(rows, cols)).astype(np.float32)

    def gemm():
        return x.T @ x

    benchmark(gemm)


# ---------------------------------------------------------------------------
# symmetry fast path: triangular-packed vs full factor allreduce
# ---------------------------------------------------------------------------
def _symmetric_factor(d: int, seed: int) -> np.ndarray:
    m = np.random.default_rng(seed).normal(size=(d, d)).astype(np.float32)
    return (m + m.T) / 2.0


@pytest.mark.parametrize("dim", R50_FACTOR_DIMS)
def test_factor_allreduce_full(benchmark, dim):
    world = 4
    factors = [_symmetric_factor(dim, r) for r in range(world)]

    def full():
        return ring_allreduce([f.reshape(-1) for f in factors])

    benchmark(full)


@pytest.mark.parametrize("dim", R50_FACTOR_DIMS)
def test_factor_allreduce_tri_packed(benchmark, dim):
    """Pack + allreduce + unpack — the whole fast path, including its
    packing overhead, against the full-matrix exchange above."""
    world = 4
    factors = [_symmetric_factor(dim, r) for r in range(world)]

    def packed():
        reduced = ring_allreduce([tri_pack(f) for f in factors])
        return [tri_unpack(r, dim) for r in reduced]

    result = benchmark(packed)
    assert result[0].shape == (dim, dim)
