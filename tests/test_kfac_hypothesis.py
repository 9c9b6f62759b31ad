"""Property-based tests on the K-FAC pipeline over generated layer configs.

These complement the fixed-case tests: hypothesis explores conv geometries,
batch sizes, and damping values, checking the end-to-end invariants that
must hold for *any* supported layer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factors import conv2d_factor_A, conv2d_factor_G, linear_factor_A
from repro.core.inverse import (
    dense_damped_inverse_apply,
    eigendecompose,
    precondition_eigen,
)
from repro.core.layers import make_kfac_layer
from repro.nn.layers import Conv2d, Linear
from repro.nn.container import Sequential
from repro.core.preconditioner import KFAC
from repro.nn.loss import CrossEntropyLoss

from tests.conftest import adopt_readings


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 6),
    c_in=st.integers(1, 3),
    size=st.integers(1, 8),
    bias=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_conv_factor_A_always_psd_and_symmetric(n, c_in, size, bias, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, c_in, size, size)).astype(np.float32)
    A = conv2d_factor_A(x, bias)
    dim = c_in + (1 if bias else 0)
    assert A.shape == (dim, dim)
    np.testing.assert_allclose(A, A.T, rtol=1e-4, atol=1e-6)
    assert np.linalg.eigvalsh(A.astype(np.float64)).min() > -1e-5


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 6),
    c_out=st.integers(1, 5),
    spatial=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_conv_factor_G_always_psd(n, c_out, spatial, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, c_out, spatial, spatial)).astype(np.float32)
    G = conv2d_factor_G(g)
    assert G.shape == (c_out, c_out)
    assert np.linalg.eigvalsh(G.astype(np.float64)).min() > -1e-4


@settings(max_examples=15, deadline=None)
@given(
    shards=st.integers(2, 4),
    d=st.integers(2, 6),
    per_shard=st.integers(2, 8),
    seed=st.integers(0, 10_000),
)
def test_factor_sharding_linearity(shards, d, per_shard, seed):
    """mean of per-shard A == A of concatenated batch, any shard count."""
    rng = np.random.default_rng(seed)
    parts = [rng.normal(size=(per_shard, d)) for _ in range(shards)]
    full = np.concatenate(parts)
    mean_A = np.mean([linear_factor_A(p, True) for p in parts], axis=0)
    np.testing.assert_allclose(mean_A, linear_factor_A(full, True), rtol=1e-9)


@settings(max_examples=15, deadline=None)
@given(
    d_out=st.integers(1, 4),
    d_in=st.integers(1, 4),
    gamma=st.floats(1e-5, 10.0),
    scale=st.floats(0.01, 100.0),
    seed=st.integers(0, 10_000),
)
def test_preconditioning_linearity_in_gradient(d_out, d_in, gamma, scale, seed):
    """(F+cI)^{-1} is a linear operator: precond(s*g) == s*precond(g)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, d_in))
    g = rng.normal(size=(8, d_out))
    eig_a = eigendecompose(a.T @ a / 8)
    eig_g = eigendecompose(g.T @ g / 8)
    grad = rng.normal(size=(d_out, d_in))
    one = precondition_eigen(grad, eig_a, eig_g, gamma)
    scaled = precondition_eigen(scale * grad, eig_a, eig_g, gamma)
    np.testing.assert_allclose(scaled, scale * one, rtol=1e-6, atol=1e-9)


@settings(max_examples=10, deadline=None)
@given(
    d=st.integers(2, 4),
    gamma=st.floats(1e-3, 1.0),
    seed=st.integers(0, 10_000),
)
def test_preconditioned_gradient_preserves_descent_direction(d, gamma, seed):
    """<precond(g), g> > 0: the preconditioner is positive definite, so the
    preconditioned gradient is always a descent direction."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(8, d))
    g = rng.normal(size=(8, d))
    eig_a = eigendecompose(a.T @ a / 8)
    eig_g = eigendecompose(g.T @ g / 8)
    grad = rng.normal(size=(d, d))
    pre = precondition_eigen(grad, eig_a, eig_g, gamma)
    assert float((pre * grad).sum()) > 0


@settings(max_examples=8, deadline=None)
@given(
    freq=st.integers(1, 4),
    steps=st.integers(1, 8),
)
def test_update_counter_invariant(freq, steps):
    """n_second_order_updates == ceil(steps / freq) for any combination."""
    rng = np.random.default_rng(0)
    model = Sequential(Linear(6, 4, rng=rng), Linear(4, 3, rng=rng))
    kfac = KFAC(model, fac_update_freq=1, kfac_update_freq=freq, damping=0.01)
    loss = CrossEntropyLoss()
    x = rng.normal(size=(4, 6)).astype(np.float32)
    y = rng.integers(0, 3, size=4)
    for _ in range(steps):
        model.zero_grad()
        loss(model(x), y)
        model.backward(loss.backward())
        kfac.step()
    assert kfac.n_second_order_updates == -(-steps // freq)
    assert kfac.n_factor_updates == steps


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000), gamma=st.floats(1e-3, 1.0))
def test_end_to_end_conv_preconditioning_matches_dense(seed, gamma):
    """Full pipeline on a real Conv2d: hook capture -> factors -> eigen
    preconditioning equals the dense damped-inverse reference."""
    rng = np.random.default_rng(seed)
    conv = Conv2d(2, 3, 2, stride=1, padding=0, bias=True, rng=rng)
    handler = make_kfac_layer("c", conv)
    x = rng.normal(size=(4, 2, 4, 4)).astype(np.float32)
    out = conv(x)
    conv.zero_grad()
    conv.backward(rng.normal(size=out.shape).astype(np.float32) / out.size)
    handler.save_input(x)
    handler.save_grad_output(rng.normal(size=out.shape).astype(np.float32))
    adopt_readings(handler)
    handler.eig_A, handler.eig_G = handler.compute_eigen()
    grad = handler.get_grad_matrix()
    fast = handler.precondition(grad, gamma, use_eigen=True)
    # the dense Fisher block is G (x) A_c (x) I_4 over the 2x2 kernel's
    # offsets, the bias a third input channel at every offset
    k = handler.slices
    weights = grad[:, :-1].reshape(3, 2, k)
    padded = np.concatenate([weights, np.repeat(grad[:, -1:, None], k, axis=2)], axis=1)
    dense = dense_damped_inverse_apply(
        padded.reshape(3, -1).astype(np.float64),
        np.kron(handler.A.astype(np.float64), np.eye(k)),
        handler.G.astype(np.float64),
        gamma,
    ).reshape(3, 3, k)
    # weights from the two real channels, the bias at the centre offset
    want = np.concatenate([dense[:, :2].reshape(3, -1), dense[:, 2, 3:4]], axis=1)
    np.testing.assert_allclose(fast, want, rtol=5e-3, atol=1e-5)
