"""K-FAC factor and inverse math against dense references.

These are the correctness anchors docs/architecture.md points at:

- single-sample Kronecker identity: ``vec(g a^T) vec(g a^T)^T == G (x) A``;
- the eigendecomposition path equals the *exact* dense Tikhonov-damped
  inverse ``(G (x) A + gamma I)^{-1} vec(grad)``;
- the explicit-inverse path equals the *factored* damped operator
  ``(G + gamma I)^{-1} (x) (A + gamma I)^{-1}`` — a different operator,
  which is the whole point of the paper's Table I.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factors import (
    conv2d_factor_A,
    conv2d_factor_G,
    ema_update,
    linear_factor_A,
    linear_factor_G,
)
from repro.core.inverse import (
    dense_damped_inverse_apply,
    dense_fisher_block,
    eigendecompose,
    explicit_damped_inverse,
    precondition_eigen,
    precondition_inverse,
)


class TestFactors:
    def test_linear_A_shape_and_symmetry(self, rng):
        a = rng.normal(size=(16, 5)).astype(np.float32)
        A = linear_factor_A(a, has_bias=True)
        assert A.shape == (6, 6)
        np.testing.assert_allclose(A, A.T, rtol=1e-6)
        # bias corner is E[1*1] = 1
        assert A[-1, -1] == pytest.approx(1.0)

    def test_linear_factors_psd(self, rng):
        a = rng.normal(size=(8, 4))
        g = rng.normal(size=(8, 3))
        for m in (linear_factor_A(a, True), linear_factor_G(g)):
            eig = np.linalg.eigvalsh(m)
            assert eig.min() > -1e-10

    def test_single_sample_kronecker_identity(self, rng):
        """For one sample: Fisher block == G (x) A exactly (row-major vec)."""
        a = rng.normal(size=(1, 4))
        g = rng.normal(size=(1, 3))
        grad = g.T @ a  # dW for the summed loss of this single sample
        fisher = np.outer(grad.reshape(-1), grad.reshape(-1))
        A = linear_factor_A(a, has_bias=False)
        G = linear_factor_G(g, batch_averaged=False)
        np.testing.assert_allclose(fisher, dense_fisher_block(A, G), rtol=1e-10)

    def test_batch_averaged_matches_de_averaged(self, rng):
        """G from mean-loss grads (xN) == G from per-example sum-loss grads."""
        n = 8
        g_sum = rng.normal(size=(n, 3))  # per-example grads of summed loss
        g_mean = g_sum / n  # what backprop of the mean loss yields
        G1 = linear_factor_G(g_mean, batch_averaged=True)
        G2 = (g_sum.T @ g_sum) / n
        np.testing.assert_allclose(G1, G2, rtol=1e-10)

    def test_conv_A_matches_manual_channel_gram(self, rng):
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        A = conv2d_factor_A(x, has_bias=True)
        rows = x.transpose(0, 2, 3, 1).reshape(-1, 3)
        rows = np.concatenate([rows, np.ones((len(rows), 1), np.float32)], axis=1)
        want = rows.T @ rows / rows.shape[0]
        np.testing.assert_allclose(A, want, rtol=1e-5)
        assert A.shape == (3 + 1, 3 + 1)

    def test_conv_G_shape(self, rng):
        g = rng.normal(size=(4, 5, 3, 3)).astype(np.float32)
        G = conv2d_factor_G(g)
        assert G.shape == (5, 5)
        np.testing.assert_allclose(G, G.T, rtol=1e-6)

    def test_factor_averaging_equals_full_batch(self, rng):
        """Average of per-shard factors == factor of the full batch (the
        property that makes Algorithm 1's factor allreduce exact)."""
        a = rng.normal(size=(16, 5))
        shard_A = [linear_factor_A(a[:8], True), linear_factor_A(a[8:], True)]
        np.testing.assert_allclose(
            (shard_A[0] + shard_A[1]) / 2, linear_factor_A(a, True), rtol=1e-10
        )

    def test_validation_errors(self, rng):
        with pytest.raises(ValueError):
            linear_factor_A(rng.normal(size=(3,)), True)
        with pytest.raises(ValueError):
            linear_factor_G(rng.normal(size=(3, 2, 2)))
        with pytest.raises(ValueError):
            conv2d_factor_G(rng.normal(size=(3, 2)))


class TestEMA:
    def test_first_call_adopts_value(self, rng):
        new = rng.normal(size=(3, 3))
        out = ema_update(None, new, 0.95)
        np.testing.assert_array_equal(out, new)
        assert out is not new

    def test_update_formula(self):
        ema = np.ones((2, 2))
        out = ema_update(ema, np.zeros((2, 2)), 0.9)
        np.testing.assert_allclose(out, np.full((2, 2), 0.9))
        assert out is ema  # in place

    def test_converges_to_constant_signal(self):
        ema = None
        target = np.full((2,), 5.0)
        for _ in range(200):
            ema = ema_update(ema, target, 0.9)
        np.testing.assert_allclose(ema, target, rtol=1e-8)

    def test_invalid_decay(self):
        with pytest.raises(ValueError):
            ema_update(None, np.zeros(1), 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ema_update(np.zeros(2), np.zeros(3), 0.9)


def _random_psd(rng, n):
    m = rng.normal(size=(n, n))
    return (m @ m.T / n + 0.01 * np.eye(n)).astype(np.float64)


class TestEigendecomposition:
    def test_reconstruction(self, rng):
        m = _random_psd(rng, 6)
        eig = eigendecompose(m)
        np.testing.assert_allclose(eig.Q @ np.diag(eig.lam) @ eig.Q.T, m, rtol=1e-8, atol=1e-10)

    def test_negative_eigenvalues_clipped(self):
        m = np.diag([1.0, -1e-9])
        eig = eigendecompose(m)
        assert eig.lam.min() >= 0.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigendecompose(np.zeros((2, 3)))


class TestPreconditioningPaths:
    @settings(max_examples=20, deadline=None)
    @given(
        d_out=st.integers(2, 5),
        d_in=st.integers(2, 5),
        gamma=st.floats(1e-4, 1.0),
        seed=st.integers(0, 10_000),
    )
    def test_eigen_path_is_exact_tikhonov(self, d_out, d_in, gamma, seed):
        """Eqs. 13-15 == dense (F + gamma I)^{-1} vec(grad)."""
        rng = np.random.default_rng(seed)
        A = _random_psd(rng, d_in)
        G = _random_psd(rng, d_out)
        grad = rng.normal(size=(d_out, d_in))
        fast = precondition_eigen(grad, eigendecompose(A), eigendecompose(G), gamma)
        dense = dense_damped_inverse_apply(grad, A, G, gamma)
        np.testing.assert_allclose(fast, dense, rtol=1e-6, atol=1e-9)

    def test_inverse_path_is_factored_damping(self, rng):
        """Eq. 12 == kron((G+cI)^-1, (A+cI)^-1) applied to vec(grad)."""
        gamma = 0.1
        A = _random_psd(rng, 4)
        G = _random_psd(rng, 3)
        grad = rng.normal(size=(3, 4))
        fast = precondition_inverse(
            grad, explicit_damped_inverse(A, gamma), explicit_damped_inverse(G, gamma)
        )
        dense_op = np.kron(
            np.linalg.inv(G + gamma * np.eye(3)), np.linalg.inv(A + gamma * np.eye(4))
        )
        np.testing.assert_allclose(fast.reshape(-1), dense_op @ grad.reshape(-1), rtol=1e-7)

    def test_paths_differ_under_damping(self, rng):
        """The two operators are genuinely different (Table I's subject)."""
        gamma = 0.5
        A = _random_psd(rng, 4)
        G = _random_psd(rng, 4)
        grad = rng.normal(size=(4, 4))
        eig_out = precondition_eigen(grad, eigendecompose(A), eigendecompose(G), gamma)
        inv_out = precondition_inverse(
            grad, explicit_damped_inverse(A, gamma), explicit_damped_inverse(G, gamma)
        )
        assert not np.allclose(eig_out, inv_out, rtol=1e-3)

    def test_paths_agree_as_damping_vanishes(self, rng):
        """With well-conditioned factors and tiny gamma, both approximate
        the undamped Kronecker inverse."""
        gamma = 1e-8
        A = _random_psd(rng, 3) + np.eye(3)
        G = _random_psd(rng, 3) + np.eye(3)
        grad = rng.normal(size=(3, 3))
        eig_out = precondition_eigen(grad, eigendecompose(A), eigendecompose(G), gamma)
        inv_out = precondition_inverse(
            grad, explicit_damped_inverse(A, gamma), explicit_damped_inverse(G, gamma)
        )
        np.testing.assert_allclose(eig_out, inv_out, rtol=1e-4)

    def test_large_damping_approaches_scaled_gradient(self, rng):
        """gamma -> inf: (F + gamma I)^{-1} grad -> grad / gamma."""
        gamma = 1e8
        A = _random_psd(rng, 3)
        G = _random_psd(rng, 3)
        grad = rng.normal(size=(3, 3))
        out = precondition_eigen(grad, eigendecompose(A), eigendecompose(G), gamma)
        np.testing.assert_allclose(out, grad / gamma, rtol=1e-4)

    def test_shape_validation(self, rng):
        A = _random_psd(rng, 3)
        G = _random_psd(rng, 2)
        with pytest.raises(ValueError):
            precondition_eigen(
                rng.normal(size=(3, 3)), eigendecompose(A), eigendecompose(G), 0.1
            )
        with pytest.raises(ValueError):
            precondition_inverse(rng.normal(size=(3, 3)), A, np.eye(2))

    def test_eigen_requires_positive_damping(self, rng):
        A = _random_psd(rng, 2)
        with pytest.raises(ValueError):
            precondition_eigen(np.ones((2, 2)), eigendecompose(A), eigendecompose(A), 0.0)

    def test_singular_factor_explicit_inverse_fallback(self):
        """Singular damped factor falls back to pinv without exploding."""
        m = np.zeros((3, 3))
        out = explicit_damped_inverse(m, 0.0)
        assert np.isfinite(out).all()

    def test_singular_diagonal_factor_inverts_like_pinv(self):
        """The 1-D branch has the dense path's fallback: an entry the
        damping leaves at zero (an unseen token at gamma=0) inverts to 0."""
        a = np.array([4.0, 0.0, 0.25])
        out = explicit_damped_inverse(a, 0.0)
        np.testing.assert_allclose(out, np.diag(explicit_damped_inverse(np.diag(a), 0.0)))
        assert out.tolist() == [0.25, 0.0, 4.0]
