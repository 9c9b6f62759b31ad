"""Accuracy of ``eigendecompose`` on K-FAC-shaped Gram factors.

The bounds are LAPACK's backward-error guarantees scaled by ``d * eps``.
They pin the LAPACK routine: the divide-and-conquer ``?syevd`` that
``eigendecompose`` calls meets them with a wide margin, while ``eigh``'s
default ``?syevr`` misses the orthogonality bound by up to ten times.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.inverse import eigendecompose, precondition_eigen

#: (d, rows) of each Gram factor: full-rank at conv A-factor sides
#: (27 = 3*3*3 ... 288 = 32*3*3), plus a rank-deficient d = 288 one
FULL_RANK = [(27, 108), (72, 288), (144, 576), (288, 1152)]
CASES = FULL_RANK + [(288, 200)]


def _gram_factor(d: int, rows: int, dtype, seed: int = 0) -> np.ndarray:
    x = np.random.default_rng([seed, d, rows]).standard_normal((rows, d))
    return (x.T @ x / rows).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d,rows", CASES)
def test_reconstruction_and_orthogonality(d, rows, dtype):
    factor = _gram_factor(d, rows, dtype)
    eig = eigendecompose(factor)
    assert eig.Q.dtype == dtype and eig.lam.dtype == dtype
    eps = np.finfo(dtype).eps
    # residuals in float64, so they measure the solver and not the check
    q, lam, f = (a.astype(np.float64) for a in (eig.Q, eig.lam, factor))
    assert np.linalg.norm((q * lam) @ q.T - f) <= d * eps * np.linalg.norm(f)
    assert np.abs(q.T @ q - np.eye(d)).max() <= d * eps


@pytest.mark.parametrize("d,rows", FULL_RANK)
def test_precondition_matches_float64_solve(d, rows):
    """Eqs. 13-15 on a float32 basis against a float64 solve of the damped
    Kronecker system ``(G (x) A + gamma I) vec(P) = vec(grad)``."""
    gamma = 1e-3
    a = _gram_factor(d, rows, np.float32)
    g = _gram_factor(4, 16, np.float32, seed=1)
    grad = np.random.default_rng(d).standard_normal((4, d)).astype(np.float32)
    got = precondition_eigen(grad, eigendecompose(a), eigendecompose(g), gamma)
    assert got.dtype == np.float32
    damped = np.kron(g.astype(np.float64), a.astype(np.float64)) + gamma * np.eye(4 * d)
    want = np.linalg.solve(damped, grad.astype(np.float64).reshape(-1)).reshape(4, d)
    assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)
