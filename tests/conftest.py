"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.factors import linear_factor_A
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.nn.container import Sequential
from repro.nn.layers import Conv2d, Flatten, Linear, ReLU
from repro.nn.module import Module


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: end-to-end runs (training experiments, example scripts)"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def build_tiny_cnn(seed: int = 42, num_classes: int = 3) -> Module:
    """A small conv+linear network covering both K-FAC layer types."""
    r = np.random.default_rng(seed)
    return Sequential(
        Conv2d(1, 4, 3, padding=1, bias=True, rng=r),
        ReLU(),
        Conv2d(4, 6, 3, stride=2, padding=1, bias=False, rng=r),
        ReLU(),
        Flatten(),
        Linear(6 * 4 * 4, 16, rng=r),
        ReLU(),
        Linear(16, num_classes, rng=r),
    )


@pytest.fixture
def tiny_cnn() -> Module:
    return build_tiny_cnn()


@pytest.fixture
def tiny_batch(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    x = rng.normal(size=(8, 1, 8, 8)).astype(np.float32)
    y = rng.integers(0, 3, size=8).astype(np.int64)
    return x, y


@pytest.fixture(scope="session")
def tiny_dataset() -> SyntheticImageDataset:
    return SyntheticImageDataset(
        SyntheticSpec(
            n_train=128, n_val=64, num_classes=4, image_size=8, channels=3,
            noise=0.5, max_shift=1, seed=5,
        )
    )


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` w.r.t. array ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


def onehot_factor_A(
    indices: np.ndarray, num_embeddings: int, dtype: np.dtype | type = np.float32
) -> np.ndarray:
    """Dense one-hot oracle for an embedding's ``A`` factor.

    Materializes the ``(rows, V)`` one-hot matrix and takes the ordinary
    Linear Gram product — the ``(V, V)`` matrix whose diagonal
    ``repro.core.factors.embedding_factor_A`` must reproduce bit for bit.
    Test-only: the training path never builds either array.
    """
    flat = np.asarray(indices).ravel()
    onehot = np.zeros((flat.size, num_embeddings), dtype=np.dtype(dtype))
    onehot[np.arange(flat.size), flat] = 1.0
    return linear_factor_A(onehot, has_bias=False)
