"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.factors import ema_update, linear_factor_A
from repro.core.layers import Conv2dKFACLayer, EmbeddingKFACLayer, KFACLayer
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.nn.container import Sequential
from repro.nn.layers import Conv2d, Flatten, Linear, ReLU
from repro.nn.module import Module
from repro.tensor.gram import gram, mirror_upper


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


def adopt_readings(handler: KFACLayer) -> None:
    """Make a bare handler's captured readings its running averages, as a
    ``KFAC``'s first factor sweep does: ``update_factors`` writes their
    upper triangles into fresh slots, which are mirrored and adopted."""
    side = handler.a_side
    out_A = np.zeros((side,) if handler.diagonal_A else (side, side), handler.dtype)
    out_G = np.zeros((handler.g_dim, handler.g_dim), handler.dtype)
    handler.update_factors(out_A, out_G)
    handler.A = out_A if handler.diagonal_A else mirror_upper(out_A)
    handler.G = mirror_upper(out_G)


def _gram_rows(x: np.ndarray, dtype: np.dtype, bias: bool) -> np.ndarray:
    """A capture as Gram rows at the factor dtype: an NCHW tensor as its
    NHWC rows, anything else flattened to its last axis; a ones column
    appended for a bias."""
    x = x.astype(dtype)
    if x.ndim == 4:
        x = x.transpose(0, 2, 3, 1)
    rows = x.reshape(-1, x.shape[-1])
    if bias:
        rows = np.concatenate([rows, np.ones((len(rows), 1), dtype)], axis=1)
    return np.ascontiguousarray(rows)


def oracle_readings(handler: KFACLayer) -> tuple[np.ndarray, np.ndarray]:
    """``handler``'s (A, G) readings of its current captures, one factor at
    a time: the rows' whole :func:`gram` product, then the in-place count
    scale (``/`` rows for ``A``, ``*`` examples for ``G``); an embedding's
    ``A`` is its index counts over rows."""
    dt = handler.dtype
    if isinstance(handler, EmbeddingKFACLayer):
        flat = np.asarray(handler.a_input).ravel()
        A = np.bincount(flat, minlength=handler.a_dim).astype(dt)
        A /= flat.size
    else:
        rows = _gram_rows(handler.a_input, dt, handler.has_bias)
        A = gram(rows)
        A /= len(rows)
    rows = _gram_rows(handler.g_output, dt, False)
    G = gram(rows)
    G *= handler.g_output.shape[0] if isinstance(handler, Conv2dKFACLayer) else len(rows)
    return A, G


def oracle_fold(running: dict, handlers, decay: float) -> None:
    """Fold each handler's :func:`oracle_readings` into ``running`` (keyed by
    ``(layer name, "A" | "G")``) with one ``ema_update`` per factor."""
    for handler in handlers:
        for kind, new in zip("AG", oracle_readings(handler)):
            running[handler.name, kind] = ema_update(
                running.get((handler.name, kind)), new, decay
            )
