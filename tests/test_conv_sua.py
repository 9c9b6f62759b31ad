"""Conv K-FAC factors under KFC's spatially-uncorrelated-activations rule.

A Conv2d layer's ``A`` is the ``C_in x C_in`` channel covariance of its
input, and its Fisher block is ``G (x) A_c (x) I_k`` over the ``k``
kernel offsets.  The float64 oracle here is the explicit dense solve with
``np.kron(A_c, I_k)``: the handler's sliced preconditioning must equal it
on the eigen and inverse paths, with and without a bias, for 1x1 and 3x3
kernels at stride 1 and 2, and with blocked (``diag_blocks=4``) bases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.approx.blocks import block_boundaries
from repro.core.factors import conv2d_factor_A, conv2d_factor_G
from repro.core.inverse import dense_damped_inverse_apply
from repro.core.layers import make_kfac_layer
from repro.core.preconditioner import KFAC
from repro.nn.layers import Conv2d
from repro.nn.loss import CrossEntropyLoss
from repro.tensor.workspace import Workspace

from tests.conftest import adopt_readings, build_tiny_cnn

GAMMA = 0.05


def _captured_handler(c_in, c_out, kernel, stride, bias, seed=0):
    """A float64 conv handler whose running factors hold one real reading
    (input, output gradient) and whose module carries a random gradient."""
    rng = np.random.default_rng(seed)
    conv = Conv2d(
        c_in, c_out, kernel, stride=stride, padding=kernel // 2, bias=bias,
        rng=rng, workspace=Workspace(),
    ).cast_(np.float64)
    handler = make_kfac_layer("conv", conv, dtype=np.float64)
    x = rng.normal(size=(3, c_in, 6, 6))
    out_shape = conv.out_shape(x.shape)
    handler.save_input(x)
    handler.save_grad_output(rng.normal(size=out_shape) / 3)
    adopt_readings(handler)
    conv.weight.grad[...] = rng.normal(size=conv.weight.shape)
    if bias:
        conv.bias.grad[...] = rng.normal(size=c_out)
    return handler, x


def _padded(handler, grad):
    """The ``(g, (C[+1]) * k)`` gradient the dense oracle solves: a bias
    is one more input channel, its gradient at every kernel offset."""
    g, c, k = handler.g_dim, handler.module.in_channels, handler.slices
    w = grad[:, : c * k].reshape(g, c, k)
    if handler.has_bias:
        w = np.concatenate([w, np.repeat(grad[:, -1:, None], k, axis=2)], axis=1)
    return w.reshape(g, -1)


def _unpadded(handler, dense):
    """Weights from the first ``C`` channels, the bias at the centre offset."""
    g, c, k = handler.g_dim, handler.module.in_channels, handler.slices
    side = dense.reshape(g, handler.a_side, k)
    out = side[:, :c].reshape(g, c * k)
    if handler.has_bias:
        kh, kw = handler.module.kernel_size
        out = np.concatenate([out, side[:, c, (kh // 2) * kw + kw // 2][:, None]], axis=1)
    return out


def _oracle(handler, grad, A, G, eigen):
    kron = np.kron(A, np.eye(handler.slices))
    padded = _padded(handler, grad)
    if eigen:
        dense = dense_damped_inverse_apply(padded, kron, G, GAMMA)
    else:
        eye_G, eye_A = np.eye(G.shape[0]), np.eye(kron.shape[0])
        dense = np.linalg.inv(G + GAMMA * eye_G) @ padded @ np.linalg.inv(kron + GAMMA * eye_A)
    return _unpadded(handler, dense)


def _block_diag(mat, bounds):
    out = np.zeros_like(mat)
    for lo, hi in bounds:
        out[lo:hi, lo:hi] = mat[lo:hi, lo:hi]
    return out


@pytest.mark.parametrize("eigen", [True, False], ids=["eigen", "inverse"])
@pytest.mark.parametrize("bias", [False, True], ids=["nobias", "bias"])
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
def test_precondition_equals_dense_kron_solve(eigen, bias, kernel, stride):
    handler, _ = _captured_handler(3, 4, kernel, stride, bias)
    assert handler.A.shape == (3 + bias, 3 + bias)
    assert handler.a_dim == 3 * kernel * kernel + bias
    if eigen:
        handler.eig_A, handler.eig_G = handler.compute_eigen()
    else:
        handler.inv_A, handler.inv_G = handler.compute_inverses(GAMMA)
    grad = handler.get_grad_matrix()
    got = handler.precondition(grad, GAMMA, eigen)
    want = _oracle(handler, grad, handler.A, handler.G, eigen)
    assert got.shape == grad.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())


@pytest.mark.parametrize("bias", [False, True], ids=["nobias", "bias"])
@pytest.mark.parametrize("kernel", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
def test_blocked_precondition_equals_dense_kron_solve(bias, kernel, stride):
    """``diag_blocks=4``: both factors split into four diagonal blocks;
    the oracle solves with the block-diagonal parts of ``A_c`` and ``G``."""
    handler, _ = _captured_handler(7, 8, kernel, stride, bias, seed=1)
    bounds_A = block_boundaries(handler.a_side, 4)
    bounds_G = block_boundaries(handler.g_dim, 4)
    handler.eig_A, handler.eig_G = handler.compute_eigen(bounds_A, bounds_G)
    assert handler.eig_A.blocked and handler.eig_G.blocked
    grad = handler.get_grad_matrix()
    got = handler.precondition(grad, GAMMA, True)
    want = _oracle(
        handler, grad, _block_diag(handler.A, bounds_A), _block_diag(handler.G, bounds_G), True
    )
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())


def test_factor_A_rejects_a_non_nchw_input():
    with pytest.raises(ValueError):
        conv2d_factor_A(np.ones((4, 3)), has_bias=False)


def test_factor_G_with_and_without_workspace_bit_identical():
    g0 = np.random.default_rng(3).normal(size=(2, 5, 3, 3)).astype(np.float32)
    assert np.array_equal(conv2d_factor_G(g0), conv2d_factor_G(g0, workspace=Workspace()))


def test_kfac_factor_metas_take_the_channel_side():
    """The conv ``A`` is an ordinary dense square factor of side C_in(+1);
    the gradient matrix keeps its C_in * kh * kw (+1) width."""
    kfac = KFAC(build_tiny_cnn(seed=0), damping=0.01)
    dims = {m.key: m.dim for m in kfac.factor_metas}
    assert dims["m0/A"] == 2 and dims["m2/A"] == 4  # Conv2d(1, 4, bias) / Conv2d(4, 6)
    assert [l.a_dim for l in kfac.layers[:2]] == [10, 36]
    assert [l.slices for l in kfac.layers] == [9, 9, 1, 1]


def test_dense_patch_A_checkpoint_fails_before_restoring():
    """A checkpoint holding a dense (C_in * kh * kw)^2 conv ``A`` (the
    factor before the channel rule) is rejected with the layer, the key
    and both shapes, and nothing — counters included — is restored."""
    model = build_tiny_cnn(seed=5)
    kfac = KFAC(model, damping=0.01, kfac_update_freq=1)
    x = np.random.default_rng(6).normal(size=(8, 1, 8, 8)).astype(np.float32)
    loss = CrossEntropyLoss()
    loss(model(x), np.arange(8) % 3)
    model.backward(loss.backward())
    kfac.step()
    state = kfac.state_dict()
    before = {l.name: l.A.copy() for l in kfac.layers}
    old = {**state, "steps": 99, "layers": dict(state["layers"])}
    old["layers"]["m2"] = {**old["layers"]["m2"], "A": np.eye(4 * 9)}
    with pytest.raises(ValueError, match=r"A of K-FAC layer 'm2' has shape \(36, 36\).*\(4, 4\)"):
        kfac.load_state_dict(old)
    assert kfac.steps == 1
    for l in kfac.layers:
        assert np.array_equal(l.A, before[l.name])
