"""Layer forward/backward correctness (numerical gradient checks)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.transformer import (
    Embedding,
    LayerNorm,
    MultiHeadAttention,
    TinyTransformer,
    TransformerBlock,
)
from tests.conftest import numerical_gradient


def cast_params64(module):
    """Promote every parameter to float64 for tight gradient checks."""
    for _, p in module.named_parameters():
        p.data = p.data.astype(np.float64)
        p.grad = np.zeros_like(p.data)


def check_input_grad(layer, x, rtol=2e-3, atol=2e-4):
    """Backward pass against central differences on sum(out^2)/2."""
    x64 = x.astype(np.float64)

    def loss():
        return 0.5 * float((layer.forward(x64) ** 2).sum())

    out = layer.forward(x64)
    analytic = layer.backward(out)
    numeric = numerical_gradient(loss, x64)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def check_param_grad(layer, x, param, rtol=2e-3, atol=2e-4):
    x64 = x.astype(np.float64)
    param.data = param.data.astype(np.float64)
    param.grad = np.zeros_like(param.data)

    def loss():
        return 0.5 * float((layer.forward(x64) ** 2).sum())

    out = layer.forward(x64)
    param.zero_grad()
    layer.backward(out)
    numeric = numerical_gradient(loss, param.data)
    np.testing.assert_allclose(param.grad, numeric, rtol=rtol, atol=atol)


class TestLinear:
    def test_forward_matches_matmul(self, rng):
        lin = Linear(5, 3, rng=rng)
        x = rng.normal(size=(4, 5)).astype(np.float32)
        want = x @ lin.weight.data.T + lin.bias.data
        np.testing.assert_allclose(lin.forward(x), want, rtol=1e-6)

    def test_rejects_bad_rank(self, rng):
        with pytest.raises(ValueError):
            Linear(5, 3, rng=rng).forward(rng.normal(size=(2, 5, 1)))

    def test_input_grad(self, rng):
        lin = Linear(4, 3, rng=rng)
        lin.weight.data = lin.weight.data.astype(np.float64)
        lin.bias.data = lin.bias.data.astype(np.float64)
        check_input_grad(lin, rng.normal(size=(3, 4)))

    def test_weight_grad(self, rng):
        lin = Linear(4, 3, rng=rng)
        check_param_grad(lin, rng.normal(size=(3, 4)), lin.weight)

    def test_bias_grad(self, rng):
        lin = Linear(4, 3, rng=rng)
        check_param_grad(lin, rng.normal(size=(3, 4)), lin.bias)

    def test_grad_accumulates(self, rng):
        lin = Linear(4, 3, rng=rng)
        x = rng.normal(size=(2, 4)).astype(np.float32)
        g = rng.normal(size=(2, 3)).astype(np.float32)
        lin.forward(x)
        lin.backward(g)
        first = lin.weight.grad.copy()
        lin.forward(x)
        lin.backward(g)
        np.testing.assert_allclose(lin.weight.grad, 2 * first, rtol=1e-6)

    def test_no_bias(self, rng):
        lin = Linear(4, 3, bias=False, rng=rng)
        assert lin.bias is None
        x = rng.normal(size=(2, 4)).astype(np.float32)
        np.testing.assert_allclose(lin.forward(x), x @ lin.weight.data.T, rtol=1e-6)


class TestConv2d:
    def test_forward_matches_naive(self, rng):
        conv = Conv2d(2, 3, 3, stride=1, padding=1, bias=True, rng=rng)
        x = rng.normal(size=(2, 2, 5, 5)).astype(np.float32)
        out = conv.forward(x)
        # naive direct convolution
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        want = np.zeros_like(out)
        for b in range(2):
            for o in range(3):
                for i in range(5):
                    for j in range(5):
                        patch = xp[b, :, i : i + 3, j : j + 3]
                        want[b, o, i, j] = (patch * conv.weight.data[o]).sum() + conv.bias.data[o]
        np.testing.assert_allclose(out, want, rtol=1e-4, atol=1e-5)

    def test_out_shape(self, rng):
        conv = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        assert conv.out_shape((4, 3, 16, 16)) == (4, 8, 8, 8)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            Conv2d(3, 8, 3, rng=rng).forward(rng.normal(size=(1, 2, 8, 8)))

    def test_input_grad(self, rng):
        conv = Conv2d(2, 3, 3, stride=2, padding=1, bias=True, rng=rng)
        conv.weight.data = conv.weight.data.astype(np.float64)
        conv.bias.data = conv.bias.data.astype(np.float64)
        check_input_grad(conv, rng.normal(size=(2, 2, 5, 5)))

    def test_weight_grad(self, rng):
        conv = Conv2d(2, 2, 3, stride=1, padding=1, bias=True, rng=rng)
        check_param_grad(conv, rng.normal(size=(2, 2, 4, 4)), conv.weight)

    def test_bias_grad(self, rng):
        conv = Conv2d(2, 2, 3, stride=1, padding=0, bias=True, rng=rng)
        check_param_grad(conv, rng.normal(size=(2, 2, 4, 4)), conv.bias)


class TestBatchNorm2d:
    def test_forward_normalizes(self, rng):
        bn = BatchNorm2d(4)
        x = rng.normal(3.0, 2.5, size=(8, 4, 5, 5)).astype(np.float32)
        out = bn.forward(x)
        assert abs(out.mean()) < 1e-5
        assert out.std() == pytest.approx(1.0, rel=1e-2)

    def test_running_stats_updated(self, rng):
        bn = BatchNorm2d(2, momentum=0.5)
        x = rng.normal(1.0, 2.0, size=(16, 2, 4, 4)).astype(np.float32)
        bn.forward(x)
        assert np.all(bn.running_mean != 0)
        assert np.all(bn.running_var != 1)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2, momentum=1.0)  # adopt batch stats fully
        x = rng.normal(2.0, 3.0, size=(32, 2, 6, 6)).astype(np.float32)
        bn.forward(x)
        bn.eval()
        out = bn.forward(x)
        # normalized with (nearly) the batch statistics -> ~standardized
        assert abs(out.mean()) < 0.05
        assert out.std() == pytest.approx(1.0, rel=0.05)

    def test_input_grad(self, rng):
        bn = BatchNorm2d(2)
        bn.weight.data = rng.normal(1.0, 0.2, size=2)
        bn.bias.data = rng.normal(0.0, 0.2, size=2)
        check_input_grad(bn, rng.normal(size=(3, 2, 3, 3)), rtol=5e-3, atol=5e-4)

    def test_affine_grads(self, rng):
        bn = BatchNorm2d(2)
        check_param_grad(bn, rng.normal(size=(4, 2, 3, 3)), bn.weight, rtol=5e-3)
        bn2 = BatchNorm2d(2)
        check_param_grad(bn2, rng.normal(size=(4, 2, 3, 3)), bn2.bias, rtol=5e-3)

    def test_rejects_wrong_channels(self, rng):
        with pytest.raises(ValueError):
            BatchNorm2d(3).forward(rng.normal(size=(2, 2, 4, 4)))


class TestReLU:
    def test_forward(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]], dtype=np.float32)
        np.testing.assert_array_equal(relu.forward(x), [[0.0, 0.0, 2.0]])

    def test_backward_mask(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.5, 2.0]], dtype=np.float32)
        relu.forward(x)
        g = np.ones_like(x)
        np.testing.assert_array_equal(relu.backward(g), [[0.0, 1.0, 1.0]])

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_equals_where_formula_on_finite_inputs(self, dtype, rng):
        """max(x, 0) and grad * mask equal the where() formulas they
        replaced, value for value (== treats -0.0 as 0.0), and keep dtype."""
        x = np.concatenate([rng.normal(size=61), [0.0, -0.0, 1e-30, -1e-30]]).astype(dtype)
        g = np.concatenate([rng.normal(size=61), [0.0, -0.0, 2.0, -3.0]]).astype(dtype)
        relu = ReLU()
        y = relu.forward(x)
        dx = relu.backward(g)
        assert y.dtype == dx.dtype == dtype
        assert np.all(y == np.where(x > 0, x, 0.0).astype(dtype))
        assert np.all(dx == np.where(x > 0, g, 0.0).astype(dtype))

    def test_nan_propagates(self):
        """A NaN activation stays NaN (as torch.relu), not a silent 0."""
        relu = ReLU()
        y = relu.forward(np.array([np.nan, -1.0, 1.0], dtype=np.float32))
        assert np.isnan(y[0]) and y[1:].tolist() == [0.0, 1.0]


class TestPooling:
    def test_maxpool_forward(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        pool.forward(x)
        g = np.ones((1, 1, 2, 2), dtype=np.float32)
        dx = pool.backward(g)
        want = np.zeros((4, 4))
        want[1, 1] = want[1, 3] = want[3, 1] = want[3, 3] = 1.0
        np.testing.assert_array_equal(dx[0, 0], want)

    def test_maxpool_padded_stride(self, rng):
        """ImageNet-stem config: 3x3 kernel, stride 2, padding 1."""
        pool = MaxPool2d(3, stride=2, padding=1)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        out = pool.forward(x)
        assert out.shape == (2, 3, 4, 4)
        dx = pool.backward(np.ones_like(out))
        assert dx.shape == x.shape
        # gradient mass is conserved (each output picks exactly one input)
        assert dx.sum() == pytest.approx(out.size)

    def test_avgpool_input_grad(self, rng):
        pool = AvgPool2d(2)
        check_input_grad(pool, rng.normal(size=(2, 2, 4, 4)))

    def test_global_avgpool(self, rng):
        pool = GlobalAvgPool2d()
        x = rng.normal(size=(3, 4, 5, 5)).astype(np.float32)
        np.testing.assert_allclose(pool.forward(x), x.mean(axis=(2, 3)), rtol=1e-6)
        check_input_grad(pool, rng.normal(size=(2, 3, 4, 4)))


class TestLayerNorm:
    def test_forward_normalizes_last_axis(self, rng):
        ln = LayerNorm(6)
        x = rng.normal(3.0, 2.0, size=(4, 5, 6)).astype(np.float32)
        out = ln.forward(x)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, rtol=1e-3)

    def test_rejects_wrong_trailing_dim(self, rng):
        with pytest.raises(ValueError):
            LayerNorm(5).forward(rng.normal(size=(2, 4)))

    def test_input_grad(self, rng):
        ln = LayerNorm(5)
        cast_params64(ln)
        ln.weight.data = rng.normal(1.0, 0.2, size=5)
        ln.bias.data = rng.normal(0.0, 0.2, size=5)
        check_input_grad(ln, rng.normal(size=(3, 4, 5)), rtol=5e-3, atol=5e-4)

    def test_affine_grads(self, rng):
        ln = LayerNorm(5)
        check_param_grad(ln, rng.normal(size=(3, 4, 5)), ln.weight, rtol=5e-3)
        ln2 = LayerNorm(5)
        check_param_grad(ln2, rng.normal(size=(3, 4, 5)), ln2.bias, rtol=5e-3)

    def test_caches_normalized_activations(self, rng):
        ln = LayerNorm(4)
        x = rng.normal(size=(2, 3, 4)).astype(np.float32)
        assert ln.cached_normalized is None
        ln.forward(x)
        x_hat = ln.cached_normalized
        assert x_hat is not None and x_hat.shape == x.shape
        np.testing.assert_allclose(x_hat.mean(axis=-1), 0.0, atol=1e-5)


class TestEmbedding:
    def test_forward_gathers_rows(self, rng):
        emb = Embedding(7, 3, rng=rng)
        idx = np.array([[0, 6], [2, 2]])
        out = emb.forward(idx)
        np.testing.assert_array_equal(out, emb.weight.data[idx])

    def test_rejects_float_indices(self, rng):
        with pytest.raises(ValueError):
            Embedding(5, 2, rng=rng).forward(np.array([0.0, 1.0]))

    def test_weight_grad_matches_numerical(self, rng):
        """check_param_grad casts inputs to float64, which an integer-index
        layer rejects — so run the same central-difference check by hand."""
        emb = Embedding(6, 4, rng=rng)
        cast_params64(emb)
        idx = rng.integers(0, 6, size=(3, 5))

        def loss():
            return 0.5 * float((emb.forward(idx) ** 2).sum())

        out = emb.forward(idx)
        emb.weight.zero_grad()
        emb.backward(out)
        numeric = numerical_gradient(loss, emb.weight.data)
        np.testing.assert_allclose(emb.weight.grad, numeric, rtol=2e-3, atol=2e-4)

    def test_repeated_indices_accumulate(self, rng):
        emb = Embedding(4, 2, rng=rng)
        idx = np.array([1, 1, 1])
        emb.forward(idx)
        emb.backward(np.ones((3, 2), dtype=np.float32))
        np.testing.assert_allclose(emb.weight.grad[1], [3.0, 3.0])
        np.testing.assert_allclose(emb.weight.grad[0], [0.0, 0.0])


class TestMultiHeadAttention:
    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(7, 2, rng=rng)  # dim not divisible by heads
        mha = MultiHeadAttention(8, 2, rng=rng)
        with pytest.raises(ValueError):
            mha.forward(rng.normal(size=(2, 8)).astype(np.float32))

    def test_input_grad(self, rng):
        mha = MultiHeadAttention(6, 2, rng=rng)
        cast_params64(mha)
        check_input_grad(mha, rng.normal(size=(2, 3, 6)), rtol=5e-3, atol=5e-4)

    def test_projection_param_grads(self, rng):
        for pick in ("q_proj", "k_proj", "v_proj", "out_proj"):
            mha = MultiHeadAttention(4, 2, rng=rng)
            check_param_grad(
                mha, rng.normal(size=(2, 3, 4)), getattr(mha, pick).weight,
                rtol=5e-3, atol=5e-4,
            )


class TestTransformerBlock:
    def test_input_grad(self, rng):
        blk = TransformerBlock(4, num_heads=2, rng=rng)
        cast_params64(blk)
        check_input_grad(blk, rng.normal(size=(2, 3, 4)), rtol=5e-3, atol=5e-4)

    def test_param_grads_through_residuals(self, rng):
        for pick in (
            lambda b: b.norm1.weight,
            lambda b: b.attn.q_proj.weight,
            lambda b: b.fc1.weight,
            lambda b: b.fc2.bias,
        ):
            blk = TransformerBlock(4, num_heads=2, rng=rng)
            cast_params64(blk)
            check_param_grad(
                blk, rng.normal(size=(2, 3, 4)), pick(blk), rtol=5e-3, atol=5e-4
            )


class TestTinyTransformer:
    def test_embedding_grads_match_numerical(self, rng):
        model = TinyTransformer(
            vocab_size=8, seq_len=4, dim=4, num_heads=2, depth=1,
            num_classes=3, rng=rng,
        )
        cast_params64(model)
        tokens = rng.integers(0, 8, size=(3, 4))

        def loss():
            return 0.5 * float((model.forward(tokens) ** 2).sum())

        out = model.forward(tokens)
        for _, p in model.named_parameters():
            p.zero_grad()
        model.backward(out)
        for param in (model.tok_embed.weight, model.head.weight):
            numeric = numerical_gradient(loss, param.data)
            np.testing.assert_allclose(param.grad, numeric, rtol=5e-3, atol=5e-4)


class TestShapes:
    def test_flatten_roundtrip(self, rng):
        f = Flatten()
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        out = f.forward(x)
        assert out.shape == (2, 48)
        np.testing.assert_array_equal(f.backward(out), x)

    def test_identity(self, rng):
        ident = Identity()
        x = rng.normal(size=(2, 3)).astype(np.float32)
        assert ident.forward(x) is x
        assert ident.backward(x) is x
