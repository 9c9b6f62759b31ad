"""Property-based tests for the transformer workload capture tier.

Three promises of the new layer families, driven by Hypothesis over
shapes and index multisets a hand-written suite would miss:

1. **Gather fast path** — ``embedding_factor_A`` (index counts as a
   ``(V,)`` vector, never a one-hot matrix) is *bitwise equal* to the
   diagonal of the dense one-hot reference (kept in ``tests/conftest.py``) for
   arbitrary ``(vocab, batch shape, index multiset)``, with and without
   a workspace arena, and validates its inputs;
2. **Attention capture** — the A/G factors K-FAC's hooks capture for the
   Q/K/V/out projections inside :class:`MultiHeadAttention` are bitwise
   equal to manually-unrolled Linear capture: the same
   ``linear_factor_A`` / ``linear_factor_G`` applied to token rows
   recomputed from the raw weights with plain numpy;
3. **Parameter packing** — the Embedding (transposed table) and
   LayerNorm (diagonal + bias column) grad-matrix accessors round-trip
   losslessly and touch only the feasible entries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.factors import (
    embedding_factor_A,
    linear_factor_A,
    linear_factor_G,
)
from repro.core.layers import EmbeddingKFACLayer, LayerNormKFACLayer
from repro.core.preconditioner import KFAC
from repro.nn.loss import softmax
from repro.nn.transformer import Embedding, LayerNorm, MultiHeadAttention
from repro.tensor.amp import amp_matmul
from tests.conftest import onehot_factor_A


# ---------------------------------------------------------------------------
# 1. embedding gather fast path == dense one-hot reference
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gather_fast_path_equals_dense_onehot(data):
    vocab = data.draw(st.integers(1, 64), label="vocab")
    rows = data.draw(st.integers(1, 24), label="rows")
    cols = data.draw(st.integers(0, 5), label="cols")  # 0 -> 1-D indices
    n = rows * max(cols, 1)
    flat = data.draw(
        st.lists(st.integers(0, vocab - 1), min_size=n, max_size=n),
        label="indices",
    )
    indices = np.asarray(flat, dtype=np.int64)
    if cols:
        indices = indices.reshape(rows, cols)

    fast = embedding_factor_A(indices, vocab)
    assert fast.shape == (vocab,)
    # 0/1 products and integer counts are exact in fp32: bitwise, not close
    # (an exactly diagonal oracle, so np.diag(fast) is the whole matrix)
    np.testing.assert_array_equal(np.diag(fast), onehot_factor_A(indices, vocab))

    counts = np.bincount(indices.ravel(), minlength=vocab)
    np.testing.assert_array_equal(fast, (counts / indices.size).astype(fast.dtype))

    # the factor sweep's path writes the same values into its arena slot
    slot = np.full(vocab, np.nan, fast.dtype)
    assert embedding_factor_A(indices, vocab, out=slot) is slot
    np.testing.assert_array_equal(slot, fast)


@settings(max_examples=30, deadline=None)
@given(
    vocab=st.integers(1, 32),
    bad=st.sampled_from(["low", "high", "float", "empty"]),
)
def test_embedding_factor_validates_inputs(vocab, bad):
    if bad == "low":
        indices = np.array([0, -1])
    elif bad == "high":
        indices = np.array([0, vocab])
    elif bad == "float":
        indices = np.array([0.0, 1.0])
    else:
        indices = np.array([], dtype=np.int64)
    with pytest.raises(ValueError):
        embedding_factor_A(indices, vocab)


# ---------------------------------------------------------------------------
# 2. attention projections capture as manually-unrolled Linears
# ---------------------------------------------------------------------------
def _manual_linear(lin, rows):
    """Mirror Linear.forward on raw arrays (same amp_matmul, same order)."""
    y = amp_matmul(rows, lin.weight.data.T)
    if lin.bias is not None:
        y += lin.bias.data
    return y


def _manual_attention_rows(mha, x, g):
    """Re-derive every projection's input and output-gradient rows with
    plain numpy from the module's weights — no hooks, no handlers."""
    n, t, d = x.shape
    h, hd = mha.num_heads, mha.head_dim

    def split(a):
        return a.reshape(n, t, h, hd).transpose(0, 2, 1, 3)

    def merge(a):
        return np.ascontiguousarray(a.transpose(0, 2, 1, 3)).reshape(n * t, d)

    flat = np.ascontiguousarray(x.reshape(n * t, d))
    q = split(_manual_linear(mha.q_proj, flat))
    k = split(_manual_linear(mha.k_proj, flat))
    v = split(_manual_linear(mha.v_proj, flat))
    scale = float(1.0 / np.sqrt(hd))  # a Python float: no NEP 50 promotion
    attn = softmax(np.matmul(q, k.transpose(0, 1, 3, 2)) * scale)
    ctx_flat = merge(np.matmul(attn, v))

    g_flat = np.ascontiguousarray(g.reshape(n * t, d))
    dctx = split(amp_matmul(g_flat, mha.out_proj.weight.data))
    dattn = np.matmul(dctx, v.transpose(0, 1, 3, 2))
    dv = np.matmul(attn.transpose(0, 1, 3, 2), dctx)
    dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
    dscores = dscores * scale
    dq = np.matmul(dscores, k)
    dk = np.matmul(dscores.transpose(0, 1, 3, 2), q)

    a_rows = {"q_proj": flat, "k_proj": flat, "v_proj": flat, "out_proj": ctx_flat}
    g_rows = {
        "q_proj": merge(dq),
        "k_proj": merge(dk),
        "v_proj": merge(dv),
        "out_proj": g_flat,
    }
    return a_rows, g_rows


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 4),
    t=st.integers(1, 5),
    num_heads=st.sampled_from([1, 2, 4]),
    head_dim=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_attention_projection_factors_match_unrolled_linear(
    n, t, num_heads, head_dim, seed
):
    dim = num_heads * head_dim
    rng = np.random.default_rng(seed)
    mha = MultiHeadAttention(dim, num_heads, rng=rng)
    kfac = KFAC(mha)  # hooks capture on the first forward/backward
    x = rng.normal(size=(n, t, dim)).astype(np.float32)
    g = rng.normal(size=(n, t, dim)).astype(np.float32)

    mha(x)
    mha.backprop(g)

    a_rows, g_rows = _manual_attention_rows(mha, x, g)
    assert {l.name for l in kfac.layers} == set(a_rows)
    for handler in kfac.layers:
        # readings are cast to the factor dtype (float64 data under
        # REPRO_DEFAULT_DTYPE=float64 meets these float32 inputs)
        expect_A = linear_factor_A(a_rows[handler.name].astype(handler.dtype), has_bias=True)
        np.testing.assert_array_equal(
            handler.compute_A(), expect_A,
            err_msg=f"{handler.name} A-factor != unrolled Linear capture",
        )
        expect_G = linear_factor_G(g_rows[handler.name].astype(handler.dtype), batch_averaged=True)
        np.testing.assert_array_equal(
            handler.compute_G(), expect_G,
            err_msg=f"{handler.name} G-factor != unrolled Linear capture",
        )


@settings(max_examples=15, deadline=None)
@given(
    rows=st.integers(1, 6),
    t=st.integers(1, 4),
    d=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_layernorm_capture_uses_normalized_activations(rows, t, d, seed):
    rng = np.random.default_rng(seed)
    ln = LayerNorm(d)
    kfac = KFAC(ln)
    x = rng.normal(scale=2.0, size=(rows, t, d)).astype(np.float32)
    g = rng.normal(size=(rows, t, d)).astype(np.float32)
    ln(x)
    ln.backprop(g)

    # the manual x_hat: same ops, same order as LayerNorm.forward
    mean = x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + ln.eps)
    x_hat = (x - mean) * inv_std

    (handler,) = kfac.layers
    np.testing.assert_array_equal(handler.a_input, x_hat)
    expect_A = linear_factor_A(  # at the factor dtype, as the capture casts
        np.ascontiguousarray(x_hat.reshape(-1, d), dtype=handler.dtype), has_bias=True
    )
    np.testing.assert_array_equal(handler.compute_A(), expect_A)
    expect_G = linear_factor_G(
        np.ascontiguousarray(g.reshape(-1, d), dtype=handler.dtype), batch_averaged=True
    )
    np.testing.assert_array_equal(handler.compute_G(), expect_G)


# ---------------------------------------------------------------------------
# 3. grad-matrix packing round-trips
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    vocab=st.integers(1, 32),
    dim=st.integers(1, 16),
    seed=st.integers(0, 2**16),
)
def test_embedding_grad_matrix_roundtrip(vocab, dim, seed):
    rng = np.random.default_rng(seed)
    emb = Embedding(vocab, dim, rng=rng)
    handler = EmbeddingKFACLayer("emb", emb)
    assert (handler.g_dim, handler.a_dim) == (dim, vocab)

    grad = rng.normal(size=(vocab, dim)).astype(np.float32)
    emb.weight.grad[...] = grad
    mat = handler.get_grad_matrix()
    assert mat.shape == (dim, vocab)
    np.testing.assert_array_equal(mat, grad.T)

    new = rng.normal(size=(dim, vocab)).astype(np.float32)
    handler.set_grad_matrix(new)
    np.testing.assert_array_equal(emb.weight.grad, new.T)
    if vocab != dim:
        with pytest.raises(ValueError):
            handler.set_grad_matrix(new.T.copy())  # wrong orientation rejected


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 24), seed=st.integers(0, 2**16))
def test_layernorm_grad_matrix_roundtrip(d, seed):
    rng = np.random.default_rng(seed)
    ln = LayerNorm(d)
    handler = LayerNormKFACLayer("ln", ln)
    assert (handler.g_dim, handler.a_dim) == (d, d + 1)

    w_grad = rng.normal(size=d).astype(np.float32)
    b_grad = rng.normal(size=d).astype(np.float32)
    ln.weight.grad[...] = w_grad
    ln.bias.grad[...] = b_grad
    mat = handler.get_grad_matrix()
    idx = np.arange(d)
    np.testing.assert_array_equal(mat[idx, idx], w_grad)
    np.testing.assert_array_equal(mat[:, d], b_grad)
    # only the feasible set is populated: off-diagonal weight part is zero
    off = mat[:, :d].copy()
    off[idx, idx] = 0.0
    assert float(np.abs(off).max()) == 0.0

    # scattering a full natural-gradient matrix keeps only the feasible set
    full = rng.normal(size=(d, d + 1)).astype(np.float32)
    handler.set_grad_matrix(full)
    np.testing.assert_array_equal(ln.weight.grad, full[idx, idx])
    np.testing.assert_array_equal(ln.bias.grad, full[:, d])
    if d > 1:
        with pytest.raises(ValueError):
            handler.set_grad_matrix(full.T.copy())
