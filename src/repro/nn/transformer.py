"""Transformer workload layers: Embedding, LayerNorm, attention, blocks.

The second model family next to the ResNets: every layer here is written
so the K-FAC capture pipeline (:mod:`repro.core.layers`) sees it through
the same hook mechanism as Linear/Conv2d.

- :class:`Embedding` is a Linear layer applied to one-hot rows; its
  activation factor is therefore ``diag(bincount(indices)) / rows`` and
  the handler builds it by *gather* — the dense one-hot matrix is never
  materialized (see ``repro.core.factors.embedding_factor_A``).
- :class:`LayerNorm` caches its normalized activations so the capture
  hook can treat the affine part as an elementwise Linear layer.
- :class:`MultiHeadAttention` routes its Q/K/V/out projections through
  ordinary :class:`~repro.nn.layers.Linear` children via ``__call__`` /
  ``backprop``, so each projection registers with K-FAC as a standalone
  Linear over the flattened ``(N*T, dim)`` token rows — exactly the
  per-projection factorization of the transformer K-FAC literature.

Sequence convention: per-token layers treat ``N*T`` token rows as the
sample dimension, so the mean-loss de-averaging of
``repro.core.factors`` applies unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.nn.container import Sequential
from repro.nn.layers import Linear, ReLU
from repro.nn.loss import softmax
from repro.nn.module import Module, Parameter
from repro.tensor.dtypes import DEFAULT_DTYPE

__all__ = [
    "Embedding",
    "LayerNorm",
    "MultiHeadAttention",
    "TransformerBlock",
    "TinyTransformer",
]


class Embedding(Module):
    """Token embedding table: integer indices -> learned rows.

    Semantically a :class:`~repro.nn.layers.Linear` (without bias) applied
    to one-hot rows; the forward is a gather, the backward a scatter-add.
    The K-FAC activation factor of this one-hot "input" is diagonal, which
    the handler exploits (``embedding_factor_A``) instead of ever building
    the ``(rows, num_embeddings)`` one-hot matrix.

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.transformer import Embedding
    >>> emb = Embedding(10, 4, rng=np.random.default_rng(0))
    >>> emb(np.array([[1, 2], [3, 1]])).shape
    (2, 2, 4)
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        scale = 1.0 / np.sqrt(embedding_dim)
        self.weight = Parameter(
            (rng.normal(size=(num_embeddings, embedding_dim)) * scale).astype(
                DEFAULT_DTYPE
            ),
            name="weight",
        )
        self._indices: np.ndarray | None = None

    def forward(self, indices: np.ndarray) -> np.ndarray:
        if not np.issubdtype(indices.dtype, np.integer):
            raise ValueError(f"Embedding expects integer indices, got {indices.dtype}")
        self._indices = indices
        return self.weight.data[indices]

    def backward(self, grad_out: np.ndarray) -> None:
        assert self._indices is not None, "backward called before forward"
        flat = grad_out.reshape(-1, self.embedding_dim)
        np.add.at(self.weight.grad, self._indices.ravel(), flat)
        return None  # indices are not differentiable

    @property
    def cached_indices(self) -> np.ndarray | None:
        """The index array of the last forward (the A-factor's input)."""
        return self._indices

    def __repr__(self) -> str:  # pragma: no cover
        return f"Embedding({self.num_embeddings}, {self.embedding_dim})"


class LayerNorm(Module):
    """Layer normalization over the last axis, with affine parameters.

    Caches the normalized activations ``x_hat`` so the K-FAC handler can
    capture them: the affine part ``y = w * x_hat + b`` is an elementwise
    Linear layer whose activation statistics live on ``x_hat``, the same
    trick the BatchNorm K-FAC literature uses.

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.transformer import LayerNorm
    >>> ln = LayerNorm(4)
    >>> y = ln(np.random.default_rng(0).normal(size=(2, 3, 4)))
    >>> bool(abs(y.mean()) < 1e-6)        # normalized along the last axis
    True
    """

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim, dtype=DEFAULT_DTYPE), name="weight")
        self.bias = Parameter(np.zeros(dim, dtype=DEFAULT_DTYPE), name="bias")
        self._x_hat: np.ndarray | None = None
        self._inv_std: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.dim:
            raise ValueError(f"LayerNorm({self.dim}) got trailing dim {x.shape[-1]}")
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._x_hat = x_hat
        self._inv_std = inv_std
        return self.weight.data * x_hat + self.bias.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x_hat is not None and self._inv_std is not None, (
            "backward called before forward"
        )
        x_hat, inv_std = self._x_hat, self._inv_std
        d = self.dim
        self.weight.grad += (grad_out * x_hat).reshape(-1, d).sum(axis=0)
        self.bias.grad += grad_out.reshape(-1, d).sum(axis=0)
        gh = grad_out * self.weight.data
        gh_mean = gh.mean(axis=-1, keepdims=True)
        ghx_mean = (gh * x_hat).mean(axis=-1, keepdims=True)
        return (gh - gh_mean - x_hat * ghx_mean) * inv_std

    @property
    def cached_normalized(self) -> np.ndarray | None:
        """The ``x_hat`` of the last forward (the affine part's input)."""
        return self._x_hat

    def __repr__(self) -> str:  # pragma: no cover
        return f"LayerNorm({self.dim})"


class MultiHeadAttention(Module):
    """Multi-head self-attention with K-FAC-visible projections.

    The four projections are plain :class:`~repro.nn.layers.Linear`
    children called on the flattened ``(N*T, dim)`` token rows through
    ``__call__`` / ``backprop`` — so K-FAC's hooks see each projection as
    an ordinary Linear layer and capture per-projection A/G factors,
    while the softmax-attention mixing in between stays (correctly)
    unpreconditioned.  No causal mask: this is the encoder-style block of
    the BERT-image exemplar.

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.transformer import MultiHeadAttention
    >>> mha = MultiHeadAttention(8, num_heads=2, rng=np.random.default_rng(0))
    >>> mha(np.zeros((2, 5, 8), dtype=np.float32)).shape
    (2, 5, 8)
    """

    def __init__(
        self, dim: int, num_heads: int, rng: np.random.Generator | None = None
    ) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)
        self._cache: tuple | None = None

    def _split_heads(self, x: np.ndarray, n: int, t: int) -> np.ndarray:
        """(N*T, dim) -> (N, heads, T, head_dim)."""
        return x.reshape(n, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[-1] != self.dim:
            raise ValueError(f"expected (N, T, {self.dim}), got {x.shape}")
        n, t, d = x.shape
        flat = np.ascontiguousarray(x.reshape(n * t, d))
        q = self._split_heads(self.q_proj(flat), n, t)
        k = self._split_heads(self.k_proj(flat), n, t)
        v = self._split_heads(self.v_proj(flat), n, t)
        scale = float(1.0 / np.sqrt(self.head_dim))
        scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * scale
        attn = softmax(scores)
        ctx = np.matmul(attn, v)  # (N, heads, T, head_dim)
        ctx_flat = np.ascontiguousarray(ctx.transpose(0, 2, 1, 3)).reshape(n * t, d)
        self._cache = (q, k, v, attn, n, t)
        return self.out_proj(ctx_flat).reshape(n, t, d)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward called before forward"
        q, k, v, attn, n, t = self._cache
        d = self.dim
        g_flat = np.ascontiguousarray(grad_out.reshape(n * t, d))
        dctx = self._split_heads(self.out_proj.backprop(g_flat), n, t)
        dattn = np.matmul(dctx, v.transpose(0, 1, 3, 2))
        dv = np.matmul(attn.transpose(0, 1, 3, 2), dctx)
        # softmax Jacobian along the key axis
        dscores = attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))
        dscores = dscores * float(1.0 / np.sqrt(self.head_dim))
        dq = np.matmul(dscores, k)
        dk = np.matmul(dscores.transpose(0, 1, 3, 2), q)

        def merge(h: np.ndarray) -> np.ndarray:
            """(N, heads, T, head_dim) -> (N*T, dim)."""
            return np.ascontiguousarray(h.transpose(0, 2, 1, 3)).reshape(n * t, d)

        dx = self.q_proj.backprop(merge(dq))
        dx = dx + self.k_proj.backprop(merge(dk))
        dx = dx + self.v_proj.backprop(merge(dv))
        return dx.reshape(n, t, d)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MultiHeadAttention(dim={self.dim}, heads={self.num_heads})"


class TransformerBlock(Module):
    """Pre-LN transformer block: attention and MLP with residuals.

    ``y = a + MLP(norm2(a))`` with ``a = x + Attn(norm1(x))``.  Every
    parameterized child (two LayerNorms, four attention projections, two
    MLP Linears) is routed through ``__call__`` / ``backprop`` so K-FAC
    hooks fire for all of them.

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.transformer import TransformerBlock
    >>> blk = TransformerBlock(8, num_heads=2, rng=np.random.default_rng(0))
    >>> blk(np.zeros((2, 3, 8), dtype=np.float32)).shape
    (2, 3, 8)
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        hidden_mult: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, num_heads, rng=rng)
        self.norm2 = LayerNorm(dim)
        hidden = dim * hidden_mult
        self.fc1 = Linear(dim, hidden, rng=rng)
        self.act = ReLU()
        self.fc2 = Linear(hidden, dim, rng=rng)
        self._shape: tuple[int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, t, d = x.shape
        self._shape = (n, t, d)
        a = x + self.attn(self.norm1(x))
        m = self.norm2(a)
        z = self.fc2(self.act(self.fc1(np.ascontiguousarray(m.reshape(n * t, d)))))
        return a + z.reshape(n, t, d)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._shape is not None, "backward called before forward"
        n, t, d = self._shape
        g_flat = np.ascontiguousarray(grad_out.reshape(n * t, d))
        gm_flat = self.fc1.backprop(self.act.backprop(self.fc2.backprop(g_flat)))
        ga = grad_out + self.norm2.backprop(gm_flat.reshape(n, t, d))
        gh = self.attn.backprop(ga)
        return ga + self.norm1.backprop(gh)


class TinyTransformer(Module):
    """Token + positional embeddings, transformer blocks, mean-pool head.

    The transformer customer of the whole K-FAC stack: its embeddings
    exercise the diagonal gather fast path (and, at real vocabulary
    sizes, the ``diag_blocks`` approximation on the wide ``A`` factor),
    the attention projections and MLP exercise per-projection Linear
    capture, and the LayerNorms exercise the elementwise capture rule.

    Example
    -------
    >>> import numpy as np
    >>> from repro.nn.transformer import TinyTransformer
    >>> model = TinyTransformer(vocab_size=20, seq_len=6, dim=8, num_heads=2,
    ...                         depth=1, num_classes=3,
    ...                         rng=np.random.default_rng(0))
    >>> tokens = np.random.default_rng(1).integers(0, 20, size=(4, 6))
    >>> model(tokens).shape
    (4, 3)
    """

    def __init__(
        self,
        vocab_size: int,
        seq_len: int,
        dim: int = 32,
        num_heads: int = 2,
        depth: int = 2,
        num_classes: int = 10,
        hidden_mult: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.vocab_size = vocab_size
        self.seq_len = seq_len
        self.dim = dim
        self.tok_embed = Embedding(vocab_size, dim, rng=rng)
        self.pos_embed = Embedding(seq_len, dim, rng=rng)
        self.blocks = Sequential(
            *[
                TransformerBlock(dim, num_heads, hidden_mult, rng=rng)
                for _ in range(depth)
            ]
        )
        self.final_norm = LayerNorm(dim)
        self.head = Linear(dim, num_classes, rng=rng)
        self._pooled_t: int | None = None

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        if tokens.ndim != 2:
            raise ValueError(f"expected (N, T) token indices, got {tokens.shape}")
        n, t = tokens.shape
        if t > self.seq_len:
            raise ValueError(f"sequence length {t} exceeds seq_len={self.seq_len}")
        pos = np.broadcast_to(np.arange(t), (n, t))
        x = self.tok_embed(tokens) + self.pos_embed(pos)
        x = self.final_norm(self.blocks(x))
        self._pooled_t = t
        return self.head(x.mean(axis=1))

    def backward(self, grad_out: np.ndarray) -> None:
        assert self._pooled_t is not None, "backward called before forward"
        t = self._pooled_t
        gp = self.head.backprop(grad_out)
        n, d = gp.shape
        gx = np.broadcast_to((gp / t)[:, None, :], (n, t, d))
        gx = self.blocks.backprop(self.final_norm.backprop(gx))
        self.tok_embed.backprop(gx)
        self.pos_embed.backprop(gx)
        return None  # token indices are not differentiable

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"TinyTransformer(vocab={self.vocab_size}, seq={self.seq_len}, "
            f"dim={self.dim})"
        )
