"""Symbolic K-FAC layer specs for the ResNet and transformer families.

Walks the architecture definitions from :mod:`repro.nn.resnet` (and the
:mod:`repro.nn.transformer` layout) *without instantiating weights* and
yields, per K-FAC-supported layer, the factor dimensions and positional
extent — everything the cost model and the assignment-imbalance analysis
(Table VI) need.  Using the genuine ResNet-50/101/152 shapes is what
makes the reproduced imbalance numbers meaningful; ``transformer_spec``
prices the embedding/attention workload, whose vocabulary-wide ``A``
factor is exactly diagonal and priced as the ``O(V)`` vector it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.approx.blocks import block_eig_elements, plan_block_bounds
from repro.comm.fusion import tri_len
from repro.nn.resnet import IMAGENET_DEPTH_CONFIGS
from repro.tensor.im2col import conv_out_size

__all__ = [
    "KfacLayerSpec",
    "ModelSpec",
    "resnet_spec",
    "cifar_resnet_spec",
    "transformer_spec",
]


@dataclass(frozen=True)
class KfacLayerSpec:
    """Shape summary of one K-FAC-supported layer.

    Attributes
    ----------
    name:
        Dotted layer path.
    kind:
        ``"conv"``, ``"linear"``, ``"embedding"``, or ``"layernorm"``.
    a_dim:
        Activation-factor dimension (``C_in*kh*kw`` for conv, ``in+1``
        for a biased linear, the vocabulary size for an embedding,
        ``d+1`` for LayerNorm's elementwise affine).
    g_dim:
        Gradient-factor dimension (``C_out`` / ``out`` / embedding dim).
    spatial_positions:
        Positions per example sharing the factors: ``L = OH*OW`` of a
        conv output, the sequence length ``T`` for per-token transformer
        layers, 1 for a plain linear head — enters the
        factor-computation cost.
    weight_params:
        Scalar parameter count (weight + bias).

    Example
    -------
    >>> from repro.perfmodel.specs import resnet_spec
    >>> stem = resnet_spec(50).kfac_layers[0]
    >>> stem.name, stem.a_dim, stem.g_dim      # 7x7x3 stem conv, 64 filters
    ('stem.conv', 147, 64)
    """

    name: str
    kind: str
    a_dim: int
    g_dim: int
    spatial_positions: int
    weight_params: int

    @property
    def diagonal_A(self) -> bool:
        """Mirrors ``KFACLayer.diagonal_A``: ``A`` is exactly diagonal."""
        return self.kind == "embedding"

    @property
    def eig_elements(self) -> int:
        """Elements of the layer's eigendecomposition state (Q's + lambdas).

        What a gradient worker must *store* to precondition this layer —
        the per-layer unit of the ``grad_worker_frac`` memory model.  A
        diagonal ``A`` contributes its ``a_dim`` eigenvalues and no basis.
        """
        a_elems = self.a_dim if self.diagonal_A else self.a_dim**2 + self.a_dim
        return a_elems + self.g_dim**2 + self.g_dim

    @property
    def grad_matrix_elements(self) -> int:
        """Elements of the packed ``(g_dim, a_dim)`` preconditioned gradient.

        What a group root must *broadcast* per non-gradient-worker — the
        per-layer unit of the second-stage communication model.
        """
        return self.g_dim * self.a_dim


@dataclass(frozen=True)
class ModelSpec:
    """A full model's K-FAC view plus aggregate parameter count.

    Example
    -------
    >>> from repro.perfmodel.specs import resnet_spec
    >>> spec = resnet_spec(50)
    >>> len(spec.kfac_layers), spec.n_factors
    (54, 108)
    >>> spec.factor_packed_bytes < spec.factor_bytes   # tri-packing saves
    True
    """

    name: str
    kfac_layers: tuple[KfacLayerSpec, ...] = field(default_factory=tuple)
    bn_params: int = 0

    @property
    def factor_dims(self) -> tuple[int, ...]:
        """All factor dimensions in canonical meta order (A's, then G's)."""
        return tuple(
            [l.a_dim for l in self.kfac_layers] + [l.g_dim for l in self.kfac_layers]
        )

    @property
    def factor_diagonal(self) -> tuple[bool, ...]:
        """Which factors (same order as ``factor_dims``) are diagonal."""
        return tuple(
            [l.diagonal_A for l in self.kfac_layers] + [False] * len(self.kfac_layers)
        )

    def block_bounds(self, diag_blocks: int = 1):
        """Per-factor diagonal-block bounds under the widest-first policy.

        Mirrors ``KFAC(diag_blocks=k)`` exactly: the block edge is set by
        the widest *dense* factor (a diagonal factor stays one unsplit
        unit), so the modeled block shapes match what the preconditioner
        actually decomposes.

        Example
        -------
        >>> from repro.perfmodel.specs import resnet_spec
        >>> bounds = resnet_spec(50).block_bounds(4)
        >>> max(hi - lo for b in bounds for lo, hi in b)   # 4608 / 4
        1152
        """
        return plan_block_bounds(self.factor_dims, diag_blocks, self.factor_diagonal)

    @property
    def total_params(self) -> int:
        return sum(l.weight_params for l in self.kfac_layers) + self.bn_params

    @property
    def grad_bytes(self) -> int:
        """FP32 gradient payload exchanged every iteration."""
        return self.grad_payload_bytes()

    def grad_payload_bytes(self, itemsize: int = 4) -> int:
        """Gradient wire payload at the given transport itemsize.

        ``itemsize=2`` models the fp16/bf16 compressed gradient exchange.
        """
        return itemsize * self.total_params

    @property
    def factor_bytes(self) -> int:
        """FP32 payload of all Kronecker factors (A and G), full matrices."""
        return self.factor_payload_bytes()

    @property
    def factor_packed_bytes(self) -> int:
        """FP32 payload of all factors under triangular packing.

        Each symmetric ``d x d`` factor ships as its ``d*(d+1)/2``-element
        upper triangle (the ``KFAC(symmetric_comm=True)`` wire format).
        """
        return self.factor_payload_bytes(packed=True)

    def factor_payload_bytes(
        self, packed: bool = False, itemsize: int = 4, diag_blocks: int = 1
    ) -> int:
        """Factor wire payload: full or tri-packed, at a transport itemsize.

        ``packed=True, itemsize=2`` is the fully-compressed exchange
        (triangular packing x half-precision codec): ~0.25x the dense
        fp32 bytes.  ``diag_blocks > 1`` ships only the diagonal-block
        region of each factor (the ``KFAC(diag_blocks=k)`` wire format),
        shrinking the payload further.  A diagonal factor ships its
        ``dim`` elements in every format.

        Example
        -------
        >>> from repro.perfmodel.specs import resnet_spec, transformer_spec
        >>> spec = resnet_spec(50)
        >>> spec.factor_payload_bytes(diag_blocks=4) < spec.factor_bytes
        True
        >>> transformer_spec(vocab_size=1024, seq_len=16, dim=32, depth=2
        ...                  ).factor_payload_bytes(packed=True)
        109988
        """
        elements = 0
        # one whole-factor block each at diag_blocks=1
        for dim, diag, b in zip(
            self.factor_dims, self.factor_diagonal, self.block_bounds(diag_blocks)
        ):
            if diag:
                elements += dim
            elif packed:
                elements += sum(tri_len(hi - lo) for lo, hi in b)
            else:
                elements += sum((hi - lo) ** 2 for lo, hi in b)
        return itemsize * elements

    @property
    def eig_bytes(self) -> int:
        """FP32 payload of all eigendecompositions (Q matrices + eigenvalues)."""
        return self.eig_payload_bytes()

    def eig_payload_bytes(self, itemsize: int = 4, diag_blocks: int = 1) -> int:
        """Eigendecomposition payload at a storage itemsize.

        The eigenbasis stays fp32 by precision policy, so ``itemsize=4``
        is the normal case; ``itemsize=8`` prices a float64 run.
        ``diag_blocks > 1`` stores only per-block ``Q``'s and eigenvalues
        — ``sum(d_b^2 + d_b)`` instead of ``d^2 + d`` per factor; a
        diagonal factor stores ``d`` eigenvalues either way.

        Example
        -------
        >>> from repro.perfmodel.specs import resnet_spec
        >>> spec = resnet_spec(50)
        >>> spec.eig_payload_bytes(diag_blocks=4) < spec.eig_bytes
        True
        """
        # one whole-factor block each at diag_blocks=1: d^2 + d
        return itemsize * sum(
            b[-1][1] if diag else block_eig_elements(b)
            for diag, b in zip(self.factor_diagonal, self.block_bounds(diag_blocks))
        )

    @property
    def grad_matrix_bytes(self) -> int:
        """FP32 payload of all packed per-layer preconditioned gradients.

        The K-FAC-visible gradient volume (BatchNorm parameters excluded)
        — what the ``grad_worker_frac`` second stage must move when every
        layer's group root broadcasts to the non-gradient-workers.
        """
        return 4 * sum(l.grad_matrix_elements for l in self.kfac_layers)

    @property
    def n_factors(self) -> int:
        return 2 * len(self.kfac_layers)


class _SpecBuilder:
    """Accumulates layer specs while walking an architecture."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.layers: list[KfacLayerSpec] = []
        self.bn_params = 0

    def conv(
        self, name: str, in_c: int, out_c: int, k: int, stride: int, padding: int,
        size: int,
    ) -> int:
        """Record a conv layer; returns the output spatial size."""
        out_size = conv_out_size(size, k, stride, padding)
        self.layers.append(
            KfacLayerSpec(
                name=name,
                kind="conv",
                a_dim=in_c * k * k,
                g_dim=out_c,
                spatial_positions=out_size * out_size,
                weight_params=out_c * in_c * k * k,
            )
        )
        return out_size

    def bn(self, channels: int) -> None:
        self.bn_params += 2 * channels

    def linear(self, name: str, in_f: int, out_f: int, positions: int = 1) -> None:
        self.layers.append(
            KfacLayerSpec(
                name=name,
                kind="linear",
                a_dim=in_f + 1,
                g_dim=out_f,
                spatial_positions=positions,
                weight_params=out_f * in_f + out_f,
            )
        )

    def embedding(self, name: str, vocab: int, dim: int, positions: int) -> None:
        """An embedding table: ``A`` is diagonal (vocab,), ``G`` is (dim, dim)."""
        self.layers.append(
            KfacLayerSpec(
                name=name,
                kind="embedding",
                a_dim=vocab,
                g_dim=dim,
                spatial_positions=positions,
                weight_params=vocab * dim,
            )
        )

    def layernorm(self, name: str, dim: int, positions: int) -> None:
        """LayerNorm's elementwise affine: biased (d+1, d+1) / (d, d)."""
        self.layers.append(
            KfacLayerSpec(
                name=name,
                kind="layernorm",
                a_dim=dim + 1,
                g_dim=dim,
                spatial_positions=positions,
                weight_params=2 * dim,
            )
        )

    def build(self) -> ModelSpec:
        return ModelSpec(self.name, tuple(self.layers), self.bn_params)


def resnet_spec(depth: int, input_size: int = 224, num_classes: int = 1000) -> ModelSpec:
    """K-FAC spec of an ImageNet-style ResNet at the given input size.

    Example
    -------
    >>> from repro.perfmodel.specs import resnet_spec
    >>> round(resnet_spec(50).total_params / 1e6, 1)   # the familiar 25.6M
    25.6
    """
    if depth not in IMAGENET_DEPTH_CONFIGS:
        raise ValueError(f"unsupported depth {depth}; choose from {sorted(IMAGENET_DEPTH_CONFIGS)}")
    block, stage_blocks = IMAGENET_DEPTH_CONFIGS[depth]
    widths = (64, 128, 256, 512)
    expansion = 4 if block == "bottleneck" else 1
    b = _SpecBuilder(f"resnet{depth}")

    size = b.conv("stem.conv", 3, widths[0], 7, 2, 3, input_size)
    b.bn(widths[0])
    size = conv_out_size(size, 3, 2, 1)  # maxpool

    in_c = widths[0]
    for stage_idx, (n_blocks, width) in enumerate(zip(stage_blocks, widths)):
        for blk in range(n_blocks):
            stride = 2 if (blk == 0 and stage_idx > 0) else 1
            prefix = f"stage{stage_idx}.block{blk}"
            out_c = width * expansion
            if block == "bottleneck":
                size_in = size
                b.conv(f"{prefix}.conv1", in_c, width, 1, 1, 0, size_in)
                b.bn(width)
                size = b.conv(f"{prefix}.conv2", width, width, 3, stride, 1, size_in)
                b.bn(width)
                b.conv(f"{prefix}.conv3", width, out_c, 1, 1, 0, size)
                b.bn(out_c)
            else:
                size_in = size
                size = b.conv(f"{prefix}.conv1", in_c, width, 3, stride, 1, size_in)
                b.bn(width)
                b.conv(f"{prefix}.conv2", width, width, 3, 1, 1, size)
                b.bn(width)
            if stride != 1 or in_c != out_c:
                b.conv(f"{prefix}.shortcut", in_c, out_c, 1, stride, 0, size_in)
                b.bn(out_c)
            in_c = out_c
    b.linear("fc", in_c, num_classes)
    return b.build()


def transformer_spec(
    vocab_size: int = 4096,
    seq_len: int = 128,
    dim: int = 256,
    num_heads: int = 4,
    depth: int = 4,
    num_classes: int = 10,
    hidden_mult: int = 2,
) -> ModelSpec:
    """K-FAC spec of a :class:`repro.nn.transformer.TinyTransformer`.

    Walks the model in registration order: token/positional embeddings,
    per block the pre-LN norms, the four attention projections and the
    two MLP linears, then the final norm and classifier head.  The token
    embedding's activation factor is by far the widest, but it is exactly
    diagonal: it costs ``vocab`` elements to ship, store and decompose,
    and ``block_bounds`` leaves it whole and splits the widest *dense*
    factor (``fc2``'s ``A``, ``hidden + 1`` wide) instead.

    Example
    -------
    >>> from repro.perfmodel.specs import transformer_spec
    >>> spec = transformer_spec(vocab_size=1024, depth=2)
    >>> spec.kfac_layers[0].a_dim, spec.kfac_layers[0].eig_elements - 256**2 - 256
    (1024, 1024)
    >>> [hi - lo for lo, hi in spec.block_bounds(4)[0]]     # tok_embed: whole
    [1024]
    >>> max(hi - lo for b in spec.block_bounds(4)[1:] for lo, hi in b)  # ceil(513/4)
    129
    >>> len(spec.kfac_layers)                    # 2 emb + 2*8 + norm + head
    20
    """
    if dim % num_heads != 0:
        raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
    b = _SpecBuilder(f"transformer-L{depth}-d{dim}")
    b.embedding("tok_embed", vocab_size, dim, positions=seq_len)
    b.embedding("pos_embed", seq_len, dim, positions=seq_len)
    hidden = dim * hidden_mult
    for i in range(depth):
        prefix = f"blocks.m{i}"
        b.layernorm(f"{prefix}.norm1", dim, positions=seq_len)
        for proj in ("q_proj", "k_proj", "v_proj", "out_proj"):
            b.linear(f"{prefix}.attn.{proj}", dim, dim, positions=seq_len)
        b.layernorm(f"{prefix}.norm2", dim, positions=seq_len)
        b.linear(f"{prefix}.fc1", dim, hidden, positions=seq_len)
        b.linear(f"{prefix}.fc2", hidden, dim, positions=seq_len)
    b.layernorm("final_norm", dim, positions=seq_len)
    b.linear("head", dim, num_classes)
    return b.build()


def cifar_resnet_spec(
    depth: int,
    input_size: int = 32,
    num_classes: int = 10,
    width_multiplier: float = 1.0,
) -> ModelSpec:
    """K-FAC spec of a CIFAR-style ResNet (6n+2 layers).

    ``width_multiplier`` scales the stage widths with the same
    ``max(1, round(w * multiplier))`` rule as the trainable
    :class:`repro.nn.resnet` builder, so a drift report can model exactly
    the slimmed network an experiment actually trains.

    Example
    -------
    >>> from repro.perfmodel.specs import cifar_resnet_spec
    >>> tiny = cifar_resnet_spec(8, input_size=10, width_multiplier=0.25)
    >>> [l.g_dim for l in tiny.kfac_layers[:2]]   # 16*0.25 -> 4
    [4, 4]
    """
    if (depth - 2) % 6 != 0:
        raise ValueError(f"CIFAR ResNet depth must be 6n+2, got {depth}")
    n = (depth - 2) // 6
    widths = tuple(
        max(1, int(round(w * width_multiplier))) for w in (16, 32, 64)
    )
    b = _SpecBuilder(f"resnet{depth}-cifar")
    size = b.conv("stem.conv", 3, widths[0], 3, 1, 1, input_size)
    b.bn(widths[0])
    in_c = widths[0]
    for stage_idx, width in enumerate(widths):
        for blk in range(n):
            stride = 2 if (blk == 0 and stage_idx > 0) else 1
            prefix = f"stage{stage_idx}.block{blk}"
            size_in = size
            size = b.conv(f"{prefix}.conv1", in_c, width, 3, stride, 1, size_in)
            b.bn(width)
            b.conv(f"{prefix}.conv2", width, width, 3, 1, 1, size)
            b.bn(width)
            if stride != 1 or in_c != width:
                b.conv(f"{prefix}.shortcut", in_c, width, 1, stride, 0, size_in)
                b.bn(width)
            in_c = width
    b.linear("fc", in_c, num_classes)
    return b.build()
