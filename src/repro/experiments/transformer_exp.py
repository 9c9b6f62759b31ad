"""The transformer smoke experiment: K-FAC beyond ResNet.

Trains a :class:`repro.nn.transformer.TinyTransformer` (token +
positional embeddings, pre-LN attention blocks, margin-softmax head) on a
synthetic token-classification task under the *full* feature stack at
once: graph scheduler, KAISA hybrid placement (``grad_worker_frac=0.5``),
fp16 factor compression with error feedback, and the block-diagonal
approximation (``diag_blocks=4``) on the widest dense factor (the
embeddings' diagonal ``A`` factors stay exact ``O(V)`` vectors).  The
report shows the per-step loss and what the preconditioner captured —
the one-command proof that the second model family rides the whole
pipeline unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.comm.backend import World
from repro.core.distributed import PhaseController
from repro.core.preconditioner import KFAC
from repro.experiments.common import ExperimentResult
from repro.nn import MarginSoftmaxLoss, TinyTransformer
from repro.optim.sgd import SGD
from repro.utils.tables import format_table

__all__ = ["make_token_task", "run_transformer_smoke"]


def make_token_task(
    n: int, seq_len: int, vocab: int, num_classes: int, seed: int = 17
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic learnable token task: each class favors a vocabulary band.

    Example
    -------
    >>> from repro.experiments.transformer_exp import make_token_task
    >>> x, y = make_token_task(8, 4, vocab=20, num_classes=2)
    >>> x.shape, y.shape, int(x.max()) < 20
    ((8, 4), (8,), True)
    """
    rng = np.random.default_rng(seed)
    y = rng.integers(0, num_classes, n)
    band = vocab // num_classes
    tokens = (y[:, None] * band + rng.integers(0, band, (n, seq_len))) % vocab
    return tokens.astype(np.int64), y.astype(np.int64)


def run_transformer_smoke(
    world_size: int = 2,
    steps: int = 8,
    vocab: int = 40,
    seq_len: int = 6,
    dim: int = 16,
    num_heads: int = 2,
    depth: int = 1,
    num_classes: int = 4,
    n_samples: int = 24,
    seed: int = 5,
) -> ExperimentResult:
    """Train a TinyTransformer under the full K-FAC feature stack.

    Example
    -------
    >>> from repro.experiments.transformer_exp import run_transformer_smoke
    >>> result = run_transformer_smoke(world_size=2, steps=4, vocab=20,
    ...                                seq_len=4, dim=8, num_classes=2,
    ...                                n_samples=8)
    >>> result.data["losses"][-1] < result.data["losses"][0]
    True
    >>> result.data["unsupported_layers"]
    []
    """
    x, y = make_token_task(n_samples, seq_len, vocab, num_classes)
    shard = [np.arange(r, n_samples, world_size) for r in range(world_size)]
    world = World(world_size)
    models = [
        TinyTransformer(
            vocab, seq_len, dim=dim, num_heads=num_heads, depth=depth,
            num_classes=num_classes, rng=np.random.default_rng(seed),
        )
        for _ in range(world_size)
    ]
    kfacs = [
        KFAC(
            m, rank=r, world_size=world_size,
            damping=0.01, kfac_update_freq=2, fac_update_freq=1, lr=0.1,
            scheduler="graph", grad_worker_frac=0.5, comm_dtype="fp16",
            diag_blocks=4, diag_warmup=1,
        )
        for r, m in enumerate(models)
    ]
    controller = PhaseController(kfacs, world)
    opts = [SGD(m.parameters(), lr=0.1, momentum=0.9) for m in models]
    loss_fns = [MarginSoftmaxLoss() for _ in range(world_size)]

    losses: list[float] = []
    for _ in range(steps):
        step_loss = 0.0
        for r in range(world_size):
            opts[r].zero_grad()
            out = models[r](x[shard[r]])
            step_loss += loss_fns[r](out, y[shard[r]]) / world_size
            models[r].backward(loss_fns[r].backward())
        for grads in zip(*[[p.grad for p in m.parameters()] for m in models]):
            reduced = world.allreduce(list(grads), op="average", phase="grad_allreduce")
            for g, red in zip(grads, reduced):
                g[...] = red
        controller.step()
        for r in range(world_size):
            opts[r].step()
        losses.append(float(step_loss))

    kfac = kfacs[0]
    result = ExperimentResult(
        "transformer-smoke",
        f"TinyTransformer(vocab={vocab}, seq={seq_len}, dim={dim}) x "
        f"{world_size} workers: graph + hybrid f=0.5 + fp16 + diag_blocks=4",
    )
    result.add(
        format_table(
            ["step", "mean loss"],
            [[i, f"{l:.4f}"] for i, l in enumerate(losses)],
        )
    )
    captured = [(l.name, type(l).__name__) for l in kfac.layers]
    result.add(
        f"captured {len(captured)} layers "
        f"({sum(1 for _, t in captured if 'Embedding' in t)} embedding, "
        f"{sum(1 for _, t in captured if 'LayerNorm' in t)} layernorm); "
        f"blocks_active={kfac.blocks_active}; "
        f"loss {losses[0]:.4f} -> {losses[-1]:.4f}"
    )
    result.data = {
        "losses": losses,
        "captured_layers": captured,
        "unsupported_layers": list(kfac.unsupported_layers),
        "blocks_active": bool(kfac.blocks_active),
        "factor_updates": kfac.n_factor_updates,
        "second_order_updates": kfac.n_second_order_updates,
    }
    return result
