"""Trajectory lock-down for the transformer workload tier.

Mirrors ``test_approx_trajectory.py`` for the second model family: a
:class:`~repro.nn.transformer.TinyTransformer` (embeddings + LayerNorms +
attention projections + margin loss) must train *bitwise identically*
under the phase-controller and SPMD drivers across the placement matrix,
the ``diag_blocks=4`` approximation on the wide embedding factor must
stay within a bounded loss band of exact, and the acceptance-criteria
config (graph + hybrid f=0.5 + fp16 + diag_blocks=4) must decrease the
loss while building the embedding ``A`` factor through the gather fast
path — never the dense one-hot.  The unsupported-layer warning fix rides
along with its regression tests.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

import repro.core.factors as factors_mod
import repro.core.layers as core_layers
from repro.approx.blockeig import BlockFactorEig
from repro.comm.backend import World
from repro.core.distributed import (
    HorovodContext,
    PhaseController,
    SPMDDriver,
)
from repro.core.preconditioner import COMM_OPT, HYBRID, KFAC
from repro.nn import MarginSoftmaxLoss, TinyTransformer
from repro.nn.layers import BatchNorm2d, Conv2d, Flatten, Linear, ReLU
from repro.nn.container import Sequential
from repro.obs.metrics import MetricsRegistry
from repro.optim.sgd import SGD
from repro.utils.logging import Logger

N_SAMPLES = 16  # divisible by every world size in the matrix
VOCAB, SEQ, DIM, HEADS, DEPTH, CLASSES = 24, 6, 16, 2, 1, 3


def build_tiny_transformer(seed: int = 5) -> TinyTransformer:
    return TinyTransformer(
        VOCAB, SEQ, dim=DIM, num_heads=HEADS, depth=DEPTH,
        num_classes=CLASSES, rng=np.random.default_rng(seed),
    )


def make_batch(seed: int = 17) -> tuple[np.ndarray, np.ndarray]:
    """Class-banded token task: learnable in a handful of K-FAC steps."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, CLASSES, N_SAMPLES)
    band = VOCAB // CLASSES
    tokens = (y[:, None] * band + rng.integers(0, band, (N_SAMPLES, SEQ))) % VOCAB
    return tokens.astype(np.int64), y.astype(np.int64)


def run_transformer(
    world_size: int,
    steps: int = 4,
    seed: int = 5,
    driver: str = "phase",
    return_losses: bool = False,
    **kfac_kw,
):
    """Train the tiny transformer data-parallel; return final weights.

    Mirrors ``test_grad_worker_frac.run_hybrid``: strided shards, a
    shared gradient allreduce, then the K-FAC driver under test.
    """
    kw = dict(damping=0.01, kfac_update_freq=2, fac_update_freq=1, lr=0.1)
    kw.update(kfac_kw)
    x, y = make_batch()
    shard = [np.arange(r, N_SAMPLES, world_size) for r in range(world_size)]
    world = World(world_size)

    if driver == "spmd":

        def program(view):
            model = build_tiny_transformer(seed)
            kfac = KFAC(model, rank=view.rank, world_size=world_size, **kw)
            drv = SPMDDriver(kfac, HorovodContext(view))
            opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
            loss_fn = MarginSoftmaxLoss()
            for _ in range(steps):
                opt.zero_grad()
                out = model(x[shard[view.rank]])
                loss_fn(out, y[shard[view.rank]])
                model.backward(loss_fn.backward())
                for name, prm in model.named_parameters():
                    prm.grad[...] = view.allreduce(
                        prm.grad, name=f"g:{name}", op="average"
                    )
                drv.step()
                opt.step()
            return model.state_dict()

        return world.run_spmd(program, timeout=60)[0]

    models = [build_tiny_transformer(seed) for _ in range(world_size)]
    kfacs = [
        KFAC(m, rank=r, world_size=world_size, **kw)
        for r, m in enumerate(models)
    ]
    controller = PhaseController(kfacs, world)
    opts = [SGD(m.parameters(), lr=0.1, momentum=0.9) for m in models]
    loss_fns = [MarginSoftmaxLoss() for _ in range(world_size)]
    losses = []
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
    state = models[0].state_dict()
    if return_losses:
        return state, losses
    return state


_BASELINES: dict = {}


def _phase_baseline(key, **kw):
    if key not in _BASELINES:
        _BASELINES[key] = run_transformer(**kw)
    return _BASELINES[key]


_MATRIX = [
    pytest.param(strategy, p, scheduler, id=f"{strategy}-p{p}-{scheduler}")
    for strategy in (COMM_OPT, HYBRID)
    for p in (1, 2, 4)
    for scheduler in ("sync", "graph")
]


class TestTransformerParity:
    @pytest.mark.parametrize("strategy,p,scheduler", _MATRIX)
    def test_phase_spmd_bitwise(self, strategy, p, scheduler):
        kw = dict(strategy=strategy, scheduler=scheduler, steps=4)
        if strategy == HYBRID:
            kw["grad_worker_frac"] = 0.5
        phase = _phase_baseline((strategy, p, scheduler), world_size=p, **kw)
        spmd = run_transformer(p, driver="spmd", **kw)
        assert phase.keys() == spmd.keys()
        for name in phase:
            np.testing.assert_array_equal(
                phase[name], spmd[name], err_msg=f"{name} diverged"
            )


def _train_local(steps: int, **kfac_kw):
    """Single-process transformer training; returns (final loss, kfac)."""
    x, y = make_batch()
    model = build_tiny_transformer(seed=11)
    kfac = KFAC(
        model, damping=0.01, kfac_update_freq=1, fac_update_freq=1, lr=0.1,
        **kfac_kw,
    )
    opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
    loss_fn = MarginSoftmaxLoss()
    loss = np.inf
    for _ in range(steps):
        opt.zero_grad()
        out = model(x)
        loss = loss_fn(out, y)
        model.backward(loss_fn.backward())
        kfac.step()
        opt.step()
    return float(loss), kfac


class TestBlockedEmbedding:
    def test_diag_blocks_four_bounded_loss(self):
        exact_loss, _ = _train_local(steps=8)
        blocked_loss, kfac = _train_local(steps=8, diag_blocks=4, diag_warmup=1)
        assert kfac.blocks_active
        # the wide embedding factor is the one that must actually split
        emb = next(l for l in kfac.layers if l.name == "tok_embed")
        assert isinstance(emb.eig_A, BlockFactorEig)
        # planner may merge below its minimum block width; it must split
        assert 1 < len(emb.eig_A.bounds) <= 4
        assert np.isfinite(blocked_loss)
        assert blocked_loss < exact_loss + 0.5

    def test_diag_blocks_four_spmd_matches_phase(self):
        kw = dict(steps=6, diag_blocks=4, diag_warmup=1, strategy=COMM_OPT)
        phase = run_transformer(2, **kw)
        spmd = run_transformer(2, driver="spmd", **kw)
        for name in phase:
            np.testing.assert_array_equal(phase[name], spmd[name])


ACCEPTANCE_KW = dict(
    scheduler="graph", grad_worker_frac=0.5, comm_dtype="fp16",
    diag_blocks=4, diag_warmup=1,
)


class TestAcceptanceConfig:
    def test_loss_decreases_under_full_stack(self):
        _, losses = run_transformer(
            2, steps=8, return_losses=True, **ACCEPTANCE_KW
        )
        assert losses[-1] < losses[0]
        assert all(np.isfinite(l) for l in losses)

    def test_embedding_factor_uses_gather_fast_path(self, monkeypatch):
        """The fast path runs; the dense one-hot reference never does."""
        calls = {"fast": 0}
        real_fast = core_layers.embedding_factor_A

        def counting_fast(*args, **kwargs):
            calls["fast"] += 1
            return real_fast(*args, **kwargs)

        def forbidden_dense(*args, **kwargs):  # pragma: no cover
            raise AssertionError(
                "dense one-hot embedding factor constructed during training"
            )

        monkeypatch.setattr(core_layers, "embedding_factor_A", counting_fast)
        monkeypatch.setattr(
            factors_mod, "embedding_factor_A_dense", forbidden_dense
        )
        _, losses = run_transformer(
            1, steps=4, return_losses=True, **ACCEPTANCE_KW
        )
        # two embeddings (token + positional) capture on every factor step
        assert calls["fast"] >= 8
        assert losses[-1] < losses[0]

    def test_embedding_factor_exactly_diagonal(self):
        _, kfac = _train_local(steps=4, **ACCEPTANCE_KW)
        for name in ("tok_embed", "pos_embed"):
            handler = next(l for l in kfac.layers if l.name == name)
            off = handler.A - np.diag(np.diag(handler.A))
            assert float(np.abs(off).max()) == 0.0, f"{name} A not diagonal"


def _bn_model(seed: int = 3) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(1, 4, 3, padding=1, rng=rng),
        BatchNorm2d(4),
        ReLU(),
        Flatten(),
        Linear(4 * 8 * 8, 3, rng=rng),
    )


class TestUnsupportedLayerWarning:
    def test_warns_and_exposes_unsupported_layers(self):
        stream = io.StringIO()
        kfac = KFAC(_bn_model(), logger=Logger("kfac", stream=stream))
        assert kfac.unsupported_layers == (("m1", "BatchNorm2d"),)
        text = stream.getvalue()
        assert "[kfac:warn]" in text
        assert "BatchNorm2d" in text and "m1" in text
        assert "first-order only" in text

    def test_default_logger_warns_on_stderr(self, capsys):
        KFAC(_bn_model())
        captured = capsys.readouterr()
        assert "[kfac:warn]" in captured.err
        assert "BatchNorm2d" in captured.err
        assert captured.out == ""  # never pollutes stdout (doctest safety)

    def test_nonzero_ranks_stay_quiet(self):
        stream = io.StringIO()
        KFAC(
            _bn_model(), rank=1, world_size=2,
            logger=Logger("kfac", stream=stream),
        )
        assert stream.getvalue() == ""

    def test_fully_supported_model_stays_silent(self):
        stream = io.StringIO()
        kfac = KFAC(
            build_tiny_transformer(), logger=Logger("kfac", stream=stream)
        )
        assert kfac.unsupported_layers == ()
        assert stream.getvalue() == ""

    def test_metrics_registry_exposes_gauge(self):
        kfac = KFAC(_bn_model(), logger=Logger("kfac", stream=io.StringIO()))
        reg = MetricsRegistry()
        reg.collect_kfacs([kfac])
        gauge = reg.gauge("kfac.unsupported_layers")
        assert gauge.value() == 1.0
        assert gauge.value(kind="BatchNorm2d") == 1.0

    def test_metrics_registry_zero_when_all_supported(self):
        kfac = KFAC(
            build_tiny_transformer(), logger=Logger("kfac", stream=io.StringIO())
        )
        reg = MetricsRegistry()
        reg.collect_kfacs([kfac])
        assert reg.gauge("kfac.unsupported_layers").value() == 0.0
