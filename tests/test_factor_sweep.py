"""The factor stage as one sweep over a fresh arena.

``KFAC.update_factors`` has every layer write the upper triangles of its
readings into its slots of one fresh arena, mirrors them with one gather
and folds the whole arena into the running averages with one EMA.  These
tests hold it to the per-layer oracle of ``tests/conftest.py`` — each
factor's whole ``gram``, its count scale and its own ``ema_update`` —
bit for bit, for every layer family in float32 and float64, at P = 1 and
P = 2 (where a factor exchange averages the two replicas' running
factors), with and without ``fac_update_freq=2``.  After every sweep the
arena is exactly symmetric, including on a step whose factor exchange is
dropped, when the lower triangles come from the sweep's mirror alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import World
from repro.comm.faults import CollectiveFailure, FaultPlan
from repro.core.distributed import PhaseController
from repro.core.preconditioner import KFAC
from repro.nn.container import Sequential
from repro.nn.layers import Conv2d, Flatten, Linear, ReLU
from repro.nn.loss import CrossEntropyLoss
from repro.nn.transformer import Embedding, LayerNorm

from tests.conftest import oracle_fold

DECAY = 0.95


def _linear(rng):
    x = rng.normal(size=(8, 6))
    return Sequential(Linear(6, 5, rng=rng), ReLU(), Linear(5, 3, bias=False, rng=rng)), x


def _conv(kernel, stride, bias):
    def build(rng):
        x = rng.normal(size=(8, 2, 6, 6))
        side = (6 + 2 * (kernel // 2) - kernel) // stride + 1
        model = Sequential(
            Conv2d(2, 3, kernel, stride=stride, padding=kernel // 2, bias=bias, rng=rng),
            ReLU(),
            Flatten(),
            Linear(3 * side * side, 3, rng=rng),
        )
        return model, x

    return build


def _embedding_layernorm(rng):
    x = rng.integers(0, 11, size=(8, 5))
    return Sequential(Embedding(11, 4, rng=rng), LayerNorm(4), Flatten(), Linear(20, 3, rng=rng)), x


FAMILIES = {
    "linear-bias-and-nobias": _linear,
    **{
        f"conv{k}x{k}-s{s}-{'bias' if b else 'nobias'}": _conv(k, s, b)
        for k in (1, 3)
        for s in (1, 2)
        for b in (True, False)
    },
    "embedding-layernorm": _embedding_layernorm,
}


def _fleet(family, p, dtype, **kw):
    models, x = [], None
    for _ in range(p):
        model, x = FAMILIES[family](np.random.default_rng(0))
        models.append(model.cast_(dtype))
    if x.dtype.kind == "f":
        x = x.astype(dtype)
    y = np.random.default_rng(1).integers(0, 3, size=len(x))
    kfacs = [
        KFAC(m, rank=r, world_size=p, damping=0.01, kfac_update_freq=1, factor_decay=DECAY, **kw)
        for r, m in enumerate(models)
    ]
    return models, kfacs, x, y


def _bits(arr):
    return np.ascontiguousarray(arr).tobytes()


def _assert_symmetric(kfac):
    for meta in kfac.factor_metas:
        factor = kfac._factor(meta)
        if factor is not None and not meta.diagonal:
            assert _bits(factor) == _bits(factor.T), meta.key


def _run(models, kfacs, x, y, steps, fail_steps=()):
    """Train ``steps`` lockstep steps while folding the oracle; assert after
    every step that each replica's running factors equal it bit for bit and
    that its arena is exactly symmetric."""
    p = len(models)
    controller = PhaseController(kfacs, World(p)) if p > 1 else None
    states = [{} for _ in range(p)]
    for step in range(steps):
        for r, m in enumerate(models):
            m.zero_grad()
            loss_fn = CrossEntropyLoss()
            loss_fn(m(x[r::p]), y[r::p])
            m.backward(loss_fn.backward())
        folds = kfacs[0].steps % kfacs[0].fac_update_freq == 0
        if folds:
            for state, kfac in zip(states, kfacs):
                oracle_fold(state, kfac.layers, DECAY)
        dropped = step in fail_steps
        if controller is None:
            kfacs[0].step()
        else:
            controller.world.fault_plan = FaultPlan(
                failures=(CollectiveFailure(phase="factor_comm", count=None),) if dropped else ()
            )
            controller.step()
            if folds and not dropped:  # the exchange averages the replicas
                for key in states[0]:
                    mean = (states[0][key] + states[1][key]) / 2
                    for state in states:
                        state[key] = mean.copy()
        for state, kfac in zip(states, kfacs):
            _assert_symmetric(kfac)
            for (name, kind), want in state.items():
                got = getattr(kfac._layer_by_name(name), kind)
                assert got.dtype == want.dtype and _bits(got) == _bits(want), (step, name, kind)
        for m in models:
            for prm in m.parameters():
                prm.data -= 0.05 * prm.grad
    return controller


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_running_factors_match_the_per_layer_oracle(family, dtype, p):
    models, kfacs, x, y = _fleet(family, p, dtype)
    _run(models, kfacs, x, y, steps=3)
    assert all(k.n_factor_updates == 3 for k in kfacs)
    assert all(k._arena.dtype == dtype for k in kfacs)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_fac_update_freq_two_folds_every_other_step(dtype, p):
    models, kfacs, x, y = _fleet("conv3x3-s2-bias", p, dtype, fac_update_freq=2)
    _run(models, kfacs, x, y, steps=6)
    assert all(k.n_factor_updates == 3 for k in kfacs)


@pytest.mark.parametrize("family", ["conv3x3-s1-bias", "embedding-layernorm"])
def test_dropped_exchange_leaves_the_sweeps_mirror(family):
    """With the factor exchange lost, nothing writes the arena after the
    sweep: each replica keeps its local fold, lower triangles included,
    and the next exchange averages the replicas again."""
    models, kfacs, x, y = _fleet(family, 2, np.float32)
    controller = _run(models, kfacs, x, y, steps=4, fail_steps=(2,))
    assert controller.comm_fallbacks == 1
    assert [k.n_factor_comm_failures for k in kfacs] == [1, 1]
