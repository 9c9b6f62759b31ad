"""Trajectory parity for the approximation tier (:mod:`repro.approx`).

The lock-down guarantee: ``KFAC(diag_blocks=1)`` with the drift trigger
off is *the seed code path* — every weight of every parity-matrix config
(strategy x world size x wire dtype x scheduler) must match the baseline
bitwise after training.  The approximation itself (``diag_blocks=4``)
then only has to be *bounded*: the blocked run must actually install
blocked :class:`~repro.core.inverse.FactorEig` bases, stay finite, and
land within a loose loss band of the exact run on the smoke model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.preconditioner import COMM_OPT, HYBRID, LAYER_WISE, KFAC
from repro.nn.loss import CrossEntropyLoss
from repro.optim.sgd import SGD
from tests.conftest import build_tiny_cnn
from tests.test_grad_worker_frac import run_hybrid

_BASELINES: dict = {}


def _baseline(key, **kw):
    if key not in _BASELINES:
        _BASELINES[key] = run_hybrid(**kw)
    return _BASELINES[key]


_MATRIX = [
    pytest.param(strategy, p, precision, scheduler, id=f"{strategy}-p{p}-{precision}-{scheduler}")
    for strategy in (COMM_OPT, LAYER_WISE, HYBRID)
    for p in (1, 2, 4)
    for precision in ("fp32", "fp16")
    for scheduler in ("sync", "graph")
]


class TestExactParity:
    @pytest.mark.parametrize("strategy,p,precision,scheduler", _MATRIX)
    def test_diag_blocks_one_drift_off_bitwise(self, strategy, p, precision, scheduler):
        kw = dict(strategy=strategy, scheduler=scheduler, steps=4)
        if strategy == HYBRID:
            kw["grad_worker_frac"] = 0.5
        if precision == "fp16":
            kw["comm_dtype"] = "fp16"
        base = _baseline((strategy, p, precision, scheduler), world_size=p, **kw)
        approx = run_hybrid(
            p, diag_blocks=1, diag_warmup=0, drift_tol=None, **kw
        )
        assert base.keys() == approx.keys()
        for name in base:
            np.testing.assert_array_equal(
                base[name], approx[name], err_msg=f"{name} diverged"
            )


def _train_local(steps: int, **kfac_kw):
    """Single-process training loop returning (final loss, kfac)."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(32, 1, 8, 8)).astype(np.float32)
    y = rng.integers(0, 3, size=32).astype(np.int64)
    model = build_tiny_cnn(seed=11)
    kfac = KFAC(
        model, damping=0.01, kfac_update_freq=1, fac_update_freq=1, lr=0.1, **kfac_kw
    )
    opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
    loss_fn = CrossEntropyLoss()
    loss = np.inf
    for _ in range(steps):
        opt.zero_grad()
        out = model(x)
        loss = loss_fn(out, y)
        model.backward(loss_fn.backward())
        kfac.step()
        opt.step()
    return float(loss), kfac


class TestBlockedApproximation:
    def test_diag_blocks_four_bounded_loss(self):
        exact_loss, _ = _train_local(steps=8)
        blocked_loss, kfac = _train_local(steps=8, diag_blocks=4, diag_warmup=1)
        # the approximation engaged on the wide layers...
        assert kfac.blocks_active
        blocked_layers = [l.name for l in kfac.layers if l.eig_A.blocked or l.eig_G.blocked]
        assert blocked_layers, "no layer ever installed a blocked basis"
        # ...and still optimizes: finite, and within a loose band of exact
        assert np.isfinite(blocked_loss)
        assert blocked_loss < exact_loss + 0.5

    @pytest.mark.parametrize(
        "p,extra",
        [
            pytest.param(2, dict(strategy=COMM_OPT), id="comm-opt-sync-p2"),
            pytest.param(2, dict(strategy=LAYER_WISE), id="layer-wise-sync-p2"),
            pytest.param(
                4,
                dict(grad_worker_frac=0.5, scheduler="graph", comm_dtype="fp16"),
                id="hybrid-graph-fp16-p4",
            ),
        ],
    )
    def test_diag_blocks_four_spmd_matches_phase(self, p, extra):
        """Blocked runs stay deterministic across driver implementations,
        for every placement the blocked units take (per-block owners,
        per-layer owners, per-block owners inside gradient-worker groups)."""
        kw = dict(steps=6, diag_blocks=4, diag_warmup=1, **extra)
        phase = run_hybrid(p, **kw)
        spmd = run_hybrid(p, driver="spmd", **kw)
        for name in phase:
            np.testing.assert_array_equal(phase[name], spmd[name])
