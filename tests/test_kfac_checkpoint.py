"""K-FAC checkpoint/restore: resuming must be bit-equivalent to not stopping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import World
from repro.core.distributed import PhaseController
from repro.core.preconditioner import COMM_OPT, KFAC, LAYER_WISE
from repro.nn import Linear, Sequential, TinyTransformer
from repro.nn.loss import CrossEntropyLoss
from tests.conftest import build_tiny_cnn


def one_step(model, kfac, x, y, loss_fn):
    model.zero_grad()
    loss_fn(model(x), y)
    model.backward(loss_fn.backward())
    kfac.step()
    # grads now preconditioned; apply a plain step so weights evolve
    for p in model.parameters():
        p.data -= 0.1 * p.grad


class TestCheckpoint:
    def _data(self):
        rng = np.random.default_rng(0)
        return (
            rng.normal(size=(8, 1, 8, 8)).astype(np.float32),
            rng.integers(0, 3, size=8).astype(np.int64),
        )

    def test_resume_is_equivalent_to_continuous(self):
        x, y = self._data()
        loss = CrossEntropyLoss()

        # continuous run: 4 steps
        m1 = build_tiny_cnn(seed=5)
        k1 = KFAC(m1, damping=0.01, fac_update_freq=1, kfac_update_freq=2)
        for _ in range(4):
            one_step(m1, k1, x, y, loss)

        # checkpointed run: 2 steps, snapshot, restore into fresh objects
        m2 = build_tiny_cnn(seed=5)
        k2 = KFAC(m2, damping=0.01, fac_update_freq=1, kfac_update_freq=2)
        for _ in range(2):
            one_step(m2, k2, x, y, loss)
        model_state = m2.state_dict()
        kfac_state = k2.state_dict()

        m3 = build_tiny_cnn(seed=99)  # different init, fully overwritten
        m3.load_state_dict(model_state)
        k3 = KFAC(m3, damping=0.01, fac_update_freq=1, kfac_update_freq=2)
        k3.load_state_dict(kfac_state)
        for _ in range(2):
            one_step(m3, k3, x, y, loss)

        for (n1, p1), (_, p3) in zip(m1.named_parameters(), m3.named_parameters()):
            np.testing.assert_allclose(p3.data, p1.data, rtol=1e-6, atol=1e-7, err_msg=n1)

    @pytest.mark.parametrize("diag_warmup", [0, 1])
    def test_blocked_resume_is_bitwise_continuous(self, diag_warmup):
        """A diag_blocks run resumes bit for bit: blocked bases come back
        blocked (not as their dense assembly) and the warmup phase counter
        survives the checkpoint."""
        x, y = self._data()
        loss = CrossEntropyLoss()
        kw = dict(damping=0.01, fac_update_freq=1, kfac_update_freq=4,
                  diag_blocks=4, diag_warmup=diag_warmup)

        m1 = build_tiny_cnn(seed=5)
        k1 = KFAC(m1, **kw)
        for _ in range(6):
            one_step(m1, k1, x, y, loss)

        m2 = build_tiny_cnn(seed=5)
        k2 = KFAC(m2, **kw)
        for _ in range(2):
            one_step(m2, k2, x, y, loss)
        m3 = build_tiny_cnn(seed=99)
        m3.load_state_dict(m2.state_dict())
        k3 = KFAC(m3, **kw)
        k3.load_state_dict(k2.state_dict())
        assert k3.blocks_active == k2.blocks_active
        for a, b in zip(k2.layers, k3.layers):
            assert (a.eig_A.blocked, a.eig_G.blocked) == (b.eig_A.blocked, b.eig_G.blocked)
        for _ in range(4):
            one_step(m3, k3, x, y, loss)

        for (n1, p1), (_, p3) in zip(m1.named_parameters(), m3.named_parameters()):
            np.testing.assert_array_equal(p3.data, p1.data, err_msg=n1)

    def test_checkpoint_without_counter_loads_dense(self):
        """Checkpoints written before the phase counter was persisted load
        as they always did: counter untouched, every basis dense."""
        x, y = self._data()
        kw = dict(damping=0.01, kfac_update_freq=1, diag_blocks=4, diag_warmup=0)
        model = build_tiny_cnn(seed=1)
        kfac = KFAC(model, **kw)
        for _ in range(2):
            one_step(model, kfac, x, y, CrossEntropyLoss())
        assert any(l.eig_A.blocked for l in kfac.layers)
        state = kfac.state_dict()
        assert state["n_second_order_updates"] == 2
        del state["n_second_order_updates"]
        fresh = KFAC(build_tiny_cnn(seed=1), **kw)
        fresh.load_state_dict(state)
        assert fresh.n_second_order_updates == 0
        assert not any(l.eig_A.blocked or l.eig_G.blocked for l in fresh.layers)

    def test_dense_basis_stays_dense_under_blocks(self):
        """An exact run's bases resumed into a blocked run are not
        block-diagonal, so they load dense until the next refresh."""
        x, y = self._data()
        model = build_tiny_cnn(seed=1)
        kfac = KFAC(model, damping=0.01, kfac_update_freq=1)
        for _ in range(2):
            one_step(model, kfac, x, y, CrossEntropyLoss())
        fresh = KFAC(build_tiny_cnn(seed=1), damping=0.01, diag_blocks=4)
        fresh.load_state_dict(kfac.state_dict())
        assert fresh.blocks_active
        for a, b in zip(kfac.layers, fresh.layers):
            for ea, eb in ((a.eig_A, b.eig_A), (a.eig_G, b.eig_G)):
                if not eb.blocked:  # a single-block partition re-blocks trivially
                    np.testing.assert_array_equal(ea.Q, eb.Q)
        assert not all(l.eig_A.blocked for l in fresh.layers)

    def test_counters_restored(self):
        x, y = self._data()
        loss = CrossEntropyLoss()
        model = build_tiny_cnn(seed=1)
        kfac = KFAC(model, damping=0.02, kfac_update_freq=3)
        for _ in range(2):
            one_step(model, kfac, x, y, loss)
        kfac.damping = 0.005  # as a scheduler would
        state = kfac.state_dict()

        fresh = KFAC(build_tiny_cnn(seed=1), damping=0.02, kfac_update_freq=3)
        fresh.load_state_dict(state)
        assert fresh.steps == 2
        assert fresh.damping == pytest.approx(0.005)
        assert fresh.kfac_update_freq == 3

    def test_second_order_state_restored(self):
        x, y = self._data()
        loss = CrossEntropyLoss()
        model = build_tiny_cnn(seed=1)
        kfac = KFAC(model, damping=0.01)
        one_step(model, kfac, x, y, loss)
        state = kfac.state_dict()
        fresh = KFAC(build_tiny_cnn(seed=1), damping=0.01)
        fresh.load_state_dict(state)
        for a, b in zip(kfac.layers, fresh.layers):
            np.testing.assert_array_equal(a.A, b.A)
            np.testing.assert_array_equal(a.eig_A.Q, b.eig_A.Q)
            np.testing.assert_array_equal(a.eig_G.lam, b.eig_G.lam)

    def test_unknown_layer_rejected(self):
        model = build_tiny_cnn(seed=1)
        kfac = KFAC(model, damping=0.01)
        state = kfac.state_dict()
        state["layers"]["bogus.layer"] = {}
        fresh = KFAC(build_tiny_cnn(seed=1), damping=0.01)
        with pytest.raises(KeyError):
            fresh.load_state_dict(state)

    @pytest.mark.parametrize("key", ["A", "G", "eig_A_Q", "eig_G_lam", "inv_A"])
    def test_wrong_shape_rejected_before_restoring(self, key):
        """A checkpoint from Linear(4, 3) does not load into Linear(5, 3):
        it used to, leaving A (5, 5) where a_dim is 6, and the next step
        died in ema_update."""
        x = np.random.default_rng(0).normal(size=(6, 4)).astype(np.float32)
        src = Sequential(Linear(4, 3))
        k_src = KFAC(src, damping=0.01, kfac_update_freq=1, use_eigen_decomp=key != "inv_A")
        one_step(src, k_src, x, np.arange(6) % 3, CrossEntropyLoss())
        state = k_src.state_dict()
        dst = KFAC(Sequential(Linear(4, 3)), damping=0.01, use_eigen_decomp=key != "inv_A")
        entry = state["layers"]["m0"]
        good = entry[key].shape
        entry[key] = np.zeros(tuple(d + 1 for d in good), dtype=entry[key].dtype)
        n = good[0]
        msg = rf"{key} of K-FAC layer 'm0' has shape \({n + 1},.*is \({n},"
        with pytest.raises(ValueError, match=msg):
            dst.load_state_dict(state)
        assert dst.steps == 0 and dst.layers[0].A is None  # nothing restored
        entry[key] = np.zeros(good, dtype=entry[key].dtype)  # fits Linear(4, 3) again
        with pytest.raises(ValueError, match=r"A of K-FAC layer 'm0' has shape \(5, 5\)"):
            KFAC(Sequential(Linear(5, 3)), damping=0.01).load_state_dict(state, strict=False)

    def test_state_dict_is_deep_copy(self):
        x, y = self._data()
        model = build_tiny_cnn(seed=1)
        kfac = KFAC(model, damping=0.01)
        one_step(model, kfac, x, y, CrossEntropyLoss())
        state = kfac.state_dict()
        first_layer = kfac.layers[0]
        state["layers"][first_layer.name]["A"][...] = 0.0
        assert not np.all(first_layer.A == 0.0)


def _phase_steps(models, kfacs, world, x, y, steps):
    """Lockstep data-parallel steps with a plain weight update."""
    p = len(models)
    idx = [np.arange(r, len(x), p) for r in range(p)]
    controller = PhaseController(kfacs, world)
    loss_fns = [CrossEntropyLoss() for _ in range(p)]
    for _ in range(steps):
        for r in range(p):
            models[r].zero_grad()
            loss_fns[r](models[r](x[idx[r]]), y[idx[r]])
            models[r].backward(loss_fns[r].backward())
        params = [list(m.parameters()) for m in models]
        for j in range(len(params[0])):
            reduced = world.allreduce([params[r][j].grad for r in range(p)])
            for r in range(p):
                params[r][j].grad[...] = reduced[r]
        controller.step()
        for m in models:
            for prm in m.parameters():
                prm.data -= 0.1 * prm.grad


class TestBlockedDistributedResume:
    """Per-rank snapshots of a blocked run resume bit for bit under every
    placement of the blocked units (per-block owners, per-layer owners,
    per-block owners inside gradient-worker groups)."""

    @pytest.mark.parametrize("diag_warmup", [0, 1])
    @pytest.mark.parametrize(
        "p,extra",
        [
            pytest.param(2, dict(strategy=COMM_OPT), id="comm-opt-p2"),
            pytest.param(2, dict(strategy=LAYER_WISE), id="layer-wise-p2"),
            pytest.param(4, dict(grad_worker_frac=0.5, scheduler="graph"), id="hybrid-graph-p4"),
        ],
    )
    def test_per_rank_resume_bitwise(self, p, extra, diag_warmup):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=8).astype(np.int64)
        kw = dict(damping=0.01, fac_update_freq=1, kfac_update_freq=4,
                  diag_blocks=4, diag_warmup=diag_warmup, **extra)

        def replicas(seed):
            models = [build_tiny_cnn(seed=seed) for _ in range(p)]
            return models, [KFAC(m, rank=r, world_size=p, **kw) for r, m in enumerate(models)]

        m1, k1 = replicas(5)
        _phase_steps(m1, k1, World(p), x, y, 6)
        m2, k2 = replicas(5)
        _phase_steps(m2, k2, World(p), x, y, 2)
        m3, k3 = replicas(99)
        for src_m, src_k, dst_m, dst_k in zip(m2, k2, m3, k3):
            dst_m.load_state_dict(src_m.state_dict())
            dst_k.load_state_dict(src_k.state_dict())
        _phase_steps(m3, k3, World(p), x, y, 4)
        for a, b in zip(m1, m3):
            for (name, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
                np.testing.assert_array_equal(pb.data, pa.data, err_msg=name)


def test_float64_checkpoint_casts_into_the_float32_arena():
    """Transformer checkpoints written while attention promoted to float64
    hold float64 factors and bases.  Loading one into a float32 KFAC casts
    every array in place: the arena views, the step plans and the wire plans
    stay the same objects, and the next step runs in float32."""
    p = 2
    rng = np.random.default_rng(0)
    x, y = rng.integers(0, 24, (8, 6)), rng.integers(0, 3, 8)
    models = [
        TinyTransformer(24, 6, dim=16, num_heads=2, depth=1, num_classes=3,
                        rng=np.random.default_rng(5)).cast_(np.float32)
        for _ in range(p)
    ]
    kfacs = [KFAC(m, rank=r, world_size=p, damping=0.01, kfac_update_freq=1)
             for r, m in enumerate(models)]
    world = World(p)
    _phase_steps(models, kfacs, world, x, y, 2)
    kfac = kfacs[0]
    arena, plans = kfac._arena, kfac._plans
    step_plans, wire_plan = dict(plans), kfac._wire_plan(kfac.units)
    states = []
    for k in kfacs:
        state = k.state_dict()
        state["layers"] = {
            name: {key: arr.astype(np.float64) for key, arr in entry.items()}
            for name, entry in state["layers"].items()
        }
        states.append(state)
        k._arena[...] = 0.0
    for k, state in zip(kfacs, states):
        k.load_state_dict(state)
    assert kfac._arena is arena and arena.dtype == np.float32
    for meta in kfac.factor_metas:
        factor = kfac._factor(meta)
        assert np.shares_memory(factor, arena) and factor.dtype == np.float32, meta.key
        saved = states[0]["layers"][meta.layer][meta.kind]
        np.testing.assert_array_equal(factor, saved.astype(np.float32), err_msg=meta.key)
    for layer in kfac.layers:
        for eig in (layer.eig_A, layer.eig_G):
            assert {a.dtype for a in eig.arrays()} == {np.dtype(np.float32)}, layer.name
    assert kfac._plans is plans and all(plans[k] is v for k, v in step_plans.items())
    assert kfac._wire_plan(kfac.units) is wire_plan
    _phase_steps(models, kfacs, world, x, y, 1)
    assert kfac._arena is arena and np.isfinite(arena).all() and kfac.steps == 3
