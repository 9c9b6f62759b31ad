"""KAISA-style ``grad_worker_frac`` — the placement-spectrum guarantees.

The paper's two strategies are the ends of the gradient-worker fraction:

1. ``f = 1/P`` trajectories bit-match ``strategy=LAYER_WISE`` and
   ``f = 1`` bit-matches ``COMM_OPT``, for P in {2, 4, 7} — including
   with ``comm_dtype="fp16"`` and ``symmetric_comm=True``.  Both
   spellings run one code path, so this pins the spelling resolution;
2. every fraction, the two ends included, stays on the independent
   single-worker trajectory within the distributed-equivalence
   tolerance;
3. the communication profile interpolates: eigenbasis-share bytes shrink
   and second-stage broadcast bytes grow as ``f`` decreases, with the
   endpoints matching the existing strategies' phase sets;
4. the threaded SPMD driver and the pipelined engine agree with the
   lockstep phase driver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import World
from repro.comm.horovod import HorovodContext
from repro.core.assignment import (
    build_group_placement,
    grad_worker_count,
    grad_worker_groups,
    greedy_balanced_assignment,
    round_robin_assignment,
)
from repro.core.distributed import PhaseController, SPMDDriver
from repro.core.preconditioner import COMM_OPT, HYBRID, LAYER_WISE, KFAC, KFACHyperParams
from repro.nn.loss import CrossEntropyLoss
from repro.optim.sgd import SGD
from tests.conftest import build_tiny_cnn

N_SAMPLES = 28  # divisible by every tested world size (2, 4, 7)


def run_hybrid(
    world_size: int,
    steps: int = 4,
    seed: int = 42,
    driver: str = "phase",
    return_world: bool = False,
    **kfac_kw,
):
    """Train the tiny CNN data-parallel with K-FAC; return final weights."""
    kw = dict(damping=0.01, kfac_update_freq=2, fac_update_freq=1, lr=0.1)
    kw.update(kfac_kw)
    rng = np.random.default_rng(99)
    x = rng.normal(size=(N_SAMPLES, 1, 8, 8)).astype(np.float32)
    y = rng.integers(0, 3, size=N_SAMPLES).astype(np.int64)
    idx = [np.arange(r, N_SAMPLES, world_size) for r in range(world_size)]
    world = World(world_size)

    if driver == "spmd":

        def program(view):
            model = build_tiny_cnn(seed=seed)
            kfac = KFAC(model, rank=view.rank, world_size=world_size, **kw)
            drv = SPMDDriver(kfac, HorovodContext(view))
            opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
            loss_fn = CrossEntropyLoss()
            for _ in range(steps):
                opt.zero_grad()
                out = model(x[idx[view.rank]])
                loss_fn(out, y[idx[view.rank]])
                model.backward(loss_fn.backward())
                for name, p in model.named_parameters():
                    p.grad[...] = view.allreduce(p.grad, name=f"g:{name}", op="average")
                drv.step()
                opt.step()
            return model.state_dict()

        state = world.run_spmd(program, timeout=60)[0]
        return (state, world) if return_world else state

    models = [build_tiny_cnn(seed=seed) for _ in range(world_size)]
    kfacs = [KFAC(m, rank=r, world_size=world_size, **kw) for r, m in enumerate(models)]
    controller = PhaseController(kfacs, world)
    opts = [SGD(m.parameters(), lr=0.1, momentum=0.9) for m in models]
    losses = [CrossEntropyLoss() for _ in range(world_size)]
    for _ in range(steps):
        for r in range(world_size):
            opts[r].zero_grad()
            out = models[r](x[idx[r]])
            losses[r](out, y[idx[r]])
            models[r].backward(losses[r].backward())
        params = [list(m.parameters()) for m in models]
        for j in range(len(params[0])):
            reduced = world.allreduce([params[r][j].grad for r in range(world_size)])
            for r in range(world_size):
                params[r][j].grad[...] = reduced[r]
        controller.step()
        for opt in opts:
            opt.step()
    state = models[0].state_dict()
    return (state, world) if return_world else state


class TestGroupConstruction:
    def test_group_size_endpoints(self):
        assert grad_worker_count(8, 1 / 8) == 1
        assert grad_worker_count(8, 1.0) == 8
        assert grad_worker_count(7, 0.5) == 4  # round(3.5) banker's -> 4? no: 3.5 rounds to 4
        assert grad_worker_count(64, 1 / 64) == 1

    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            grad_worker_count(4, 0.0)
        with pytest.raises(ValueError):
            grad_worker_count(4, 1.5)

    def test_singleton_groups_are_layer_wise(self):
        groups = grad_worker_groups(["a", "b", "c", "d", "e"], 3, 1 / 3)
        assert groups == {"a": (0,), "b": (1,), "c": (2,), "d": (0,), "e": (1,)}

    def test_world_group_is_canonical(self):
        groups = grad_worker_groups(["a", "b"], 4, 1.0)
        assert groups["a"] == groups["b"] == (0, 1, 2, 3)

    def test_contiguous_windows_wrap(self):
        groups = grad_worker_groups(["l0", "l1", "l2", "l3"], 4, 0.5)
        assert groups["l3"] == (3, 0)
        assert all(grp[0] == i % 4 for i, grp in enumerate(groups.values()))

    def test_assignment_degenerates_to_global_policies_at_f1(self):
        metas = KFAC(build_tiny_cnn(), world_size=1)._factor_metas
        for n in (2, 4, 7):
            rr = build_group_placement(metas, n, 1.0, policy="round_robin")
            assert rr.assignment == round_robin_assignment(metas, n)
            gr = build_group_placement(metas, n, 1.0, policy="greedy")
            assert gr.assignment == greedy_balanced_assignment(metas, n)

    def test_assignment_stays_in_group(self):
        metas = KFAC(build_tiny_cnn(), world_size=1)._factor_metas
        for policy in ("round_robin", "greedy"):
            gp = build_group_placement(metas, 5, 0.4, policy=policy)
            for meta in metas:
                assert gp.assignment[meta.key] in gp.groups[meta.layer]

    def test_hyperparam_strategy_wiring(self):
        hp = KFACHyperParams(grad_worker_frac=0.5)
        assert hp.strategy == HYBRID
        with pytest.raises(ValueError):
            KFACHyperParams(grad_worker_frac=0.5, strategy=LAYER_WISE)
        with pytest.raises(ValueError):
            KFACHyperParams(strategy=HYBRID)  # frac missing
        with pytest.raises(ValueError):
            KFACHyperParams(grad_worker_frac=0.0)

    def test_kfac_exposes_placement(self):
        model = build_tiny_cnn()
        kfac = KFAC(model, rank=0, world_size=4, grad_worker_frac=0.5)
        assert kfac.grad_worker_count == 2
        placement = kfac.grad_worker_placement
        assert placement is not None
        for layer in kfac.layers:
            assert placement.root(layer.name) == placement.groups[layer.name][0]
        # COMM_OPT/LAYER_WISE report their implicit group sizes
        assert KFAC(build_tiny_cnn(), world_size=4).grad_worker_count == 4
        assert (
            KFAC(build_tiny_cnn(), world_size=4, strategy=LAYER_WISE).grad_worker_count
            == 1
        )


class TestEndpointEquivalence:
    """f=1/P bit-matches LAYER_WISE; f=1 bit-matches COMM_OPT."""

    @pytest.mark.parametrize("world_size", [2, 4, 7])
    def test_f_one_bit_matches_comm_opt(self, world_size):
        ref = run_hybrid(world_size, strategy=COMM_OPT)
        hybrid = run_hybrid(world_size, grad_worker_frac=1.0)
        for key in ref:
            assert np.array_equal(hybrid[key], ref[key]), key

    @pytest.mark.parametrize("world_size", [2, 4, 7])
    def test_f_inv_p_bit_matches_layer_wise(self, world_size):
        ref = run_hybrid(world_size, strategy=LAYER_WISE)
        hybrid = run_hybrid(world_size, grad_worker_frac=1.0 / world_size)
        for key in ref:
            assert np.array_equal(hybrid[key], ref[key]), key

    @pytest.mark.parametrize("world_size", [2, 4, 7])
    @pytest.mark.parametrize(
        "extra",
        [
            dict(comm_dtype="fp16"),
            dict(symmetric_comm=True),
            dict(comm_dtype="fp16", symmetric_comm=True),
        ],
        ids=["fp16", "symmetric", "fp16+symmetric"],
    )
    def test_endpoints_with_compressed_and_packed_comm(self, world_size, extra):
        ref_opt = run_hybrid(world_size, strategy=COMM_OPT, **extra)
        hybrid_one = run_hybrid(world_size, grad_worker_frac=1.0, **extra)
        ref_lw = run_hybrid(world_size, strategy=LAYER_WISE, **extra)
        hybrid_lw = run_hybrid(world_size, grad_worker_frac=1.0 / world_size, **extra)
        for key in ref_opt:
            assert np.array_equal(hybrid_one[key], ref_opt[key]), key
            assert np.array_equal(hybrid_lw[key], ref_lw[key]), key

    def test_endpoints_with_inverse_mode_and_greedy(self):
        ref = run_hybrid(3, strategy=COMM_OPT, use_eigen_decomp=False, assignment="greedy")
        hybrid = run_hybrid(3, grad_worker_frac=1.0, use_eigen_decomp=False, assignment="greedy")
        for key in ref:
            assert np.array_equal(hybrid[key], ref[key]), key


class TestIntermediateFractions:
    @pytest.mark.parametrize(
        "world_size,frac",
        [(4, 0.5), (7, 3 / 7), (7, 5 / 7)]
        # the two ends, against the independent P=1 reference
        + [(p, f) for p in (2, 4, 7) for f in (1.0, 1 / p)],
    )
    def test_matches_single_worker_trajectory(self, world_size, frac):
        ref = run_hybrid(1)
        dist = run_hybrid(world_size, grad_worker_frac=frac)
        for key in ref:
            np.testing.assert_allclose(
                dist[key], ref[key], rtol=2e-4, atol=2e-5,
                err_msg=f"divergence in {key} at P={world_size}, f={frac}",
            )

    def test_all_replicas_converge_identically(self):
        """Non-grad-workers must end up with the same weights as workers."""
        world = World(4)
        models = [build_tiny_cnn(seed=7) for _ in range(4)]
        kfacs = [
            KFAC(m, rank=r, world_size=4, damping=0.01, grad_worker_frac=0.5)
            for r, m in enumerate(models)
        ]
        controller = PhaseController(kfacs, world)
        opts = [SGD(m.parameters(), lr=0.1) for m in models]
        losses = [CrossEntropyLoss() for _ in range(4)]
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=16).astype(np.int64)
        for step in range(3):
            for r in range(4):
                opts[r].zero_grad()
                out = models[r](x[r * 4 : (r + 1) * 4])
                losses[r](out, y[r * 4 : (r + 1) * 4])
                models[r].backward(losses[r].backward())
            params = [list(m.parameters()) for m in models]
            for j in range(len(params[0])):
                reduced = world.allreduce([params[r][j].grad for r in range(4)])
                for r in range(4):
                    params[r][j].grad[...] = reduced[r]
            controller.step()
            for opt in opts:
                opt.step()
            s0 = models[0].state_dict()
            for r in (1, 2, 3):
                sr = models[r].state_dict()
                for key in s0:
                    if key.startswith("buffer:"):
                        continue  # BN running stats are legitimately local
                    np.testing.assert_array_equal(
                        sr[key], s0[key],
                        err_msg=f"replica {r} diverged at step {step}: {key}",
                    )

    def test_greedy_assignment_numerically_identical(self):
        rr = run_hybrid(4, grad_worker_frac=0.5, assignment="round_robin")
        greedy = run_hybrid(4, grad_worker_frac=0.5, assignment="greedy")
        for key in rr:
            np.testing.assert_allclose(greedy[key], rr[key], rtol=1e-5, atol=1e-7)


class TestCommunicationProfile:
    def test_phase_set_interpolates(self):
        """f=1: eig_comm, no precond_comm; f=1/P: precond_comm, no eig_comm."""
        _, w_one = run_hybrid(4, grad_worker_frac=1.0, return_world=True)
        assert "eig_comm" in w_one.stats.bytes_by_phase
        assert "precond_comm" not in w_one.stats.bytes_by_phase
        _, w_lw = run_hybrid(4, grad_worker_frac=0.25, return_world=True)
        assert "eig_comm" not in w_lw.stats.bytes_by_phase
        assert "precond_comm" in w_lw.stats.bytes_by_phase
        _, w_mid = run_hybrid(4, grad_worker_frac=0.5, return_world=True)
        assert "eig_comm" in w_mid.stats.bytes_by_phase
        assert "precond_comm" in w_mid.stats.bytes_by_phase

    def test_second_stage_bytes_grow_as_f_shrinks(self):
        """Broadcast volume rises monotonically toward the LAYER_WISE end."""
        seen = []
        for f in (1.0, 0.75, 0.5, 0.25):
            _, world = run_hybrid(4, grad_worker_frac=f, return_world=True)
            seen.append(world.stats.bytes_by_phase.get("precond_comm", 0.0))
        assert seen[0] == 0.0
        assert all(a <= b for a, b in zip(seen, seen[1:])), seen
        assert seen[-1] > 0.0

    def test_eig_share_bytes_shrink_as_f_shrinks(self):
        seen = []
        for f in (1.0, 0.5, 0.25):
            _, world = run_hybrid(4, grad_worker_frac=f, return_world=True)
            seen.append(world.stats.bytes_by_phase.get("eig_comm", 0.0))
        assert all(a >= b for a, b in zip(seen, seen[1:])), seen

    def test_factor_comm_unchanged_by_fraction(self):
        """The factor allreduce is placement-independent (stage 0)."""
        refs = []
        for f in (1.0, 0.5, 0.25):
            _, world = run_hybrid(4, grad_worker_frac=f, return_world=True)
            refs.append(world.stats.bytes_by_phase["factor_comm"])
        assert refs[0] == refs[1] == refs[2]


class TestDrivers:
    @pytest.mark.parametrize("world_size,frac", [(4, 0.5), (3, 2 / 3)])
    def test_spmd_matches_phase(self, world_size, frac):
        phase = run_hybrid(world_size, grad_worker_frac=frac, driver="phase")
        spmd = run_hybrid(world_size, grad_worker_frac=frac, driver="spmd")
        for key in phase:
            assert np.array_equal(spmd[key], phase[key]), key

    @pytest.mark.parametrize("world_size,frac", [(4, 0.5), (4, 1.0), (2, 0.5)])
    def test_pipelined_matches_sync(self, world_size, frac):
        sync = run_hybrid(world_size, grad_worker_frac=frac)
        pipe = run_hybrid(
            world_size, grad_worker_frac=frac, scheduler="graph", bucket_bytes=4096
        )
        for key in sync:
            np.testing.assert_allclose(
                pipe[key], sync[key], atol=1e-6, rtol=1e-6, err_msg=key
            )

    def test_pipelined_spmd_matches_pipelined_phase(self):
        phase = run_hybrid(4, grad_worker_frac=0.5, scheduler="graph", bucket_bytes=4096)
        spmd = run_hybrid(
            4, grad_worker_frac=0.5, scheduler="graph", bucket_bytes=4096, driver="spmd"
        )
        for key in phase:
            np.testing.assert_allclose(
                spmd[key], phase[key], atol=1e-6, rtol=1e-6, err_msg=key
            )

    def test_single_worker_step_is_local(self):
        model = build_tiny_cnn(seed=3)
        kfac = KFAC(model, rank=0, world_size=1, grad_worker_frac=1.0, damping=0.01)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=4).astype(np.int64)
        loss_fn = CrossEntropyLoss()
        model.zero_grad()
        loss_fn(model(x), y)
        model.backward(loss_fn.backward())
        kfac.step()  # must not yield any comm request
        assert kfac.steps == 1
