"""Distributed K-FAC equivalence — the central correctness claims.

Algorithm 1's distribution must be *semantics-preserving*:

1. P workers on sharded data == 1 worker on the full batch;
2. K-FAC-lw and K-FAC-opt produce identical updates (they differ only in
   placement and communication);
3. the greedy (LPT) assignment extension changes nothing numerically;
4. the threaded SPMD driver equals the deterministic phase driver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import World
from repro.comm.handles import Launch
from repro.comm.horovod import HorovodContext
from repro.core.comm_ops import WaitRequest
from repro.core.distributed import PhaseController, SPMDDriver
from repro.core.preconditioner import COMM_OPT, LAYER_WISE, KFAC
from repro.nn.loss import CrossEntropyLoss
from repro.optim.sgd import SGD
from tests.conftest import build_tiny_cnn


def run_distributed(
    world_size: int,
    steps: int = 4,
    strategy: str = COMM_OPT,
    assignment: str = "round_robin",
    use_eigen: bool = True,
    seed: int = 42,
    driver: str = "phase",
) -> dict[str, np.ndarray]:
    """Train a tiny CNN data-parallel with K-FAC; return final weights."""
    rng = np.random.default_rng(99)
    n_total = 16
    x = rng.normal(size=(n_total, 1, 8, 8)).astype(np.float32)
    y = rng.integers(0, 3, size=n_total).astype(np.int64)
    shard = n_total // world_size

    kfac_kw = dict(
        damping=0.01,
        kfac_update_freq=2,
        fac_update_freq=1,
        strategy=strategy,
        assignment=assignment,
        use_eigen_decomp=use_eigen,
        lr=0.1,
    )

    if driver == "spmd":
        world = World(world_size)

        def program(view):
            model = build_tiny_cnn(seed=seed)
            kfac = KFAC(model, rank=view.rank, world_size=world_size, **kfac_kw)
            drv = SPMDDriver(kfac, HorovodContext(view))
            opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
            loss_fn = CrossEntropyLoss()
            xs = x[view.rank * shard : (view.rank + 1) * shard]
            ys = y[view.rank * shard : (view.rank + 1) * shard]
            for _ in range(steps):
                opt.zero_grad()
                out = model(xs)
                loss_fn(out, ys)
                model.backward(loss_fn.backward())
                for name, p in model.named_parameters():
                    p.grad[...] = view.allreduce(p.grad, name=f"g:{name}", op="average")
                drv.step()
                opt.step()
            return model.state_dict()

        states = world.run_spmd(program, timeout=60)
        return states[0]

    world = World(world_size)
    models = [build_tiny_cnn(seed=seed) for _ in range(world_size)]
    kfacs = [
        KFAC(m, rank=r, world_size=world_size, **kfac_kw)
        for r, m in enumerate(models)
    ]
    controller = PhaseController(kfacs, world)
    opts = [SGD(m.parameters(), lr=0.1, momentum=0.9) for m in models]
    losses = [CrossEntropyLoss() for _ in range(world_size)]
    for _ in range(steps):
        for r in range(world_size):
            opts[r].zero_grad()
            xs = x[r * shard : (r + 1) * shard]
            ys = y[r * shard : (r + 1) * shard]
            out = models[r](xs)
            losses[r](out, ys)
            models[r].backward(losses[r].backward())
        params = [list(m.parameters()) for m in models]
        for j in range(len(params[0])):
            reduced = world.allreduce([params[r][j].grad for r in range(world_size)])
            for r in range(world_size):
                params[r][j].grad[...] = reduced[r]
        controller.step()
        for opt in opts:
            opt.step()
    return models[0].state_dict()


class TestDistributedEquivalence:
    @pytest.mark.parametrize("world_size", [2, 4])
    def test_matches_single_worker(self, world_size):
        ref = run_distributed(1)
        dist = run_distributed(world_size)
        for key in ref:
            np.testing.assert_allclose(
                dist[key], ref[key], rtol=2e-4, atol=2e-5,
                err_msg=f"divergence in {key} at P={world_size}",
            )

    def test_layer_wise_equals_comm_opt(self):
        opt_state = run_distributed(2, strategy=COMM_OPT)
        lw_state = run_distributed(2, strategy=LAYER_WISE)
        for key in opt_state:
            np.testing.assert_allclose(lw_state[key], opt_state[key], rtol=1e-5, atol=1e-7)

    def test_greedy_assignment_is_numerically_identical(self):
        rr = run_distributed(3, assignment="round_robin")
        greedy = run_distributed(3, assignment="greedy")
        for key in rr:
            np.testing.assert_allclose(greedy[key], rr[key], rtol=1e-5, atol=1e-7)

    def test_inverse_mode_distributed_equivalence(self):
        ref = run_distributed(1, use_eigen=False)
        dist = run_distributed(2, use_eigen=False)
        for key in ref:
            np.testing.assert_allclose(dist[key], ref[key], rtol=2e-4, atol=2e-5)

    def test_spmd_driver_matches_phase_driver(self):
        phase = run_distributed(2, driver="phase")
        spmd = run_distributed(2, driver="spmd")
        for key in phase:
            np.testing.assert_allclose(spmd[key], phase[key], rtol=1e-5, atol=1e-7)

    def test_all_replicas_stay_identical(self):
        """After every step, replica weights must agree bit-for-bit-ish."""
        world = World(3)
        models = [build_tiny_cnn(seed=7) for _ in range(3)]
        kfacs = [KFAC(m, rank=r, world_size=3, damping=0.01) for r, m in enumerate(models)]
        controller = PhaseController(kfacs, world)
        opts = [SGD(m.parameters(), lr=0.1) for m in models]
        losses = [CrossEntropyLoss() for _ in range(3)]
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=12).astype(np.int64)
        for step in range(3):
            for r in range(3):
                opts[r].zero_grad()
                out = models[r](x[r * 4 : (r + 1) * 4])
                losses[r](out, y[r * 4 : (r + 1) * 4])
                models[r].backward(losses[r].backward())
            params = [list(m.parameters()) for m in models]
            for j in range(len(params[0])):
                reduced = world.allreduce([params[r][j].grad for r in range(3)])
                for r in range(3):
                    params[r][j].grad[...] = reduced[r]
            controller.step()
            for opt in opts:
                opt.step()
            s0 = models[0].state_dict()
            for r in (1, 2):
                sr = models[r].state_dict()
                for key in s0:
                    if key.startswith("buffer:"):
                        continue  # BN running stats are legitimately local
                    np.testing.assert_allclose(
                        sr[key], s0[key], rtol=1e-6, atol=1e-8,
                        err_msg=f"replica {r} diverged at step {step}: {key}",
                    )

    def test_comm_happens_only_on_update_steps(self):
        """K-FAC-opt: no factor/eig communication on non-update iterations
        (the paper's central communication-avoidance claim, §IV-C)."""
        world = World(2)
        models = [build_tiny_cnn(seed=7) for _ in range(2)]
        kfacs = [
            KFAC(m, rank=r, world_size=2, damping=0.01,
                 fac_update_freq=2, kfac_update_freq=4)
            for r, m in enumerate(models)
        ]
        controller = PhaseController(kfacs, world)
        losses = [CrossEntropyLoss() for _ in range(2)]
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=8).astype(np.int64)
        op_counts = []
        for _ in range(4):
            for r in range(2):
                models[r].zero_grad()
                out = models[r](x[r * 4 : (r + 1) * 4])
                losses[r](out, y[r * 4 : (r + 1) * 4])
                models[r].backward(losses[r].backward())
            before = world.stats.total_ops()
            controller.step()
            op_counts.append(world.stats.total_ops() - before)
        # step 0: factors + eigs; step 1: nothing; step 2: factors; step 3: nothing
        assert op_counts[0] == 2
        assert op_counts[1] == 0
        assert op_counts[2] == 1
        assert op_counts[3] == 0

    def test_layer_wise_communicates_every_step(self):
        """K-FAC-lw gathers preconditioned gradients every iteration."""
        world = World(2)
        models = [build_tiny_cnn(seed=7) for _ in range(2)]
        kfacs = [
            KFAC(m, rank=r, world_size=2, damping=0.01, strategy=LAYER_WISE,
                 fac_update_freq=2, kfac_update_freq=4)
            for r, m in enumerate(models)
        ]
        controller = PhaseController(kfacs, world)
        losses = [CrossEntropyLoss() for _ in range(2)]
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=8).astype(np.int64)
        for step in range(2):
            for r in range(2):
                models[r].zero_grad()
                out = models[r](x[r * 4 : (r + 1) * 4])
                losses[r](out, y[r * 4 : (r + 1) * 4])
                models[r].backward(losses[r].backward())
            before = world.stats.ops_by_phase.get("precond_comm", 0)
            controller.step()
            after = world.stats.ops_by_phase["precond_comm"]
            assert after == before + 1, f"no precond gather at step {step}"


class TestControllerValidation:
    def test_rank_mismatch_rejected(self):
        world = World(2)
        models = [build_tiny_cnn(seed=1) for _ in range(2)]
        kfacs = [KFAC(m, rank=0, world_size=2) for m in models]  # both rank 0
        with pytest.raises(ValueError):
            PhaseController(kfacs, world)

    def test_count_mismatch_rejected(self):
        world = World(3)
        models = [build_tiny_cnn(seed=1) for _ in range(2)]
        kfacs = [KFAC(m, rank=r, world_size=2) for r, m in enumerate(models)]
        with pytest.raises(ValueError):
            PhaseController(kfacs, world)


TAG = "guard:op"


def _bad_streams():
    """(case, world size, rank -> request stream, guard applies to one rank).

    Every stream breaks one protocol guard at the op tagged ``TAG``.
    """
    x = np.ones(3, dtype=np.float32)

    def launch(kind="allreduce", tensor=x, tag=TAG, **kw):
        return Launch(kind, tensor, tag, "test", **kw)

    return [
        ("mixed-request-types", 2,
         lambda r: [launch() if r == 0 else WaitRequest(TAG)], False),
        ("mixed-tags", 2,
         lambda r: [launch(tag=TAG if r == 0 else "other")], False),
        ("mixed-groups", 3,
         lambda r: [launch("allgather", ranks=(0, 1, 2) if r == 0 else (0, 2, 1))], False),
        ("mixed-roots", 2,
         lambda r: [launch("broadcast", x if r == 0 else None, ranks=(0, 1), root=r)], False),
        ("diverged-allreduce-shapes", 2,
         lambda r: [launch(tensor=np.ones(2 + r, dtype=np.float32))], False),
        ("broadcast-root-without-tensor", 2,
         lambda r: [launch("broadcast", None, ranks=(0, 1), root=0)], True),
        ("group-contribution-not-membership", 3,
         lambda r: [launch("allgather", None if r == 0 else x, ranks=(0, 1))], True),
        ("duplicate-launch-tag", 2, lambda r: [launch(), launch()], True),
        ("wait-on-unknown-tag", 2, lambda r: [WaitRequest(TAG)], True),
        ("unawaited-launch", 2, lambda r: [launch()], True),
    ]


class StubReplica:
    """A replica whose step generator yields a fixed request stream."""

    def __init__(self, rank, world_size, stream):
        self.rank = rank
        self.world_size = world_size
        self.stream = stream

    def step_generator(self):
        yield from self.stream(self.rank)


class TestProtocolGuards:
    """Each guard of the drivers' shared request loop, reached on purpose:
    the lockstep controller over every replica, and the SPMD driver
    wherever one rank's own stream breaks the guard.  Matching compares
    the launch records without their payloads (the diverged shapes would
    otherwise raise inside numpy)."""

    @pytest.mark.parametrize(
        "case, p, stream, one_rank", _bad_streams(), ids=[c[0] for c in _bad_streams()]
    )
    def test_bad_stream_raises_naming_the_tag(self, case, p, stream, one_rank):
        replicas = [StubReplica(r, p, stream) for r in range(p)]
        with pytest.raises(RuntimeError, match=repr(TAG)) as info:
            PhaseController(replicas, World(p)).step()
        assert type(info.value) is RuntimeError
        if not one_rank:
            return

        def program(view):
            replica = StubReplica(view.rank, p, stream)
            SPMDDriver(replica, HorovodContext(view)).step()

        with pytest.raises(RuntimeError, match=repr(TAG)) as info:
            World(p).run_spmd(program, timeout=5)
        assert type(info.value) is RuntimeError

    def test_unknown_request_type_rejected(self):
        replicas = [StubReplica(r, 2, lambda r: [object()]) for r in range(2)]
        with pytest.raises(TypeError, match="unknown request type"):
            PhaseController(replicas, World(2)).step()

    def test_broadcast_root_outside_group_names_the_group(self):
        x = np.ones(3, dtype=np.float32)
        stream = lambda r: [  # noqa: E731
            Launch("broadcast", x if r == 2 else None, TAG, "test", ranks=(0, 1), root=2)
        ]
        replicas = [StubReplica(r, 3, stream) for r in range(3)]
        with pytest.raises(ValueError, match=r"root 2 not in group \(0, 1\)"):
            PhaseController(replicas, World(3)).step()
