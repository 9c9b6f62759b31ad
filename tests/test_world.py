"""World backend: phase-style collectives, accounting, SPMD matching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import DeadlockError, World


class TestPhaseStyle:
    def test_allreduce_average(self, rng):
        w = World(4)
        bufs = [np.full(3, float(r)) for r in range(4)]
        out = w.allreduce(bufs, op="average")
        np.testing.assert_allclose(out[0], np.full(3, 1.5))

    def test_allreduce_sum(self, rng):
        w = World(3)
        out = w.allreduce([np.ones(2)] * 3, op="sum")
        np.testing.assert_allclose(out[1], np.full(2, 3.0))

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            World(2).allreduce([np.ones(1)] * 2, op="max")

    def test_wrong_buffer_count_raises(self):
        with pytest.raises(ValueError):
            World(3).allreduce([np.ones(1)] * 2)

    def test_time_and_bytes_accounted(self):
        w = World(4)
        w.allreduce([np.ones(1000, dtype=np.float32)] * 4, phase="grad")
        assert w.timers.total("grad") > 0
        assert w.stats.bytes_by_phase["grad"] == 4000
        assert w.stats.ops_by_phase["grad"] == 1

    def test_single_rank_no_time(self):
        w = World(1)
        w.allreduce([np.ones(10)])
        assert w.timers.grand_total() == 0.0

    def test_broadcast_from_nonzero_root(self, rng):
        w = World(3)
        value = rng.normal(size=4)
        out = w.broadcast(value, root=2)
        for copy in out:
            np.testing.assert_array_equal(copy, value)


class TestSPMD:
    def test_allreduce_across_threads(self):
        w = World(4)

        def program(view):
            local = np.full(5, float(view.rank))
            return view.allreduce(local, name="x")

        results = w.run_spmd(program, timeout=10)
        for res in results:
            np.testing.assert_allclose(res, np.full(5, 1.5))

    def test_allgather_and_barrier(self):
        w = World(3)

        def program(view):
            view.barrier("start")
            got = view.allgather(np.full(view.rank + 1, view.rank), name="g")
            return [g.shape[0] for g in got]

        results = w.run_spmd(program, timeout=10)
        assert results[0] == [1, 2, 3]

    def test_name_reuse_across_iterations(self):
        w = World(2)

        def program(view):
            total = 0.0
            for _ in range(5):
                total += float(view.allreduce(np.ones(1), name="loop", op="sum")[0])
            return total

        results = w.run_spmd(program, timeout=10)
        assert results == [10.0, 10.0]

    def test_mismatched_meta_raises(self):
        w = World(2)

        def program(view):
            op = "sum" if view.rank == 0 else "average"
            return view.allreduce(np.ones(1), name="x", op=op)

        with pytest.raises(DeadlockError):
            w.run_spmd(program, timeout=5)

    def test_missing_rank_times_out(self):
        w = World(2)

        def program(view):
            if view.rank == 0:
                return view.allreduce(np.ones(1), name="only-rank0")
            return None

        with pytest.raises(DeadlockError):
            w.run_spmd(program, timeout=0.5)

    def test_exception_propagates_and_unblocks(self):
        w = World(2)

        def program(view):
            if view.rank == 1:
                raise RuntimeError("boom")
            return view.allreduce(np.ones(1), name="x")

        with pytest.raises((RuntimeError, DeadlockError)):
            w.run_spmd(program, timeout=5)

    def test_broadcast_spmd(self):
        w = World(3)

        def program(view):
            value = np.full(2, 7.0) if view.rank == 1 else np.zeros(2)
            return view.broadcast(value, name="b", root=1)

        results = w.run_spmd(program, timeout=10)
        for res in results:
            np.testing.assert_array_equal(res, np.full(2, 7.0))


class TestMatchingState:
    def test_failure_reraises_the_original_and_clears_state(self):
        w = World(2)

        def bad(view):
            if view.rank == 1:
                raise RuntimeError("boom")
            return view.allreduce(np.ones(1), name="x")

        with pytest.raises(RuntimeError, match="boom") as info:
            w.run_spmd(bad, timeout=5)
        assert type(info.value) is RuntimeError  # not rank 0's DeadlockError

        def good(view):
            return float(view.allreduce(np.array([float(view.rank)]), name="x")[0])

        assert w.run_spmd(good, timeout=5) == [0.5, 0.5]

    def test_program_end_clears_matching_state(self):
        w = World(2)
        w.run_spmd(lambda view: view.allreduce(np.ones(1), name="x"), timeout=5)
        assert w._generation == {} and w._pending == {} and w._op_meta == {}

    def test_gradient_exchange_does_not_grow_matching_state(self):
        """Op names repeat every step, so the per-name generation counters
        stay at one entry per (op, rank), and the averaged gradients are
        exactly the lockstep world's."""
        from repro.comm.horovod import DistributedOptimizer, HorovodContext
        from repro.nn.layers import Linear
        from repro.optim.sgd import SGD

        def local_grads(rank: int, step: int) -> list[np.ndarray]:
            g = np.random.default_rng(1000 * step + rank)
            return [g.normal(size=(1, 2)).astype(np.float32), g.normal(size=1).astype(np.float32)]

        w = World(2)

        def program(view):
            hvd = HorovodContext(view)
            model = Linear(2, 1, rng=np.random.default_rng(0))
            opt = DistributedOptimizer(SGD(model.parameters(), lr=0.1), hvd, model.named_parameters())
            params = [model.weight, model.bias]
            counts, grads = {}, []
            for step in range(100):
                for p, g in zip(params, local_grads(view.rank, step)):
                    p.grad[...] = g
                opt.synchronize()
                grads.append([p.grad.copy() for p in params])
                if step + 1 in (10, 100):
                    view.barrier("probe")
                    counts[step + 1] = len(view.world._generation)
            return counts, grads

        (counts, grads), (counts1, grads1) = w.run_spmd(program, timeout=30)
        assert counts[10] == counts[100] == counts1[10] == counts1[100]
        lockstep = World(2)
        for step in range(100):
            per_rank = [local_grads(r, step) for r in range(2)]
            for i in range(2):
                dtype = grads[step][i].dtype  # the model's
                (expected, _) = lockstep.allreduce([g[i].astype(dtype) for g in per_rank])
                assert grads[step][i].tobytes() == expected.tobytes()
                assert grads1[step][i].tobytes() == expected.tobytes()
