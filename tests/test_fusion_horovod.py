"""Fusion buffer and Horovod-like frontend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import World
from repro.comm.fusion import FusionBuffer
from repro.comm.horovod import DistributedOptimizer, HorovodContext
from repro.nn.layers import Linear
from repro.optim.sgd import SGD
from tests.conftest import build_tiny_cnn


class TestFusionBuffer:
    def test_pop_returns_average(self, rng):
        w = World(2)
        fb = FusionBuffer(w, capacity_bytes=1 << 30)
        tensors = [rng.normal(size=(3, 2)) for _ in range(2)]
        fb.add("t", tensors)
        out = fb.pop("t")
        np.testing.assert_allclose(out[0], (tensors[0] + tensors[1]) / 2, rtol=1e-12)

    def test_flush_on_capacity(self):
        w = World(2)
        fb = FusionBuffer(w, capacity_bytes=100)
        fb.add("a", [np.ones(20), np.ones(20)])  # 160 bytes -> flush
        assert fb.flush_count == 1
        assert fb.pending_bytes == 0

    def test_fusion_reduces_op_count(self, rng):
        """10 tensors fused into one collective launch."""
        w = World(2)
        fb = FusionBuffer(w, capacity_bytes=1 << 30, phase="fused")
        for i in range(10):
            fb.add(f"t{i}", [rng.normal(size=16) for _ in range(2)])
        fb.flush()
        assert w.stats.ops_by_phase["fused"] == 1

    def test_results_preserve_shape(self, rng):
        w = World(2)
        fb = FusionBuffer(w, capacity_bytes=1 << 30)
        fb.add("m", [rng.normal(size=(2, 3, 4)) for _ in range(2)])
        assert fb.pop("m")[0].shape == (2, 3, 4)

    def test_duplicate_name_raises(self, rng):
        w = World(2)
        fb = FusionBuffer(w, capacity_bytes=1 << 30)
        fb.add("x", [np.ones(1), np.ones(1)])
        with pytest.raises(ValueError):
            fb.add("x", [np.ones(1), np.ones(1)])

    def test_invalid_capacity_raises(self):
        with pytest.raises(ValueError):
            FusionBuffer(World(1), capacity_bytes=0)

    def test_unknown_pop_raises(self):
        fb = FusionBuffer(World(2), capacity_bytes=100)
        with pytest.raises(KeyError):
            fb.pop("never-added")

    def test_fused_equals_unfused_values(self, rng):
        w1, w2 = World(3), World(3)
        tensors = {f"t{i}": [rng.normal(size=7) for _ in range(3)] for i in range(4)}
        fb = FusionBuffer(w1, capacity_bytes=1 << 30)
        for name, group in tensors.items():
            fb.add(name, group)
        fb.flush()
        for name, group in tensors.items():
            fused = fb.pop(name)
            direct = w2.allreduce(group, op="average")
            for a, b in zip(fused, direct):
                np.testing.assert_allclose(a, b, rtol=1e-12)


class TestHorovodFrontend:
    def test_listing1_flow(self):
        """The paper's Listing 1: synchronize -> precondition -> skip+step."""
        w = World(2)

        def program(view):
            hvd = HorovodContext(view)
            rng = np.random.default_rng(0)  # same init on both ranks
            model = build_tiny_cnn(seed=0)
            hvd.broadcast_parameters(model)
            opt = SGD(model.parameters(), lr=0.1)
            dopt = DistributedOptimizer(opt, hvd, model.named_parameters())
            x = np.random.default_rng(view.rank).normal(size=(4, 1, 8, 8)).astype(np.float32)
            out = model(x)
            model.backward(np.ones_like(out) / out.size)
            dopt.synchronize()
            with dopt.skip_synchronize():
                dopt.step()
            del rng
            return model.state_dict()

        states = w.run_spmd(program, timeout=30)
        for key in states[0]:
            np.testing.assert_allclose(states[0][key], states[1][key], rtol=1e-5, atol=1e-7)

    def test_step_synchronizes_implicitly(self):
        w = World(2)

        def program(view):
            hvd = HorovodContext(view)
            lin = Linear(2, 2, rng=np.random.default_rng(3))
            opt = DistributedOptimizer(SGD(lin.parameters(), lr=1.0), hvd, lin.named_parameters())
            lin.weight.grad[...] = float(view.rank)  # avg -> 0.5
            before = lin.weight.data.copy()
            opt.step()
            return before - lin.weight.data

        deltas = w.run_spmd(program, timeout=10)
        np.testing.assert_allclose(deltas[0], np.full((2, 2), 0.5), rtol=1e-6)

    def test_broadcast_parameters_syncs_buffers(self):
        w = World(2)

        def program(view):
            hvd = HorovodContext(view)
            model = build_tiny_cnn(seed=view.rank)  # different init per rank
            hvd.broadcast_parameters(model, root=0)
            return model.state_dict()

        states = w.run_spmd(program, timeout=30)
        for key in states[0]:
            np.testing.assert_array_equal(states[0][key], states[1][key])
