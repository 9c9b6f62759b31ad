"""K-FAC assignment, clipping, schedule, and layer handlers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import (
    FactorMeta,
    build_group_placement,
    eig_cost,
    greedy_balanced_assignment,
    round_robin_assignment,
    worker_costs,
)
from repro.core.clipping import kl_clip_factor
from repro.core.factors import linear_factor_A, linear_factor_G
from repro.core.layers import Conv2dKFACLayer, LinearKFACLayer, make_kfac_layer
from repro.core.preconditioner import KFAC
from repro.core.schedule import KFACParamScheduler
from repro.nn.layers import BatchNorm2d, Conv2d, Linear, ReLU
from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
from repro.perfmodel.iteration import IterationModel
from repro.perfmodel.specs import transformer_spec


def metas(dims):
    return [FactorMeta(f"l{i}", "A", d) for i, d in enumerate(dims)]


class TestAssignment:
    def test_round_robin_layout(self):
        ms = metas([4, 8, 16, 32, 64])
        assignment = round_robin_assignment(ms, 2)
        assert [assignment[m.key] for m in ms] == [0, 1, 0, 1, 0]

    def test_round_robin_doubles_utilization(self):
        """2L factors spread over up to 2L workers — twice the layer-wise
        scheme's utilization (§IV-C): with P = 2L every worker is busy."""
        ms = [FactorMeta("l0", "A", 4), FactorMeta("l1", "A", 4),
              FactorMeta("l0", "G", 2), FactorMeta("l1", "G", 2)]
        assignment = round_robin_assignment(ms, 4)
        assert sorted(assignment.values()) == [0, 1, 2, 3]
        # layer-wise placement (f = 1/P) would only ever use L workers
        lw = build_group_placement(ms, 4, 1 / 4)
        assert len(set(lw.assignment.values())) == 2

    def test_greedy_never_worse_than_round_robin(self):
        ms = metas([512, 8, 8, 8, 256, 8, 8, 8])
        for p in (2, 3, 4):
            rr = max(worker_costs(ms, round_robin_assignment(ms, p), p))
            gr = max(worker_costs(ms, greedy_balanced_assignment(ms, p), p))
            assert gr <= rr + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 128), min_size=1, max_size=20),
        p=st.integers(1, 8),
    )
    def test_greedy_property(self, dims, p):
        ms = metas(dims)
        rr = max(worker_costs(ms, round_robin_assignment(ms, p), p))
        gr = max(worker_costs(ms, greedy_balanced_assignment(ms, p), p))
        # LPT is NOT universally <= round-robin (hypothesis found
        # counterexamples, e.g. dims=[15,14,30,14,1,29] at p=2); its
        # guarantee is the Graham bound: makespan <= (4/3 - 1/(3p)) * OPT,
        # and round-robin is a feasible schedule, so OPT <= rr.
        assert gr <= (4.0 / 3.0 - 1.0 / (3.0 * p)) * rr + 1e-9
        # every factor assigned to a valid worker
        assignment = greedy_balanced_assignment(ms, p)
        assert set(assignment) == {m.key for m in ms}
        assert all(0 <= w < p for w in assignment.values())

    def test_layer_wise(self):
        """f = 1/P places layer ``i`` (both factors) on worker ``i % P``."""
        ms = [FactorMeta(name, kind, 4) for kind in "AG" for name in "abc"]
        assignment = build_group_placement(ms, 2, 1 / 2).assignment
        owners = {"a": 0, "b": 1, "c": 0}
        assert assignment == {m.key: owners[m.layer] for m in ms}

    def test_eig_cost_cubic(self):
        assert eig_cost(FactorMeta("x", "A", 10)) == 1000.0

    def test_diagonal_factor_is_linear_in_size_and_cost(self):
        meta = FactorMeta("e", "A", 1024, diagonal=True)
        assert meta.n_elements == 1024
        assert eig_cost(meta) == 1024.0

    def test_greedy_no_longer_parks_the_embedding_alone(self):
        """Priced as a dense 4096-cube, the embedding A took one of four
        workers to itself; priced as the vector it is, it shares one and
        the dense factors spread over all four."""
        ms = IterationModel(transformer_spec(), V100_LIKE, FRONTERA_LIKE)._factor_metas
        assert ms[0] == FactorMeta("tok_embed", "A", 4096, diagonal=True)
        as_dense = [FactorMeta(m.layer, m.kind, m.dim) for m in ms]
        spread = {}
        for label, group in (("dense", as_dense), ("diagonal", ms)):
            assignment = greedy_balanced_assignment(group, 4)
            alone = [k for k, w in assignment.items() if w == assignment["tok_embed/A"]]
            costs = worker_costs(group, assignment, 4)
            spread[label] = (max(costs) - min(costs)) / max(costs)
            assert (alone == ["tok_embed/A"]) == (label == "dense")
        assert spread["diagonal"] < 0.05 < 0.9 < spread["dense"]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            round_robin_assignment(metas([2]), 0)


class TestKlClip:
    def test_no_clip_when_small(self, rng):
        g = [rng.normal(size=(2, 2)) * 1e-6]
        assert kl_clip_factor(g, g, lr=0.1, kl_clip=1e-3) == 1.0

    def test_clips_large_updates(self, rng):
        g = [np.full((4, 4), 10.0)]
        nu = kl_clip_factor(g, g, lr=1.0, kl_clip=1e-3)
        assert 0 < nu < 1
        # matches the closed form
        vg = float((g[0] * g[0]).sum())
        assert nu == pytest.approx(np.sqrt(1e-3 / vg))

    def test_scaling_invariance_of_threshold(self, rng):
        """Doubling lr quarters the allowed update norm."""
        g = [np.full((2, 2), 5.0)]
        nu1 = kl_clip_factor(g, g, lr=1.0)
        nu2 = kl_clip_factor(g, g, lr=2.0)
        assert nu2 == pytest.approx(nu1 / 2)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            kl_clip_factor([np.ones(2)], [], lr=0.1)
        with pytest.raises(ValueError):
            kl_clip_factor([np.ones(2)], [np.ones(2)], lr=0.1, kl_clip=0.0)
        with pytest.raises(ValueError):
            kl_clip_factor([np.ones(2)], [np.ones(3)], lr=0.1)


class TestScheduler:
    def _kfac(self):
        lin = Linear(4, 3, rng=np.random.default_rng(0))
        return KFAC(lin, damping=0.01, kfac_update_freq=100, fac_update_freq=10)

    def test_damping_decay(self):
        k = self._kfac()
        sched = KFACParamScheduler(k, damping_alpha=0.5, damping_schedule=[5, 10])
        sched.step(0)
        assert k.damping == pytest.approx(0.01)
        sched.step(5)
        assert k.damping == pytest.approx(0.005)
        sched.step(12)
        assert k.damping == pytest.approx(0.0025)

    def test_update_freq_growth(self):
        k = self._kfac()
        sched = KFACParamScheduler(k, update_freq_alpha=2.0, update_freq_schedule=[3])
        sched.step(4)
        assert k.kfac_update_freq == 200
        assert k.fac_update_freq == 20

    def test_step_is_idempotent_per_epoch(self):
        k = self._kfac()
        sched = KFACParamScheduler(k, damping_alpha=0.5, damping_schedule=[1])
        sched.step(2)
        sched.step(2)
        assert k.damping == pytest.approx(0.005)

    def test_validation(self):
        k = self._kfac()
        with pytest.raises(ValueError):
            KFACParamScheduler(k, damping_alpha=0.0)
        with pytest.raises(ValueError):
            KFACParamScheduler(k, damping_schedule=[5, 1])


class TestLayerHandlers:
    def test_factory_dispatch(self, rng):
        assert isinstance(make_kfac_layer("l", Linear(2, 2, rng=rng)), LinearKFACLayer)
        assert isinstance(make_kfac_layer("c", Conv2d(1, 2, 3, rng=rng)), Conv2dKFACLayer)
        assert make_kfac_layer("r", ReLU()) is None
        assert make_kfac_layer("b", BatchNorm2d(2)) is None

    def test_dims(self, rng):
        lin = make_kfac_layer("l", Linear(5, 3, bias=True, rng=rng))
        assert (lin.a_dim, lin.g_dim) == (6, 3)
        conv = make_kfac_layer("c", Conv2d(2, 4, 3, bias=False, rng=rng))
        assert (conv.a_dim, conv.g_dim) == (18, 4)

    def test_grad_matrix_roundtrip_linear(self, rng):
        lin = Linear(4, 3, bias=True, rng=rng)
        h = make_kfac_layer("l", lin)
        lin.weight.grad[...] = rng.normal(size=(3, 4))
        lin.bias.grad[...] = rng.normal(size=3)
        mat = h.get_grad_matrix()
        assert mat.shape == (3, 5)
        np.testing.assert_array_equal(mat[:, :-1], lin.weight.grad)
        np.testing.assert_array_equal(mat[:, -1], lin.bias.grad)
        h.set_grad_matrix(2 * mat)
        np.testing.assert_allclose(lin.bias.grad, 2 * mat[:, -1])

    def test_grad_matrix_roundtrip_conv(self, rng):
        conv = Conv2d(2, 3, 3, bias=False, rng=rng)
        h = make_kfac_layer("c", conv)
        conv.weight.grad[...] = rng.normal(size=conv.weight.shape)
        mat = h.get_grad_matrix()
        assert mat.shape == (3, 18)
        h.set_grad_matrix(mat * 0.5)
        np.testing.assert_allclose(
            conv.weight.grad, (mat * 0.5).reshape(conv.weight.shape)
        )

    def test_update_factors_requires_captures(self, rng):
        h = make_kfac_layer("l", Linear(2, 2, rng=rng))
        with pytest.raises(RuntimeError):
            h.update_factors(np.zeros((3, 3), h.dtype), np.zeros((2, 2), h.dtype))

    def test_update_factors_releases_captures(self, rng):
        """The readings' upper triangles land in the given slots (the
        caller mirrors and folds them), and the captures are released."""
        h = make_kfac_layer("l", Linear(2, 2, rng=rng))
        a = rng.normal(size=(4, 2)).astype(h.dtype)
        g = rng.normal(size=(4, 2)).astype(h.dtype)
        h.save_input(a)
        h.save_grad_output(g)
        out_A, out_G = np.zeros((3, 3), h.dtype), np.zeros((2, 2), h.dtype)
        h.update_factors(out_A, out_G)
        assert h.a_input is None and h.g_output is None
        assert h.A is None and h.G is None  # the caller folds the readings
        np.testing.assert_array_equal(np.triu(out_A), np.triu(linear_factor_A(a, True)))
        np.testing.assert_array_equal(np.triu(out_G), np.triu(linear_factor_G(g)))

    def test_set_grad_matrix_validates_shape(self, rng):
        h = make_kfac_layer("l", Linear(2, 2, bias=False, rng=rng))
        with pytest.raises(ValueError):
            h.set_grad_matrix(np.zeros((3, 3)))
