"""Performance model: cost formulas, monotonicities, paper-shape criteria."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perfmodel.costs import (
    eig_flops,
    factor_flops,
    layer_factor_flops,
    layer_forward_flops,
    layer_precondition_flops,
    model_backward_flops,
    model_forward_flops,
)
from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
from repro.perfmodel.iteration import IterationModel, KfacIntervals
from repro.perfmodel.scaling import (
    IMAGENET_TRAIN_SIZE,
    PAPER_GPU_SCALES,
    ScalingStudy,
    improvement_table,
    scale_interval_schedule,
    worker_speedup_table,
)
from repro.perfmodel.specs import KfacLayerSpec, resnet_spec


def model(depth=50, batch=32):
    return IterationModel(resnet_spec(depth), V100_LIKE, FRONTERA_LIKE, batch)


class TestCosts:
    def test_layer_forward_flops(self):
        l = KfacLayerSpec("x", "conv", a_dim=9, g_dim=4, spatial_positions=16, weight_params=36)
        assert layer_forward_flops(l, 2) == 2 * 2 * 16 * 9 * 4

    def test_backward_is_twice_forward(self):
        spec = resnet_spec(50)
        assert model_backward_flops(spec, 8) == 2 * model_forward_flops(spec, 8)

    def test_resnet50_forward_flops_magnitude(self):
        """~4.1 GMACs per image (the standard ResNet-50 number)."""
        macs = model_forward_flops(resnet_spec(50), 1) / 2
        assert 3.5e9 < macs < 4.5e9

    def test_factor_flops_scale_with_batch(self):
        spec = resnet_spec(50)
        assert factor_flops(spec, 64) == pytest.approx(2 * factor_flops(spec, 32))

    def test_layer_factor_flops_formula(self):
        l = KfacLayerSpec("x", "conv", a_dim=3, g_dim=2, spatial_positions=4, weight_params=6)
        assert layer_factor_flops(l, 2) == 2 * 8 * (9 + 4)

    def test_eig_flops_cubic(self):
        assert eig_flops(10, coef=10.0) == 1e4

    def test_precondition_flops_formula(self):
        l = KfacLayerSpec("x", "linear", a_dim=3, g_dim=2, spatial_positions=1, weight_params=6)
        assert layer_precondition_flops(l) == 4 * (2 * 2 * 3 + 2 * 3 * 3)


class TestIterationModel:
    def test_sgd_iteration_time_positive_and_grows_with_p(self):
        im = model()
        t1 = im.sgd_iteration_time(1)
        t16 = im.sgd_iteration_time(16)
        t256 = im.sgd_iteration_time(256)
        assert 0 < t1 < t16 < t256

    def test_factor_compute_constant_in_p(self):
        """Paper Table V / Fig. 10: factor compute does not scale with P."""
        im = model()
        assert im.factor_compute_time() == im.factor_compute_time()

    def test_factor_compute_superlinear_in_model_size(self):
        t50 = model(50).factor_compute_time()
        t152 = model(152).factor_compute_time()
        param_ratio = resnet_spec(152).total_params / resnet_spec(50).total_params
        assert t152 / t50 > param_ratio

    def test_eig_stage_decreases_with_p(self):
        im = model()
        times = [im.eig_stage_time(p, "comm-opt") for p in (16, 32, 64)]
        assert times[0] >= times[1] >= times[2]

    def test_eig_stage_bounded_by_largest_factor(self):
        """At huge P the slowest worker still owns the biggest factor."""
        im = model()
        t_inf = im.eig_stage_time(4096, "comm-opt")
        biggest = max(m.dim for m in im._factor_metas)
        assert t_inf >= im._eig_seconds(biggest) - 1e-12

    def test_layer_wise_eig_slower_than_comm_opt_at_scale(self):
        """Once P reaches the layer count, per-factor assignment spreads a
        layer's two factors over different workers while layer-wise pins
        them together — so its barrier is strictly worse (§IV-C's doubled
        utilization).  (At small P round-robin gives no such guarantee.)"""
        im = model()
        n_layers = im.n_layers
        # at P == L round-robin degenerates to the layer-wise placement
        assert im.eig_stage_time(n_layers, "comm-opt") == pytest.approx(
            im.eig_stage_time(n_layers, "layer-wise")
        )
        # at P == 2L every factor gets its own worker: strictly better
        assert im.eig_stage_time(2 * n_layers, "comm-opt") < im.eig_stage_time(
            2 * n_layers, "layer-wise"
        )

    def test_greedy_assignment_reduces_imbalance(self):
        im = model()
        assert im.eig_stage_time(16, "comm-opt", "greedy") <= im.eig_stage_time(
            16, "comm-opt", "round_robin"
        )

    def test_kfac_opt_noncomm_iterations_cheaper_than_lw(self):
        """opt amortizes comm; lw pays an allgather every iteration."""
        im = model()
        intervals = KfacIntervals.from_eig_interval(500)
        assert im.kfac_iteration_time(64, "comm-opt", intervals) < im.kfac_iteration_time(
            64, "layer-wise", intervals
        )

    def test_epoch_time_decreases_with_p(self):
        im = model()
        intervals = KfacIntervals.from_eig_interval(500)
        e = [
            im.epoch_time(p, "kfac-opt", IMAGENET_TRAIN_SIZE, intervals)
            for p in (16, 64, 256)
        ]
        assert e[0] > e[1] > e[2]

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            KfacIntervals.from_eig_interval(0)
        im = model()
        with pytest.raises(ValueError):
            im.epoch_time(16, "kfac-opt", 1000)
        with pytest.raises(ValueError):
            im.epoch_time(16, "bogus", 1000, KfacIntervals.from_eig_interval(10))

    def test_stage_profile_fields(self):
        prof = model().stage_profile(16)
        assert prof.factor_tcomp > 0 and prof.eig_tcomp > prof.factor_tcomp


class TestPaperShape:
    """The qualitative reproduction criteria from docs/perfmodel.md."""

    def test_interval_schedule(self):
        assert [scale_interval_schedule(g) for g in PAPER_GPU_SCALES] == [
            2000, 1000, 500, 250, 125,
        ]

    def test_kfac_opt_beats_sgd_resnet50_everywhere(self):
        for pt in ScalingStudy(depth=50).run():
            assert pt.improvement_opt() > 0.15, f"R50@{pt.gpus}"

    def test_lw_between_sgd_and_opt_at_moderate_scale(self):
        for pt in ScalingStudy(depth=50, gpus=(16, 32, 64)).run():
            assert pt.kfac_opt_minutes < pt.kfac_lw_minutes < pt.sgd_minutes

    def test_improvement_decreases_with_depth(self):
        table = improvement_table()
        for i, gpus in enumerate(PAPER_GPU_SCALES):
            assert table[50][i] > table[101][i] > table[152][i], f"@{gpus}"

    def test_resnet152_negative_at_256(self):
        """The paper's crossover: K-FAC-opt loses to SGD (Fig. 9 / Table IV)."""
        table = improvement_table(depths=(152,))
        assert table[152][-1] < 0

    def test_sgd_efficiency_trend(self):
        study = ScalingStudy(depth=50)
        eff = study.scaling_efficiency()
        sgd = eff["sgd"]
        assert all(a >= b for a, b in zip(sgd, sgd[1:]))
        assert 0.6 < sgd[3] < 0.8  # ~68.6% at 128 in the paper
        assert sgd[4] < 0.6  # "below 50%" at 256 (we land close)

    def test_opt_scales_better_than_lw(self):
        eff = ScalingStudy(depth=50).scaling_efficiency()
        assert eff["kfac-opt"][3] > eff["kfac-lw"][3]

    def test_worker_speedup_imbalance(self):
        """Fast workers speed up near-linearly; slow workers saturate."""
        speedups = worker_speedup_table(50, gpus=(16, 32, 64))
        assert speedups[16] == (1.0, 1.0)
        mn64, mx64 = speedups[64]
        assert mx64 > 4.0  # fastest worker benefits hugely
        assert mn64 < 2.0  # slowest barely improves (the paper's point)

    def test_sgd_resnet50_64gpu_anchor(self):
        """Absolute anchor: ~178 min for 90 epochs (Table III), +/-15%."""
        im = model()
        minutes = 90 * im.epoch_time(64, "sgd", IMAGENET_TRAIN_SIZE) / 60
        assert 150 < minutes < 205

    def test_table5_factor_anchor(self):
        """Factor Tcomp ~36.8 ms for ResNet-50 (Table V), +/-30%."""
        assert 0.026 < model(50).factor_compute_time() < 0.048

    def test_table5_eig_anchor(self):
        """Slowest-worker eig ~2.26 s for ResNet-50 @ 16 GPUs, +/-30%."""
        assert 1.6 < model(50).eig_stage_time(16, "comm-opt") < 2.9
