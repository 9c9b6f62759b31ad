"""Performance model: cost formulas, monotonicities, paper-shape criteria."""

from __future__ import annotations

import dataclasses

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
from repro.perfmodel.iteration import IterationModel, KfacIntervals, StageProfile
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
        times = [im.eig_stage_time(p) for p in (16, 32, 64)]
        assert times[0] >= times[1] >= times[2]

    def test_eig_stage_bounded_by_largest_factor(self):
        """At huge P the slowest worker still owns the biggest factor."""
        im = model()
        t_inf = im.eig_stage_time(4096)
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
        assert im.eig_stage_time(n_layers) == pytest.approx(
            im.eig_stage_time(n_layers, 1 / n_layers)
        )
        # at P == 2L every factor gets its own worker: strictly better
        assert im.eig_stage_time(2 * n_layers) < im.eig_stage_time(
            2 * n_layers, 1 / (2 * n_layers)
        )

    def test_greedy_assignment_reduces_imbalance(self):
        im = model()
        assert im.eig_stage_time(16, policy="greedy") <= im.eig_stage_time(
            16, policy="round_robin"
        )

    def test_kfac_opt_noncomm_iterations_cheaper_than_lw(self):
        """opt amortizes comm; lw pays an allgather every iteration."""
        im = model()
        intervals = KfacIntervals.from_eig_interval(500)
        assert im.kfac_iteration_time(64, intervals) < im.kfac_iteration_time(
            64, intervals, grad_worker_frac=1 / 64
        )

    def test_epoch_time_decreases_with_p(self):
        im = model()
        intervals = KfacIntervals.from_eig_interval(500)
        e = [
            im.epoch_time(p, IMAGENET_TRAIN_SIZE, intervals)
            for p in (16, 64, 256)
        ]
        assert e[0] > e[1] > e[2]

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            KfacIntervals.from_eig_interval(0)
        im = model()
        iv = KfacIntervals.from_eig_interval(10)
        with pytest.raises(ValueError):
            im.epoch_time(16, 1000, iv, grad_worker_frac=0.0)
        with pytest.raises(ValueError):
            im.epoch_time(16, 1000, iv, grad_worker_frac=1.5)

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
        minutes = 90 * im.epoch_time(64, IMAGENET_TRAIN_SIZE) / 60
        assert 150 < minutes < 205

    def test_table5_factor_anchor(self):
        """Factor Tcomp ~36.8 ms for ResNet-50 (Table V), +/-30%."""
        assert 0.026 < model(50).factor_compute_time() < 0.048

    def test_table5_eig_anchor(self):
        """Slowest-worker eig ~2.26 s for ResNet-50 @ 16 GPUs, +/-30%."""
        assert 1.6 < model(50).eig_stage_time(16) < 2.9


# ----------------------------------------------------------------------
# parity with the strategy-branch model the one placement path replaced
# ----------------------------------------------------------------------
_FIELDS = ("iteration",) + tuple(f.name for f in dataclasses.fields(StageProfile))

#: (p, scheduler, policy, precision, symmetric, diag_blocks, f) ->
#: (kfac_iteration_time, *StageProfile fields) for ResNet-50 at
#: eig_interval=500, recorded from the model that priced f = 1 as
#: strategy="comm-opt" and f = 0.5 as strategy="hybrid"
_PARITY = {
    (16, "sync", "round_robin", "fp32", True, 1, 1.0): (
        0.19264371761873428, 0.03635330579965293, 0.10903644785714285, 2.2580969029818183,
        0.16300644785714286, 0.10903644785714285, 0.16300644785714286, 307868108.0,
        0.0, 615736216.0, 0.0,
    ),
    (16, "sync", "round_robin", "fp32", True, 1, 0.5): (
        0.21313698449582522, 0.03635330579965293, 0.10903644785714285, 2.0815401378909093,
        0.07976767566666666, 0.10903644785714285, 0.07976767566666666, 307868108.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "sync", "round_robin", "fp32", True, 4, 1.0): (
        0.1882020425336018, 0.03635330579965293, 0.09204248214285715, 0.21319298327272723,
        0.15701248214285715, 0.09204248214285715, 0.15701248214285715, 151101900.0,
        0.0, 302203800.0, 0.0,
    ),
    (16, "sync", "round_robin", "fp32", True, 4, 0.5): (
        0.20910284153722436, 0.03635330579965293, 0.09204248214285715, 0.23647216639999996,
        0.077703825, 0.09204248214285715, 0.077703825, 151101900.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "sync", "round_robin", "fp16", False, 1, 1.0): (
        0.10714700096981672, 0.03284038559965293, 0.10900698642857143, 2.2580969029818183,
        0.16300644785714286, 0.10900698642857143, 0.16300644785714286, 307703124.0,
        0.0, 615736216.0, 0.0,
    ),
    (16, "sync", "round_robin", "fp16", False, 1, 0.5): (
        0.12764026784690766, 0.03284038559965293, 0.10900698642857143, 2.0815401378909093,
        0.07976767566666666, 0.10900698642857143, 0.07976767566666666, 307703124.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "sync", "round_robin", "fp16", False, 4, 1.0): (
        0.10270532588468426, 0.03284038559965293, 0.09201302071428571, 0.21319298327272723,
        0.15701248214285715, 0.09201302071428571, 0.15701248214285715, 150936916.0,
        0.0, 302203800.0, 0.0,
    ),
    (16, "sync", "round_robin", "fp16", False, 4, 0.5): (
        0.1236061248883068, 0.03284038559965293, 0.09201302071428571, 0.23647216639999996,
        0.077703825, 0.09201302071428571, 0.077703825, 150936916.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "sync", "greedy", "fp32", True, 1, 1.0): (
        0.19170551376593428, 0.03635330579965293, 0.10903644785714285, 1.7889949765818183,
        0.16300644785714286, 0.10903644785714285, 0.16300644785714286, 307868108.0,
        0.0, 615736216.0, 0.0,
    ),
    (16, "sync", "greedy", "fp32", True, 1, 0.5): (
        0.21255189417320705, 0.03635330579965293, 0.10903644785714285, 1.7889949765818183,
        0.07976767566666666, 0.10903644785714285, 0.07976767566666666, 307868108.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "sync", "greedy", "fp32", True, 4, 1.0): (
        0.18830438197796542, 0.03635330579965293, 0.09204248214285715, 0.2643627054545455,
        0.15701248214285715, 0.09204248214285715, 0.15701248214285715, 151101900.0,
        0.0, 302203800.0, 0.0,
    ),
    (16, "sync", "greedy", "fp32", True, 4, 0.5): (
        0.20917829851002434, 0.03635330579965293, 0.09204248214285715, 0.2742006528,
        0.077703825, 0.09204248214285715, 0.077703825, 151101900.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "sync", "greedy", "fp16", False, 1, 1.0): (
        0.10620879711701671, 0.03284038559965293, 0.10900698642857143, 1.7889949765818183,
        0.16300644785714286, 0.10900698642857143, 0.16300644785714286, 307703124.0,
        0.0, 615736216.0, 0.0,
    ),
    (16, "sync", "greedy", "fp16", False, 1, 0.5): (
        0.1270551775242895, 0.03284038559965293, 0.10900698642857143, 1.7889949765818183,
        0.07976767566666666, 0.10900698642857143, 0.07976767566666666, 307703124.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "sync", "greedy", "fp16", False, 4, 1.0): (
        0.10280766532904789, 0.03284038559965293, 0.09201302071428571, 0.2643627054545455,
        0.15701248214285715, 0.09201302071428571, 0.15701248214285715, 150936916.0,
        0.0, 302203800.0, 0.0,
    ),
    (16, "sync", "greedy", "fp16", False, 4, 0.5): (
        0.12368158186110681, 0.03284038559965293, 0.09201302071428571, 0.2742006528,
        0.077703825, 0.09201302071428571, 0.077703825, 150936916.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "graph", "round_robin", "fp32", True, 1, 1.0): (
        0.19021938926493365, 0.03635330579965293, 0.10903644785714285, 2.2580969029818183,
        0.16300644785714286, 0.0014734655115830116, 0.02647209441243199, 307868108.0,
        0.0, 615736216.0, 0.0,
    ),
    (16, "graph", "round_robin", "fp32", True, 1, 0.5): (
        0.210836160457039, 0.03635330579965293, 0.10903644785714285, 2.0815401378909093,
        0.07976767566666666, 0.0014734655115830116, 0.004985479729166666, 307868108.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "graph", "round_robin", "fp32", True, 4, 1.0): (
        0.18613787687690542, 0.03635330579965293, 0.09204248214285715, 0.21319298327272723,
        0.15701248214285715, 0.002487634652509653, 0.020478128698146286, 151101900.0,
        0.0, 302203800.0, 0.0,
    ),
    (16, "graph", "round_robin", "fp32", True, 4, 0.5): (
        0.20716630789687573, 0.03635330579965293, 0.09204248214285715, 0.23647216639999996,
        0.077703825, 0.002487634652509653, 0.004985479729166666, 151101900.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "graph", "round_robin", "fp16", False, 1, 1.0): (
        0.10487281463616821, 0.03284038559965293, 0.10900698642857143, 2.2580969029818183,
        0.16300644785714286, 0.0014730673841698843, 0.1012524714769059, 307703124.0,
        0.0, 615736216.0, 0.0,
    ),
    (16, "graph", "round_robin", "fp16", False, 1, 0.5): (
        0.12538154019400477, 0.03284038559965293, 0.10900698642857143, 2.0815401378909093,
        0.07976767566666666, 0.0014730673841698843, 0.025743039659229687, 307703124.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "graph", "round_robin", "fp16", False, 4, 1.0): (
        0.10079267586247934, 0.03284038559965293, 0.09201302071428571, 0.21319298327272723,
        0.15701248214285715, 0.002555917242063492, 0.0952585057626202, 150936916.0,
        0.0, 302203800.0, 0.0,
    ),
    (16, "graph", "round_robin", "fp16", False, 4, 0.5): (
        0.12171306124818082, 0.03284038559965293, 0.09201302071428571, 0.23647216639999996,
        0.077703825, 0.002555917242063492, 0.025743039659229687, 150936916.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "graph", "greedy", "fp32", True, 1, 1.0): (
        0.18928118541213365, 0.03635330579965293, 0.10903644785714285, 1.7889949765818183,
        0.16300644785714286, 0.0014734655115830116, 0.02647209441243199, 307868108.0,
        0.0, 615736216.0, 0.0,
    ),
    (16, "graph", "greedy", "fp32", True, 1, 0.5): (
        0.21025107013442085, 0.03635330579965293, 0.10903644785714285, 1.7889949765818183,
        0.07976767566666666, 0.0014734655115830116, 0.004985479729166666, 307868108.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "graph", "greedy", "fp32", True, 4, 1.0): (
        0.18624021632126905, 0.03635330579965293, 0.09204248214285715, 0.2643627054545455,
        0.15701248214285715, 0.002487634652509653, 0.020478128698146286, 151101900.0,
        0.0, 302203800.0, 0.0,
    ),
    (16, "graph", "greedy", "fp32", True, 4, 0.5): (
        0.20724176486967574, 0.03635330579965293, 0.09204248214285715, 0.2742006528,
        0.077703825, 0.002487634652509653, 0.004985479729166666, 151101900.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "graph", "greedy", "fp16", False, 1, 1.0): (
        0.10393461078336821, 0.03284038559965293, 0.10900698642857143, 1.7889949765818183,
        0.16300644785714286, 0.0014730673841698843, 0.1012524714769059, 307703124.0,
        0.0, 615736216.0, 0.0,
    ),
    (16, "graph", "greedy", "fp16", False, 1, 0.5): (
        0.12479644987138658, 0.03284038559965293, 0.10900698642857143, 1.7889949765818183,
        0.07976767566666666, 0.0014730673841698843, 0.025743039659229687, 307703124.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (16, "graph", "greedy", "fp16", False, 4, 1.0): (
        0.10089501530684297, 0.03284038559965293, 0.09201302071428571, 0.2643627054545455,
        0.15701248214285715, 0.002555917242063492, 0.0952585057626202, 150936916.0,
        0.0, 302203800.0, 0.0,
    ),
    (16, "graph", "greedy", "fp16", False, 4, 0.5): (
        0.12178851822098083, 0.03284038559965293, 0.09201302071428571, 0.2742006528,
        0.077703825, 0.002555917242063492, 0.025743039659229687, 150936916.0,
        0.028742198324453724, 307868108.0, 51007824.0,
    ),
    (64, "sync", "round_robin", "fp32", True, 1, 1.0): (
        0.2283858514652081, 0.03635330579965293, 0.11197727025000001, 1.7889949765818183,
        0.16585127025000002, 0.11197727025000001, 0.16585127025000002, 307868108.0,
        0.0, 615736216.0, 0.0,
    ),
    (64, "sync", "round_robin", "fp32", True, 1, 0.5): (
        0.32836546991146415, 0.03635330579965293, 0.11197727025000001, 1.801435298909091,
        0.0840784980595238, 0.11197727025000001, 0.0840784980595238, 307868108.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "sync", "round_robin", "fp32", True, 4, 1.0): (
        0.22457716766593538, 0.03635330579965293, 0.09358360625, 0.07598338094545454,
        0.15845760625, 0.09358360625, 0.15845760625, 151101900.0,
        0.0, 302203800.0, 0.0,
    ),
    (64, "sync", "round_robin", "fp32", True, 4, 0.5): (
        0.3246570764362503, 0.03635330579965293, 0.09358360625, 0.13463875025454547,
        0.08061494910714286, 0.09358360625, 0.08061494910714286, 151101900.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "sync", "round_robin", "fp16", False, 1, 1.0): (
        0.12492236719662822, 0.03284038559965293, 0.11194633575, 1.7889949765818183,
        0.16585127025000002, 0.11194633575, 0.16585127025000002, 307703124.0,
        0.0, 615736216.0, 0.0,
    ),
    (64, "sync", "round_robin", "fp16", False, 1, 0.5): (
        0.2249019856428843, 0.03284038559965293, 0.11194633575, 1.801435298909091,
        0.0840784980595238, 0.11194633575, 0.0840784980595238, 307703124.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "sync", "round_robin", "fp16", False, 4, 1.0): (
        0.12111368339735548, 0.03284038559965293, 0.09355267175, 0.07598338094545454,
        0.15845760625, 0.09355267175, 0.15845760625, 150936916.0,
        0.0, 302203800.0, 0.0,
    ),
    (64, "sync", "round_robin", "fp16", False, 4, 0.5): (
        0.22119359216767046, 0.03284038559965293, 0.09355267175, 0.13463875025454547,
        0.08061494910714286, 0.09355267175, 0.08061494910714286, 150936916.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "sync", "greedy", "fp32", True, 1, 1.0): (
        0.2283858514652081, 0.03635330579965293, 0.11197727025000001, 1.7889949765818183,
        0.16585127025000002, 0.11197727025000001, 0.16585127025000002, 307868108.0,
        0.0, 615736216.0, 0.0,
    ),
    (64, "sync", "greedy", "fp32", True, 1, 0.5): (
        0.3283405892668096, 0.03635330579965293, 0.11197727025000001, 1.7889949765818183,
        0.0840784980595238, 0.11197727025000001, 0.0840784980595238, 307868108.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "sync", "greedy", "fp32", True, 4, 1.0): (
        0.22474369397168084, 0.03635330579965293, 0.09358360625, 0.15924653381818182,
        0.15845760625, 0.09358360625, 0.15845760625, 151101900.0,
        0.0, 302203800.0, 0.0,
    ),
    (64, "sync", "greedy", "fp32", True, 4, 0.5): (
        0.3248559980133776, 0.03635330579965293, 0.09358360625, 0.23409953881818188,
        0.08061494910714286, 0.09358360625, 0.08061494910714286, 151101900.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "sync", "greedy", "fp16", False, 1, 1.0): (
        0.12492236719662822, 0.03284038559965293, 0.11194633575, 1.7889949765818183,
        0.16585127025000002, 0.11194633575, 0.16585127025000002, 307703124.0,
        0.0, 615736216.0, 0.0,
    ),
    (64, "sync", "greedy", "fp16", False, 1, 0.5): (
        0.22487710499822974, 0.03284038559965293, 0.11194633575, 1.7889949765818183,
        0.0840784980595238, 0.11194633575, 0.0840784980595238, 307703124.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "sync", "greedy", "fp16", False, 4, 1.0): (
        0.12128020970310094, 0.03284038559965293, 0.09355267175, 0.15924653381818182,
        0.15845760625, 0.09355267175, 0.15845760625, 150936916.0,
        0.0, 302203800.0, 0.0,
    ),
    (64, "sync", "greedy", "fp16", False, 4, 0.5): (
        0.2213925137447977, 0.03284038559965293, 0.09355267175, 0.23409953881818188,
        0.08061494910714286, 0.09355267175, 0.08061494910714286, 150936916.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "graph", "round_robin", "fp32", True, 1, 1.0): (
        0.22590350148041327, 0.03635330579965293, 0.11197727025000001, 1.7889949765818183,
        0.16585127025000002, 0.00151320635472973, 0.02931691680528915, 307868108.0,
        0.0, 615736216.0, 0.0,
    ),
    (64, "graph", "round_robin", "fp32", True, 1, 0.5): (
        0.3259911456558864, 0.03635330579965293, 0.11197727025000001, 1.801435298909091,
        0.0840784980595238, 0.00151320635472973, 0.001557009223324515, 307868108.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "graph", "round_robin", "fp32", True, 4, 1.0): (
        0.22248301256715405, 0.03635330579965293, 0.09358360625, 0.07598338094545454,
        0.15845760625, 0.0025292866554054057, 0.021923252805289107, 151101900.0,
        0.0, 302203800.0, 0.0,
    ),
    (64, "graph", "round_robin", "fp32", True, 4, 0.5): (
        0.3226778741645908, 0.03635330579965293, 0.09358360625, 0.13463875025454547,
        0.08061494910714286, 0.0025292866554054057, 0.001557009223324515, 151101900.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "graph", "round_robin", "fp16", False, 1, 1.0): (
        0.12344342035968729, 0.03284038559965293, 0.11194633575, 1.7889949765818183,
        0.16585127025000002, 0.04417439154097697, 0.10409729386976306, 307703124.0,
        0.0, 615736216.0, 0.0,
    ),
    (64, "graph", "round_robin", "fp16", False, 1, 0.5): (
        0.22343058115835296, 0.03284038559965293, 0.11194633575, 1.801435298909091,
        0.0840784980595238, 0.04417439154097697, 0.026095697884086853, 307703124.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "graph", "round_robin", "fp16", False, 4, 1.0): (
        0.11943464123532364, 0.03284038559965293, 0.09355267175, 0.07598338094545454,
        0.15845760625, 0.01577596128643152, 0.09670362986976304, 150936916.0,
        0.0, 302203800.0, 0.0,
    ),
    (64, "graph", "round_robin", "fp16", False, 4, 0.5): (
        0.21952901945595296, 0.03284038559965293, 0.09355267175, 0.13463875025454547,
        0.08061494910714286, 0.01577596128643152, 0.026095697884086853, 150936916.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "graph", "greedy", "fp32", True, 1, 1.0): (
        0.22590350148041327, 0.03635330579965293, 0.11197727025000001, 1.7889949765818183,
        0.16585127025000002, 0.00151320635472973, 0.02931691680528915, 307868108.0,
        0.0, 615736216.0, 0.0,
    ),
    (64, "graph", "greedy", "fp32", True, 1, 0.5): (
        0.3259662650112318, 0.03635330579965293, 0.11197727025000001, 1.7889949765818183,
        0.0840784980595238, 0.00151320635472973, 0.001557009223324515, 307868108.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "graph", "greedy", "fp32", True, 4, 1.0): (
        0.2226495388728995, 0.03635330579965293, 0.09358360625, 0.15924653381818182,
        0.15845760625, 0.0025292866554054057, 0.021923252805289107, 151101900.0,
        0.0, 302203800.0, 0.0,
    ),
    (64, "graph", "greedy", "fp32", True, 4, 0.5): (
        0.32287679574171807, 0.03635330579965293, 0.09358360625, 0.23409953881818188,
        0.08061494910714286, 0.0025292866554054057, 0.001557009223324515, 151101900.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "graph", "greedy", "fp16", False, 1, 1.0): (
        0.12339470923823274, 0.03284038559965293, 0.11194633575, 1.7889949765818183,
        0.16585127025000002, 0.0417388354682497, 0.10409729386976306, 307703124.0,
        0.0, 615736216.0, 0.0,
    ),
    (64, "graph", "greedy", "fp16", False, 1, 0.5): (
        0.22335698939224388, 0.03284038559965293, 0.11194633575, 1.7889949765818183,
        0.0840784980595238, 0.0417388354682497, 0.026095697884086853, 307703124.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
    (64, "graph", "greedy", "fp16", False, 4, 1.0): (
        0.11943772182761456, 0.03284038559965293, 0.09355267175, 0.15924653381818182,
        0.15845760625, 0.007603675613704242, 0.09670362986976304, 150936916.0,
        0.0, 302203800.0, 0.0,
    ),
    (64, "graph", "greedy", "fp16", False, 4, 0.5): (
        0.21956449531962569, 0.03284038559965293, 0.09355267175, 0.23409953881818188,
        0.08061494910714286, 0.007603675613704242, 0.026095697884086853, 150936916.0,
        0.10388945955078248, 307868108.0, 51007824.0,
    ),
}

#: the cells that changed on purpose (all at diag_blocks=4, f = 0.5): the
#: strategy-branch model dropped ``diag_blocks`` on its f < 1 branch.  It
#: counted whole-factor eigenbasis bytes, so halving f from 1 *raised*
#: the memory per rank (302,203,800 -> 307,868,108 B), and it priced the
#: graph route's exposed group share from the whole-factor total while
#: ``eig_tcomm`` was the blocked one
_BLOCKED_GROUP = {
    ((16, "sync", "round_robin", "fp32", True, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((16, "sync", "round_robin", "fp16", False, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((16, "sync", "greedy", "fp32", True, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((16, "sync", "greedy", "fp16", False, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((16, "graph", "round_robin", "fp32", True, 4, 0.5), "iteration"):
        0.2071660499155424,
    ((16, "graph", "round_robin", "fp32", True, 4, 0.5), "eig_tcomm_exposed"):
        0.0048564890625,
    ((16, "graph", "round_robin", "fp32", True, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((16, "graph", "round_robin", "fp16", False, 4, 0.5), "iteration"):
        0.12170893354684749,
    ((16, "graph", "round_robin", "fp16", False, 4, 0.5), "eig_tcomm_exposed"):
        0.02367918899256304,
    ((16, "graph", "round_robin", "fp16", False, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((16, "graph", "greedy", "fp32", True, 4, 0.5), "iteration"):
        0.2072415068883424,
    ((16, "graph", "greedy", "fp32", True, 4, 0.5), "eig_tcomm_exposed"):
        0.0048564890625,
    ((16, "graph", "greedy", "fp32", True, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((16, "graph", "greedy", "fp16", False, 4, 0.5), "iteration"):
        0.12178439051964748,
    ((16, "graph", "greedy", "fp16", False, 4, 0.5), "eig_tcomm_exposed"):
        0.02367918899256304,
    ((16, "graph", "greedy", "fp16", False, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((64, "sync", "round_robin", "fp32", True, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((64, "sync", "round_robin", "fp16", False, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((64, "sync", "greedy", "fp32", True, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((64, "sync", "greedy", "fp16", False, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((64, "graph", "round_robin", "fp32", True, 4, 0.5), "iteration"):
        0.322677745885,
    ((64, "graph", "round_robin", "fp32", True, 4, 0.5), "eig_tcomm_exposed"):
        0.0014928694279100528,
    ((64, "graph", "round_robin", "fp32", True, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((64, "graph", "round_robin", "fp16", False, 4, 0.5), "iteration"):
        0.2195220923580482,
    ((64, "graph", "round_robin", "fp16", False, 4, 0.5), "eig_tcomm_exposed"):
        0.0226321489317059,
    ((64, "graph", "round_robin", "fp16", False, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((64, "graph", "greedy", "fp32", True, 4, 0.5), "iteration"):
        0.32287666746212723,
    ((64, "graph", "greedy", "fp32", True, 4, 0.5), "eig_tcomm_exposed"):
        0.0014928694279100528,
    ((64, "graph", "greedy", "fp32", True, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
    ((64, "graph", "greedy", "fp16", False, 4, 0.5), "iteration"):
        0.2195575682217209,
    ((64, "graph", "greedy", "fp16", False, 4, 0.5), "eig_tcomm_exposed"):
        0.0226321489317059,
    ((64, "graph", "greedy", "fp16", False, 4, 0.5), "eigenbasis_bytes_per_rank"):
        151101900.0,
}

#: the cells the graph route's factor-overlap budget moved (all at P=64,
#: fp16, f = 0.5): the budget read the fastest worker's eigendecompositions
#: from the f = 1 per-factor assignment at every f; it now reads the
#: placement being priced, whose least-loaded rank has less eig work to
#: hide the factor buckets behind.  Every f = 1 and every sync cell stays
#: bit-identical.  Takes precedence over ``_BLOCKED_GROUP``
_EIG_BUDGET = {
    ((64, "graph", "greedy", "fp16", False, 4, 0.5), "iteration"):
        0.21962359169226636,
    ((64, "graph", "greedy", "fp16", False, 4, 0.5), "factor_tcomm_exposed"):
        0.01090484914097697,
    ((64, "graph", "round_robin", "fp16", False, 1, 0.5), "iteration"):
        0.22363067648344387,
    ((64, "graph", "round_robin", "fp16", False, 1, 0.5), "factor_tcomm_exposed"):
        0.054179157795522424,
    ((64, "graph", "round_robin", "fp16", False, 4, 0.5), "iteration"):
        0.21992228300823002,
    ((64, "graph", "round_robin", "fp16", False, 4, 0.5), "factor_tcomm_exposed"):
        0.03578549379552243,
}

#: (depth, p) -> the strategy-branch model's "layer-wise" sync iteration
#: time at eig_interval=500
_KFAC_LW = {
    (50, 8): 0.20433847964120092,
    (50, 64): 0.26344507712461623,
    (50, 256): 0.41055070927339876,
    (101, 8): 0.3252834508618885,
    (101, 64): 0.4255559847017325,
    (101, 256): 0.6730185144241151,
    (152, 8): 0.44823652230280714,
    (152, 64): 0.579084583598483,
    (152, 256): 0.9093637755686821,
}


class TestParity:
    @pytest.mark.parametrize("key", sorted(_PARITY))
    def test_bit_identical(self, key):
        p, scheduler, policy, precision, symmetric, diag_blocks, f = key
        kw = dict(
            policy=policy, symmetric=symmetric, precision=precision,
            grad_worker_frac=f, scheduler=scheduler, diag_blocks=diag_blocks,
        )
        im = model()
        got = (
            im.kfac_iteration_time(p, KfacIntervals.from_eig_interval(500), **kw),
            *dataclasses.astuple(im.stage_profile(p, **kw)),
        )
        expected = tuple(
            _EIG_BUDGET.get((key, name), _BLOCKED_GROUP.get((key, name), value))
            for name, value in zip(_FIELDS, _PARITY[key])
        )
        assert dict(zip(_FIELDS, got)) == dict(zip(_FIELDS, expected))

    def test_blocked_memory_falls_with_f(self):
        im = model()
        mems = [im.stage_profile(16, grad_worker_frac=f, diag_blocks=4)
                for f in (1.0, 0.5)]
        assert mems[1].eigenbasis_bytes_per_rank == mems[0].eigenbasis_bytes_per_rank / 2

    @pytest.mark.parametrize("depth,p", sorted(_KFAC_LW))
    def test_kfac_lw_is_f_one_over_p(self, depth, p):
        """The f = 1/P share is one fused allgather of the K-FAC layers'
        gradients; the K-FAC-lw pricing also allgathered the BatchNorm
        gradients, which travel in the gradient allreduce."""
        got = model(depth).kfac_iteration_time(
            p, KfacIntervals.from_eig_interval(500), grad_worker_frac=1 / p
        )
        assert got < _KFAC_LW[(depth, p)]
        assert got == pytest.approx(_KFAC_LW[(depth, p)], rel=1e-3)
