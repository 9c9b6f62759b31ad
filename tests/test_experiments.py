"""Experiment runners: registry integrity + tiny-scale smoke + analytic shapes."""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.common import SCALE_PRESETS, make_paired_task
from repro.experiments.update_freq import modeled_training_minutes


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        """docs/architecture.md's experiment index must all be runnable."""
        expected = {
            "table1", "table2+fig4", "fig5", "table3+fig6", "fig7", "fig8",
            "fig9", "table4", "table5", "table6", "fig10",
            "ablation-placement", "ablation-factor-comm",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("table99")


class TestAnalyticExperiments:
    """Model-driven experiments run at full paper scale (they are cheap)."""

    def test_table4_shape(self):
        result = run_experiment("table4")
        model = result.data["model"]
        assert model[152][-1] < 0 < model[50][-1]

    def test_fig7_renders(self):
        result = run_experiment("fig7")
        assert "K-FAC-opt" in result.render()
        points = result.data["points"]
        assert all(p.kfac_opt_minutes < p.sgd_minutes for p in points)

    def test_fig9_shows_crossover(self):
        points = run_experiment("fig9").data["points"]
        assert points[-1].kfac_opt_minutes > points[-1].sgd_minutes

    def test_table5_renders_all_rows(self):
        out = run_experiment("table5").render()
        # 3 GPU-count rows per model plus one factor-payload summary row
        assert out.count("ResNet-50") == 4 and out.count("ResNet-152") == 4
        assert "tri-packed" in out

    def test_table6_imbalance(self):
        result = run_experiment("table6")
        # rendered table includes both model and paper columns
        assert "min (model)" in result.render()

    def test_fig10_superlinear(self):
        result = run_experiment("fig10")
        times = result.data["times_ms"]
        params = result.data["params_m"]
        assert times[-1] / times[0] > params[-1] / params[0]

    def test_placement_ablation_improves_small_scales(self):
        result = run_experiment("ablation-placement")
        # at 16 GPUs greedy must strictly beat round-robin for deep models
        rows = result.data["rows"]
        r152_16 = next(r for r in rows if r[0] == "ResNet-152" and r[1] == 16)
        assert float(r152_16[2]) > float(r152_16[3])

    def test_modeled_minutes_monotone_in_interval(self):
        t100 = modeled_training_minutes(50, eig_interval=100)
        t1000 = modeled_training_minutes(50, eig_interval=1000)
        assert t100 > t1000


@pytest.mark.slow
class TestTrainingExperimentsTiny:
    """Tiny-scale end-to-end smoke of the training-based experiments."""

    def test_table1_tiny(self):
        result = run_experiment("table1", scale="tiny")
        accs = result.data["accuracy"]
        assert len(accs["SGD"]) == 3
        assert all(0.0 <= a <= 1.0 for row in accs.values() for a in row)

    def test_factor_comm_ablation_tiny(self):
        result = run_experiment("ablation-factor-comm", scale="tiny")
        accs = result.data["accuracy"]
        assert len(accs) == 3


class TestPresets:
    def test_presets_exist(self):
        assert {"tiny", "small"} <= set(SCALE_PRESETS)

    def test_paired_task_built_from_preset(self):
        ds = make_paired_task(SCALE_PRESETS["tiny"])
        assert ds.train_x.shape[0] == SCALE_PRESETS["tiny"].n_train
        assert ds.spec.class_pairing > 0
