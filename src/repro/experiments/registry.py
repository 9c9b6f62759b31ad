"""Experiment registry: id -> runner (index: ``docs/architecture.md``)."""

from __future__ import annotations

from typing import Callable

from repro.experiments.ablations import (
    run_factor_comm_ablation,
    run_grad_worker_frac_sweep,
    run_placement_ablation,
)
from repro.experiments.approx_exp import run_approximation_sweep
from repro.experiments.common import ExperimentResult
from repro.experiments.correctness import run_fig5, run_table1, run_table2_fig4
from repro.experiments.drift import run_drift_report
from repro.experiments.profile_exp import run_fig10, run_table5, run_table6
from repro.experiments.scaling_exp import run_scaling_figure, run_table4
from repro.experiments.transformer_exp import run_transformer_smoke
from repro.experiments.update_freq import run_table3_fig6

__all__ = ["EXPERIMENTS", "run_experiment"]

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": run_table1,
    "table2+fig4": run_table2_fig4,
    "fig5": run_fig5,
    "table3+fig6": run_table3_fig6,
    "fig7": lambda **kw: run_scaling_figure(50),
    "fig8": lambda **kw: run_scaling_figure(101),
    "fig9": lambda **kw: run_scaling_figure(152),
    "table4": lambda **kw: run_table4(),
    "table5": lambda **kw: run_table5(),
    "table6": lambda **kw: run_table6(),
    "fig10": lambda **kw: run_fig10(),
    "ablation-placement": lambda **kw: run_placement_ablation(),
    "ablation-grad-worker-frac": lambda **kw: run_grad_worker_frac_sweep(),
    "ablation-factor-comm": run_factor_comm_ablation,
    "approximation-sweep": run_approximation_sweep,
    "drift-report": run_drift_report,
    "transformer-smoke": run_transformer_smoke,
}


def run_experiment(experiment_id: str, **kwargs: object) -> ExperimentResult:
    """Run one experiment by id; raises ``KeyError`` for unknown ids.

    Example
    -------
    >>> from repro.experiments.registry import EXPERIMENTS, run_experiment
    >>> "table5" in EXPERIMENTS and "ablation-grad-worker-frac" in EXPERIMENTS
    True
    >>> run_experiment("no-such-id")
    Traceback (most recent call last):
        ...
    KeyError: "unknown experiment 'no-such-id'; known: [...]"
    """
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment_id](**kwargs)
