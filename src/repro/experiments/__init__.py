"""Experiment runners — one per table/figure of the paper's §VI.

Every runner returns an :class:`repro.experiments.common.ExperimentResult`
whose ``render()`` prints the same rows/series the paper reports.  Runners
accept a ``scale`` preset (``"tiny"`` for CI-speed smoke runs, ``"small"``
for the recorded results); the performance-model experiments
(Figs. 7–10, Tables IV–VI) always run at paper scale because they are
analytic.

See ``docs/architecture.md`` ("Experiments and benchmarks") for the
experiment-id -> module -> bench mapping.
"""

from repro.experiments.common import (
    ExperimentResult,
    ScalePreset,
    SCALE_PRESETS,
    make_paired_task,
    make_model_factory,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = [
    "ExperimentResult",
    "ScalePreset",
    "SCALE_PRESETS",
    "make_paired_task",
    "make_model_factory",
    "EXPERIMENTS",
    "run_experiment",
]
