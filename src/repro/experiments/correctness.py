"""Correctness experiments (paper §VI-C1): Tables I & II, Figures 4 & 5.

All use the scaled-down paired-class synthetic task in place of
CIFAR-10/ImageNet (substitutions: :mod:`repro.experiments.common`,
``docs/architecture.md``).  Shape criteria:

- **Table I**: eigendecomposition K-FAC holds accuracy as global batch
  grows, explicit-inverse K-FAC degrades (and plain SGD degrades at the
  largest batch);
- **Table II / Fig. 4**: K-FAC matches or beats SGD's final accuracy at
  every worker count while training on the paper's 55:90 epoch ratio;
- **Fig. 5**: on the ImageNet-like task, K-FAC reaches the baseline
  accuracy in fewer epochs than SGD.
"""

from __future__ import annotations

from repro.experiments.common import (
    SCALE_PRESETS,
    ExperimentResult,
    default_kfac_hp,
    make_paired_task,
    sgd_epochs_for,
    train_once,
)
from repro.utils.tables import format_series, format_table

__all__ = ["run_table1", "run_table2_fig4", "run_fig5"]


def run_table1(scale: str = "small", seed: int = 7) -> ExperimentResult:
    """Table I: inverse vs eigendecomposition K-FAC across batch sizes."""
    preset = SCALE_PRESETS[scale]
    dataset = make_paired_task(preset, seed=seed)
    world = 2
    batch_multipliers = (1, 2, 4)
    rows = {"SGD": [], "K-FAC w/ Inverse": [], "K-FAC w/ Eigen-decomp.": []}
    batches = []
    for mult in batch_multipliers:
        bs = preset.batch_size_per_worker * mult
        batches.append(bs * world)
        for label, kfac in (
            ("SGD", None),
            ("K-FAC w/ Inverse", default_kfac_hp(use_eigen_decomp=False)),
            ("K-FAC w/ Eigen-decomp.", default_kfac_hp(use_eigen_decomp=True)),
        ):
            hist = train_once(
                dataset, preset, world, preset.kfac_epochs, kfac,
                seed=seed, batch_size=bs,
            )
            rows[label].append(hist.final_val_accuracy)
    result = ExperimentResult(
        "table1",
        "validation accuracy, inverse vs eigendecomposition K-FAC (paper Table I)",
    )
    result.add(
        format_table(
            ["Optimizer"] + [f"batch {b}" for b in batches],
            [[label, *[f"{a:.3f}" for a in accs]] for label, accs in rows.items()],
        )
    )
    result.data = {"batches": batches, "accuracy": rows, "baseline": preset.baseline_accuracy}
    return result


def run_table2_fig4(
    scale: str = "small", seed: int = 7, worker_counts: tuple[int, ...] = (1, 2, 4, 8)
) -> ExperimentResult:
    """Table II + Fig. 4: K-FAC vs SGD across worker counts."""
    preset = SCALE_PRESETS[scale]
    dataset = make_paired_task(preset, seed=seed)
    sgd_acc: list[float] = []
    kfac_acc: list[float] = []
    curves: dict[str, tuple[list[int], list[float]]] = {}
    for world in worker_counts:
        hist_sgd = train_once(
            dataset, preset, world, sgd_epochs_for(preset), None, seed=seed
        )
        hist_kfac = train_once(
            dataset, preset, world, preset.kfac_epochs, default_kfac_hp(), seed=seed
        )
        sgd_acc.append(hist_sgd.final_val_accuracy)
        kfac_acc.append(hist_kfac.final_val_accuracy)
        if world in worker_counts[:2]:
            curves[f"SGD-{world}w"] = hist_sgd.accuracy_curve()
            curves[f"KFAC-{world}w"] = hist_kfac.accuracy_curve()
    result = ExperimentResult(
        "table2+fig4", "K-FAC vs SGD final accuracy across worker counts (Table II, Fig. 4)"
    )
    result.add(
        format_table(
            ["Workers"] + [str(w) for w in worker_counts],
            [
                ["SGD", *[f"{a:.3f}" for a in sgd_acc]],
                ["K-FAC", *[f"{a:.3f}" for a in kfac_acc]],
            ],
        )
    )
    for name, (xs, ys) in curves.items():
        result.add(format_series(name, xs, [f"{y:.3f}" for y in ys], "epoch", "val_acc"))
    result.data = {
        "workers": list(worker_counts),
        "sgd": sgd_acc,
        "kfac": kfac_acc,
        "curves": curves,
        "baseline": preset.baseline_accuracy,
    }
    return result


def run_fig5(scale: str = "small", seed: int = 11) -> ExperimentResult:
    """Fig. 5: ImageNet-like convergence, K-FAC (55-style) vs SGD (90-style)."""
    preset = SCALE_PRESETS[scale]
    dataset = make_paired_task(
        preset, seed=seed, num_classes=20, noise=preset.noise * 0.9
    )
    world = 2
    kfac_epochs = preset.kfac_epochs
    sgd_epochs = sgd_epochs_for(preset)
    hist_kfac = train_once(
        dataset, preset, world, kfac_epochs, default_kfac_hp(), seed=seed
    )
    hist_sgd = train_once(dataset, preset, world, sgd_epochs, None, seed=seed)
    baseline = preset.baseline_accuracy
    result = ExperimentResult(
        "fig5", "ImageNet-like validation curves, K-FAC vs SGD (paper Fig. 5)"
    )
    for name, hist in (("K-FAC", hist_kfac), ("SGD", hist_sgd)):
        xs, ys = hist.accuracy_curve()
        result.add(format_series(name, xs, [f"{y:.3f}" for y in ys], "epoch", "val_acc"))
    e_kfac = hist_kfac.epochs_to_accuracy(baseline)
    e_sgd = hist_sgd.epochs_to_accuracy(baseline)
    result.add(
        f"epochs to baseline {baseline:.2f}: K-FAC={e_kfac} (budget {kfac_epochs}), "
        f"SGD={e_sgd} (budget {sgd_epochs})"
    )
    result.data = {
        "kfac_curve": hist_kfac.accuracy_curve(),
        "sgd_curve": hist_sgd.accuracy_curve(),
        "epochs_to_baseline": {"kfac": e_kfac, "sgd": e_sgd},
        "baseline": baseline,
    }
    return result
