"""Update-frequency experiments (paper §VI-C2): Table III and Fig. 6.

Hybrid mode (``docs/architecture.md``, "Experiments and benchmarks"):
validation accuracy across K-FAC update intervals comes from scaled-down
training on the synthetic task; the training-time column comes from the
calibrated performance model at the paper's scale (ResNet-50/101/152 @ 64
GPUs, intervals {100, 500, 1000}).

Shape criteria: accuracy stays near the no-staleness value for moderate
intervals and degrades at the most extreme one, while modeled training
time decreases with the interval — the staleness/time trade-off of
Table III.
"""

from __future__ import annotations

from repro.experiments.common import (
    SCALE_PRESETS,
    ExperimentResult,
    default_kfac_hp,
    make_paired_task,
    train_once,
)
from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
from repro.perfmodel.iteration import IterationModel, KfacIntervals
from repro.perfmodel.scaling import IMAGENET_TRAIN_SIZE, KFAC_EPOCHS, SGD_EPOCHS
from repro.perfmodel.specs import resnet_spec
from repro.utils.tables import format_series, format_table

__all__ = ["run_table3_fig6", "modeled_training_minutes"]


def modeled_training_minutes(
    depth: int, gpus: int = 64, eig_interval: int | None = None
) -> float:
    """Modeled end-to-end training minutes at paper scale.

    ``eig_interval=None`` -> SGD (90 epochs); otherwise K-FAC-opt
    (55 epochs) at the given update interval.
    """
    im = IterationModel(resnet_spec(depth), V100_LIKE, FRONTERA_LIKE)
    if eig_interval is None:
        return SGD_EPOCHS * im.epoch_time(gpus, IMAGENET_TRAIN_SIZE) / 60.0
    intervals = KfacIntervals.from_eig_interval(eig_interval)
    return KFAC_EPOCHS * im.epoch_time(gpus, IMAGENET_TRAIN_SIZE, intervals) / 60.0


def run_table3_fig6(
    scale: str = "small",
    seed: int = 7,
    intervals: tuple[int, ...] = (2, 10, 50),
    paper_intervals: tuple[int, ...] = (100, 500, 1000),
) -> ExperimentResult:
    """Table III + Fig. 6: accuracy and time vs K-FAC update frequency.

    ``intervals`` are the scaled eigendecomposition intervals actually
    trained; ``paper_intervals`` drive the modeled time columns.
    """
    preset = SCALE_PRESETS[scale]
    dataset = make_paired_task(preset, seed=seed)
    world = 2

    # measured accuracy on the scaled task
    acc_by_interval: dict[int, float] = {}
    curves: dict[int, tuple[list[int], list[float]]] = {}
    hist_sgd = train_once(dataset, preset, world, preset.kfac_epochs, None, seed=seed)
    for interval in intervals:
        hp = default_kfac_hp(
            kfac_update_freq=interval, fac_update_freq=max(1, interval // 10)
        )
        hist = train_once(dataset, preset, world, preset.kfac_epochs, hp, seed=seed)
        acc_by_interval[interval] = hist.final_val_accuracy
        curves[interval] = hist.accuracy_curve()

    # modeled time at paper scale
    time_rows = []
    for depth in (50, 101, 152):
        row = [f"ResNet-{depth}", f"{modeled_training_minutes(depth):.0f}"]
        for pi in paper_intervals:
            row.append(f"{modeled_training_minutes(depth, eig_interval=pi):.0f}")
        time_rows.append(row)

    result = ExperimentResult(
        "table3+fig6", "accuracy & modeled time vs K-FAC update frequency (Table III, Fig. 6)"
    )
    result.add(
        format_table(
            ["Interval (scaled)", "SGD"] + [str(i) for i in intervals],
            [
                [
                    "Val accuracy",
                    f"{hist_sgd.final_val_accuracy:.3f}",
                    *[f"{acc_by_interval[i]:.3f}" for i in intervals],
                ]
            ],
        )
    )
    result.add(
        format_table(
            ["Model", "SGD (min, modeled)"]
            + [f"K-FAC @{pi} (min)" for pi in paper_intervals],
            time_rows,
            title="modeled training time @64 GPUs (paper-scale intervals)",
        )
    )
    for interval, (xs, ys) in curves.items():
        tail = max(0, len(xs) - 5)
        result.add(
            format_series(
                f"freq-{interval} (last epochs)",
                xs[tail:],
                [f"{y:.3f}" for y in ys[tail:]],
                "epoch",
                "val_acc",
            )
        )
    result.data = {
        "sgd_accuracy": hist_sgd.final_val_accuracy,
        "accuracy": acc_by_interval,
        "curves": curves,
        "modeled_minutes": {r[0]: r[1:] for r in time_rows},
        "baseline": preset.baseline_accuracy,
    }
    return result
