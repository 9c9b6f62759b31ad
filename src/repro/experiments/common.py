"""Shared experiment infrastructure.

Scaled-down convergence experiments substitute (summarised in
``docs/architecture.md``, "Experiments and benchmarks"):

- CIFAR-10 + ResNet-32  ->  paired-class synthetic task + width-scaled
  CIFAR ResNet-20 (identical architecture family, CPU-trainable);
- ImageNet-1k + ResNet-50  ->  a larger/noisier synthetic task; epoch
  budgets keep the paper's 55:90 K-FAC:SGD ratio;
- the MLPerf 75.9% acceptance threshold  ->  a per-task baseline accuracy
  recorded in the preset (chosen so a well-tuned run clears it and a
  degraded run does not).

Hyper-parameters mirror the paper's recipes proportionally: lr scaled by
global batch, 10–15% linear warmup, multi-step decay at 50%/80% of the
budget, label smoothing 0.1, momentum 0.9, K-FAC damping 0.003 with
update decoupling.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.preconditioner import KFACHyperParams
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.nn.module import Module
from repro.nn.resnet import resnet20_cifar
from repro.optim.lr_scheduler import LinearWarmupSchedule, MultiStepSchedule
from repro.parallel.trainer import DataParallelTrainer, TrainerConfig, TrainingHistory

__all__ = [
    "ScalePreset",
    "SCALE_PRESETS",
    "ExperimentResult",
    "make_paired_task",
    "make_model_factory",
    "train_once",
    "kfac_epochs_for",
    "sgd_epochs_for",
]


@dataclass(frozen=True)
class ScalePreset:
    """Sizing of a convergence experiment.

    ``baseline_accuracy`` plays the role of the paper's acceptance
    threshold (92.49% for CIFAR ResNet, 75.9% MLPerf for ImageNet).

    Example
    -------
    >>> from repro.experiments.common import SCALE_PRESETS
    >>> SCALE_PRESETS["tiny"].n_train < SCALE_PRESETS["small"].n_train
    True
    """

    name: str
    n_train: int
    n_val: int
    image_size: int
    width_multiplier: float
    kfac_epochs: int
    batch_size_per_worker: int
    base_lr_per_128: float
    noise: float
    baseline_accuracy: float


SCALE_PRESETS: dict[str, ScalePreset] = {
    "tiny": ScalePreset(
        name="tiny",
        n_train=384,
        n_val=160,
        image_size=10,
        width_multiplier=0.25,
        kfac_epochs=3,
        batch_size_per_worker=32,
        base_lr_per_128=0.2,
        noise=0.8,
        baseline_accuracy=0.35,
    ),
    "small": ScalePreset(
        name="small",
        n_train=1500,
        n_val=400,
        image_size=14,
        width_multiplier=0.5,
        kfac_epochs=8,
        batch_size_per_worker=64,
        base_lr_per_128=0.2,
        noise=1.2,
        baseline_accuracy=0.90,
    ),
}


@dataclass
class ExperimentResult:
    """Rendered output + raw data of one experiment.

    Example
    -------
    >>> from repro.experiments.common import ExperimentResult
    >>> result = ExperimentResult("table-5", "time profile")
    >>> result.add("row 1")
    >>> print(result.render())
    === table-5: time profile ===
    row 1
    """

    experiment_id: str
    title: str
    lines: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def add(self, text: str) -> None:
        self.lines.extend(text.splitlines())

    def render(self) -> str:
        header = f"=== {self.experiment_id}: {self.title} ==="
        return "\n".join([header, *self.lines])


def make_paired_task(
    preset: ScalePreset, seed: int = 7, **overrides: object
) -> SyntheticImageDataset:
    """The standard fine-grained paired-class task for a preset.

    Example
    -------
    >>> from repro.experiments.common import SCALE_PRESETS, make_paired_task
    >>> ds = make_paired_task(SCALE_PRESETS["tiny"])
    >>> len(ds.train_x) == SCALE_PRESETS["tiny"].n_train
    True
    """
    spec = SyntheticSpec(
        n_train=preset.n_train,
        n_val=preset.n_val,
        num_classes=10,
        image_size=preset.image_size,
        channels=3,
        noise=preset.noise,
        max_shift=2,
        amplitude_jitter=0.2,
        conditioning=25.0,
        class_pairing=0.3,
        seed=seed,
    )
    if overrides:
        spec = replace(spec, **overrides)  # type: ignore[arg-type]
    return SyntheticImageDataset(spec)


def make_model_factory(preset: ScalePreset, num_classes: int = 10) -> Callable[[np.random.Generator], Module]:
    """Width-scaled CIFAR ResNet-20 factory for the preset.

    Example
    -------
    >>> import numpy as np
    >>> from repro.experiments.common import SCALE_PRESETS, make_model_factory
    >>> factory = make_model_factory(SCALE_PRESETS["tiny"])
    >>> model = factory(np.random.default_rng(0))
    >>> type(model).__name__
    'ResNet'
    """

    def factory(rng: np.random.Generator) -> Module:
        return resnet20_cifar(
            rng, width_multiplier=preset.width_multiplier, num_classes=num_classes
        )

    return factory


def kfac_epochs_for(preset: ScalePreset) -> int:
    return preset.kfac_epochs


def sgd_epochs_for(preset: ScalePreset) -> int:
    """SGD budget keeps the paper's 90:55 epoch ratio vs K-FAC."""
    return max(preset.kfac_epochs + 1, int(round(preset.kfac_epochs * 90 / 55)))


def train_once(
    dataset: SyntheticImageDataset,
    preset: ScalePreset,
    world_size: int,
    epochs: int,
    kfac: KFACHyperParams | None,
    seed: int = 0,
    batch_size: int | None = None,
    lr: float | None = None,
    label_smoothing: float = 0.1,
    precision: str = "fp32",
) -> TrainingHistory:
    """One training run with the paper-proportional recipe."""
    bs = batch_size if batch_size is not None else preset.batch_size_per_worker
    global_batch = bs * world_size
    base_lr = lr if lr is not None else preset.base_lr_per_128 * global_batch / 128.0
    epochs = max(2, epochs)
    schedule = LinearWarmupSchedule(
        MultiStepSchedule(base_lr, [epochs * 0.5, epochs * 0.8]),
        warmup_epochs=max(0.5, epochs * 0.15),
    )
    cfg = TrainerConfig(
        world_size=world_size,
        batch_size=bs,
        epochs=epochs,
        lr_schedule=schedule,
        label_smoothing=label_smoothing,
        seed=seed,
        kfac=kfac,
        precision=precision,
    )
    tx, ty, vx, vy = dataset.splits
    trainer = DataParallelTrainer(
        make_model_factory(preset, num_classes=dataset.spec.num_classes),
        tx, ty, vx, vy, cfg,
    )
    return trainer.train()


def default_kfac_hp(**overrides: object) -> KFACHyperParams:
    """The paper-flavoured K-FAC hyper-parameters for scaled experiments."""
    base = dict(
        damping=0.003,
        factor_decay=0.95,
        kl_clip=0.01,
        fac_update_freq=1,
        kfac_update_freq=5,
        use_eigen_decomp=True,
    )
    base.update(overrides)
    return KFACHyperParams(**base)  # type: ignore[arg-type]
