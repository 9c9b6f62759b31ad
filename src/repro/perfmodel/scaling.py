"""Time-to-solution projection and scaling studies (Figs. 7–9, Tables IV–VI).

Epoch budgets follow the paper: SGD reaches the MLPerf baseline in 90
epochs, K-FAC (either distribution strategy) in 55.  K-FAC update intervals
scale with the number of GPUs so the update frequency per *epoch* is
constant: 2000/1000/500/250/125 iterations at 16/32/64/128/256 GPUs
(§VI-C2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perfmodel.hardware import (
    FRONTERA_LIKE,
    V100_LIKE,
    ClusterProfile,
    DeviceProfile,
)
from repro.perfmodel.iteration import IterationModel, KfacIntervals
from repro.perfmodel.specs import ModelSpec, resnet_spec

__all__ = [
    "IMAGENET_TRAIN_SIZE",
    "SGD_EPOCHS",
    "KFAC_EPOCHS",
    "PAPER_GPU_SCALES",
    "scale_interval_schedule",
    "ScalingPoint",
    "ScalingStudy",
    "improvement_table",
    "worker_speedup_table",
]

IMAGENET_TRAIN_SIZE = 1_281_167
SGD_EPOCHS = 90
KFAC_EPOCHS = 55
PAPER_GPU_SCALES = (16, 32, 64, 128, 256)


def scale_interval_schedule(gpus: int, base_gpus: int = 16, base_interval: int = 2000) -> int:
    """The paper's scale-proportional K-FAC update interval (§VI-C2).

    Example
    -------
    >>> from repro.perfmodel.scaling import scale_interval_schedule
    >>> scale_interval_schedule(16), scale_interval_schedule(256)
    (2000, 125)
    """
    if gpus < 1:
        raise ValueError(f"gpus must be >= 1, got {gpus}")
    return max(1, base_interval * base_gpus // gpus)


@dataclass(frozen=True)
class ScalingPoint:
    """Time-to-solution at one GPU count."""

    gpus: int
    sgd_minutes: float
    kfac_lw_minutes: float
    kfac_opt_minutes: float

    def improvement_opt(self) -> float:
        """Fractional improvement of K-FAC-opt over SGD (Table IV entry)."""
        return 1.0 - self.kfac_opt_minutes / self.sgd_minutes

    def improvement_lw(self) -> float:
        return 1.0 - self.kfac_lw_minutes / self.sgd_minutes


@dataclass
class ScalingStudy:
    """Full Figs. 7–9 sweep for one model depth.

    Example
    -------
    >>> from repro.perfmodel.scaling import ScalingStudy
    >>> points = ScalingStudy(depth=50, gpus=(16, 64)).run()
    >>> points[0].gpus, points[0].sgd_minutes > points[1].sgd_minutes
    (16, True)
    """

    depth: int
    gpus: tuple[int, ...] = PAPER_GPU_SCALES
    device: DeviceProfile = V100_LIKE
    cluster: ClusterProfile = FRONTERA_LIKE
    local_batch: int = 32
    dataset_size: int = IMAGENET_TRAIN_SIZE
    sgd_epochs: int = SGD_EPOCHS
    kfac_epochs: int = KFAC_EPOCHS
    assignment_policy: str = "round_robin"
    model: ModelSpec = field(init=False)

    def __post_init__(self) -> None:
        self.model = resnet_spec(self.depth)

    def _iteration_model(self) -> IterationModel:
        return IterationModel(self.model, self.device, self.cluster, self.local_batch)

    def run(self) -> list[ScalingPoint]:
        im = self._iteration_model()
        points = []
        for p in self.gpus:
            intervals = KfacIntervals.from_eig_interval(scale_interval_schedule(p))
            sgd = self.sgd_epochs * im.epoch_time(p, self.dataset_size)
            # the paper's two strategies are the ends of grad_worker_frac
            lw = self.kfac_epochs * im.epoch_time(
                p, self.dataset_size, intervals, grad_worker_frac=1.0 / p
            )
            opt = self.kfac_epochs * im.epoch_time(
                p, self.dataset_size, intervals, self.assignment_policy
            )
            points.append(
                ScalingPoint(
                    gpus=p,
                    sgd_minutes=sgd / 60.0,
                    kfac_lw_minutes=lw / 60.0,
                    kfac_opt_minutes=opt / 60.0,
                )
            )
        return points

    def scaling_efficiency(self, points: list[ScalingPoint] | None = None) -> dict[str, list[float]]:
        """Time-to-solution scaling efficiency relative to the smallest scale.

        ``eff(P) = (T(P0) * P0) / (T(P) * P)`` per optimizer.
        """
        pts = points if points is not None else self.run()
        base = pts[0]
        out: dict[str, list[float]] = {"sgd": [], "kfac-lw": [], "kfac-opt": []}
        for pt in pts:
            scale = base.gpus / pt.gpus
            out["sgd"].append(base.sgd_minutes / pt.sgd_minutes * scale)
            out["kfac-lw"].append(base.kfac_lw_minutes / pt.kfac_lw_minutes * scale)
            out["kfac-opt"].append(base.kfac_opt_minutes / pt.kfac_opt_minutes * scale)
        return out


def improvement_table(
    depths: tuple[int, ...] = (50, 101, 152),
    gpus: tuple[int, ...] = PAPER_GPU_SCALES,
    **study_kw: object,
) -> dict[int, list[float]]:
    """Table IV: fractional K-FAC-opt improvement over SGD, per depth/scale.

    Example
    -------
    >>> from repro.perfmodel.scaling import improvement_table
    >>> table = improvement_table(depths=(50,), gpus=(16, 64))
    >>> len(table[50]) == 2 and all(0 < v < 1 for v in table[50])
    True
    """
    table: dict[int, list[float]] = {}
    for depth in depths:
        study = ScalingStudy(depth=depth, gpus=gpus, **study_kw)  # type: ignore[arg-type]
        table[depth] = [pt.improvement_opt() for pt in study.run()]
    return table


def worker_speedup_table(
    depth: int,
    gpus: tuple[int, ...] = (16, 32, 64),
    policy: str = "round_robin",
    device: DeviceProfile = V100_LIKE,
    cluster: ClusterProfile = FRONTERA_LIKE,
) -> dict[int, tuple[float, float]]:
    """Table VI: (min, max) eigendecomposition worker speedup vs the base scale.

    ``min`` follows the slowest worker (the stage barrier), ``max`` the
    fastest — the widening gap quantifies round-robin load imbalance.
    """
    im = IterationModel(resnet_spec(depth), device, cluster)
    base_times = im.eig_worker_times(gpus[0], policy=policy)
    base_slow, base_fast = max(base_times), min(base_times)
    out: dict[int, tuple[float, float]] = {}
    for p in gpus:
        times = im.eig_worker_times(p, policy=policy)
        slow, fast = max(times), min(times)
        min_speedup = base_slow / slow if slow > 0 else float("inf")
        max_speedup = base_fast / fast if fast > 0 else float("inf")
        out[p] = (min_speedup, max_speedup)
    return out
