"""The four training workloads of the benchmark of record.

Each workload fixes a model, a synthetic task, a world size and a K-FAC
configuration.  The benchmark seed reaches only :meth:`Workload.make_data`
and the batch sampler in ``run.py``; model initialisation always uses
``MODEL_SEED``, so two seeds train the same network on different inputs.

Sizes were chosen on the 2-core reference host (one BLAS thread) so that
100 timed K-FAC steps plus 48 SGD steps take 6-11 s: the manifest's time cap
(92 runs in 3420 s) leaves ~37 s per run including three set-ups and eight
checkpoint round trips.  That is why the single-worker workload runs the
``small`` preset's model at batch 32 rather than 64 and the transformer a
1024-token vocabulary rather than 2048 (0.9 s refresh steps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.preconditioner import COMM_OPT, LAYER_WISE, KFACHyperParams
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.experiments.transformer_exp import make_token_task
from repro.nn.resnet import resnet20_cifar
from repro.nn.transformer import TinyTransformer
from repro.optim.lr_scheduler import ConstantSchedule
from repro.parallel.trainer import DataParallelTrainer, TrainerConfig

__all__ = ["MODEL_SEED", "WARMUP_STEPS", "Workload", "WORKLOADS", "BY_NAME"]

MODEL_SEED = 0
WARMUP_STEPS = 5
NUM_CLASSES = 10

#: shared K-FAC settings (the paper-flavoured recipe of
#: ``repro.experiments.common.default_kfac_hp``, pinned here so a preset
#: change elsewhere cannot silently move the benchmark)
_KFAC_BASE: dict[str, Any] = dict(
    damping=0.003,
    factor_decay=0.95,
    kl_clip=0.01,
    fac_update_freq=1,
    kfac_update_freq=5,
    use_eigen_decomp=True,
)

# ResNet-20 (CIFAR layout) at two scales: the ``small`` experiment preset's
# model for the single-worker workload, the ``tiny`` one for the P=4 pair
_SMALL = dict(width=0.5, image_size=14)
_TINY = dict(width=0.25, image_size=10)
#: the image task (class templates, pairing) is drawn once from this seed;
#: the benchmark seed picks which ``_RESNET_SAMPLES`` of the pool a run sees.
#: Redrawing the task per seed moved the loss by ~9% between seeds, which
#: would drown any change a later PR makes to it.
_TASK_SEED = 7
_RESNET_POOL = 6144
_RESNET_SAMPLES = 2048

_TX = dict(vocab_size=1024, seq_len=16, dim=32, num_heads=4, depth=2)
_TX_SAMPLES = 4096


def _resnet(width: float, image_size: int) -> tuple[Callable, Callable]:
    """(make_data, make_model) of a width-scaled ResNet-20 workload."""

    def make_data(seed: int) -> tuple[np.ndarray, np.ndarray]:
        spec = SyntheticSpec(
            n_train=_RESNET_POOL,
            n_val=NUM_CLASSES,
            num_classes=NUM_CLASSES,
            image_size=image_size,
            channels=3,
            noise=0.8,
            max_shift=2,
            amplitude_jitter=0.2,
            conditioning=25.0,
            class_pairing=0.3,
            seed=_TASK_SEED,
        )
        pool = SyntheticImageDataset(spec)
        pick = np.random.default_rng([seed, 0]).permutation(_RESNET_POOL)[:_RESNET_SAMPLES]
        return pool.train_x[pick], pool.train_y[pick]

    def make_model(rng: np.random.Generator):
        return resnet20_cifar(rng, width_multiplier=width, num_classes=NUM_CLASSES)

    return make_data, make_model


_SMALL_DATA, _SMALL_MODEL = _resnet(**_SMALL)
_TINY_DATA, _TINY_MODEL = _resnet(**_TINY)


def _token_data(seed: int) -> tuple[np.ndarray, np.ndarray]:
    return make_token_task(
        _TX_SAMPLES, _TX["seq_len"], _TX["vocab_size"], NUM_CLASSES, seed=seed
    )


def _transformer_model(rng: np.random.Generator):
    return TinyTransformer(num_classes=NUM_CLASSES, rng=rng, **_TX)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``why`` is repeated in ``BENCHMARK.json``."""

    name: str
    why: str
    world_size: int
    #: per-worker batch
    batch_size: int
    lr: float
    make_data: Callable[[int], tuple[np.ndarray, np.ndarray]]
    make_model: Callable[[np.random.Generator], Any]
    #: ``KFACHyperParams`` keyword arguments on top of ``_KFAC_BASE``
    kfac: dict[str, Any] = field(default_factory=dict)
    #: world size of the COMM_OPT trainer the checkpoint is restored into
    #: (None: restored into the trainer that saved it)
    reshard_to: int | None = None

    @property
    def global_batch(self) -> int:
        return self.world_size * self.batch_size

    def kfac_hyper(self, **overrides: Any) -> KFACHyperParams:
        return KFACHyperParams(**{**_KFAC_BASE, **self.kfac, **overrides})

    def trainer(
        self,
        x: np.ndarray,
        y: np.ndarray,
        kfac: KFACHyperParams | None,
        world_size: int | None = None,
        tracer: Any | None = None,
    ) -> DataParallelTrainer:
        """A trainer over ``(x, y)``; ``kfac=None`` is the SGD control."""
        config = TrainerConfig(
            world_size=world_size if world_size is not None else self.world_size,
            batch_size=self.batch_size,
            epochs=1,
            # keeps the loss floor away from 0, so a relative bound on
            # train_loss_final stays meaningful once the task is fitted
            label_smoothing=0.1,
            seed=MODEL_SEED,
            kfac=kfac,
            lr_schedule=ConstantSchedule(self.lr),
            tracer=tracer,
        )
        # validation data is never evaluated; one row per class satisfies
        # the constructor
        return DataParallelTrainer(
            self.make_model, x, y, x[:NUM_CLASSES], y[:NUM_CLASSES], config
        )


WORKLOADS: tuple[Workload, ...] = (
    # The plain single-worker baseline: nn/tensor kernels and core.factors
    # capture + Gram work are ~all of the step, comm and scheduling ~none,
    # so kernel and factor-path gains show here and nowhere hide behind
    # replicas.
    Workload(
        name="resnet_p1",
        why="single worker, width-0.5 ResNet-20, batch 32: nn/tensor kernels and factor "
        "Gram work are the whole step, comm and scheduling none; the plain baseline",
        world_size=1,
        batch_size=32,
        lr=0.05,
        make_data=_SMALL_DATA,
        make_model=_SMALL_MODEL,
        kfac=dict(strategy=COMM_OPT, scheduler="sync"),
    ),
    # Many small layers x 4 lockstep replicas with small batches:
    # PhaseController + GraphExecutor + World collectives + tri-pack/codec
    # are a large share of the step, factor dims <= ~150 so eig is
    # negligible; per-task Python overhead and comm plumbing gains show here.
    Workload(
        name="resnet_p4_hybrid",
        why="width-0.25 ResNet-20, P=4, batch 8, HYBRID f=0.5, graph scheduler, fp16 wire, greedy: per-task "
        "Python overhead, group collectives and codec dominate; eig negligible",
        world_size=4,
        batch_size=8,
        lr=0.05,
        make_data=_TINY_DATA,
        make_model=_TINY_MODEL,
        kfac=dict(
            grad_worker_frac=0.5,
            scheduler="graph",
            comm_dtype="fp16",
            assignment="greedy",
        ),
    ),
    # The 1024-wide embedding factor makes core.inverse (eigh), the dense
    # factor EMA and the largest checkpoint state dominate while
    # forward+backward is a small share; exercises the Embedding /
    # LayerNorm / attention handlers the ResNet workloads never touch.
    # (lr / damping: the default 0.05 / 0.003 diverges at this vocabulary.)
    Workload(
        name="transformer_p2_wide",
        why="P=2 LAYER_WISE transformer with a 1024-wide embedding factor: eigh, dense "
        "factor EMA and checkpoint size dominate; forward+backward is small",
        world_size=2,
        batch_size=16,
        lr=0.02,
        make_data=_token_data,
        make_model=_transformer_model,
        kfac=dict(strategy=LAYER_WISE, scheduler="sync", damping=0.03),
    ),
    # Same model, data, P and batch as resnet_p4_hybrid, but the sched,
    # comm, core.distributed and elastic layers are used the other way
    # (blocking request stream, world allgather of eigenbases, full
    # precision wire, resharding restore), so a gain for graph/HYBRID that
    # costs sync/COMM_OPT shows.
    Workload(
        name="resnet_p4_sync_reshard",
        why="same model/data/P as resnet_p4_hybrid but COMM_OPT, sync scheduler, fp32 "
        "wire, round-robin, checkpoint restored at P=2: the other mode of each layer",
        world_size=4,
        batch_size=8,
        lr=0.05,
        make_data=_TINY_DATA,
        make_model=_TINY_MODEL,
        kfac=dict(strategy=COMM_OPT, scheduler="sync", assignment="round_robin"),
        reshard_to=2,
    ),
)

BY_NAME: dict[str, Workload] = {w.name: w for w in WORKLOADS}
