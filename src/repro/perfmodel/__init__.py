"""Calibrated performance model for the paper's scaling results.

The paper's Tables III–VI and Figures 7–10 were measured on 16–256 V100
GPUs.  This package projects those quantities from first principles:

- **real layer shapes** of ResNet-50/101/152 at ImageNet resolution
  (:mod:`specs` walks the architectures symbolically);
- FLOP counts for forward/backward, Kronecker-factor computation,
  eigendecomposition, and preconditioning (:mod:`costs`);
- device and network profiles calibrated against the paper's own Table V
  measurements (:mod:`hardware`, :mod:`calibration`);
- per-iteration/per-epoch assembly for SGD and K-FAC at any
  ``grad_worker_frac`` (K-FAC-opt is ``f = 1``, K-FAC-lw ``f = 1/P``)
  and ``scheduler`` (:mod:`iteration`), and time-to-solution /
  efficiency projection (:mod:`scaling`).

Absolute times are model outputs, not measurements; the experiments print
them side-by-side with the paper's numbers and judge *shape* (ordering,
crossover, trends) — see ``docs/perfmodel.md``.
"""

from repro.perfmodel.specs import (
    KfacLayerSpec,
    ModelSpec,
    resnet_spec,
)
from repro.perfmodel.hardware import DeviceProfile, V100_LIKE
from repro.perfmodel.costs import (
    eig_flops,
    factor_flops,
    model_backward_flops,
    model_forward_flops,
    precondition_flops,
)
from repro.perfmodel.iteration import IterationModel, KfacIntervals
from repro.perfmodel.scaling import (
    ScalingStudy,
    improvement_table,
    scale_interval_schedule,
)

__all__ = [
    "KfacLayerSpec",
    "ModelSpec",
    "resnet_spec",
    "DeviceProfile",
    "V100_LIKE",
    "model_forward_flops",
    "model_backward_flops",
    "factor_flops",
    "eig_flops",
    "precondition_flops",
    "IterationModel",
    "KfacIntervals",
    "ScalingStudy",
    "improvement_table",
    "scale_interval_schedule",
]
