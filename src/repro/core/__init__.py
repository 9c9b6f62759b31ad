"""Distributed K-FAC gradient preconditioner — the paper's contribution.

Layout:

- :mod:`repro.core.factors` — Kronecker factor computation ``A``/``G`` for
  Linear and Conv2d (KFC math for convolutions) and running averages
  (Eqs. 5, 16, 17);
- :mod:`repro.core.inverse` — the two update algorithms the paper compares:
  explicit factored inverse (Eq. 11–12) and implicit eigendecomposition
  (Eqs. 13–15), plus dense reference operators for testing;
- :mod:`repro.core.layers` — per-layer handlers bridging module hooks to
  factor math;
- :mod:`repro.core.assignment` — factor -> worker placement (round-robin as
  in Algorithm 1; greedy size-balanced LPT as the §VI-C4 extension);
- :mod:`repro.core.clipping` — the Eq. 18 gradient-scaling factor;
- :mod:`repro.core.schedule` — damping decay and update-frequency decay;
- :mod:`repro.core.preconditioner` — the :class:`KFAC` preconditioner
  implementing Algorithm 1 as a driver-agnostic generator;
- :mod:`repro.core.distributed` — the two transports: phase-style lockstep
  controller and threaded SPMD adapter.
"""

from repro.core.assignment import (
    FactorMeta,
    GroupPlacement,
    plan_units,
    build_group_placement,
    grad_worker_count,
    grad_worker_groups,
    greedy_balanced_assignment,
    round_robin_assignment,
)
from repro.core.clipping import kl_clip_factor
from repro.core.factors import (
    conv2d_factor_A,
    conv2d_factor_G,
    ema_update,
    linear_factor_A,
    linear_factor_G,
)
from repro.core.inverse import (
    FactorEig,
    dense_damped_inverse_apply,
    dense_fisher_block,
    eigendecompose,
    explicit_damped_inverse,
    precondition_eigen,
    precondition_inverse,
)
from repro.core.preconditioner import (
    COMM_OPT,
    HYBRID,
    LAYER_WISE,
    KFAC,
    KFACHyperParams,
)
from repro.core.distributed import PhaseController, SPMDDriver
from repro.core.schedule import KFACParamScheduler

__all__ = [
    "KFAC",
    "KFACHyperParams",
    "COMM_OPT",
    "LAYER_WISE",
    "HYBRID",
    "PhaseController",
    "SPMDDriver",
    "KFACParamScheduler",
    "FactorMeta",
    "plan_units",
    "round_robin_assignment",
    "greedy_balanced_assignment",
    "GroupPlacement",
    "build_group_placement",
    "grad_worker_count",
    "grad_worker_groups",
    "kl_clip_factor",
    "linear_factor_A",
    "linear_factor_G",
    "conv2d_factor_A",
    "conv2d_factor_G",
    "ema_update",
    "FactorEig",
    "eigendecompose",
    "explicit_damped_inverse",
    "precondition_eigen",
    "precondition_inverse",
    "dense_fisher_block",
    "dense_damped_inverse_apply",
]
