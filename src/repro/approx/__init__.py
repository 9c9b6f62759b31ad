"""Approximation & adaptivity: block-diagonal factors, drift-triggered
eigenbasis refresh, and adaptive damping.

The exact K-FAC pipeline eigendecomposes every d×d factor on a fixed
schedule.  This package trades bounded approximation error for
superlinear FLOP/byte savings on the widest layers, and replaces the
fixed refresh schedule with feedback:

- :mod:`repro.approx.blocks` — the ``diag_blocks`` widest-layer-first
  block partition policy (pure index math, shared by preconditioner,
  planner, perfmodel, and tests).  The blocks themselves travel in the
  core types: a block is a :class:`~repro.core.assignment.FactorMeta`
  with block coordinates, and a blocked basis is a
  :class:`~repro.core.inverse.FactorEig` with one basis per block, built
  by ``eigendecompose(factor, bounds=...)`` and applied by
  ``precondition_eigen``.
- :mod:`repro.approx.adaptive` — :class:`DriftTrigger` (refresh when the
  factor EMA drifts from the decomposed snapshot, hard-capped by the
  ``max_eig_staleness`` budget) and :class:`AdaptiveDamping` (LM-style
  damping driven by the Eq. 18 KL-clip statistic).

Everything is wired into :class:`repro.core.preconditioner.KFAC` via the
``diag_blocks`` / ``diag_warmup`` / ``drift_tol`` / ``adapt_damping``
hyperparameters; see ``docs/approximation.md``.
"""

from repro.approx.adaptive import AdaptiveDamping, DriftTrigger
from repro.approx.blocks import (
    block_boundaries,
    block_eig_elements,
    plan_block_bounds,
    widest_first_block_dim,
)

__all__ = [
    "block_boundaries",
    "widest_first_block_dim",
    "plan_block_bounds",
    "block_eig_elements",
    "DriftTrigger",
    "AdaptiveDamping",
]
