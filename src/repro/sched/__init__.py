"""Dependency-graph task scheduler for the K-FAC update step.

Every placement — the gradient-worker fraction ``f``, with COMM_OPT and
LAYER_WISE as its ``f = 1`` and ``f = 1/P`` ends — and both execution
styles run through one plan-then-execute route, SPD-KFAC style:

- :mod:`repro.sched.graph` — :class:`Task`/:class:`TaskGraph`: per-layer
  task nodes (``FactorComm``, ``Eig``, ``EigShare``, ``Precondition``,
  ``GradShare``) with explicit data-dependency edges, deterministic
  topological ordering, and a schedule linter;
- :mod:`repro.sched.planner` — derive a :class:`StepPlan` from the
  gradient-worker placement for any ``grad_worker_frac`` in ``[1/P, 1]``,
  with bucket-partition and tensor-fusion decisions priced by the
  :mod:`repro.comm.costmodel` rates;
- :mod:`repro.sched.executor` — :class:`GraphExecutor` runs the plan over
  the launch/wait step-generator protocol of :mod:`repro.core.comm_ops`,
  so the existing drivers execute it unchanged.

``KFAC(scheduler="graph")`` pipelines the collectives; ``"sync"`` waits
for each one as it is launched.
"""

from repro.sched.graph import (
    TASK_KINDS,
    SchedulerError,
    Task,
    TaskGraph,
    lint_schedule,
)
from repro.sched.planner import (
    StepPlan,
    build_step_plan,
    choose_bucket_bytes,
    plan_buckets,
)
from repro.sched.executor import GraphExecutor

__all__ = [
    "TASK_KINDS",
    "Task",
    "TaskGraph",
    "SchedulerError",
    "lint_schedule",
    "StepPlan",
    "build_step_plan",
    "choose_bucket_bytes",
    "plan_buckets",
    "GraphExecutor",
]
