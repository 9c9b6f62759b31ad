"""Step planner: derive a task graph + schedule from K-FAC placement.

The planner is the *single* place where bucket-partition and tensor-fusion
decisions are made (SPD-KFAC's cost-model-driven tensor partitioning):

- :func:`plan_buckets` — the one bucket-partition entry point (the greedy
  contiguous partition previously copy-pasted across the private pipeline
  generators in ``core/preconditioner.py``);
- :func:`choose_bucket_bytes` — pick the bytes-per-bucket from the
  :mod:`repro.comm.costmodel` rates when the caller did not pin one: the
  latency/bandwidth crossover sets the floor (chunks below
  ``p * alpha * beta`` bytes are latency-dominated and cannot pipeline
  profitably), the payload split into ``target_buckets`` chunks sets the
  goal, and :data:`repro.comm.engine.DEFAULT_BUCKET_BYTES` caps the chunk
  so transfers stay interruptible;
- :func:`build_step_plan` — derive the full :class:`StepPlan` (task graph
  plus deterministic schedule) for any ``grad_worker_frac`` in
  ``[1/P, 1]`` — the paper's two strategies are its ends — from the
  comm/eig units
  (:func:`repro.core.assignment.plan_units`: metas, assignment, group
  buckets — whole factors or their diagonal blocks alike) and the
  second-stage gradient shares.

Every input is identical on every rank, so the resulting graph, schedule
and bucket partition are too — the lockstep property the drivers need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.comm.costmodel import EDR_LIKE, NetworkProfile
from repro.comm.engine import DEFAULT_BUCKET_BYTES, partition_buckets
from repro.core.assignment import FactorUnits
from repro.sched.graph import Task, TaskGraph, lint_schedule

__all__ = ["StepPlan", "build_step_plan", "choose_bucket_bytes", "plan_buckets"]

def plan_buckets(nbytes_list: Sequence[int], bucket_bytes: int) -> list[list[int]]:
    """The single bucket-partition entry point for pipelined K-FAC comm.

    Contiguous, order-preserving, at most ``bucket_bytes`` per bucket
    (oversize items get a bucket of their own) — delegates to
    :func:`repro.comm.engine.partition_buckets`, the one greedy
    implementation shared with the fusion-buffer sizing.

    Example
    -------
    >>> from repro.sched.planner import plan_buckets
    >>> plan_buckets([10, 10, 10, 25], bucket_bytes=20)
    [[0, 1], [2], [3]]
    """
    return partition_buckets(nbytes_list, bucket_bytes)


def choose_bucket_bytes(
    total_nbytes: int,
    world_size: int,
    net: NetworkProfile = EDR_LIKE,
    target_buckets: int = 4,
) -> int:
    """Bytes-per-bucket from the cost model, when none was pinned.

    Aims for ``target_buckets`` pipeline chunks, floored at the ring
    latency/bandwidth crossover ``p * alpha * beta`` (below which a chunk's
    ``(p-1)`` latency hops dominate its transfer time, so splitting buys no
    overlap) and capped at :data:`repro.comm.engine.DEFAULT_BUCKET_BYTES`.
    The floor wins over the cap on very high-latency/large worlds: there a
    coarser pipeline is the bandwidth-optimal choice.

    Example
    -------
    >>> from repro.sched.planner import choose_bucket_bytes
    >>> small = choose_bucket_bytes(1 << 10, world_size=4)
    >>> small >= 1 << 10          # tiny payloads stay a single bucket
    True
    >>> big = choose_bucket_bytes(1 << 30, world_size=4)
    >>> from repro.comm.engine import DEFAULT_BUCKET_BYTES
    >>> big == DEFAULT_BUCKET_BYTES
    True
    """
    if world_size < 1:
        raise ValueError(f"world size must be >= 1, got {world_size}")
    if target_buckets < 1:
        raise ValueError(f"target_buckets must be >= 1, got {target_buckets}")
    if total_nbytes <= 0:
        return DEFAULT_BUCKET_BYTES
    floor = max(1, int(world_size * net.latency * net.bandwidth))
    target = math.ceil(total_nbytes / target_buckets)
    return max(floor, min(DEFAULT_BUCKET_BYTES, target))


@dataclass(frozen=True)
class StepPlan:
    """One K-FAC update step, planned: graph + schedule + bucket partition.

    ``buckets`` holds unit *indices* per pipeline chunk (a single
    all-inclusive bucket for synchronous plans); ``schedule`` is the
    deterministic linearisation the executor walks; ``pipelined`` defers
    each collective's wait to its first dependent task instead of waiting
    the moment it is launched; ``units`` are the factors (or blocks) the
    indices refer to, with their owners — the executor runs on them.

    Example
    -------
    >>> from repro.core.assignment import FactorMeta, plan_units
    >>> from repro.sched.graph import Task, TaskGraph
    >>> from repro.sched.planner import StepPlan
    >>> g = TaskGraph([Task("precondition:fc", "Precondition")])
    >>> units = plan_units([FactorMeta("fc", "A", 4)])
    >>> plan = StepPlan(g, ("precondition:fc",), ((0,),), 4096, False, units)
    >>> plan.pipelined
    False
    """

    graph: TaskGraph
    schedule: tuple[str, ...]
    buckets: tuple[tuple[int, ...], ...]
    bucket_bytes: int
    pipelined: bool
    units: FactorUnits


def build_step_plan(
    *,
    world_size: int,
    units: FactorUnits,
    layer_names: Sequence[str],
    grad_shares: Sequence[tuple[Sequence[int], Sequence[str]]] = (),
    wire_nbytes_list: Sequence[int] | None = None,
    bucket_bytes: int | None = None,
    net: NetworkProfile = EDR_LIKE,
    update_factors: bool = True,
    update_second_order: bool = True,
    pipelined: bool = False,
) -> StepPlan:
    """Derive the validated task graph + schedule for one update step.

    Parameters mirror the preconditioner's per-rank-identical metadata:
    ``units`` (:func:`repro.core.assignment.plan_units`: the metas in
    communication order and the gradient-worker groups with the indices
    of their metas), ``layer_names`` (model order), ``grad_shares`` (per
    fused second-stage share: its root ranks — one for a broadcast,
    several for an allgather — and the layer names it ships), and
    ``wire_nbytes_list`` (per-unit wire bytes, required when a factor
    allreduce happens, i.e. ``update_factors`` and ``world_size > 1``).
    ``bucket_bytes=None`` defers to :func:`choose_bucket_bytes`.

    The synchronous plan waits on each collective in insertion order; the
    pipelined plan launches factor buckets up front and lets
    eigendecompositions, group shares, preconditioning and gradient
    shares overlap the in-flight transfers.

    Example
    -------
    >>> from repro.core.assignment import FactorMeta, plan_units
    >>> from repro.sched.planner import build_step_plan
    >>> units = plan_units([FactorMeta("fc", "A", 4), FactorMeta("fc", "G", 3)], 2, frac=1.0)
    >>> plan = build_step_plan(
    ...     world_size=2, units=units,
    ...     layer_names=["fc"], wire_nbytes_list=[64, 36],
    ...     bucket_bytes=32, pipelined=True)
    >>> [t.name for t in plan.graph.tasks][:3]
    ['factor_comm:0', 'factor_comm:1', 'eig:fc/A']
    >>> plan.graph.reachable("factor_comm:0", "precondition:fc")
    True
    """
    factor_metas, groups = units.metas, units.groups
    n = len(factor_metas)
    has_factor_comm = update_factors and world_size > 1
    if has_factor_comm and wire_nbytes_list is None:
        raise ValueError("wire_nbytes_list required when the factor allreduce runs")

    if bucket_bytes is None:
        total = int(sum(wire_nbytes_list)) if wire_nbytes_list is not None else 0
        bucket_bytes = choose_bucket_bytes(total, max(1, world_size), net)

    if has_factor_comm and pipelined:
        buckets = plan_buckets(list(wire_nbytes_list), bucket_bytes)
    else:
        # synchronous exchange (or none): one all-inclusive chunk
        buckets = [list(range(n))] if n else []
    bucket_of = {i: b for b, idxs in enumerate(buckets) for i in idxs}

    graph = TaskGraph()
    factor_task_names: tuple[str, ...] = ()
    if has_factor_comm:
        names = []
        for b, idxs in enumerate(buckets):
            layers = tuple(dict.fromkeys(factor_metas[i].layer for i in idxs))
            graph.add(
                Task(f"factor_comm:{b}", "FactorComm", layers=layers, payload={"bucket": b})
            )
            names.append(f"factor_comm:{b}")
        factor_task_names = tuple(names)

    eig_names_by_bucket: dict[int, list[str]] = {b: [] for b in range(len(buckets))}
    layer_eig_share: dict[str, tuple[str, ...]] = {}
    share_after_bucket: dict[int, list[str]] = {b: [] for b in range(len(buckets))}
    if update_second_order:
        for i, meta in enumerate(factor_metas):
            deps = (f"factor_comm:{bucket_of[i]}",) if has_factor_comm else ()
            graph.add(
                Task(
                    f"eig:{meta.key}",
                    "Eig",
                    deps=deps,
                    layers=(meta.layer,),
                    payload={"meta": i},
                )
            )
            eig_names_by_bucket[bucket_of[i]].append(f"eig:{meta.key}")
        for gi, (ranks, idxs) in enumerate(groups):
            name = f"eig_share:grp{ranks[0]}"
            layers = tuple(dict.fromkeys(factor_metas[i].layer for i in idxs))
            graph.add(
                Task(
                    name,
                    "EigShare",
                    deps=tuple(f"eig:{factor_metas[i].key}" for i in idxs),
                    layers=layers,
                    payload={"group": gi, "metas": tuple(idxs), "ranks": tuple(ranks)},
                )
            )
            last = max(bucket_of[i] for i in idxs) if idxs else 0
            share_after_bucket.setdefault(last, []).append(name)
            for layer in layers:
                layer_eig_share[layer] = (name,)

    precondition_names: list[str] = []
    for name in layer_names:
        deps = layer_eig_share.get(name, factor_task_names if not update_second_order else ())
        graph.add(
            Task(
                f"precondition:{name}",
                "Precondition",
                deps=tuple(deps),
                layers=(name,),
                payload={"layer": name},
            )
        )
        precondition_names.append(f"precondition:{name}")

    grad_share_names: list[str] = []
    for ei, (roots, entry_layers) in enumerate(grad_shares):
        name = f"grad_share:root{roots[0]}" if len(roots) == 1 else "grad_share:all"
        graph.add(
            Task(
                name,
                "GradShare",
                deps=tuple(f"precondition:{ln}" for ln in entry_layers),
                layers=tuple(entry_layers),
                payload={"entry": ei},
            )
        )
        grad_share_names.append(name)

    if pipelined:
        # launch every factor bucket up front, then interleave: a bucket's
        # eigendecompositions run behind the next buckets' transfers, each
        # share launches as soon as its last factor bucket's eigs are done,
        # and preconditioning/gradient shares overlap the tail.
        schedule: list[str] = list(factor_task_names)
        for b in range(len(buckets)):
            schedule.extend(eig_names_by_bucket.get(b, ()))
            schedule.extend(share_after_bucket.get(b, ()))
        schedule.extend(precondition_names)
        schedule.extend(grad_share_names)
    else:
        # synchronous plan: the insertion order
        schedule = [t.name for t in graph.tasks]

    graph.validate()
    lint_schedule(graph, schedule)
    return StepPlan(
        graph=graph,
        schedule=tuple(schedule),
        buckets=tuple(tuple(b) for b in buckets),
        bucket_bytes=int(bucket_bytes),
        pipelined=bool(pipelined),
        units=units,
    )
