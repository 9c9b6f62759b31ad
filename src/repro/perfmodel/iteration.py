"""Per-iteration / per-stage time model (paper Fig. 1 decomposition).

Assembles stage times for the two optimizers the paper benchmarks:

- **SGD**: ``T_iter = T_f + T_e + overhead + T_x`` with ``T_x`` the
  straggler-inflated ring allreduce of the gradients;
- **K-FAC** adds, amortized over the update intervals, the factor stage
  (bandwidth-bound compute + capture overhead + flat allreduce) and the
  eigendecomposition stage (slowest worker + eigenbasis share), and on
  every iteration the preconditioning stage and the
  preconditioned-gradient share.

The model speaks the runtime's two axes and nothing else.  Placement is
``grad_worker_frac`` ``f``, with ``g = grad_worker_count(p, f)`` gradient
workers per layer; every stage has one formula keyed on ``g``.  The
schedule is ``scheduler``: ``"sync"`` exposes every transfer, ``"graph"``
hides what the task-graph scheduler overlaps.  The paper's two
strategies are the ends of ``f``: K-FAC-opt is ``f = 1`` (per-factor
assignment, a world eigenbasis allgather, and **no** per-iteration
communication — the §IV-C claim), K-FAC-lw is ``f = 1/p`` (whole layers
on one worker, decompositions kept local, and an allgather of
preconditioned gradients *every iteration* — a blocking collective that
pays the straggler penalty, the root of its worse scaling in Fig. 7).

All stage times derive from the real layer shapes via
:mod:`repro.perfmodel.costs` and the calibrated profiles in
:mod:`repro.perfmodel.hardware`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.comm.costmodel import allgather_time, allreduce_time, scatter_broadcast_time
from repro.comm.engine import DEFAULT_BUCKET_BYTES
from repro.core.assignment import (
    FactorMeta,
    FactorUnits,
    build_group_placement,
    grad_worker_count,
    plan_units,
    worker_costs,
)
from repro.perfmodel.costs import (
    eig_flops,
    factor_stage_bytes,
    layer_precondition_flops,
    model_backward_flops,
    model_forward_flops,
)
from repro.perfmodel.hardware import ClusterProfile, DeviceProfile
from repro.perfmodel.specs import ModelSpec

__all__ = ["KfacIntervals", "IterationModel", "StageProfile", "PRECISIONS"]

#: precision names the model understands (mirrors repro.precision policies)
PRECISIONS = ("fp32", "fp16", "bf16", "fp64")

#: wire itemsize of the compressed gradient/factor collectives per policy
_COMM_ITEMSIZE = {"fp32": 4, "fp16": 2, "bf16": 2, "fp64": 8}

#: storage itemsize of the compute-dtype operands (im2col patch traffic)
_COMPUTE_ITEMSIZE = {"fp32": 4, "fp16": 2, "bf16": 2, "fp64": 8}


def _check_precision(precision: str) -> str:
    if precision not in PRECISIONS:
        raise ValueError(f"unknown precision {precision!r}; choose from {PRECISIONS}")
    return precision


def _check_scheduler(scheduler: str) -> None:
    if scheduler not in ("sync", "graph"):
        raise ValueError(f"scheduler must be 'sync' or 'graph', got {scheduler!r}")


def _exposed(total: float, pieces: int, budget: float) -> float:
    """Seconds of ``total`` left exposed when it ships as ``pieces`` equal
    transfers hidden behind ``budget`` compute seconds: one piece always
    shows, and the rest only past the budget."""
    first = total / pieces
    return first + max(0.0, (total - first) - budget)


@dataclass(frozen=True)
class KfacIntervals:
    """Update intervals in iterations.

    ``eig_interval`` is the paper's *K-FAC update frequency* knob; factors
    are refreshed/communicated 10x more often (§V-C).

    Example
    -------
    >>> from repro.perfmodel.iteration import KfacIntervals
    >>> iv = KfacIntervals.from_eig_interval(500)
    >>> iv.eig_interval, iv.fac_interval
    (500, 50)
    """

    eig_interval: int
    fac_interval: int

    @classmethod
    def from_eig_interval(cls, eig_interval: int) -> "KfacIntervals":
        if eig_interval < 1:
            raise ValueError(f"eig_interval must be >= 1, got {eig_interval}")
        return cls(eig_interval=eig_interval, fac_interval=max(1, eig_interval // 10))


@dataclass(frozen=True)
class StageProfile:
    """Table V row: per-stage compute and communication seconds.

    ``*_tcomm`` is the full (synchronous) communication cost;
    ``*_tcomm_exposed`` is the critical-path remainder once the graph
    scheduler hides transfers behind compute (equal to ``*_tcomm`` for a
    synchronous profile).
    ``factor_comm_payload_bytes`` is the per-worker factor-allreduce wire
    payload the profile was computed with — halved under triangular
    packing (``symmetric=True``), zero when unset.

    Example
    -------
    >>> from repro.perfmodel.iteration import StageProfile
    >>> sp = StageProfile(factor_tcomp=0.1, factor_tcomm=0.4,
    ...                   eig_tcomp=0.2, eig_tcomm=0.3,
    ...                   factor_tcomm_exposed=0.1, eig_tcomm_exposed=0.3)
    >>> round(sp.hidden_comm, 10)             # 0.3 s masked by overlap
    0.3
    """

    factor_tcomp: float
    factor_tcomm: float
    eig_tcomp: float
    eig_tcomm: float
    factor_tcomm_exposed: float = -1.0
    eig_tcomm_exposed: float = -1.0
    factor_comm_payload_bytes: float = 0.0
    #: per-iteration second-stage (preconditioned-gradient share)
    #: seconds — zero at f = 1, the grad_worker_frac trade-off's cost
    precond_tcomm: float = 0.0
    #: per-rank eigendecomposition-state bytes a rank must hold — the
    #: grad_worker_frac trade-off's saving (full eig payload at f = 1)
    eigenbasis_bytes_per_rank: float = 0.0
    #: per-rank preconditioned-gradient bytes received per iteration from
    #: group roots (zero at f = 1, where every rank is a grad worker)
    precond_share_bytes_per_rank: float = 0.0

    def __post_init__(self) -> None:
        # default: synchronous profile, everything exposed
        if self.factor_tcomm_exposed < 0:
            object.__setattr__(self, "factor_tcomm_exposed", self.factor_tcomm)
        if self.eig_tcomm_exposed < 0:
            object.__setattr__(self, "eig_tcomm_exposed", self.eig_tcomm)

    @property
    def hidden_comm(self) -> float:
        """Communication seconds masked behind compute by pipelining."""
        return (self.factor_tcomm - self.factor_tcomm_exposed) + (
            self.eig_tcomm - self.eig_tcomm_exposed
        )


class IterationModel:
    """Stage/iteration/epoch times for one model on one cluster.

    Example
    -------
    >>> from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
    >>> from repro.perfmodel.iteration import IterationModel, KfacIntervals
    >>> from repro.perfmodel.specs import resnet_spec
    >>> im = IterationModel(resnet_spec(50), V100_LIKE, FRONTERA_LIKE)
    >>> iv = KfacIntervals.from_eig_interval(500)
    >>> sgd = im.sgd_iteration_time(64)
    >>> kfac = im.kfac_iteration_time(64, iv)
    >>> 0.0 < sgd < kfac                      # K-FAC adds amortized stages
    True
    >>> mem = im.eigenbasis_bytes_per_rank(64, grad_worker_frac=0.25)
    >>> mem < im.eigenbasis_bytes_per_rank(64, grad_worker_frac=1.0)
    True
    """

    def __init__(
        self,
        model: ModelSpec,
        device: DeviceProfile,
        cluster: ClusterProfile,
        local_batch: int = 32,
    ) -> None:
        if local_batch < 1:
            raise ValueError(f"local_batch must be >= 1, got {local_batch}")
        self.model = model
        self.device = device
        self.cluster = cluster
        self.local_batch = local_batch
        self._factor_metas = self._build_metas()

    def _build_metas(self) -> list[FactorMeta]:
        metas: list[FactorMeta] = []
        for l in self.model.kfac_layers:
            metas.append(FactorMeta(l.name, "A", l.a_dim, l.diagonal_A))
        for l in self.model.kfac_layers:
            metas.append(FactorMeta(l.name, "G", l.g_dim))
        return metas

    def _units(
        self,
        diag_blocks: int = 1,
        p: int = 1,
        policy: str = "round_robin",
        grad_worker_frac: float = 1.0,
    ) -> FactorUnits:
        """Assignment/scheduling units at the given block granularity.

        ``diag_blocks=1`` is the whole-factor baseline; ``> 1`` splits
        each factor into the same widest-first diagonal blocks the real
        ``KFAC(diag_blocks=k)`` preconditioner schedules, placed on ``p``
        ranks inside the gradient-worker groups of ``grad_worker_frac``
        by the same construction.
        """
        bounds = self.model.block_bounds(diag_blocks) if diag_blocks > 1 else None
        return plan_units(self._factor_metas, p, policy, grad_worker_frac, bounds)

    @property
    def n_layers(self) -> int:
        return len(self.model.kfac_layers)

    # ------------------------------------------------------------------
    # base (SGD) stages
    # ------------------------------------------------------------------
    def _gemm_efficiency(self) -> float:
        """Per-model GEMM efficiency (bigger layers run closer to peak)."""
        img_flops = model_forward_flops(self.model, 1)
        ratio = img_flops / self.device.gemm_ref_image_flops
        lo, hi = self.device.gemm_eff_bounds
        return min(max(ratio**self.device.gemm_scaling_exp, lo), hi)

    def effective_gemm_flops(self, precision: str = "fp32") -> float:
        """Effective GEMM throughput at the given compute precision.

        fp16/bf16 run on the Tensor-Core rate (``tensorcore_flops``; fp32
        rate if the device has none), fp64 at ``fp64_flops_scale`` of the
        fp32 rate — each modulated by the same per-model efficiency.
        """
        _check_precision(precision)
        peak = self.device.gemm_flops
        if precision in ("fp16", "bf16") and self.device.tensorcore_flops > 0:
            peak = self.device.tensorcore_flops
        elif precision == "fp64":
            peak = peak * self.device.fp64_flops_scale
        return peak * self._gemm_efficiency()

    def comm_itemsize(self, precision: str = "fp32") -> int:
        """Wire bytes per element of the compressed collectives."""
        return _COMM_ITEMSIZE[_check_precision(precision)]

    def forward_time(self, precision: str = "fp32") -> float:
        return model_forward_flops(self.model, self.local_batch) / self.effective_gemm_flops(
            precision
        )

    def backward_time(self, precision: str = "fp32") -> float:
        return model_backward_flops(self.model, self.local_batch) / self.effective_gemm_flops(
            precision
        )

    def grad_exchange_time(self, p: int, precision: str = "fp32") -> float:
        """Straggler-inflated fused ring allreduce of all gradients.

        Under a half policy the wire carries the fp16/bf16 codec payload
        — half the bytes of the fp32 exchange.
        """
        if p <= 1:
            return 0.0
        nbytes = self.model.grad_payload_bytes(self.comm_itemsize(precision))
        base = allreduce_time(nbytes, p, self.cluster.net)
        return base * self.cluster.sync_penalty(p)

    def sgd_iteration_time(self, p: int, precision: str = "fp32") -> float:
        return (
            self.forward_time(precision)
            + self.backward_time(precision)
            + self.device.per_iter_overhead
            + self.grad_exchange_time(p, precision)
        )

    # ------------------------------------------------------------------
    # K-FAC factor stage
    # ------------------------------------------------------------------
    def factor_compute_time(self, syrk: bool = False, precision: str = "fp32") -> float:
        """Factor-computation time — constant in P (Table V ``Tcomp``,
        the Fig. 10 quantity).

        Patch-traffic term plus a per-layer kernel-overhead term that
        grows ``~L^1.7`` — the paper's own Tcomp measurements grow
        super-linearly in model size (36.8 -> 218.4 ms for 2.35x params).
        ``syrk`` models the rank-k fast path, which writes only one
        triangle of each factor (the patch-read term, which dominates,
        is unchanged — hence the modest Tcomp gain the stage shows).
        The stage is bandwidth-bound, so half-precision patches
        (``precision="fp16"``/``"bf16"``) halve the traffic term.
        """
        itemsize = _COMPUTE_ITEMSIZE[_check_precision(precision)]
        traffic = (
            factor_stage_bytes(self.model, self.local_batch, syrk)
            * (itemsize / 4.0)
            / self.device.factor_bandwidth
        )
        overhead = self.device.factor_layer_coef * float(self.n_layers) ** self.device.factor_layer_exp
        return traffic + overhead

    def factor_capture_overhead(self) -> float:
        """Hook-capture / running-average dispatch overhead per update.

        Calibrated ~quadratic in layer count (see hardware.py); this is the
        super-linear model-complexity term behind the paper's §VI-C4
        deterioration analysis.
        """
        return self.device.factor_capture_coef * float(self.n_layers) ** 2

    def factor_comm_payload_bytes(
        self, packed: bool = False, precision: str = "fp32", diag_blocks: int = 1
    ) -> int:
        """Per-worker factor-allreduce wire payload.

        ``packed`` applies triangular packing (~0.5x); a half-precision
        ``precision`` applies the wire codec (another 0.5x) — combined,
        ~0.25x the dense fp32 payload.  ``diag_blocks > 1`` ships only
        the diagonal-block triangles (the blocked wire format).
        """
        return self.model.factor_payload_bytes(
            packed, self.comm_itemsize(precision), diag_blocks
        )

    def factor_comm_time(
        self,
        p: int,
        packed: bool = False,
        precision: str = "fp32",
        diag_blocks: int = 1,
    ) -> float:
        """Allreduce of all running-average factors (one op per factor).

        Rare and bandwidth-dominated — empirically flat in P (Table V), so
        no straggler penalty.  ``packed`` models the triangular-packed
        exchange (``KFAC(symmetric_comm=True)``): ~half the bytes.
        """
        if p <= 1:
            return 0.0
        base = allreduce_time(
            self.factor_comm_payload_bytes(packed, precision, diag_blocks),
            p,
            self.cluster.net,
        )
        return base + self.cluster.op_launch * len(self._units(diag_blocks).metas)

    # ------------------------------------------------------------------
    # K-FAC eigendecomposition stage
    # ------------------------------------------------------------------
    def _eig_seconds(self, dim: int, diagonal: bool = False) -> float:
        """One factor's (or block's) decomposition; O(dim) when diagonal."""
        flops = float(dim) if diagonal else eig_flops(dim, self.device.eig_flop_coef)
        return flops / self.device.eig_flops + self.device.eig_factor_overhead

    def eig_worker_times(
        self,
        p: int,
        grad_worker_frac: float = 1.0,
        policy: str = "round_robin",
        diag_blocks: int = 1,
    ) -> list[float]:
        """Per-worker eigendecomposition seconds for one K-FAC update.

        Uses the *real* placement
        (:func:`repro.core.assignment.build_group_placement`): each factor
        goes to a member of its layer's gradient-worker group by
        ``policy``.  ``f = 1`` assigns individual factors over the world
        (K-FAC-opt); ``f = 1/p`` keeps both factors of a layer on its
        owner (K-FAC-lw).  ``diag_blocks > 1`` assigns per-block
        eigendecompositions — the cubic cost drop plus the finer LPT
        balance of the blocked path.
        """
        units = self._units(diag_blocks, p, policy, grad_worker_frac)
        return worker_costs(
            units.metas, units.assignment, p,
            cost_fn=lambda m: self._eig_seconds(m.dim, m.diagonal),
        )

    def eig_stage_time(
        self,
        p: int,
        grad_worker_frac: float = 1.0,
        policy: str = "round_robin",
        diag_blocks: int = 1,
    ) -> float:
        """Slowest-worker eigendecomposition time (the stage is a barrier)."""
        return max(self.eig_worker_times(p, grad_worker_frac, policy, diag_blocks))

    def eig_comm_time(
        self, p: int, grad_worker_frac: float = 1.0, diag_blocks: int = 1
    ) -> float:
        """Eigenbasis-share seconds for one K-FAC update (flat in P).

        With ``g`` gradient workers per layer: at ``g >= p`` one world
        allgather of every decomposition; at ``g = 1`` nothing, since
        decompositions stay on their owner; in between, each rank performs
        the window allgathers it belongs to, each moving one group's share
        of the eig payload among ``g`` ranks.  Only ``min(p, n_layers)``
        distinct windows exist (one per canonical owner), so a rank sits
        in ``g * min(p, L) / p`` of them on average.  The assignment
        policy does not enter: the gathered payload per group is the
        group's full eigenbasis regardless of which member decomposed
        which factor.
        """
        if p <= 1:
            return 0.0
        g = grad_worker_count(p, grad_worker_frac)
        if g == 1:
            return 0.0
        payload = self.model.eig_payload_bytes(4, diag_blocks)
        n_units = len(self._units(diag_blocks).metas)
        if g >= p:
            base = allgather_time(payload, p, self.cluster.net)
            return base + self.cluster.op_launch * n_units * 2
        n_groups = min(p, self.n_layers)
        per_rank_windows = g * n_groups / p
        per_group = payload / n_groups
        launches = self.cluster.op_launch * n_units * 2 * g / p
        return per_rank_windows * allgather_time(per_group, g, self.cluster.net) + launches

    def pipeline_chunks(
        self,
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        packed: bool = False,
        precision: str = "fp32",
        diag_blocks: int = 1,
    ) -> int:
        """Number of pipeline chunks the factor exchange splits into."""
        if bucket_bytes <= 0:
            raise ValueError(f"bucket_bytes must be positive, got {bucket_bytes}")
        return max(
            1,
            math.ceil(
                self.factor_comm_payload_bytes(packed, precision, diag_blocks)
                / bucket_bytes
            ),
        )

    # ------------------------------------------------------------------
    # K-FAC per-iteration stages: preconditioning and gradient share
    # ------------------------------------------------------------------
    def _precond_layer_time(self, layer_flops: float) -> float:
        overhead = self.device.precond_layer_coef * self.n_layers
        return layer_flops / self.device.precond_flops + overhead

    def precondition_time(self, p: int, grad_worker_frac: float = 1.0) -> float:
        """Slowest rank's preconditioning seconds per iteration.

        Every gradient worker of a layer preconditions it (redundantly —
        that is the KAISA trade: compute replicated inside the group so
        the eigenbasis need not leave it).  ``f = 1`` preconditions every
        layer on every rank (K-FAC-opt); ``f = 1/p`` gives the slowest
        owner's load (K-FAC-lw).
        """
        placement = build_group_placement(self._factor_metas, p, grad_worker_frac)
        loads = [0.0] * p
        for l in self.model.kfac_layers:
            t = self._precond_layer_time(layer_precondition_flops(l))
            for r in placement.groups[l.name]:
                loads[r] += t
        return max(loads)

    def precond_share_time(self, p: int, grad_worker_frac: float = 1.0) -> float:
        """Preconditioned-gradient share seconds per iteration.

        A per-iteration blocking stage, so the straggler penalty applies —
        the K-FAC-lw scaling pathology, dialled in continuously by ``f``.
        With ``g`` gradient workers per layer:

        - ``g >= p``: zero — every rank preconditions every layer;
        - ``1 < g < p``: each group root broadcasts its fused per-root
          gradient shard to the ``p - g`` non-members (a ``p - g + 1``-rank
          scatter+allgather broadcast, the bandwidth-optimal
          large-payload algorithm).  Groups start at the layer's
          canonical owner ``i % p``, so only ``min(p, n_layers)`` distinct
          roots exist — the launch count and shard size follow the real
          placement, not ``p``;
        - ``g = 1``: every root's participant set is the world, so the
          shares fuse into one world allgather of every layer's packed
          gradient (``grad:all``), priced like the paper's K-FAC-lw
          gradient allgather with one launch per layer.  BatchNorm
          gradients never ride it: they travel in the gradient allreduce.
        """
        if p <= 1:
            return 0.0
        g = grad_worker_count(p, grad_worker_frac)
        if g >= p:
            return 0.0
        if g == 1:
            base = allgather_time(self.model.grad_matrix_bytes, p, self.cluster.net)
            launches = self.cluster.op_launch * self.n_layers
        else:
            participants = p - g + 1
            roots = min(p, self.n_layers)
            per_root = self.model.grad_matrix_bytes / roots
            base = roots * scatter_broadcast_time(per_root, participants, self.cluster.net)
            launches = self.cluster.op_launch * roots
        return base * self.cluster.sync_penalty(p) + launches

    # ------------------------------------------------------------------
    # the grad_worker_frac memory-vs-communication trade
    # ------------------------------------------------------------------
    def eigenbasis_bytes_per_rank(
        self, p: int, grad_worker_frac: float = 1.0, diag_blocks: int = 1
    ) -> float:
        """Second-order state bytes one rank must hold under fraction ``f``.

        A rank stores the eigenbases only of layers whose gradient-worker
        group it belongs to — ``g/p`` of the model with contiguous
        groups.  ``f = 1`` is the K-FAC-opt memory footprint (every rank
        holds every basis); ``f = 1/p`` the K-FAC-lw one.  Strictly
        decreasing in the group size, hence in ``f`` along a halving
        sweep — the memory side of the KAISA Pareto frontier.
        ``diag_blocks > 1`` holds only the per-block bases.
        """
        if p < 1:
            raise ValueError(f"world size must be >= 1, got {p}")
        g = grad_worker_count(p, grad_worker_frac)
        return self.model.eig_payload_bytes(4, diag_blocks) * g / p

    def precond_share_bytes_per_rank(self, p: int, grad_worker_frac: float = 1.0) -> float:
        """Per-iteration preconditioned-gradient bytes one rank receives.

        A rank outside a layer's group receives that layer's packed
        gradient from the group root each iteration; a rank is a
        non-member for ``(p - g)/p`` of the layers.  Zero at ``f = 1``
        (no second stage), maximal at ``f = 1/p`` — the communication
        side of the Pareto frontier, strictly increasing as ``f``
        decreases.
        """
        if p < 1:
            raise ValueError(f"world size must be >= 1, got {p}")
        g = grad_worker_count(p, grad_worker_frac)
        return self.model.grad_matrix_bytes * (p - g) / p

    # ------------------------------------------------------------------
    # Table V profile, amortized iteration & epoch times
    # ------------------------------------------------------------------
    def stage_profile(
        self,
        p: int,
        policy: str = "round_robin",
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        symmetric: bool = False,
        precision: str = "fp32",
        grad_worker_frac: float = 1.0,
        scheduler: str = "sync",
        diag_blocks: int = 1,
    ) -> StageProfile:
        """Per-update-step stage profile (the paper's Table V row).

        ``factor_tcomp`` is the covariance-GEMM time only, matching what
        Table V instruments (the capture overhead shows up in iteration
        times instead — see hardware.py notes).  ``symmetric=True`` uses
        the syrk compute rate and the triangular-packed allreduce payload.
        ``precision="fp16"`` applies the mixed-precision rates (half-width
        patch traffic, compressed factor wire); the eigendecomposition
        stage stays fp32 by policy.  ``grad_worker_frac=f`` sets the
        placement: the eigenbasis share of :meth:`eig_comm_time`, the
        second stage of :meth:`precond_share_time`, and the per-rank
        memory/volume fields that trace the memory-vs-comm Pareto
        frontier.

        ``scheduler="sync"`` exposes every transfer.  ``"graph"`` prices
        the dependency-graph task scheduler: each stream ships in pieces
        that hide behind the compute running while they are in flight,
        one piece always stays exposed (the leading factor bucket
        launches before any overlap compute exists; the trailing eig
        share follows the last decomposition), and each compute budget
        is spent once:

        - the **factor allreduce** ships in :meth:`pipeline_chunks`
          buckets launched as factors are produced (SPD-KFAC's
          pipelining), hidden behind the backward pass + covariance
          GEMMs + the *fastest* worker's eigendecompositions under the
          placement being priced (the least-overlapped rank sets the
          barrier for each bucket's install point);
        - the **eigenbasis share** is decoupled from the iteration
          (§V-B) and drains into preconditioning and the next
          iteration's forward/backward.  At ``g >= p`` the world
          allgather ships in the same buckets; for ``1 < g < p`` each of
          the ``min(p, n_layers)`` group windows launches as soon as its
          members' decompositions finish.

        The two budgets come from disjoint phases, so nothing is
        double-counted.  ``diag_blocks > 1`` prices the block-diagonal
        approximation: per-block eigendecompositions shrink ``eig_tcomp``
        (cubic cost) and the eig/factor wire and eigenbasis bytes
        (block-triangle payload); ``diag_blocks=1`` prices whole factors.
        """
        _check_scheduler(scheduler)
        fac_comm = self.factor_comm_time(
            p, packed=symmetric, precision=precision, diag_blocks=diag_blocks
        )
        eig_comm = self.eig_comm_time(p, grad_worker_frac, diag_blocks)
        fac_exposed, eig_exposed = fac_comm, eig_comm
        if scheduler == "graph":
            chunks = self.pipeline_chunks(bucket_bytes, symmetric, precision, diag_blocks)
            fac_budget = (
                self.backward_time(precision)
                + self.factor_compute_time(syrk=symmetric, precision=precision)
                + min(self.eig_worker_times(p, grad_worker_frac, policy, diag_blocks))
            )
            fac_exposed = _exposed(fac_comm, chunks, fac_budget)
            g = grad_worker_count(p, grad_worker_frac)
            windows = chunks if g >= p else min(p, self.n_layers)
            eig_budget = (
                self.precondition_time(p, grad_worker_frac)
                + self.forward_time(precision)
                + self.backward_time(precision)
            )
            eig_exposed = _exposed(eig_comm, windows, eig_budget)
        return StageProfile(
            factor_tcomp=self.factor_compute_time(syrk=symmetric, precision=precision),
            factor_tcomm=fac_comm,
            eig_tcomp=self.eig_stage_time(p, grad_worker_frac, policy, diag_blocks),
            eig_tcomm=eig_comm,
            factor_tcomm_exposed=fac_exposed,
            eig_tcomm_exposed=eig_exposed,
            factor_comm_payload_bytes=float(
                self.factor_comm_payload_bytes(symmetric, precision, diag_blocks)
            ),
            precond_tcomm=self.precond_share_time(p, grad_worker_frac),
            eigenbasis_bytes_per_rank=self.eigenbasis_bytes_per_rank(
                p, grad_worker_frac, diag_blocks
            ),
            precond_share_bytes_per_rank=self.precond_share_bytes_per_rank(
                p, grad_worker_frac
            ),
        )

    def kfac_iteration_time(
        self,
        p: int,
        intervals: KfacIntervals,
        policy: str = "round_robin",
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        symmetric: bool = False,
        precision: str = "fp32",
        grad_worker_frac: float = 1.0,
        scheduler: str = "sync",
        diag_blocks: int = 1,
    ) -> float:
        """Average per-iteration time including amortized K-FAC stages.

        Per factor update: covariance compute + capture overhead + the
        exposed factor allreduce; per eigendecomposition update: the
        slowest worker + the exposed eigenbasis share; every iteration:
        preconditioning + the preconditioned-gradient share.  Every
        argument after ``intervals`` means what it means in
        :meth:`stage_profile`: ``precision`` applies the mixed-precision
        rates (Tensor-Core forward/backward, half-width patch traffic,
        codec-compressed gradient/factor wire; the eig exchange stays fp32
        by policy), ``grad_worker_frac`` the placement (``f = 1`` is
        K-FAC-opt, ``f = 1/p`` K-FAC-lw), ``scheduler`` the exposed
        communication.
        """
        sp = self.stage_profile(
            p, policy, bucket_bytes, symmetric, precision,
            grad_worker_frac, scheduler, diag_blocks,
        )
        per_fac = sp.factor_tcomp + self.factor_capture_overhead() + sp.factor_tcomm_exposed
        per_eig = sp.eig_tcomp + sp.eig_tcomm_exposed
        per_iter = self.precondition_time(p, grad_worker_frac) + sp.precond_tcomm
        return (
            self.sgd_iteration_time(p, precision)
            + per_iter
            + per_fac / intervals.fac_interval
            + per_eig / intervals.eig_interval
        )

    def fig1_stage_times(
        self,
        p: int,
        intervals: KfacIntervals | None = None,
        policy: str = "round_robin",
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        symmetric: bool = False,
        precision: str = "fp32",
        grad_worker_frac: float = 1.0,
        scheduler: str = "sync",
    ) -> dict[str, float]:
        """Per-iteration seconds for the paper's Fig. 1 decomposition.

        Returns the five stages of the Fig. 1 breakdown — ``io``,
        ``forward``, ``gradient`` (the backward pass), ``exchange`` (the
        gradient allreduce), and ``update`` — as modeled per-iteration
        times.  With K-FAC ``intervals``, ``update`` is the full amortized
        K-FAC surcharge over plain SGD (:meth:`kfac_iteration_time` minus
        :meth:`sgd_iteration_time`); without them it is 0 (pure SGD
        applies the step in-place).

        The drift report (:mod:`repro.obs.report`) aligns these rows
        against a traced run's measured stage times.

        Example
        -------
        >>> from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
        >>> from repro.perfmodel.iteration import IterationModel, KfacIntervals
        >>> from repro.perfmodel.specs import resnet_spec
        >>> im = IterationModel(resnet_spec(50), V100_LIKE, FRONTERA_LIKE)
        >>> stages = im.fig1_stage_times(8, KfacIntervals.from_eig_interval(10))
        >>> sorted(stages)
        ['exchange', 'forward', 'gradient', 'io', 'update']
        >>> all(v > 0 for v in stages.values())
        True
        >>> im.fig1_stage_times(8)["update"]
        0.0
        """
        stages = {
            "io": self.device.per_iter_overhead,
            "forward": self.forward_time(precision),
            "gradient": self.backward_time(precision),
            "exchange": self.grad_exchange_time(p, precision),
            "update": 0.0,
        }
        if intervals is not None:
            stages["update"] = self.kfac_iteration_time(
                p,
                intervals,
                policy=policy,
                bucket_bytes=bucket_bytes,
                symmetric=symmetric,
                precision=precision,
                grad_worker_frac=grad_worker_frac,
                scheduler=scheduler,
            ) - self.sgd_iteration_time(p, precision)
        return stages

    def straggler_penalty(
        self,
        p: int,
        straggler_seconds: float,
        policy: str = "round_robin",
        scheduler: str = "sync",
        symmetric: bool = False,
        precision: str = "fp32",
        grad_worker_frac: float = 1.0,
    ) -> float:
        """Extra seconds one slow rank adds to a K-FAC update step.

        Synchronous collectives are lockstep: every rank waits out the
        straggler's full lateness.  The graph scheduler launches the
        K-FAC collectives asynchronously and only settles them when a
        dependent task needs the data, so a straggler's lateness is
        absorbed up to the profile's hidden-communication budget
        (``StageProfile.hidden_comm``) before it reaches the critical
        path: ``max(0, lateness - hidden_comm)``.  The penalty is
        monotone in the lateness, and strictly smaller under
        ``scheduler="graph"`` whenever the profile hides any
        communication at all.

        Example
        -------
        >>> from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
        >>> from repro.perfmodel.iteration import IterationModel
        >>> from repro.perfmodel.specs import resnet_spec
        >>> im = IterationModel(resnet_spec(50), V100_LIKE, FRONTERA_LIKE)
        >>> sync = im.straggler_penalty(64, 0.05, scheduler="sync")
        >>> graph = im.straggler_penalty(64, 0.05, scheduler="graph")
        >>> sync == 0.05 and 0.0 <= graph < sync
        True
        """
        _check_scheduler(scheduler)
        if straggler_seconds < 0:
            raise ValueError(
                f"straggler_seconds must be >= 0, got {straggler_seconds}"
            )
        if scheduler == "sync":
            return float(straggler_seconds)
        profile = self.stage_profile(
            p,
            policy=policy,
            symmetric=symmetric,
            precision=precision,
            grad_worker_frac=grad_worker_frac,
            scheduler="graph",
        )
        return max(0.0, float(straggler_seconds) - profile.hidden_comm)

    def iterations_per_epoch(self, p: int, dataset_size: int) -> int:
        global_batch = self.local_batch * p
        return (dataset_size + global_batch - 1) // global_batch

    def epoch_time(
        self,
        p: int,
        dataset_size: int,
        intervals: KfacIntervals | None = None,
        policy: str = "round_robin",
        precision: str = "fp32",
        grad_worker_frac: float = 1.0,
    ) -> float:
        """Seconds per epoch: SGD without ``intervals``, else K-FAC at ``f``."""
        iters = self.iterations_per_epoch(p, dataset_size)
        if intervals is None:
            return iters * self.sgd_iteration_time(p, precision)
        return iters * self.kfac_iteration_time(
            p, intervals, policy, precision=precision, grad_worker_frac=grad_worker_frac
        )
