"""Per-iteration / per-stage time model (paper Fig. 1 decomposition).

Assembles stage times for the three optimizers the paper benchmarks:

- **SGD**: ``T_iter = T_f + T_e + overhead + T_x`` with ``T_x`` the
  straggler-inflated ring allreduce of the gradients;
- **K-FAC-opt** adds, amortized over the update intervals: the factor
  stage (bandwidth-bound compute + capture overhead + flat allreduce),
  the slowest-worker eigendecomposition under *per-factor* round-robin
  assignment, the eigendecomposition allgather, and a per-iteration local
  preconditioning stage with **no communication** (the §IV-C claim);
- **K-FAC-lw** assigns whole layers, keeps decompositions local, and must
  allgather *preconditioned gradients every iteration* (a per-iteration
  blocking collective, so it pays the straggler penalty — the root of its
  worse scaling in Fig. 7).

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
    layer_wise_assignment,
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
    ``*_tcomm_exposed`` is the critical-path remainder once pipelining
    hides chunked transfers behind eigendecomposition compute
    (equal to ``*_tcomm`` for a synchronous profile).
    ``factor_comm_payload_bytes`` is the per-worker factor-allreduce wire
    payload the profile was computed with — halved under triangular
    packing (``symmetric=True``), zero when unset.

    Example
    -------
    >>> from repro.perfmodel.iteration import StageProfile
    >>> sp = StageProfile(factor_tcomp=0.1, factor_tcomm=0.4,
    ...                   eig_tcomp=0.2, eig_tcomm=0.3,
    ...                   factor_tcomm_exposed=0.1, eig_tcomm_exposed=0.3)
    >>> round(sp.hidden_comm, 10)             # 0.3 s masked by pipelining
    0.3
    """

    factor_tcomp: float
    factor_tcomm: float
    eig_tcomp: float
    eig_tcomm: float
    factor_tcomm_exposed: float = -1.0
    eig_tcomm_exposed: float = -1.0
    factor_comm_payload_bytes: float = 0.0
    #: per-iteration second-stage (preconditioned-gradient broadcast)
    #: seconds — zero for COMM_OPT, the grad_worker_frac trade-off's cost
    precond_tcomm: float = 0.0
    #: per-rank eigendecomposition-state bytes a rank must hold — the
    #: grad_worker_frac trade-off's saving (full eig payload for COMM_OPT)
    eigenbasis_bytes_per_rank: float = 0.0
    #: per-rank preconditioned-gradient bytes received per iteration from
    #: group roots (zero for COMM_OPT where every rank is a grad worker)
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
    >>> kfac = im.kfac_iteration_time(64, "comm-opt", iv)
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
        grad_worker_frac: float | None = None,
    ) -> FactorUnits:
        """Assignment/scheduling units at the given block granularity.

        ``diag_blocks=1`` is the whole-factor baseline; ``> 1`` splits
        each factor into the same widest-first diagonal blocks the real
        ``KFAC(diag_blocks=k)`` preconditioner schedules, placed on ``p``
        ranks by the same construction.
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

    def factor_stage_time(
        self, p: int, symmetric: bool = False, precision: str = "fp32"
    ) -> float:
        """Full factor-update cost: compute + capture overhead + comm."""
        return (
            self.factor_compute_time(syrk=symmetric, precision=precision)
            + self.factor_capture_overhead()
            + self.factor_comm_time(p, packed=symmetric, precision=precision)
        )

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
        strategy: str,
        policy: str = "round_robin",
        diag_blocks: int = 1,
    ) -> list[float]:
        """Per-worker eigendecomposition seconds for one K-FAC update.

        ``strategy``: ``"comm-opt"`` assigns individual factors;
        ``"layer-wise"`` assigns whole layers (both factors co-located).
        ``diag_blocks > 1`` assigns per-block eigendecompositions — the
        cubic cost drop plus the finer LPT balance of the blocked path.
        """
        units = self._units(diag_blocks, p, policy)
        if strategy == "comm-opt":
            return worker_costs(
                units.metas, units.assignment, p,
                cost_fn=lambda m: self._eig_seconds(m.dim, m.diagonal),
            )
        if strategy == "layer-wise":
            layer_assignment = layer_wise_assignment(
                [l.name for l in self.model.kfac_layers], p
            )
            loads = [0.0] * p
            if diag_blocks > 1:
                for m in units.metas:
                    loads[layer_assignment[m.layer]] += self._eig_seconds(m.dim, m.diagonal)
                return loads
            for l in self.model.kfac_layers:
                loads[layer_assignment[l.name]] += self._eig_seconds(
                    l.a_dim, l.diagonal_A
                ) + self._eig_seconds(l.g_dim)
            return loads
        raise ValueError(f"unknown strategy {strategy!r}")

    def eig_stage_time(
        self,
        p: int,
        strategy: str,
        policy: str = "round_robin",
        diag_blocks: int = 1,
    ) -> float:
        """Slowest-worker eigendecomposition time (the stage is a barrier)."""
        return max(self.eig_worker_times(p, strategy, policy, diag_blocks))

    def eig_comm_time(self, p: int, diag_blocks: int = 1) -> float:
        """Allgather of all eigendecompositions (K-FAC-opt only; flat in P)."""
        if p <= 1:
            return 0.0
        base = allgather_time(
            self.model.eig_payload_bytes(4, diag_blocks), p, self.cluster.net
        )
        return base + self.cluster.op_launch * len(self._units(diag_blocks).metas) * 2

    # ------------------------------------------------------------------
    # pipelined (async) communication: exposed vs. hidden
    # ------------------------------------------------------------------
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

    def pipelined_comm_times(
        self,
        p: int,
        policy: str = "round_robin",
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        symmetric: bool = False,
        precision: str = "fp32",
        diag_blocks: int = 1,
    ) -> tuple[float, float]:
        """(exposed factor comm, exposed eig comm) under SPD-KFAC pipelining.

        Each stream is chunked and hidden behind the compute that runs
        while its transfers are in flight, leaving one un-hideable chunk
        exposed (the leading factor chunk launches before any overlap
        compute exists; the trailing eig chunk follows the last
        decomposition):

        - the **factor allreduce** launches from the backward hooks as
          factors are produced (SPD-KFAC's pipelining), so its budget is
          the backward pass + covariance GEMMs + the *fastest* worker's
          eigendecompositions (the least-overlapped rank sets the
          barrier for each chunk's install point);
        - the **eigendecomposition allgather** is decoupled from the
          iteration (§V-B): its chunks drain into local preconditioning
          and the next iteration's forward/backward before the results
          must install.

        Each budget is spent once — a compute second that hides one chunk
        cannot hide another — and the two budgets come from disjoint
        phases, so nothing is double-counted.
        """
        if p <= 1:
            return 0.0, 0.0
        fac_total = self.factor_comm_time(
            p, packed=symmetric, precision=precision, diag_blocks=diag_blocks
        )
        eig_total = self.eig_comm_time(p, diag_blocks)
        n = self.pipeline_chunks(
            bucket_bytes, packed=symmetric, precision=precision, diag_blocks=diag_blocks
        )
        min_worker_eig = min(self.eig_worker_times(p, "comm-opt", policy, diag_blocks))

        fac_budget = (
            self.backward_time(precision)
            + self.factor_compute_time(syrk=symmetric, precision=precision)
            + min_worker_eig
        )
        fac_exposed = fac_total / n  # leading chunk
        hideable = fac_total - fac_exposed
        fac_exposed += max(0.0, hideable - fac_budget)

        eig_budget = (
            self.precondition_time_all()
            + self.forward_time(precision)
            + self.backward_time(precision)
        )
        eig_exposed = eig_total / n  # trailing chunk
        hideable = eig_total - eig_exposed
        eig_exposed += max(0.0, hideable - eig_budget)
        return fac_exposed, eig_exposed

    def factor_comm_exposed_time(
        self,
        p: int,
        policy: str = "round_robin",
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
    ) -> float:
        """Exposed factor-allreduce seconds with pipelining enabled."""
        return self.pipelined_comm_times(p, policy, bucket_bytes)[0]

    def eig_comm_exposed_time(
        self,
        p: int,
        policy: str = "round_robin",
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
    ) -> float:
        """Exposed eigendecomposition-allgather seconds with pipelining."""
        return self.pipelined_comm_times(p, policy, bucket_bytes)[1]

    # ------------------------------------------------------------------
    # KAISA-style gradient-worker fraction (HYBRID placement)
    # ------------------------------------------------------------------
    def grad_workers(self, p: int, grad_worker_frac: float) -> int:
        """Gradient-worker group size ``max(1, round(f * p))``."""
        return grad_worker_count(p, grad_worker_frac)

    def eigenbasis_bytes_per_rank(self, p: int, grad_worker_frac: float = 1.0) -> float:
        """Second-order state bytes one rank must hold under fraction ``f``.

        A rank stores the eigenbases only of layers whose gradient-worker
        group it belongs to — ``g/p`` of the model with contiguous
        groups.  ``f = 1`` is the COMM_OPT memory footprint (every rank
        holds every basis); ``f = 1/p`` the LAYER_WISE one.  Strictly
        decreasing in the group size, hence in ``f`` along a halving
        sweep — the memory side of the KAISA Pareto frontier.
        """
        if p < 1:
            raise ValueError(f"world size must be >= 1, got {p}")
        g = grad_worker_count(p, grad_worker_frac)
        return self.model.eig_bytes * g / p

    def precond_share_bytes_per_rank(self, p: int, grad_worker_frac: float) -> float:
        """Per-iteration preconditioned-gradient bytes one rank receives.

        A rank outside a layer's group receives that layer's packed
        gradient from the group root each iteration; a rank is a
        non-member for ``(p - g)/p`` of the layers.  Zero at ``f = 1``
        (COMM_OPT: no second stage), maximal at ``f = 1/p`` — the
        communication side of the Pareto frontier, strictly increasing
        as ``f`` decreases.
        """
        if p < 1:
            raise ValueError(f"world size must be >= 1, got {p}")
        if p == 1:
            return 0.0
        g = grad_worker_count(p, grad_worker_frac)
        return self.model.grad_matrix_bytes * (p - g) / p

    def precond_share_time(self, p: int, grad_worker_frac: float) -> float:
        """Second-stage broadcast seconds per iteration under fraction ``f``.

        Each group root broadcasts its fused per-root gradient shard to
        the ``p - g`` non-members (a ``p - g + 1``-rank
        scatter+allgather broadcast, the bandwidth-optimal large-payload
        algorithm).  Groups start at the layer's canonical owner
        ``i % p``, so only ``min(p, n_layers)`` distinct roots exist —
        the launch count and shard size follow the real placement, not
        ``p``.  A per-iteration blocking stage, so the straggler penalty
        applies — the LAYER_WISE scaling pathology, dialled in
        continuously by ``f``.
        """
        if p <= 1:
            return 0.0
        g = grad_worker_count(p, grad_worker_frac)
        if g >= p:
            return 0.0
        participants = p - g + 1
        roots = min(p, self.n_layers)
        per_root = self.model.grad_matrix_bytes / roots
        base = roots * scatter_broadcast_time(per_root, participants, self.cluster.net)
        launches = self.cluster.op_launch * roots
        return base * self.cluster.sync_penalty(p) + launches

    def eig_group_comm_time(
        self, p: int, grad_worker_frac: float, diag_blocks: int = 1
    ) -> float:
        """Group eigenbasis-share seconds for one K-FAC update.

        ``f = 1`` degenerates to the COMM_OPT world allgather
        (:meth:`eig_comm_time`); ``f = 1/p`` to zero (LAYER_WISE keeps
        decompositions local).  In between, each rank performs the window
        allgathers it belongs to, each moving one group's share of the
        eig payload among ``g`` ranks.  Only ``min(p, n_layers)``
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
        if g >= p:
            return self.eig_comm_time(p, diag_blocks)
        n_groups = min(p, self.n_layers)
        per_rank_windows = g * n_groups / p
        per_group = self.model.eig_payload_bytes(4, diag_blocks) / n_groups
        launches = (
            self.cluster.op_launch * len(self._units(diag_blocks).metas) * 2 * g / p
        )
        return per_rank_windows * allgather_time(per_group, g, self.cluster.net) + launches

    def hybrid_share_exposed_time(
        self, p: int, grad_worker_frac: float, precision: str = "fp32"
    ) -> float:
        """Exposed group eigenbasis-share seconds under the graph scheduler.

        The task-graph scheduler (``KFAC(scheduler="graph")``) launches
        each group's allgather as soon as its members' eigendecompositions
        finish, so all but the first of the ``min(p, n_layers)`` group
        windows can hide behind the replicated in-group preconditioning
        and the next iteration's forward/backward pass.  Only the first
        window's latency plus whatever the remainder overflows that
        budget stays on the critical path.  The retired hand-written
        hybrid pipeline ran the share synchronously, so this is strictly
        below :meth:`eig_group_comm_time` whenever more than one window
        exists and the overlap budget is positive.  ``f = 1`` degenerates
        to the single world allgather (no intra-stage overlap — the
        COMM_OPT bucketed numbers apply instead); ``f = 1/p`` to zero.
        """
        total = self.eig_group_comm_time(p, grad_worker_frac)
        if total <= 0.0:
            return 0.0
        g = grad_worker_count(p, grad_worker_frac)
        n_windows = 1 if g >= p else min(p, self.n_layers)
        if n_windows <= 1:
            return total
        budget = (
            self.hybrid_precondition_time(p, grad_worker_frac)
            + self.forward_time(precision)
            + self.backward_time(precision)
        )
        first = total / n_windows
        return first + max(0.0, (total - first) - budget)

    def hybrid_eig_stage_time(
        self,
        p: int,
        grad_worker_frac: float,
        policy: str = "round_robin",
        diag_blocks: int = 1,
    ) -> float:
        """Slowest rank's eigendecomposition time under group placement.

        Uses the *real* within-group assignment
        (:func:`repro.core.assignment.build_group_placement`), so the
        modeled imbalance is exactly what the simulated preconditioner
        would exhibit; degenerates to the COMM_OPT assignment at
        ``f = 1`` and the LAYER_WISE loads at ``f = 1/p``.
        """
        units = self._units(diag_blocks, p, policy, grad_worker_frac)
        loads = worker_costs(
            units.metas, units.assignment, p,
            cost_fn=lambda m: self._eig_seconds(m.dim, m.diagonal),
        )
        return max(loads)

    def hybrid_precondition_time(self, p: int, grad_worker_frac: float) -> float:
        """Slowest rank's preconditioning time under fraction ``f``.

        Every gradient worker of a layer preconditions it (redundantly —
        that is the KAISA trade: compute replicated inside the group so
        the eigenbasis need not leave it).  ``f = 1`` reproduces
        :meth:`precondition_time_all`; ``f = 1/p`` the LAYER_WISE
        slowest-owner load.
        """
        placement = build_group_placement(self._factor_metas, p, grad_worker_frac)
        loads = [0.0] * p
        for l in self.model.kfac_layers:
            t = self._precond_layer_time(layer_precondition_flops(l))
            for r in placement.groups[l.name]:
                loads[r] += t
        return max(loads)

    # ------------------------------------------------------------------
    # K-FAC preconditioning stage
    # ------------------------------------------------------------------
    def _precond_layer_time(self, layer_flops: float) -> float:
        overhead = self.device.precond_layer_coef * self.n_layers
        return layer_flops / self.device.precond_flops + overhead

    def precondition_time_all(self) -> float:
        """Precondition every layer locally (K-FAC-opt per-iteration stage)."""
        return sum(
            self._precond_layer_time(layer_precondition_flops(l))
            for l in self.model.kfac_layers
        )

    def precondition_time_layer_wise(self, p: int) -> float:
        """Slowest owner's preconditioning time (K-FAC-lw per-iteration)."""
        assignment = layer_wise_assignment([l.name for l in self.model.kfac_layers], p)
        loads = [0.0] * p
        for l in self.model.kfac_layers:
            loads[assignment[l.name]] += self._precond_layer_time(
                layer_precondition_flops(l)
            )
        return max(loads)

    def precond_gather_time(self, p: int) -> float:
        """Allgather of preconditioned gradients (K-FAC-lw, EVERY iteration).

        Per-iteration blocking collective => straggler penalty applies.
        """
        if p <= 1:
            return 0.0
        base = allgather_time(self.model.grad_bytes, p, self.cluster.net)
        launches = self.cluster.op_launch * self.n_layers
        return base * self.cluster.sync_penalty(p) + launches

    # ------------------------------------------------------------------
    # amortized iteration & epoch times
    # ------------------------------------------------------------------
    def kfac_iteration_time(
        self,
        p: int,
        strategy: str,
        intervals: KfacIntervals,
        policy: str = "round_robin",
        pipelined: bool = False,
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        symmetric: bool = False,
        precision: str = "fp32",
        grad_worker_frac: float | None = None,
        scheduler: str | None = None,
        diag_blocks: int = 1,
    ) -> float:
        """Average per-iteration time including amortized K-FAC stages.

        ``pipelined=True`` models pipelined launch/wait: only the *exposed*
        factor/eig communication (comm-opt strategy) contributes to the
        critical path; the hidden remainder overlaps eigendecompositions.
        ``symmetric=True`` applies the syrk compute and triangular-packed
        communication rates of the symmetry-aware fast path.
        ``precision`` applies the mixed-precision rates: Tensor-Core
        forward/backward, half-width patch traffic, and codec-compressed
        gradient/factor wire bytes (eig exchange stays fp32 per the
        precision policy).
        ``strategy="hybrid"`` with ``grad_worker_frac=f`` models the
        KAISA-style placement: group eigenbasis share, replicated
        in-group preconditioning, and the per-iteration second-stage
        broadcast; ``f = 1`` reproduces the comm-opt numbers exactly.
        ``scheduler="graph"`` prices the dependency-graph task scheduler
        (pipelined factor buckets, and for hybrid the overlapped group
        share of :meth:`hybrid_share_exposed_time`); ``"sync"`` the
        synchronous stream; ``None`` defers to the ``pipelined`` flag
        (the retired hand-written pipelines).
        ``diag_blocks > 1`` prices the block-diagonal approximation of
        ``KFAC(diag_blocks=k)``: per-block eigendecompositions (cubic
        cost drop, finer LPT balance) and the block-triangle wire.
        """
        if scheduler is not None:
            if scheduler not in ("sync", "graph"):
                raise ValueError(
                    f"scheduler must be 'sync' or 'graph', got {scheduler!r}"
                )
            pipelined = scheduler == "graph"
        base = self.sgd_iteration_time(p, precision)
        if strategy == "hybrid":
            if grad_worker_frac is None:
                raise ValueError("strategy='hybrid' requires grad_worker_frac")
            if pipelined:
                fac_comm = self.pipelined_comm_times(
                    p, policy, bucket_bytes, symmetric, precision, diag_blocks
                )[0]
            else:
                fac_comm = self.factor_comm_time(
                    p, packed=symmetric, precision=precision, diag_blocks=diag_blocks
                )
            per_fac = (
                self.factor_compute_time(syrk=symmetric, precision=precision)
                + self.factor_capture_overhead()
                + fac_comm
            )
            share_comm = (
                self.hybrid_share_exposed_time(p, grad_worker_frac, precision)
                if scheduler == "graph"
                else self.eig_group_comm_time(p, grad_worker_frac, diag_blocks)
            )
            per_eig = (
                self.hybrid_eig_stage_time(p, grad_worker_frac, policy, diag_blocks)
                + share_comm
            )
            per_iter = self.hybrid_precondition_time(
                p, grad_worker_frac
            ) + self.precond_share_time(p, grad_worker_frac)
        elif strategy == "comm-opt":
            if pipelined:
                fac_comm, eig_comm = self.pipelined_comm_times(
                    p, policy, bucket_bytes, symmetric, precision, diag_blocks
                )
            else:
                fac_comm = self.factor_comm_time(
                    p, packed=symmetric, precision=precision, diag_blocks=diag_blocks
                )
                eig_comm = self.eig_comm_time(p, diag_blocks)
            per_fac = (
                self.factor_compute_time(syrk=symmetric, precision=precision)
                + self.factor_capture_overhead()
                + fac_comm
            )
            per_eig = self.eig_stage_time(p, strategy, policy, diag_blocks) + eig_comm
            per_iter = self.precondition_time_all()
        elif strategy == "layer-wise":
            per_fac = self.factor_stage_time(p, symmetric=symmetric, precision=precision)
            per_eig = self.eig_stage_time(p, strategy, diag_blocks=diag_blocks)
            per_iter = self.precondition_time_layer_wise(p) + self.precond_gather_time(p)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        return (
            base
            + per_iter
            + per_fac / intervals.fac_interval
            + per_eig / intervals.eig_interval
        )

    def fig1_stage_times(
        self,
        p: int,
        strategy: str | None = None,
        intervals: KfacIntervals | None = None,
        policy: str = "round_robin",
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        symmetric: bool = False,
        precision: str = "fp32",
        grad_worker_frac: float | None = None,
        scheduler: str | None = None,
    ) -> dict[str, float]:
        """Per-iteration seconds for the paper's Fig. 1 decomposition.

        Returns the five stages of the Fig. 1 breakdown — ``io``,
        ``forward``, ``gradient`` (the backward pass), ``exchange`` (the
        gradient allreduce), and ``update`` — as modeled per-iteration
        times.  With a ``strategy`` (and ``intervals``), ``update`` is
        the full amortized K-FAC surcharge over plain SGD
        (:meth:`kfac_iteration_time` minus :meth:`sgd_iteration_time`);
        without one it is 0 (pure SGD applies the step in-place).

        The drift report (:mod:`repro.obs.report`) aligns these rows
        against a traced run's measured stage times.

        Example
        -------
        >>> from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
        >>> from repro.perfmodel.iteration import IterationModel, KfacIntervals
        >>> from repro.perfmodel.specs import resnet_spec
        >>> im = IterationModel(resnet_spec(50), V100_LIKE, FRONTERA_LIKE)
        >>> stages = im.fig1_stage_times(8, "comm-opt",
        ...                              KfacIntervals.from_eig_interval(10))
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
        }
        if strategy is None:
            stages["update"] = 0.0
        else:
            if intervals is None:
                raise ValueError("fig1_stage_times with a strategy needs intervals")
            stages["update"] = self.kfac_iteration_time(
                p,
                strategy,
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
        grad_worker_frac: float | None = None,
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
        if scheduler not in ("sync", "graph"):
            raise ValueError(
                f"scheduler must be 'sync' or 'graph', got {scheduler!r}"
            )
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
        optimizer: str,
        dataset_size: int,
        intervals: KfacIntervals | None = None,
        policy: str = "round_robin",
        precision: str = "fp32",
    ) -> float:
        """Seconds per epoch for ``optimizer`` in {"sgd","kfac-opt","kfac-lw"}."""
        iters = self.iterations_per_epoch(p, dataset_size)
        if optimizer == "sgd":
            return iters * self.sgd_iteration_time(p, precision)
        if intervals is None:
            raise ValueError("K-FAC epoch time requires update intervals")
        strategy = {"kfac-opt": "comm-opt", "kfac-lw": "layer-wise"}.get(optimizer)
        if strategy is None:
            raise ValueError(f"unknown optimizer {optimizer!r}")
        return iters * self.kfac_iteration_time(
            p, strategy, intervals, policy, precision=precision
        )

    # ------------------------------------------------------------------
    # Table V profile
    # ------------------------------------------------------------------
    def stage_profile(
        self,
        p: int,
        policy: str = "round_robin",
        pipelined: bool = False,
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        symmetric: bool = False,
        precision: str = "fp32",
        grad_worker_frac: float | None = None,
        scheduler: str | None = None,
        diag_blocks: int = 1,
    ) -> StageProfile:
        """Per-update-step stage profile (the paper's Table V row).

        ``factor_tcomp`` is the covariance-GEMM time only, matching what
        Table V instruments (the capture overhead shows up in iteration
        times instead — see hardware.py notes).  With ``pipelined=True``
        the exposed-communication fields reflect pipelined
        overlap; otherwise they equal the synchronous costs.  With
        ``symmetric=True`` the profile uses the syrk compute rate and the
        triangular-packed allreduce payload.  ``precision="fp16"`` applies
        the mixed-precision rates (half-width patch traffic, compressed
        factor wire); the eigendecomposition stage stays fp32 by policy.
        With ``grad_worker_frac=f`` the profile models the KAISA-style
        hybrid placement: group eigenbasis share instead of the world
        allgather, a non-zero ``precond_tcomm`` second stage, and the
        per-rank memory/volume fields that trace the memory-vs-comm
        Pareto frontier (``f=1`` reproduces the COMM_OPT profile).

        ``scheduler`` prices a named execution route: ``"graph"`` is the
        dependency-graph task scheduler (pipelined factor buckets AND
        overlapped hybrid group shares — the exposed eig comm follows
        :meth:`hybrid_share_exposed_time`); ``"sync"`` the synchronous
        request stream.  ``None`` defers to the legacy ``pipelined``
        flag, which models the retired hand-written pipelines (hybrid
        overlapped the factor stage only, leaving the group share fully
        exposed).

        ``diag_blocks > 1`` prices the block-diagonal approximation:
        per-block eigendecompositions shrink ``eig_tcomp`` (cubic cost)
        and ``eig_tcomm``/``factor_comm_payload_bytes`` (block-triangle
        wire); ``diag_blocks=1`` reproduces the whole-factor numbers
        exactly.
        """
        if scheduler is not None:
            if scheduler not in ("sync", "graph"):
                raise ValueError(
                    f"scheduler must be 'sync' or 'graph', got {scheduler!r}"
                )
            pipelined = scheduler == "graph"
        fac_comm = self.factor_comm_time(
            p, packed=symmetric, precision=precision, diag_blocks=diag_blocks
        )
        if grad_worker_frac is None:
            eig_comm = self.eig_comm_time(p, diag_blocks)
            eig_tcomp = self.eig_stage_time(p, "comm-opt", policy, diag_blocks)
            precond_tcomm = 0.0
            eig_mem = float(self.model.eig_payload_bytes(4, diag_blocks))
            share_bytes = 0.0
        else:
            eig_comm = self.eig_group_comm_time(p, grad_worker_frac, diag_blocks)
            eig_tcomp = self.hybrid_eig_stage_time(
                p, grad_worker_frac, policy, diag_blocks
            )
            precond_tcomm = self.precond_share_time(p, grad_worker_frac)
            eig_mem = self.eigenbasis_bytes_per_rank(p, grad_worker_frac)
            share_bytes = self.precond_share_bytes_per_rank(p, grad_worker_frac)
        if pipelined:
            fac_exposed, eig_exposed = self.pipelined_comm_times(
                p, policy, bucket_bytes, symmetric, precision, diag_blocks
            )
            if grad_worker_frac is not None:
                if scheduler == "graph":
                    # group shares are schedulable nodes: all but the first
                    # window hides behind preconditioning + fwd/bwd
                    eig_exposed = self.hybrid_share_exposed_time(
                        p, grad_worker_frac, precision
                    )
                else:
                    # the retired hand-written hybrid pipeline overlapped
                    # the factor stage only; its group share ran synchronous
                    eig_exposed = eig_comm
        else:
            fac_exposed, eig_exposed = fac_comm, eig_comm
        return StageProfile(
            factor_tcomp=self.factor_compute_time(syrk=symmetric, precision=precision),
            factor_tcomm=fac_comm,
            eig_tcomp=eig_tcomp,
            eig_tcomm=eig_comm,
            factor_tcomm_exposed=fac_exposed,
            eig_tcomm_exposed=eig_exposed,
            factor_comm_payload_bytes=float(
                self.factor_comm_payload_bytes(symmetric, precision, diag_blocks)
            ),
            precond_tcomm=precond_tcomm,
            eigenbasis_bytes_per_rank=eig_mem,
            precond_share_bytes_per_rank=share_bytes,
        )
