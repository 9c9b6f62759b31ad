"""Device and cluster profiles for the performance model.

``V100_LIKE`` / ``FRONTERA_LIKE`` are calibrated against the paper's own
measurements (Frontera GPU subsystem: 4x V100 per node, InfiniBand EDR,
FP32, local batch 32 — §VI-A).  Anchors and the corresponding constants:

- **SGD iteration time** — ResNet-50 @ 64 GPUs: 178 min / 90 epochs
  (Table III) fixes ``gemm_flops``; the per-model efficiency scaling
  (``gemm_scaling_exp``) reconciles ResNet-101/152 SGD times, whose
  larger layers run closer to peak.
- **Scaling efficiency** — SGD ~68.6% at 128 GPUs, <50% at 256 (§VI-C3)
  fixes the straggler penalty on *per-iteration* collectives
  (``straggler_coef * p**straggler_exp``).
- **Factor stage** — Table V compute times (36.8/125.2/218.4 ms for
  R50/101/152) are bandwidth-bound patch traffic (``factor_bandwidth``);
  Table V also shows factor/eig *communication* nearly flat in GPU count,
  so the rare K-FAC collectives get ring cost + per-op launches but no
  straggler penalty.
- **Per-update overhead** — back-deriving the K-FAC per-iteration cost
  from the Table III update-frequency sweep yields a factor-stage overhead
  growing ~quadratically with layer count (hook capture, running-average
  dispatch: ``factor_capture_coef * L^2``) and an eigen-basis
  preconditioning overhead ``precond_layer_coef * L`` per layer.  These
  super-linear terms reproduce Fig. 10 and the Table IV trend, including
  K-FAC-opt losing to SGD on ResNet-152 at 256 GPUs.
- **Eigendecomposition** — slowest-worker times in Table V fix
  ``eig_flops`` with a ``10 n^3`` FLOP model plus a per-factor launch
  floor.

All constants absorb framework overheads the paper's measured times
include; the ``table4``/``table5`` experiments print model-vs-paper
numbers side by side (``docs/perfmodel.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.costmodel import NetworkProfile

__all__ = ["DeviceProfile", "ClusterProfile", "V100_LIKE", "FRONTERA_LIKE"]


@dataclass(frozen=True)
class DeviceProfile:
    """Effective single-GPU performance characteristics (FP32).

    Example
    -------
    >>> from repro.perfmodel.hardware import V100_LIKE
    >>> V100_LIKE.gemm_flops > 1e12       # effective TFLOP/s scale
    True
    """

    name: str
    #: effective FLOP/s for conv/GEMM forward+backward at the reference model
    gemm_flops: float
    #: reference per-image forward FLOPs (ResNet-50) for efficiency scaling
    gemm_ref_image_flops: float
    #: GEMM efficiency grows as (model flops-per-image / ref)^exp
    gemm_scaling_exp: float
    #: clamp range for the efficiency multiplier
    gemm_eff_bounds: tuple[float, float]
    #: effective FLOP/s for eigen-basis preconditioning GEMMs (dense, square)
    precond_flops: float
    #: per-layer preconditioning dispatch overhead = coef * L_total seconds
    precond_layer_coef: float
    #: bytes/s streamed by the factor-computation covariance GEMMs
    factor_bandwidth: float
    #: per-layer factor kernel overhead: coef * L_total^exp seconds total
    #: (small tall-skinny GEMMs are launch/latency bound; fits the
    #: super-linear Tcomp growth of Table V / Fig. 10)
    factor_layer_coef: float
    factor_layer_exp: float
    #: factor-stage capture/dispatch overhead = coef * L_total^2 seconds
    factor_capture_coef: float
    #: effective FLOP/s for symmetric eigendecomposition
    eig_flops: float
    #: FLOPs per eigendecomposition = coef * n^3
    eig_flop_coef: float
    #: fixed seconds per factor decomposed (launch/latency floor)
    eig_factor_overhead: float
    #: fixed per-iteration seconds (data pipeline, launches, sync)
    per_iter_overhead: float
    #: effective FLOP/s for fp16/bf16 GEMMs on the Tensor Cores (0 means
    #: no Tensor Cores: half-precision compute falls back to gemm_flops).
    #: Effective, not peak: V100 HMMA peaks at 125 TFLOPs but framework
    #: kernels with fp32 accumulation land nearer 3x the fp32 rate.
    tensorcore_flops: float = 0.0
    #: effective FLOP/s multiplier for fp64 GEMMs (V100: half rate)
    fp64_flops_scale: float = 0.5


@dataclass(frozen=True)
class ClusterProfile:
    """Network + synchronization behaviour of the cluster.

    The straggler penalty applies to *per-iteration* blocking collectives
    (gradient allreduce; K-FAC-lw's per-iteration preconditioned-gradient
    allgather).  Rare bulk K-FAC collectives are bandwidth-dominated and
    empirically flat across scales (paper Table V), so they only pay ring
    cost plus ``op_launch`` per tensor posted (§V-A registers one op per
    factor).
    """

    name: str
    net: NetworkProfile
    straggler_coef: float
    straggler_exp: float
    op_launch: float

    def sync_penalty(self, p: int) -> float:
        """Multiplier on per-iteration collective time at world size ``p``."""
        if p <= 1:
            return 1.0
        return max(1.0, self.straggler_coef * float(p) ** self.straggler_exp)


V100_LIKE = DeviceProfile(
    name="v100-fp32",
    gemm_flops=7.0e12,
    gemm_ref_image_flops=8.18e9,
    gemm_scaling_exp=0.45,
    gemm_eff_bounds=(0.6, 2.0),
    precond_flops=20.0e12,
    precond_layer_coef=3.0e-6,
    factor_bandwidth=600.0e9,
    factor_layer_coef=3.27e-5,
    factor_layer_exp=1.7,
    factor_capture_coef=1.2e-4,
    eig_flops=0.55e12,
    eig_flop_coef=10.0,
    eig_factor_overhead=0.010,
    per_iter_overhead=0.020,
    tensorcore_flops=21.0e12,
)

FRONTERA_LIKE = ClusterProfile(
    name="frontera-edr",
    net=NetworkProfile(latency=2.0e-6, bandwidth=10.5e9, name="infiniband-edr"),
    straggler_coef=0.178,
    straggler_exp=0.678,
    op_launch=0.5e-3,
)
