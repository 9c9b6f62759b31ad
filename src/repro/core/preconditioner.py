"""The distributed K-FAC gradient preconditioner (paper Algorithm 1).

``KFAC`` attaches hooks to every supported layer of a model, maintains
running-average Kronecker factors, and — on ``step()`` — rewrites
``param.grad`` in place with the preconditioned gradient so that any
standard optimizer can apply the update (paper Listing 1).

Every placement is a KAISA-style gradient-worker fraction ``f``
(arXiv:2107.01739): each layer's eigenbasis lives on a group of
``max(1, round(f * P))`` ranks, and everyone else receives the layer's
preconditioned gradient.  The paper's two distribution strategies
(§VI-C3) are the two ends of that one path:

- ``COMM_OPT`` (the paper's **K-FAC-opt**) is ``f = 1``: each *factor* is
  assigned to a worker round-robin; workers eigendecompose only their
  assigned factors; decompositions are allgathered; every worker
  preconditions every layer locally.  Iterations without a K-FAC update
  need **no communication beyond the ordinary gradient allreduce**.

- ``LAYER_WISE`` (the paper's **K-FAC-lw**, the scheme of Osawa et al.) is
  ``f = 1/P``: each *layer* is assigned to a worker, which computes both
  of its eigendecompositions *and* its preconditioned gradient; the
  preconditioned gradients are then allgathered — on **every** iteration,
  since only the owner holds the layer's second-order state.

The step logic is a generator yielding the launch/wait requests of
:mod:`repro.core.comm_ops`; drivers in :mod:`repro.core.distributed` bind it
to a world.  Counters (``steps``, update frequencies, captures) follow the
reference implementation: factors are captured/updated every
``fac_update_freq`` steps and second-order state every
``kfac_update_freq`` steps, with ``fac_update_freq`` typically 10x more
frequent (§V-C).

Every placement executes through one dependency-graph scheduler
(:mod:`repro.sched`): the step is planned as per-layer tasks
(``FactorComm -> Eig -> EigShare -> Precondition -> GradShare``) and a
single :class:`repro.sched.executor.GraphExecutor` walks the schedule.
``scheduler="sync"`` (default) waits for each collective as it is launched;
``scheduler="graph"`` pipelines them SPD-KFAC style — bucketed asynchronous
factor allreduces, eigenbasis shares and gradient broadcasts all
overlapping local second-order compute.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import Any, Generator, Sequence

import numpy as np

from repro.approx.adaptive import AdaptiveDamping, DriftTrigger
from repro.approx.blocks import plan_block_bounds
from repro.comm.compression import ErrorFeedback, get_codec
from repro.comm.faults import StaleEigenbasisError
from repro.comm.fusion import WirePlan, shared_wire_plan
from repro.core.assignment import (
    FactorMeta,
    FactorUnits,
    GroupPlacement,
    factor_block,
    plan_units,
    second_order_shapes,
    wire_elements,
)
from repro.core.comm_ops import unpack_arrays
from repro.core.factors import ema_update
from repro.core.inverse import FactorEig
from repro.core.layers import KFACLayer, factor_dtype, make_kfac_layer
from repro.nn.module import Module
from repro.obs.tracer import NULL_TRACER
from repro.utils.logging import Logger

__all__ = ["KFAC", "KFACHyperParams", "COMM_OPT", "LAYER_WISE", "HYBRID"]

COMM_OPT = "comm-opt"
LAYER_WISE = "layer-wise"
HYBRID = "hybrid"


@dataclass
class KFACHyperParams:
    """Hyper-parameters of the preconditioner (defaults follow the paper).

    Example
    -------
    >>> from repro.core.preconditioner import HYBRID, KFACHyperParams
    >>> hp = KFACHyperParams(kfac_update_freq=100, grad_worker_frac=0.5)
    >>> hp.strategy == HYBRID      # the fraction selects the hybrid placement
    True

    Attributes
    ----------
    lr:
        Learning rate used by the Eq. 18 scaling (kept in sync with the
        wrapped optimizer by the trainer).
    damping:
        Tikhonov damping ``gamma`` (paper uses 0.001–0.003).
    factor_decay:
        Running-average decay on the old factor value (paper ``1 - xi``).
    kl_clip:
        Eq. 18 constant ``kappa``.
    fac_update_freq:
        Interval (steps) between factor recomputation + factor allreduce.
    kfac_update_freq:
        Interval (steps) between eigendecomposition refreshes; the paper's
        *K-FAC update frequency* knob (Table III).
    use_eigen_decomp:
        Eigendecomposition path (True, Eqs. 13–15) or explicit factored
        inverse (False, Eq. 11) — the Table I comparison.
    strategy:
        ``COMM_OPT``, ``LAYER_WISE``, or ``HYBRID`` (selected implicitly
        by setting ``grad_worker_frac``).  Without a fraction it names
        one: ``COMM_OPT`` is ``f = 1`` and ``LAYER_WISE`` is ``f = 1/P``,
        resolved by :class:`KFAC`, which knows ``P``.
    grad_worker_frac:
        KAISA-style gradient-worker fraction ``f`` (arXiv:2107.01739):
        each layer gets a group of ``max(1, round(f * P))`` ranks that
        hold its eigendecompositions (shared by *group* allgather rather
        than world allgather) and compute the preconditioned gradient
        locally; everyone else receives only the final preconditioned
        gradient via a group-rooted broadcast.  ``f = 1/P`` recovers
        ``LAYER_WISE``, ``f = 1`` recovers ``COMM_OPT`` (both run the
        same code); intermediate values trade per-rank
        eigenbasis memory against per-iteration broadcast volume.
        Setting this switches ``strategy`` to ``HYBRID``.
    assignment:
        ``"round_robin"`` (paper) or ``"greedy"`` (the §VI-C4 LPT policy).
    skip_layers:
        Layer-name substrings to exclude from preconditioning.  Entries
        must be non-empty (an empty string is a substring of *every* name
        and would silently skip the whole model).
    scheduler:
        ``"sync"`` (default) — the task-graph executor waits for every
        collective as soon as it is launched; ``"graph"`` — SPD-KFAC-style
        pipelined execution: bucketed asynchronous factor allreduces
        overlapped with local eigendecompositions, and eigenbasis shares / gradient
        broadcasts scheduled as ordinary graph nodes that overlap the
        remaining factor buckets.  Numerically equivalent; only the
        exposed-communication accounting changes.
    bucket_bytes:
        Pipeline chunk size (per-bucket payload cap) for
        ``scheduler="graph"``.  ``None`` (default) lets the planner pick
        it from the :mod:`repro.comm.costmodel` rates
        (:func:`repro.sched.planner.choose_bucket_bytes`).
    symmetric_comm:
        Exchange each ``d x d`` factor as its ``d*(d+1)/2``-element upper
        triangle (Osawa et al. 2019), nearly halving factor-stage bytes on
        both the synchronous and pipelined paths.  Lossless: the syrk Gram
        kernel makes factors exactly symmetric, and averaging triangles
        then mirroring is bit-identical to averaging full matrices.
    comm_dtype:
        Wire precision of the factor allreduce: ``None`` (dtype-preserving,
        the default), ``"fp16"`` or ``"bf16"``.  Compressed transport uses
        fp32 reduction accumulators and per-unit error-feedback
        residuals, halves factor-stage bytes *again* on top of
        ``symmetric_comm``, and composes with both the synchronous and
        pipelined routes.  Lossy (unlike ``symmetric_comm``) but bounded:
        the EMA absorbs the quantization noise and the residuals re-inject
        it, so trajectories track the full-precision run.
    max_eig_staleness:
        Graceful-degradation bound: how many *consecutive* failed
        second-order refreshes (factor exchange or eigenbasis share lost
        past the driver's retry budget) a factor may absorb by
        preconditioning with its last-known eigenbasis before the step
        hard-fails with :class:`repro.comm.faults.StaleEigenbasisError`.
        With ``drift_tol`` set it doubles as the drift trigger's hard
        refresh budget: a basis may skip at most this many refresh
        candidates, however small its drift.
    diag_blocks:
        Block-diagonal factor approximation (:mod:`repro.approx`): the
        *widest dense* factor in the model is partitioned into this many
        diagonal blocks, and every other factor into proportionally
        fewer (same target block edge; factors narrower than one block
        stay exact, and so do exactly-diagonal factors such as an
        embedding's ``A``).  Each block is eigendecomposed, assigned, and
        communicated independently — finer Eig/EigShare tasks for the
        graph scheduler, ``~k^2``-fold cheaper eigs on the widest
        layers, and block-triangle-only factor payloads.  ``1``
        (default) is the exact path, bit-identical to the seed code.
        Requires ``use_eigen_decomp=True`` when ``> 1``.
    diag_warmup:
        Number of leading *second-order updates* that use exact (full
        factor) eigendecompositions before block approximation engages
        — early steps benefit from exact curvature while the factors
        are still moving fast.
    drift_tol:
        Staleness-tolerant eigenbases: replace the fixed
        ``kfac_update_freq`` refresh schedule with a drift trigger.  On
        every factor-update step, refresh the eigendecompositions iff
        the relative Frobenius drift of any factor (or block) from the
        snapshot it was last decomposed in exceeds this tolerance — or
        a basis has exhausted its ``max_eig_staleness`` skip budget, or
        has no basis yet (step 0).  ``None`` (default) keeps the fixed
        schedule.  Decisions are computed from post-allreduce factor
        state, so every rank decides identically in lockstep.
    adapt_damping:
        Levenberg–Marquardt-style adaptive damping driven by the Eq. 18
        KL-clip statistic (:class:`repro.approx.adaptive.AdaptiveDamping`):
        persistent clipping grows ``damping``, persistently unclipped
        steps decay it toward its floor.  Lockstep across ranks (the
        statistic is computed from already-averaged gradients).
    """

    lr: float = 0.1
    damping: float = 0.003
    factor_decay: float = 0.95
    kl_clip: float = 1e-3
    fac_update_freq: int = 1
    kfac_update_freq: int = 10
    use_eigen_decomp: bool = True
    strategy: str = COMM_OPT
    grad_worker_frac: float | None = None
    assignment: str = "round_robin"
    skip_layers: tuple[str, ...] = ()
    scheduler: str = "sync"
    bucket_bytes: int | None = None
    symmetric_comm: bool = True
    comm_dtype: str | None = None
    max_eig_staleness: int = 3
    diag_blocks: int = 1
    diag_warmup: int = 0
    drift_tol: float | None = None
    adapt_damping: bool = False

    def __post_init__(self) -> None:
        if self.comm_dtype in ("fp32", "none"):
            self.comm_dtype = None
        if self.comm_dtype not in (None, "fp16", "bf16"):
            raise ValueError(
                f"comm_dtype must be None, 'fp16' or 'bf16', got {self.comm_dtype!r}"
            )
        if self.damping <= 0:
            raise ValueError(f"damping must be positive, got {self.damping}")
        if not 0 <= self.factor_decay < 1:
            raise ValueError(f"factor_decay must be in [0,1), got {self.factor_decay}")
        if self.fac_update_freq < 1 or self.kfac_update_freq < 1:
            raise ValueError("update frequencies must be >= 1")
        if self.grad_worker_frac is not None:
            if not 0.0 < self.grad_worker_frac <= 1.0:
                raise ValueError(
                    f"grad_worker_frac must be in (0, 1], got {self.grad_worker_frac}"
                )
            if self.strategy == LAYER_WISE:
                raise ValueError(
                    "grad_worker_frac generalizes the placement spectrum; "
                    "LAYER_WISE is its f=1/P endpoint — drop strategy= and "
                    "pick the fraction instead"
                )
            self.strategy = HYBRID
        elif self.strategy == HYBRID:
            raise ValueError("strategy=HYBRID requires grad_worker_frac to be set")
        if self.strategy not in (COMM_OPT, LAYER_WISE, HYBRID):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.assignment not in ("round_robin", "greedy"):
            raise ValueError(f"unknown assignment {self.assignment!r}")
        for entry in self.skip_layers:
            if not isinstance(entry, str) or not entry:
                raise ValueError(
                    f"skip_layers entries must be non-empty strings, got {entry!r} "
                    "(an empty string matches every layer name, excluding the "
                    "whole model from K-FAC)"
                )
        if self.scheduler not in ("sync", "graph"):
            raise ValueError(
                f"scheduler must be 'sync' or 'graph', got {self.scheduler!r}"
            )
        if self.bucket_bytes is not None and self.bucket_bytes <= 0:
            raise ValueError(f"bucket_bytes must be positive, got {self.bucket_bytes}")
        if not isinstance(self.diag_blocks, int) or self.diag_blocks < 1:
            raise ValueError(f"diag_blocks must be an int >= 1, got {self.diag_blocks!r}")
        if self.diag_blocks > 1 and not self.use_eigen_decomp:
            raise ValueError(
                "diag_blocks > 1 requires the eigendecomposition path "
                "(use_eigen_decomp=True); the explicit-inverse variant has no "
                "blocked form"
            )
        if not isinstance(self.diag_warmup, int) or self.diag_warmup < 0:
            raise ValueError(f"diag_warmup must be an int >= 0, got {self.diag_warmup!r}")
        if self.drift_tol is not None and not self.drift_tol > 0:
            raise ValueError(f"drift_tol must be > 0 (or None), got {self.drift_tol}")


def _diagonal_A_entry(name: str, entry: dict) -> dict:
    """Normalise a pre-vector checkpoint entry of a diagonal-``A`` layer.

    Legacy entries hold a dense ``A`` / ``inv_A`` and a signed-permutation
    ``eig_A_Q``: ``A <- diag(A)``, ``eig_A_lam <- diag(Q diag(lam) Q^T)``,
    ``eig_A_Q`` dropped.  Current entries pass through unchanged.
    """
    out = dict(entry)
    for key in ("A", "inv_A"):
        mat = out.get(key)
        if mat is not None and mat.ndim == 2:
            out[key] = np.diagonal(mat).copy()
            if key == "A" and np.count_nonzero(mat) > np.count_nonzero(out[key]):
                raise ValueError(
                    f"checkpoint factor A of layer {name!r} has non-zero "
                    "off-diagonal entries, but the layer's A factor is diagonal"
                )
    q = out.pop("eig_A_Q", None)
    if q is not None:
        out["eig_A_lam"] = (q * q) @ out["eig_A_lam"]
    return out


def _restored_eig(
    q: np.ndarray | None,
    lam: np.ndarray,
    bounds: tuple[tuple[int, int], ...] | None,
    dtype: np.dtype,
) -> FactorEig:
    """A checkpointed basis (copied, at ``dtype``): blocked again under
    ``bounds`` when ``q`` is exactly block-diagonal there — the dense form a
    blocked basis checkpoints as — else as stored."""
    if q is not None and bounds is not None:
        off_block = q.copy()
        for lo, hi in bounds:
            off_block[lo:hi, lo:hi] = 0
        if not off_block.any():
            blocks = tuple(q[lo:hi, lo:hi].astype(dtype) for lo, hi in bounds)
            return FactorEig(None, lam.astype(dtype), blocks, bounds)
    return FactorEig(None if q is None else q.astype(dtype), lam.astype(dtype))


class KFAC:
    """K-FAC preconditioner for one model replica.

    Parameters
    ----------
    model:
        The replica whose supported layers will be preconditioned.
    rank / world_size:
        This replica's position in the (simulated) worker world.
    hyper:
        Hyper-parameters; keyword overrides are also accepted.
    logger:
        Destination for degraded-path warnings — parameterized layers
        with no K-FAC handler are reported here (and recorded in
        :attr:`unsupported_layers`) instead of being dropped silently.
        Defaults to a ``Logger("kfac")`` on stderr; pass
        ``repro.utils.logging.NULL_LOGGER`` to silence.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.preconditioner import KFAC
    >>> from repro.nn import Linear, ReLU, Sequential
    >>> from repro.nn.loss import CrossEntropyLoss
    >>> model = Sequential(Linear(4, 8), ReLU(), Linear(8, 3))
    >>> kfac = KFAC(model, kfac_update_freq=1, damping=0.01)
    >>> loss_fn = CrossEntropyLoss()
    >>> x = np.random.default_rng(0).normal(size=(8, 4)).astype(np.float32)
    >>> _ = loss_fn(model(x), np.arange(8) % 3)
    >>> _ = model.backward(loss_fn.backward())
    >>> kfac.step()                   # rewrites every param.grad in place
    >>> kfac.steps, kfac.n_second_order_updates
    (1, 1)
    """

    def __init__(
        self,
        model: Module,
        rank: int = 0,
        world_size: int = 1,
        hyper: KFACHyperParams | None = None,
        grad_scaler: Any | None = None,
        logger: Logger | None = None,
        **overrides: Any,
    ) -> None:
        if world_size < 1 or not 0 <= rank < world_size:
            raise ValueError(f"invalid rank/world_size: {rank}/{world_size}")
        base = hyper if hyper is not None else KFACHyperParams()
        if overrides:
            valid = {f.name for f in fields(KFACHyperParams)}
            for key in overrides:
                if key not in valid:
                    raise TypeError(
                        f"KFAC() got an unknown hyper-parameter {key!r}; "
                        f"valid keys: {', '.join(sorted(valid))}"
                    )
            base = KFACHyperParams(
                **{**base.__dict__, **overrides}  # type: ignore[arg-type]
            )
        self.hp = base
        self.model = model
        self.rank = rank
        self.world_size = world_size
        #: AMP loss scaler (see :class:`repro.precision.GradScaler`): when
        #: set, captured output-gradients are divided by the current scale
        #: so ``G`` factors are built from *unscaled* statistics
        self.grad_scaler = grad_scaler
        #: per-factor quantization residuals for compressed factor comm
        codec = get_codec(base.comm_dtype)
        self._comm_ef: ErrorFeedback | None = (
            ErrorFeedback(codec) if codec is not None else None
        )
        self.steps = 0
        # mutable knobs (targets of KFACParamScheduler)
        self.lr = base.lr
        self.damping = base.damping
        self.fac_update_freq = base.fac_update_freq
        self.kfac_update_freq = base.kfac_update_freq

        self.logger = logger if logger is not None else Logger("kfac", stream=sys.stderr)
        #: the one dtype of every factor reading, running average, eigenbasis
        #: and the factor wire: float32, or the parameters' when wider
        self.factor_dtype = factor_dtype(model)
        self.layers: list[KFACLayer] = []
        self._layers_by_name: dict[str, KFACLayer] = {}
        self._hook_removers: list = []
        unsupported: list[tuple[str, str]] = []
        for name, module in model.named_modules():
            if any(s in name for s in base.skip_layers):
                continue
            handler = make_kfac_layer(name, module, dtype=self.factor_dtype)
            if handler is None:
                if module._parameters:
                    # parameterized but unhandled: the layer trains
                    # first-order only — record and warn, never drop it
                    # silently (the satellite-fixed footgun)
                    unsupported.append((name, type(module).__name__))
                continue
            self.layers.append(handler)
            self._layers_by_name[name] = handler
            self._hook_removers.append(
                module.register_forward_hook(self._make_forward_hook(handler))
            )
            self._hook_removers.append(
                module.register_backward_hook(self._make_backward_hook(handler))
            )
        #: parameterized layers K-FAC does not precondition, as
        #: ``(dotted_name, type_name)`` pairs (surfaced by the metrics
        #: registry as the ``kfac.unsupported_layers`` gauge)
        self.unsupported_layers: tuple[tuple[str, str], ...] = tuple(unsupported)
        if self.rank == 0 and unsupported:
            listing = ", ".join(f"{n} ({t})" for n, t in unsupported)
            self.logger.warn(
                f"{len(unsupported)} parameterized layer(s) have no K-FAC "
                f"handler and will train first-order only: {listing}"
            )
        if not self.layers:
            raise ValueError(
                "model has no K-FAC-supported layers "
                "(Linear/Conv2d/Embedding/LayerNorm)"
            )

        self._factor_metas = self._build_factor_metas()
        # one placement path: a strategy without a fraction names one of
        # the spectrum's ends, f = 1 (COMM_OPT) or f = 1/P (LAYER_WISE)
        frac = base.grad_worker_frac
        if frac is None:
            frac = 1.0 if base.strategy == COMM_OPT else 1.0 / world_size
        #: the gradient-worker fraction this placement runs
        self.grad_worker_frac: float = frac
        # the comm/eig units of each approximation phase, built once: whole
        # factors, then — past diag_warmup second-order updates of a
        # diag_blocks > 1 run — their diagonal blocks (blocks_active)
        placed = (self._factor_metas, world_size, base.assignment, frac)
        self._units: list[FactorUnits] = [plan_units(*placed)]
        if base.diag_blocks > 1:
            bounds = plan_block_bounds(
                [m.dim for m in self._factor_metas],
                base.diag_blocks,
                [m.diagonal for m in self._factor_metas],
            )
            self._units.append(plan_units(*placed, bounds))
        #: factor key -> (offset, side) of its slot in either arena (meta order)
        ends = np.cumsum([0] + [m.n_elements for m in self._factor_metas]).tolist()
        self._arena_slots = {m.key: (lo, m.dim) for m, lo in zip(self._factor_metas, ends)}
        #: the running averages (``layer.A`` / ``layer.G`` view them from the
        #: layer's first update or load on) and the sweep's fresh readings
        self._arena = np.zeros(ends[-1], self.factor_dtype)
        self._fresh = np.zeros_like(self._arena)
        #: each granularity's units as wire-plan spans (shared_wire_plan)
        self._wire_spans = [
            tuple((*self._arena_slots[m.factor_key], m.lo, m.dim, m.diagonal) for m in u.metas)
            for u in self._units
        ]
        #: granularity (0 exact, -1 blocked) whose EF residual was banked last
        self._ef_units: int | None = None
        n = len(self.layers)
        #: layer name -> its (A, G) factor metas
        self._metas_of = {
            l.name: (self._factor_metas[i], self._factor_metas[n + i])
            for i, l in enumerate(self.layers)
        }
        #: each layer with its (A, G) slots of the fresh arena
        self._sweep = [
            (l, *(self._slot(self._fresh, m) for m in self._metas_of[l.name]))
            for l in self.layers
        ]
        #: layer name -> the shape of each array its checkpoint entry holds
        self._entry_shapes: dict[str, dict] = {l.name: {} for l in self.layers}
        for m in self._factor_metas:
            eig, k = second_order_shapes(m, eigen=True), m.kind
            self._entry_shapes[m.layer].update(
                {k: m.shape, f"inv_{k}": m.shape, f"eig_{k}_Q": eig[0], f"eig_{k}_lam": eig[-1]}
            )
        #: gradient-worker placement: per-layer groups, broadcast roots,
        #: and the within-group factor assignment
        self._placement: GroupPlacement = self._units[0].placement
        # the placement is immutable, so the fused second-stage shares are
        # planned once here
        self._grad_shares = self._build_grad_shares()
        # staleness-tolerant eigenbases: drift-triggered refresh state
        self._drift_trigger: DriftTrigger | None = (
            DriftTrigger(base.drift_tol, base.max_eig_staleness)
            if base.drift_tol is not None
            else None
        )
        #: per-meta factor snapshots taken at each refresh (the state the
        #: current eigenbases were decomposed in), fed to the drift metric
        self._basis_snapshot: dict[str, np.ndarray] = {}
        self.n_drift_refreshes = 0
        self.n_drift_skips = 0
        # adaptive damping fed by the Eq. 18 KL statistic (executor hook)
        self._adaptive_damping: AdaptiveDamping | None = (
            AdaptiveDamping(base.damping) if base.adapt_damping else None
        )
        #: the Eq. 18 scale of the last step (None before the first), and
        #: the steps it clipped (nu < 1); lockstep like nu itself
        self.kl_clip_nu: float | None = None
        self.n_clipped_steps = 0
        # instrumentation counters
        self.n_factor_updates = 0
        self.n_second_order_updates = 0
        self.n_eigs_computed_locally = 0
        # span tracing (repro.obs); the executor inherits this recorder
        self.tracer = NULL_TRACER
        # graceful-degradation ledger: consecutive failed refreshes per
        # factor key (reset on the next successful exchange; member-local,
        # since only a group's members see its share fail), plus totals
        # for TrainingHistory
        self.staleness: dict[str, int] = {}
        #: the drift trigger's skip budget: refresh candidates skipped per
        #: factor key since the last refresh — charged and reset only on
        #: trigger decisions, which every rank makes identically
        self.skipped_refreshes: dict[str, int] = {}
        self.n_stale_fallbacks = 0
        self.n_factor_comm_failures = 0
        self.n_eig_share_failures = 0
        #: step plans cached per (update_factors, update_second_order,
        #: blocks_active) — the graph/schedule depend only on static
        #: placement metadata plus which approximation phase is active
        self._plans: dict[tuple[bool, bool, bool], Any] = {}

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _make_forward_hook(self, handler: KFACLayer):
        def hook(module: Module, inp: np.ndarray, out: np.ndarray) -> None:
            if module.training and self._capture_now:
                handler.save_input(inp)

        return hook

    def _make_backward_hook(self, handler: KFACLayer):
        def hook(module: Module, grad_out: np.ndarray) -> None:
            if module.training and self._capture_now:
                scaler = self.grad_scaler
                if scaler is not None and getattr(scaler, "enabled", True):
                    # undo the loss scale so G sees true gradient statistics
                    grad_out = grad_out / scaler.scale
                handler.save_grad_output(grad_out)

        return hook

    @property
    def _capture_now(self) -> bool:
        """Capture activations/grads on iterations that update factors."""
        return self.steps % self.fac_update_freq == 0

    def remove_hooks(self) -> None:
        """Detach from the model (e.g. before pickling the model)."""
        for remove in self._hook_removers:
            remove()
        self._hook_removers.clear()

    # ------------------------------------------------------------------
    # assignment
    # ------------------------------------------------------------------
    def _build_factor_metas(self) -> list[FactorMeta]:
        metas: list[FactorMeta] = []
        for layer in self.layers:
            metas.append(FactorMeta(layer.name, "A", layer.a_side, layer.diagonal_A))
        for layer in self.layers:
            metas.append(FactorMeta(layer.name, "G", layer.g_dim))
        return metas

    @property
    def n_capture_casts(self) -> int:
        """Captured readings cast to :attr:`factor_dtype` (data whose dtype is
        not the model's, such as float32 images into a float64 model)."""
        return sum(layer.capture_casts for layer in self.layers)

    @property
    def factor_metas(self) -> list[FactorMeta]:
        """All factor identities, in communication order (A's then G's)."""
        return list(self._factor_metas)

    @property
    def blocks_active(self) -> bool:
        """Is the block-diagonal approximation phase currently engaged?

        True once ``diag_blocks > 1`` and ``diag_warmup`` exact
        second-order updates have completed; from then on plans, wire
        payloads, and Eig/EigShare tasks operate on block metas.
        """
        return (
            self.hp.diag_blocks > 1
            and self.n_second_order_updates >= self.hp.diag_warmup
        )

    @property
    def units(self) -> FactorUnits:
        """The comm/eig units of the current phase: blocks once active."""
        return self._units[-1] if self.blocks_active else self._units[0]

    @property
    def grad_worker_placement(self) -> GroupPlacement:
        """Gradient-worker placement metadata."""
        return self._placement

    @property
    def grad_worker_count(self) -> int:
        """Ranks holding each layer's eigenbasis (P for COMM_OPT, 1 for LW)."""
        return self._placement.group_size

    def is_grad_worker(self, layer_name: str, rank: int | None = None) -> bool:
        """Does ``rank`` (default: this rank) hold ``layer_name``'s eigenbasis?

        The single placement predicate shared by the executor (who
        preconditions), the portable-checkpoint redistribute-on-load path
        (who hydrates second-order state), and
        :func:`repro.elastic.redistribution_plan` (its pure-metadata
        mirror).
        """
        return self._placement.is_grad_worker(self.rank if rank is None else rank, layer_name)

    # ------------------------------------------------------------------
    # graceful degradation (stale-eigenbasis fallback)
    # ------------------------------------------------------------------
    def _has_second_order(self, meta: FactorMeta) -> bool:
        """Does the layer carry last-known second-order state for ``meta``?"""
        layer = self._layer_by_name(meta.layer)
        if self.hp.use_eigen_decomp:
            prior = layer.eig_A if meta.kind == "A" else layer.eig_G
        else:
            prior = layer.inv_A if meta.kind == "A" else layer.inv_G
        return prior is not None

    def _note_factor_comm_failure(self, metas: Sequence[FactorMeta]) -> None:
        """A factor allreduce was lost past the retry budget.

        Ranks keep their *local* running averages for this refresh — the
        owned eigendecompositions still happen (from un-averaged factors)
        and their shares keep all replicas in lockstep, so no staleness
        accrues; the next successful exchange re-averages the histories.
        """
        del metas  # per-bucket granularity not needed: one counter per event
        self.n_factor_comm_failures += 1
        self.n_stale_fallbacks += 1

    def _note_eig_share_failure(self, metas: Sequence[FactorMeta]) -> None:
        """An eigenbasis share was lost past the retry budget.

        *No* rank installs this exchange (the owner included), keeping
        every replica preconditioning with the identical last-known
        eigenbasis.  Consecutive failures accrue per-factor staleness on
        the group's members (the ranks that see the failure; the drift
        trigger never reads it); past ``hp.max_eig_staleness`` — or if a
        factor has no prior state at all — the step hard-fails.
        """
        self.n_eig_share_failures += 1
        self.n_stale_fallbacks += 1
        for meta in metas:
            if not self._has_second_order(meta):
                raise StaleEigenbasisError(
                    f"eigenbasis share for {meta.key} failed and the layer has "
                    "no last-known second-order state to fall back to"
                )
            count = self.staleness.get(meta.key, 0) + 1
            self.staleness[meta.key] = count
            if count > self.hp.max_eig_staleness:
                raise StaleEigenbasisError(
                    f"{meta.key} eigenbasis is stale for {count} consecutive "
                    f"refreshes (> max_eig_staleness={self.hp.max_eig_staleness})"
                )

    def _clear_staleness(self, metas: Sequence[FactorMeta]) -> None:
        """A successful second-order exchange resets the counters."""
        for meta in metas:
            self.staleness.pop(meta.key, None)

    # ------------------------------------------------------------------
    # the Algorithm 1 step (generator)
    # ------------------------------------------------------------------
    def step_generator(self) -> Generator[Any, Any, None]:
        """One preconditioning step; yields comm requests, mutates grads.

        Preconditions: forward+backward already ran (hooks captured data on
        factor-update iterations) and gradients are already averaged across
        workers (Listing 1 calls ``optimizer.synchronize()`` first).

        The step is planned as a task graph (:mod:`repro.sched`) and run
        by one :class:`repro.sched.executor.GraphExecutor` for every
        placement; ``scheduler="graph"`` pipelines the collectives,
        ``"sync"`` waits for each one as it is launched.
        """
        # imported here, not at module top: repro.sched.executor imports
        # repro.core submodules, whose package __init__ imports this module
        from repro.sched.executor import GraphExecutor

        update_factors = self.steps % self.fac_update_freq == 0
        # fixed kfac_update_freq schedule, or the drift trigger's verdict
        # (decided *before* this step's EMA fold-in, from post-allreduce
        # factor state — identical on every rank, hence lockstep plans)
        update_second_order = self._refresh_due(update_factors)

        if update_factors:
            self.update_factors()

        plan = self.build_plan(update_factors, update_second_order)
        yield from GraphExecutor(self, plan).run()
        if update_second_order:
            self.n_second_order_updates += 1
            self._snapshot_basis_factors()
        self.steps += 1

    def update_factors(self) -> None:
        """Algorithm 1 step 1 as one sweep: each layer writes its readings'
        upper triangles into its slots of the fresh arena, one gather over
        the exact symmetric wire plan mirrors them, and one EMA folds the
        arena (a layer's first reading is adopted, and its ``A`` / ``G``
        become views of their arena slots)."""
        fresh = self._fresh
        for layer, out_A, out_G in self._sweep:
            layer.update_factors(out_A, out_G)
        plan = shared_wire_plan(self._wire_spans[0], True)
        fresh[plan.mirror] = fresh[plan.gather]
        ema_update(self._arena, fresh, self.hp.factor_decay)
        for layer, out_A, out_G in self._sweep:
            if layer.A is None:
                self._attach(layer)
                layer.A[...], layer.G[...] = out_A, out_G
        self.n_factor_updates += 1

    def _slot(self, arena: np.ndarray, meta: FactorMeta) -> np.ndarray:
        """``meta``'s factor-shaped view of its slot of ``arena``."""
        lo = self._arena_slots[meta.key][0]
        return arena[lo : lo + meta.n_elements].reshape(meta.shape)

    def _attach(self, layer: KFACLayer) -> None:
        """Make ``layer``'s running averages views of the arena."""
        layer.A, layer.G = (self._slot(self._arena, m) for m in self._metas_of[layer.name])

    def _refresh_due(self, update_factors: bool) -> bool:
        """Should this step refresh the eigendecompositions?

        Without ``drift_tol`` this is the classic fixed schedule
        (``steps % kfac_update_freq == 0``, so step 0 always refreshes).
        With the drift trigger, refresh candidates are factor-update
        steps; the decision refreshes iff any basis is missing (no
        snapshot, which every rank writes after each refresh), any
        factor (or block) drifted past tolerance since it was last
        decomposed, or any basis has exhausted its ``max_eig_staleness``
        skip budget — the budget binds even when the drift metric says
        "fresh enough".  Skipped candidates accrue per-meta
        :attr:`skipped_refreshes`, and a refresh resets them, so every
        input of the decision is the same on every rank.
        """
        trig = self._drift_trigger
        if trig is None:
            return self.steps % self.kfac_update_freq == 0
        if not update_factors:
            return False
        metas = self.units.metas
        max_drift = 0.0
        worst_staleness = 0
        has_basis = True
        for meta in metas:
            factor = self._factor(meta)
            snap = self._basis_snapshot.get(meta.key)
            if factor is None or snap is None:
                has_basis = False
                break
            max_drift = max(max_drift, trig.drift(factor_block(factor, meta), snap))
            worst_staleness = max(worst_staleness, self.skipped_refreshes.get(meta.key, 0))
        refresh = trig.should_refresh(max_drift, worst_staleness, has_basis)
        if refresh:
            self.n_drift_refreshes += 1
            self.skipped_refreshes.clear()
        else:
            self.n_drift_skips += 1
            for meta in metas:
                self.skipped_refreshes[meta.key] = self.skipped_refreshes.get(meta.key, 0) + 1
        self.tracer.instant(
            f"refresh:{'go' if refresh else 'skip'}",
            "approx",
            self.rank,
            attrs={
                "step": self.steps,
                "max_drift": round(max_drift, 6),
                "worst_staleness": worst_staleness,
                "has_basis": has_basis,
            },
        )
        return refresh

    def _snapshot_basis_factors(self) -> None:
        """Record the factor state the just-refreshed bases decompose.

        Runs after the executor, so the snapshots hold post-allreduce
        values — identical on every rank, which keeps later drift
        decisions in lockstep.  Keys follow the *next* step's meta
        granularity (the warmup-to-blocked transition therefore reads as
        "no basis" and forces one refresh under the new keys).
        """
        if self._drift_trigger is None:
            return
        self._basis_snapshot.clear()
        for meta in self.units.metas:
            factor = self._factor(meta)
            if factor is None:  # pragma: no cover - refresh implies factors
                continue
            self._basis_snapshot[meta.key] = np.array(factor_block(factor, meta), copy=True)

    def build_plan(
        self, update_factors: bool = True, update_second_order: bool = True
    ) -> Any:
        """The :class:`repro.sched.planner.StepPlan` for this step shape.

        Cached per ``(update_factors, update_second_order)`` pair — the
        graph, schedule and bucket partition depend only on static
        placement metadata.  ``scheduler="graph"`` plans pipelined
        launch/wait execution; ``"sync"`` plans an immediate wait after
        every launch.  With
        ``bucket_bytes=None`` the pipeline chunk size comes from the
        cost-model rates (:func:`repro.sched.planner.choose_bucket_bytes`).
        """
        from repro.sched.planner import build_step_plan

        key = (bool(update_factors), bool(update_second_order), self.blocks_active)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        units = self.units
        pipelined = (
            self.hp.scheduler == "graph"
            and self.world_size > 1
            and update_factors
            and update_second_order
        )
        wire: list[int] | None = None
        if update_factors and self.world_size > 1:
            # per-unit wire bytes (only the block triangles ship once
            # blocks are active): triangular packing and compressed
            # transport shrink the payloads the partition actually sees
            codec = get_codec(self.hp.comm_dtype)
            itemsize = codec.itemsize if codec is not None else self.factor_dtype.itemsize
            wire = [wire_elements(m, self.hp.symmetric_comm) * itemsize for m in units.metas]
        grad_shares = tuple(
            (tuple(roots), [l.name for layers_r in roots.values() for l in layers_r])
            for _, roots in self._grad_shares
        )
        plan = build_step_plan(
            world_size=self.world_size,
            units=units,
            layer_names=[l.name for l in self.layers],
            grad_shares=grad_shares,
            wire_nbytes_list=wire,
            bucket_bytes=self.hp.bucket_bytes,
            update_factors=update_factors,
            update_second_order=update_second_order,
            pipelined=pipelined,
        )
        self._plans[key] = plan
        return plan

    def _wire_plan(self, units: FactorUnits) -> WirePlan:
        """The arena <-> wire index plan of ``units`` (shared by every step
        plan of that granularity, and every replica of the same model)."""
        g = 0 if units is self._units[0] else -1
        return shared_wire_plan(self._wire_spans[g], self.hp.symmetric_comm)

    def _pack_factor_wire(self, units: FactorUnits) -> np.ndarray:
        """The factor wire of ``units``, EF-compressed under ``comm_dtype``."""
        wire = self._wire_plan(units).pack(self._arena)
        return wire if self._comm_ef is None else self._compress_factor_wire(wire, units)

    def _install_factor_wire(
        self, units: FactorUnits, first: int, last: int, reduced: np.ndarray
    ) -> None:
        """Scatter the reduced wire of units ``[first, last)`` into the arena.

        The wire is cast to the factor dtype (a compressed wire reduces in
        fp32); a block writes only its block, and its off-block entries stay
        local (they are never read once blocks are active).
        """
        self._wire_plan(units).unpack(reduced, self._arena, first, last)

    def _compress_factor_wire(self, wire: np.ndarray, units: FactorUnits) -> np.ndarray:
        """Quantize the factor wire of ``units`` for compressed transport, with EF.

        Each granularity banks one wire-shaped residual, unit ``i``'s at its
        wire slice, so what fp16/bf16 rounds away this exchange is
        re-injected into the next elementwise as a residual per unit would
        be.  Returns wire-precision fp32 values (the driver's codec
        round-trips them losslessly).
        """
        ef = self._comm_ef
        g = 0 if units is self._units[0] else -1
        last, self._ef_units = self._ef_units, g
        prev = None if last in (None, g) else ef.residual(last)
        if prev is not None:
            # a unit both granularities share (a factor left whole) keeps its
            # residual across the switch; -0.0, the additive identity, leaves
            # the units with nothing banked as they are
            offs = self._wire_plan(self._units[last]).offsets
            was = {m.key: slice(a, b) for m, a, b in zip(self._units[last].metas, offs, offs[1:])}
            offs = self._wire_plan(units).offsets
            shared = [
                (slice(a, b), was[m.key])
                for m, a, b in zip(units.metas, offs, offs[1:])
                if m.key in was
            ]
            if shared:
                res = ef.residual(g)
                if res is None:
                    res = np.full(wire.size, -0.0, prev.dtype)
                for dst, src in shared:
                    res[dst] = prev[src]
                ef.seed(g, res)
        return ef.apply(g, wire)

    def _install_second_order(
        self, flat: np.ndarray, metas: Sequence[FactorMeta]
    ) -> None:
        """Unpack one owner's packed second-order payloads and install them."""
        shapes = [second_order_shapes(m, self.hp.use_eigen_decomp) for m in metas]
        arrays = iter(unpack_arrays(flat, [s for per_meta in shapes for s in per_meta]))
        for meta, per_meta in zip(metas, shapes):
            self._install_factor_state(meta, [next(arrays) for _ in per_meta])

    def _install_factor_state(
        self, meta: FactorMeta, arrays: Sequence[np.ndarray]
    ) -> None:
        """Install one factor's (or factor block's) payload into its layer.

        Block payloads are *staged*: the layer assembles the blocked
        :class:`~repro.core.inverse.FactorEig` only once every block of
        the factor has arrived, so a half-shipped refresh never
        preconditions.
        """
        layer = self._layer_by_name(meta.layer)
        if self.hp.use_eigen_decomp:
            eig = FactorEig(Q=None if meta.diagonal else arrays[0], lam=arrays[-1])
            if meta.block is not None:
                layer.install_block_eig(
                    meta.kind, meta.block, eig, self._units[-1].bounds[meta.factor_key]
                )
            elif meta.kind == "A":
                layer.eig_A = eig
            else:
                layer.eig_G = eig
        else:
            if meta.kind == "A":
                layer.inv_A = arrays[0]
            else:
                layer.inv_G = arrays[0]

    def _build_grad_shares(self) -> list[tuple[tuple[int, ...], dict[int, list[KFACLayer]]]]:
        """The second stage: ``(participants, {root: layers})`` per share.

        Every layer whose group is not the world ships its preconditioned
        gradient from its root (the group's first rank) to the ranks
        outside the group.  Layers fuse by participant set — the root and
        the non-members, in rank order.  With contiguous groups every
        layer of one root has the same set, so each root ships one payload
        to ``P - g + 1`` ranks; roots share a set exactly when ``g = 1``,
        where every set is the world and the share is one allgather.
        """
        shares: dict[tuple[int, ...], dict[int, list[KFACLayer]]] = {}
        for layer in self.layers:
            grp = self._placement.groups[layer.name]
            if len(grp) >= self.world_size:
                continue  # everyone is a grad worker: nothing to ship
            root = grp[0]
            participants = tuple(
                r for r in range(self.world_size) if r == root or r not in grp
            )
            shares.setdefault(participants, {}).setdefault(root, []).append(layer)
        return list(shares.items())

    def _layer_by_name(self, name: str) -> KFACLayer:
        try:
            return self._layers_by_name[name]
        except KeyError:
            raise KeyError(f"no K-FAC layer named {name!r}") from None

    def _factor(self, meta: FactorMeta) -> np.ndarray | None:
        """The whole running-average factor ``meta`` belongs to."""
        layer = self._layers_by_name[meta.layer]
        return layer.A if meta.kind == "A" else layer.G

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def placement_metadata(self) -> dict:
        """The placement stamp written into every checkpoint.

        Records everything needed to (a) detect a mismatched naive resume
        and (b) re-plan shard ownership when a *portable* bundle (see
        :func:`repro.elastic.gather_state_dict`) is loaded into a
        different world size / ``grad_worker_frac``.
        """
        return {
            "strategy": self.hp.strategy,
            "grad_worker_frac": self.hp.grad_worker_frac,
            "world_size": self.world_size,
            "rank": self.rank,
            "assignment": self.hp.assignment,
            "use_eigen_decomp": self.hp.use_eigen_decomp,
            "symmetric_comm": self.hp.symmetric_comm,
            "comm_dtype": self.hp.comm_dtype,
            # informational (not a naive-resume match key): blocked bases
            # checkpoint as their dense block-diagonal assembly, which any
            # diag_blocks run can resume (load re-blocks it when it is
            # exactly block-diagonal under the loading run's partition)
            "diag_blocks": self.hp.diag_blocks,
        }

    def state_dict(self) -> dict:
        """Serializable snapshot: counters, knobs, factors, second-order state.

        Mirrors the reference implementation's ``KFAC.state_dict`` so
        training can resume mid-run without re-warming the running
        averages.  The snapshot is stamped with :meth:`placement_metadata`
        and ``portable: False`` — it contains only *this rank's* owned
        second-order shards, so :meth:`load_state_dict` rejects it under a
        different world size / placement.  Use
        :func:`repro.elastic.gather_state_dict` for a rank-agnostic bundle
        that resumes anywhere.
        """
        layers: dict[str, dict[str, np.ndarray]] = {}
        for layer in self.layers:
            entry: dict[str, np.ndarray] = {}
            if layer.A is not None:
                entry["A"] = layer.A.copy()
                entry["G"] = layer.G.copy()  # type: ignore[union-attr]
            entry.update(layer.second_order_entry())
            layers[layer.name] = entry
        return {
            "steps": self.steps,
            "lr": self.lr,
            "damping": self.damping,
            "fac_update_freq": self.fac_update_freq,
            "kfac_update_freq": self.kfac_update_freq,
            "n_second_order_updates": self.n_second_order_updates,
            "layers": layers,
            "placement": self.placement_metadata(),
            "portable": False,
        }

    #: placement fields that must match for a non-portable resume
    _PLACEMENT_MATCH_KEYS = (
        "strategy",
        "grad_worker_frac",
        "world_size",
        "assignment",
        "use_eigen_decomp",
    )

    def load_state_dict(self, state: dict, strict: bool = True) -> None:
        """Restore a snapshot produced by :meth:`state_dict`.

        ``strict=True`` (default) raises ``KeyError`` if the checkpoint
        names a layer this model doesn't have **or** is missing a layer
        this model *does* have (a silent partial restore would train some
        layers from re-warmed factors without warning), and ``ValueError``
        if a non-portable snapshot was taken under a different placement
        (world size, strategy, ``grad_worker_frac``, assignment policy, or
        inverse method).  ``strict=False`` restores the intersection and
        skips the placement check.  An entry whose factor or second-order
        arrays do not fit its layer raises ``ValueError`` naming the layer,
        the key and both shapes, before anything is restored.  Every array
        is cast to :attr:`factor_dtype`; factors load into their arena
        slots in place (the arena, the step plans and the wire plans all
        stay), a layer that has none yet viewing them from then on.

        A *portable* bundle (``portable: True``, from
        :func:`repro.elastic.gather_state_dict`) carries every layer's
        complete second-order state; it is redistributed on load — running
        averages hydrate everywhere, eigenbases only where the *current*
        placement makes this rank a gradient worker — so it resumes under
        any world size / ``grad_worker_frac``.
        """
        portable = bool(state.get("portable", False))
        meta = state.get("placement")
        by_name = self._layers_by_name
        unknown = sorted(set(state["layers"]) - set(by_name))
        missing = sorted(set(by_name) - set(state["layers"]))
        if strict and unknown:
            raise KeyError(f"checkpoint has unknown K-FAC layer {unknown[0]!r}")
        if strict and missing:
            raise KeyError(
                f"checkpoint is missing K-FAC layers {missing}; their factors "
                "would silently re-warm from scratch (pass strict=False to "
                "restore the intersection anyway)"
            )
        if strict and not portable and meta is not None:
            current = self.placement_metadata()
            mismatched = [
                key
                for key in self._PLACEMENT_MATCH_KEYS
                if meta.get(key) != current[key]
            ]
            if mismatched:
                detail = ", ".join(
                    f"{k}: checkpoint={meta.get(k)!r} != current={current[k]!r}"
                    for k in mismatched
                )
                raise ValueError(
                    "checkpoint placement does not match this preconditioner "
                    f"({detail}); per-rank snapshots only resume under the "
                    "identical placement — gather a portable bundle with "
                    "repro.elastic.gather_state_dict() to resume across world "
                    "sizes, or pass strict=False"
                )
        # every entry is checked before anything is restored
        entries: dict[str, dict] = {}
        for name, entry in state["layers"].items():
            if name not in by_name:
                continue  # tolerated under strict=False
            if by_name[name].diagonal_A:
                entry = _diagonal_A_entry(name, entry)
            want = self._entry_shapes[name]
            for key, arr in entry.items():
                if arr.shape != want.get(key) and key in want:
                    raise ValueError(
                        f"checkpoint {key} of K-FAC layer {name!r} has shape "
                        f"{arr.shape}, but the layer's is {want[key]}"
                    )
            entries[name] = entry
        self.steps = int(state["steps"])
        self.lr = float(state["lr"])
        self.damping = float(state["damping"])
        self.fac_update_freq = int(state["fac_update_freq"])
        self.kfac_update_freq = int(state["kfac_update_freq"])
        # sets the diag_warmup phase; older checkpoints lack it
        self.n_second_order_updates = int(
            state.get("n_second_order_updates", self.n_second_order_updates)
        )
        # the saved bases are blocked iff their refresh ran past the warmup
        past_warmup = self.n_second_order_updates > self.hp.diag_warmup
        bounds = self._units[-1].bounds if past_warmup else {}
        dtype = self.factor_dtype
        for name, entry in entries.items():
            layer = by_name[name]
            if "A" in entry:  # cast into the arena slots
                if layer.A is None:
                    self._attach(layer)
                layer.A[...], layer.G[...] = entry["A"], entry["G"]
            # portable bundles are redistributed: second-order state
            # hydrates only where the *current* placement wants it
            if portable and not self.is_grad_worker(name):
                continue
            if "eig_A_lam" in entry:
                q_A = None if layer.diagonal_A else entry["eig_A_Q"]
                layer.eig_A = _restored_eig(
                    q_A, entry["eig_A_lam"], bounds.get(f"{name}/A"), dtype
                )
                layer.eig_G = _restored_eig(
                    entry["eig_G_Q"], entry["eig_G_lam"], bounds.get(f"{name}/G"), dtype
                )
            if "inv_A" in entry:
                layer.inv_A = entry["inv_A"].astype(dtype)
                layer.inv_G = entry["inv_G"].astype(dtype)

    # ------------------------------------------------------------------
    # convenience: run the step with no communication (world of one)
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Single-worker step (Listing 1's ``preconditioner.step()``)."""
        if self.world_size != 1:
            raise RuntimeError(
                "step() is the single-worker entry point; use a driver from "
                "repro.core.distributed for multi-worker execution"
            )
        # a world of one plans no collective, so the generator runs to
        # completion without yielding
        for req in self.step_generator():
            raise RuntimeError(
                f"single-worker step yielded a comm request ({type(req).__name__})"
            )
