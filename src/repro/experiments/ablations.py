"""Ablations beyond the paper's headline results.

- **Placement policy** (§VI-C4 future work): round-robin vs greedy
  size-balanced (LPT) factor assignment.  The paper proposes this as the
  fix for the Table VI imbalance; we implement and quantify it.
- **Gradient-worker fraction** (KAISA, arXiv:2107.01739): the continuous
  memory-vs-communication spectrum between the paper's COMM_OPT and
  LAYER_WISE placements, priced by the performance model per fraction.
- **Factor communication frequency** (§V-C): validates the claim that the
  factors can be refreshed at one tenth of the eigendecomposition interval
  "without loss in performance" by comparing fac_interval in
  {1, eig/10, eig}.
"""

from __future__ import annotations

from repro.experiments.common import (
    SCALE_PRESETS,
    ExperimentResult,
    default_kfac_hp,
    make_paired_task,
    train_once,
)
from repro.core.assignment import grad_worker_count
from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
from repro.perfmodel.iteration import IterationModel, KfacIntervals
from repro.perfmodel.specs import resnet_spec
from repro.utils.tables import format_table

__all__ = [
    "run_placement_ablation",
    "run_grad_worker_frac_sweep",
    "run_factor_comm_ablation",
]


def run_placement_ablation(
    depths: tuple[int, ...] = (50, 101, 152),
    gpus: tuple[int, ...] = (16, 32, 64, 128, 256),
) -> ExperimentResult:
    """Round-robin vs greedy (LPT) assignment: slowest-worker eig time."""
    result = ExperimentResult(
        "ablation-placement",
        "eig stage time: round-robin vs size-balanced placement (§VI-C4)",
    )
    rows = []
    for depth in depths:
        im = IterationModel(resnet_spec(depth), V100_LIKE, FRONTERA_LIKE)
        for p in gpus:
            rr = im.eig_stage_time(p, policy="round_robin")
            greedy = im.eig_stage_time(p, policy="greedy")
            rows.append(
                [
                    f"ResNet-{depth}",
                    p,
                    f"{rr * 1e3:.0f}",
                    f"{greedy * 1e3:.0f}",
                    f"{100 * (1 - greedy / rr):.1f}%",
                ]
            )
    result.add(
        format_table(
            ["Model", "GPUs", "round-robin (ms)", "greedy LPT (ms)", "improvement"],
            rows,
        )
    )
    result.data = {"rows": rows}
    return result


def run_grad_worker_frac_sweep(
    depth: int = 50,
    p: int = 64,
    fracs: tuple[float, ...] = (),
    eig_interval: int = 100,
) -> ExperimentResult:
    """The KAISA memory-vs-communication Pareto frontier, per fraction.

    For each ``grad_worker_frac`` value the performance model reports the
    per-rank eigenbasis memory, the per-rank second-stage
    (preconditioned-gradient broadcast) volume, the per-stage comm times,
    and the amortized iteration time.  The endpoints are the paper's two
    strategies: ``f = 1`` is COMM_OPT (max memory, no second stage),
    ``f = 1/P`` is LAYER_WISE (min memory, a per-iteration gradient
    allgather).
    """
    if not fracs:
        # halving sweep 1, 1/2, 1/4, ... plus the exact 1/p LAYER_WISE
        # endpoint (the halving sequence misses it when p is not a power
        # of two)
        fracs = tuple(1.0 / (1 << k) for k in range(p.bit_length()) if (1 << k) <= p)
        if 1.0 / p not in fracs:
            fracs = fracs + (1.0 / p,)
    result = ExperimentResult(
        "ablation-grad-worker-frac",
        f"KAISA grad_worker_frac sweep: ResNet-{depth} at {p} GPUs",
    )
    im = IterationModel(resnet_spec(depth), V100_LIKE, FRONTERA_LIKE)
    intervals = KfacIntervals.from_eig_interval(eig_interval)
    rows = []
    raw = []
    for f in sorted(fracs, reverse=True):
        sp = im.stage_profile(p, grad_worker_frac=f)
        g = grad_worker_count(p, f)
        iter_t = im.kfac_iteration_time(p, intervals, grad_worker_frac=f)
        rows.append(
            [
                f"{f:.4f}",
                g,
                f"{sp.eigenbasis_bytes_per_rank / 2**20:.1f}",
                f"{sp.precond_share_bytes_per_rank / 2**20:.1f}",
                f"{sp.eig_tcomm * 1e3:.1f}",
                f"{sp.precond_tcomm * 1e3:.1f}",
                f"{iter_t * 1e3:.2f}",
            ]
        )
        raw.append(
            {
                "frac": f,
                "grad_workers": g,
                "eigenbasis_bytes_per_rank": sp.eigenbasis_bytes_per_rank,
                "precond_share_bytes_per_rank": sp.precond_share_bytes_per_rank,
                "eig_tcomm": sp.eig_tcomm,
                "precond_tcomm": sp.precond_tcomm,
                "iteration_time": iter_t,
            }
        )
    result.add(
        format_table(
            [
                "frac",
                "grad workers",
                "eig mem/rank (MiB)",
                "bcast recv/rank (MiB)",
                "eig comm (ms)",
                "bcast comm (ms)",
                "iter (ms)",
            ],
            rows,
            title="memory decreases / second-stage comm increases as f decreases",
        )
    )
    result.data = {"rows": raw, "p": p, "depth": depth}
    return result


def run_factor_comm_ablation(scale: str = "small", seed: int = 7) -> ExperimentResult:
    """Accuracy vs factor update interval at a fixed eig interval."""
    preset = SCALE_PRESETS[scale]
    dataset = make_paired_task(preset, seed=seed)
    eig_interval = 10
    rows = []
    accs: dict[str, float] = {}
    for label, fac_interval in (
        ("every step", 1),
        ("eig/10 (paper)", max(1, eig_interval // 10)),
        ("== eig (stale)", eig_interval),
    ):
        hp = default_kfac_hp(
            kfac_update_freq=eig_interval, fac_update_freq=fac_interval
        )
        hist = train_once(dataset, preset, 2, preset.kfac_epochs, hp, seed=seed)
        accs[label] = hist.final_val_accuracy
        rows.append([label, fac_interval, f"{hist.final_val_accuracy:.3f}"])
    result = ExperimentResult(
        "ablation-factor-comm",
        "factor update interval vs accuracy (§V-C 10x-frequency claim)",
    )
    result.add(format_table(["Factor update", "interval", "val acc"], rows))
    result.data = {"accuracy": accs, "eig_interval": eig_interval}
    return result
