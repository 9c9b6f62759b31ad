"""Block-diagonal approximation sweep (:mod:`repro.approx`).

Prices ``KFAC(diag_blocks=k)`` with the performance model: splitting each
``d x d`` Kronecker factor into ``k`` diagonal blocks turns one ``O(d^3)``
eigendecomposition into ``k`` independent ``O((d/k)^3)`` ones — an
``~k^2`` FLOP reduction at the widest factor — and shrinks the factor
exchange to the diagonal-block triangles.  The sweep reports, per block
count, the slowest-worker eigendecomposition stage time (greedy LPT over
the finer block tasks), the eigendecomposition payload, the tri-packed
factor wire payload, and the amortized iteration time.

``benchmarks/bench_approx.py`` checks the modeled eig-stage trend against
measured per-block ``eigh`` wall time on the real widest ResNet-50 factor.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
from repro.perfmodel.iteration import IterationModel, KfacIntervals
from repro.perfmodel.specs import resnet_spec
from repro.utils.tables import format_table

__all__ = ["run_approximation_sweep"]


def run_approximation_sweep(
    depth: int = 50,
    p: int = 64,
    blocks: tuple[int, ...] = (1, 2, 4, 8),
    eig_interval: int = 100,
) -> ExperimentResult:
    """Modeled cost of the block-diagonal factor approximation per ``k``.

    ``blocks`` must start at 1 so the first row is the exact whole-factor
    baseline every other row is compared against.

    Example
    -------
    >>> from repro.experiments.approx_exp import run_approximation_sweep
    >>> result = run_approximation_sweep(depth=50, p=8, blocks=(1, 4))
    >>> rows = result.data["raw"]
    >>> rows[1]["eig_stage_s"] < rows[0]["eig_stage_s"]
    True
    >>> rows[1]["factor_payload_bytes"] < rows[0]["factor_payload_bytes"]
    True
    """
    if not blocks or blocks[0] != 1:
        raise ValueError(f"blocks must start with the exact baseline 1, got {blocks}")
    result = ExperimentResult(
        "approximation-sweep",
        f"diag_blocks sweep: ResNet-{depth} at {p} GPUs (greedy LPT)",
    )
    im = IterationModel(resnet_spec(depth), V100_LIKE, FRONTERA_LIKE)
    intervals = KfacIntervals.from_eig_interval(eig_interval)
    rows = []
    raw = []
    base_eig = None
    for k in blocks:
        sp = im.stage_profile(p, policy="greedy", diag_blocks=k)
        iter_t = im.kfac_iteration_time(p, intervals, policy="greedy", diag_blocks=k)
        fac_payload = im.factor_comm_payload_bytes(packed=True, diag_blocks=k)
        if base_eig is None:
            base_eig = sp.eig_tcomp
        rows.append(
            [
                k,
                f"{sp.eig_tcomp * 1e3:.1f}",
                f"{base_eig / sp.eig_tcomp:.1f}x",
                f"{sp.eigenbasis_bytes_per_rank / 2**20:.1f}",
                f"{fac_payload / 2**20:.1f}",
                f"{iter_t * 1e3:.2f}",
            ]
        )
        raw.append(
            {
                "diag_blocks": k,
                "eig_stage_s": sp.eig_tcomp,
                "eig_comm_s": sp.eig_tcomm,
                "eig_payload_bytes": sp.eigenbasis_bytes_per_rank,
                "factor_payload_bytes": fac_payload,
                "iteration_s": iter_t,
            }
        )
    result.add(
        format_table(
            [
                "diag_blocks",
                "eig stage (ms)",
                "speedup",
                "eig payload (MiB)",
                "factor wire (MiB)",
                "iteration (ms)",
            ],
            rows,
        )
    )
    result.data = {"depth": depth, "gpus": p, "rows": rows, "raw": raw}
    return result
