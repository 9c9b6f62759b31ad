"""Profiling experiments (paper §VI-C4): Tables V & VI and Figure 10.

Performance-model experiments driven by the real ResNet layer shapes.
Shape criteria:

- **Table V**: factor-computation time constant in GPU count; factor/eig
  communication roughly flat; eigendecomposition compute decreasing with
  GPU count but sub-linearly (imbalance);
- **Table VI**: the fastest worker's eigendecomposition time shrinks
  near-linearly with GPU count while the slowest's barely improves;
- **Fig. 10**: factor-computation time grows super-linearly with model
  parameter count.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
from repro.perfmodel.iteration import IterationModel
from repro.perfmodel.scaling import worker_speedup_table
from repro.perfmodel.specs import resnet_spec
from repro.utils.tables import format_series, format_table

__all__ = ["run_table5", "run_table6", "run_fig10"]

#: paper Table V (ms): (model, gpus) -> (fac Tcomp, fac Tcomm, eig Tcomp, eig Tcomm)
PAPER_TABLE5 = {
    (50, 16): (36.83, 155.79, 2256.64, 117.28),
    (50, 32): (43.30, 171.57, 1668.19, 149.60),
    (50, 64): (44.90, 154.63, 1497.96, 142.93),
    (101, 16): (125.23, 224.15, 3271.72, 199.69),
    (101, 32): (126.14, 267.08, 2280.38, 265.57),
    (101, 64): (126.95, 239.33, 2410.24, 253.23),
    (152, 16): (218.36, 276.83, 4067.69, 279.08),
    (152, 32): (219.00, 313.17, 2758.42, 329.05),
    (152, 64): (219.12, 312.52, 2212.24, 347.99),
}

#: paper Table VI: (model, gpus) -> (min speedup, max speedup)
PAPER_TABLE6 = {
    (50, 16): (1.00, 1.00), (50, 32): (1.34, 2.88), (50, 64): (1.55, 6.61),
    (101, 16): (1.00, 1.00), (101, 32): (1.41, 3.33), (101, 64): (1.26, 6.18),
    (152, 16): (1.00, 1.00), (152, 32): (1.51, 2.03), (152, 64): (1.85, 8.27),
}


def run_table5(
    depths: tuple[int, ...] = (50, 101, 152),
    gpus: tuple[int, ...] = (16, 32, 64),
) -> ExperimentResult:
    """Table V: per-stage time profile of a K-FAC update step.

    Beside the synchronous costs, two columns report the *exposed*
    (non-overlapped) communication once the graph scheduler hides
    transfers behind compute — the SPD-KFAC-style savings the synchronous
    route leaves on the table.  The factor-stage wire payload is reported
    for both the full-matrix exchange and the triangular-packed fast path
    (``KFAC(symmetric_comm=True)``) — the packed bytes are strictly lower.
    """
    result = ExperimentResult(
        "table5", "factor & eigendecomposition time profile (paper Table V, ms)"
    )
    rows = []
    exposed: dict[tuple[int, int], tuple[float, float]] = {}
    hidden: dict[tuple[int, int], float] = {}
    payload_full: dict[int, float] = {}
    payload_packed: dict[int, float] = {}
    for depth in depths:
        im = IterationModel(resnet_spec(depth), V100_LIKE, FRONTERA_LIKE)
        payload_full[depth] = float(im.factor_comm_payload_bytes(packed=False))
        payload_packed[depth] = float(im.factor_comm_payload_bytes(packed=True))
        for p in gpus:
            prof = im.stage_profile(p, scheduler="graph")
            paper = PAPER_TABLE5.get((depth, p))
            exposed[(depth, p)] = (prof.factor_tcomm_exposed, prof.eig_tcomm_exposed)
            hidden[(depth, p)] = prof.hidden_comm
            rows.append([
                f"ResNet-{depth}",
                p,
                f"{prof.factor_tcomp * 1e3:.1f}",
                f"{prof.factor_tcomm * 1e3:.1f}",
                f"{prof.eig_tcomp * 1e3:.0f}",
                f"{prof.eig_tcomm * 1e3:.0f}",
                f"{prof.factor_tcomm_exposed * 1e3:.1f}",
                f"{prof.eig_tcomm_exposed * 1e3:.1f}",
                "/".join(f"{v:.0f}" for v in paper) if paper else "-",
            ])
    headers = [
        "Model", "GPUs", "fac Tcomp", "fac Tcomm", "eig Tcomp", "eig Tcomm",
        "fac Texpose", "eig Texpose", "paper (fc/fx/ec/ex)",
    ]
    result.add(format_table(headers, rows))
    result.add(
        format_table(
            ["Model", "factor payload (MB, full)", "factor payload (MB, tri-packed)"],
            [
                [
                    f"ResNet-{d}",
                    f"{payload_full[d] / 1e6:.1f}",
                    f"{payload_packed[d] / 1e6:.1f}",
                ]
                for d in depths
            ],
        )
    )
    result.data = {
        "paper": PAPER_TABLE5,
        "exposed": exposed,
        "hidden": hidden,
        "factor_payload_bytes": payload_full,
        "factor_payload_packed_bytes": payload_packed,
    }
    return result


def run_table6(
    depths: tuple[int, ...] = (50, 101, 152), gpus: tuple[int, ...] = (16, 32, 64)
) -> ExperimentResult:
    """Table VI: min/max eigendecomposition worker speedup (imbalance)."""
    result = ExperimentResult(
        "table6", "min/max eig worker speedup vs 16 GPUs (paper Table VI)"
    )
    rows = []
    for depth in depths:
        speedups = worker_speedup_table(depth, gpus)
        for p in gpus:
            mn, mx = speedups[p]
            pmn, pmx = PAPER_TABLE6[(depth, p)]
            rows.append(
                [f"ResNet-{depth}", p, f"{mn:.2f}", f"{mx:.2f}", f"{pmn:.2f}", f"{pmx:.2f}"]
            )
    result.add(
        format_table(
            ["Model", "GPUs", "min (model)", "max (model)", "min (paper)", "max (paper)"],
            rows,
        )
    )
    result.data = {"paper": PAPER_TABLE6}
    return result


def run_fig10(depths: tuple[int, ...] = (34, 50, 101, 152)) -> ExperimentResult:
    """Fig. 10: factor computation time vs model complexity (super-linear)."""
    result = ExperimentResult(
        "fig10", "factor computation time vs model complexity (paper Fig. 10)"
    )
    params = []
    times = []
    for depth in depths:
        spec = resnet_spec(depth)
        im = IterationModel(spec, V100_LIKE, FRONTERA_LIKE)
        params.append(spec.total_params / 1e6)
        times.append(im.factor_compute_time() * 1e3)
    result.add(
        format_series(
            "factor-compute-ms",
            [f"R{d} ({p:.1f}M)" for d, p in zip(depths, params)],
            [f"{t:.1f}" for t in times],
            "model",
            "ms",
        )
    )
    # super-linearity check: time ratio should exceed parameter ratio
    ratio_t = times[-1] / times[0]
    ratio_p = params[-1] / params[0]
    result.add(f"time ratio {ratio_t:.2f} vs param ratio {ratio_p:.2f} (super-linear: {ratio_t > ratio_p})")
    result.data = {"depths": depths, "params_m": params, "times_ms": times}
    return result
