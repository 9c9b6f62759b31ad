"""Overlap accounting for the task-graph scheduler — emits BENCH_overlap.json.

Two views of the same exposed-vs-hidden split:

- **measured** — real tiny-CNN runs through the drivers: the
  ``World.overlap`` ledger per phase and the per-task-kind profile, for
  the synchronous route, the graph route on COMM_OPT (P = 2, buckets
  small enough that the tiny model still splits into pipeline chunks),
  and the graph route on HYBRID ``f = 0.5`` at P = 4 (whose hidden
  ``eig_comm`` is the new capability — the retired hand-written hybrid
  pipeline ran its group shares synchronously and always reported zero
  there);
- **modeled** — ``IterationModel.stage_profile(scheduler=...)`` at
  ResNet-50/ImageNet scale for P in {4, 16, 64}, asserting the graph
  route exposes strictly less comm than the sync route, at f = 1 and
  f = 0.5.

The JSON artifact lands next to the working directory as
``BENCH_overlap.json`` so the CI bench matrix can archive it alongside
``BENCH_micro.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.comm.engine import task_overlap_profile
from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
from repro.perfmodel.iteration import IterationModel
from repro.perfmodel.specs import resnet_spec

ARTIFACT = Path("BENCH_overlap.json")
PHASES = ("factor_comm", "eig_comm", "precond_comm")


def _measured_row(world) -> dict:
    return {
        "phases": {
            phase: {
                "exposed": world.overlap.exposed(phase),
                "hidden": world.overlap.hidden(phase),
            }
            for phase in PHASES
        },
        "tasks": task_overlap_profile(world.overlap),
    }


def _collect_measured() -> dict:
    from test_grad_worker_frac import run_hybrid

    rows = {}
    for name, p, kw in (
        ("comm-opt/sync", 4, {"strategy": "comm-opt", "scheduler": "sync"}),
        # P=2 + small buckets: every rank owns factors in every pipeline
        # chunk of the tiny model, so factor overlap is visible
        (
            "comm-opt/graph",
            2,
            {"strategy": "comm-opt", "scheduler": "graph", "bucket_bytes": 1 << 12},
        ),
        (
            "hybrid-0.5/graph",
            4,
            {"strategy": "hybrid", "grad_worker_frac": 0.5, "scheduler": "graph"},
        ),
    ):
        _, world = run_hybrid(p, steps=2, return_world=True, **kw)
        rows[name] = _measured_row(world)
    return rows


def _collect_modeled() -> dict:
    im = IterationModel(resnet_spec(50), V100_LIKE, FRONTERA_LIKE)
    rows = {}
    for p in (4, 16, 64):
        sync = im.stage_profile(p, scheduler="sync")
        graph = im.stage_profile(p, scheduler="graph")
        hy_sync = im.stage_profile(p, scheduler="sync", grad_worker_frac=0.5)
        hy_graph = im.stage_profile(p, scheduler="graph", grad_worker_frac=0.5)
        rows[str(p)] = {
            "comm_opt": {
                "factor_exposed_sync": sync.factor_tcomm,
                "factor_exposed_graph": graph.factor_tcomm_exposed,
                "eig_exposed_sync": sync.eig_tcomm,
                "eig_exposed_graph": graph.eig_tcomm_exposed,
            },
            "hybrid_0.5": {
                "eig_exposed_sync": hy_sync.eig_tcomm,
                "eig_exposed_graph": hy_graph.eig_tcomm_exposed,
                "factor_exposed_graph": hy_graph.factor_tcomm_exposed,
            },
        }
    return rows


def _build_artifact() -> dict:
    return {"measured_p4": _collect_measured(), "modeled_resnet50": _collect_modeled()}


def test_overlap_artifact(benchmark):
    data = benchmark.pedantic(_build_artifact, rounds=1, iterations=1)

    measured = data["measured_p4"]
    # the synchronous route never hides anything
    assert all(
        row["hidden"] == 0.0 for row in measured["comm-opt/sync"]["phases"].values()
    )
    # the graph route hides factor comm behind eigendecompositions
    assert measured["comm-opt/graph"]["phases"]["factor_comm"]["hidden"] > 0.0
    assert measured["comm-opt/graph"]["phases"]["eig_comm"]["hidden"] > 0.0
    # NEW capability: hybrid group shares overlap (hidden eig_comm at P=4)
    hybrid = measured["hybrid-0.5/graph"]
    assert hybrid["phases"]["eig_comm"]["hidden"] > 0.0
    assert hybrid["tasks"]["EigShare"]["hidden"] > 0.0

    modeled = data["modeled_resnet50"]
    for p, row in modeled.items():
        co = row["comm_opt"]
        assert co["factor_exposed_graph"] < co["factor_exposed_sync"], p
        assert co["eig_exposed_graph"] < co["eig_exposed_sync"], p
        hy = row["hybrid_0.5"]
        assert hy["eig_exposed_graph"] < hy["eig_exposed_sync"], p

    ARTIFACT.write_text(json.dumps(data, indent=2, sort_keys=True))
    print(f"\nwrote {ARTIFACT.resolve()}")
