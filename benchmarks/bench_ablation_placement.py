"""Ablation (§VI-C4 future work + KAISA): placement policies and fractions.

Two placement spectra over the same factor set:

- round-robin vs size-balanced (greedy LPT) assignment of factors to
  workers (the paper's §VI-C4 proposal);
- the KAISA-style ``grad_worker_frac`` sweep between LAYER_WISE
  (``f = 1/P``) and COMM_OPT (``f = 1``): per-rank eigenbasis memory must
  fall and second-stage bytes must rise, strictly, as ``f`` decreases —
  and the endpoints must reproduce the existing strategies, both in the
  performance model and (bit-for-bit) in real trajectories.
"""

import numpy as np

from repro.experiments.ablations import (
    run_grad_worker_frac_sweep,
    run_placement_ablation,
)
from repro.comm.costmodel import allgather_time
from repro.perfmodel.costs import layer_precondition_flops
from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
from repro.perfmodel.iteration import IterationModel
from repro.perfmodel.specs import resnet_spec

from conftest import run_and_print


def test_placement_policy_ablation(benchmark):
    result = run_and_print(benchmark, run_placement_ablation)
    # greedy LPT is never worse, and strictly better where imbalance exists
    im = IterationModel(resnet_spec(101), V100_LIKE, FRONTERA_LIKE)
    for p in (16, 32, 64):
        rr = im.eig_stage_time(p, policy="round_robin")
        gr = im.eig_stage_time(p, policy="greedy")
        assert gr <= rr + 1e-12
    assert im.eig_stage_time(16, policy="greedy") < im.eig_stage_time(
        16, policy="round_robin"
    )


def test_grad_worker_frac_pareto_frontier(benchmark):
    """The modeled memory/comm trade is monotone in f at P=64 (ResNet-50)."""
    result = run_and_print(benchmark, run_grad_worker_frac_sweep)
    rows = result.data["rows"]  # sorted by decreasing frac
    assert rows[0]["frac"] == 1.0 and rows[-1]["frac"] == 1.0 / 64
    for hi, lo in zip(rows, rows[1:]):
        # per-rank eigenbasis memory strictly decreases as f decreases...
        assert lo["eigenbasis_bytes_per_rank"] < hi["eigenbasis_bytes_per_rank"]
        # ...while second-stage (preconditioned-grad) bytes strictly increase
        assert lo["precond_share_bytes_per_rank"] > hi["precond_share_bytes_per_rank"]
        # and the group eigenbasis share shrinks with the group
        assert lo["eig_tcomm"] <= hi["eig_tcomm"]
    # second-stage time rises as f falls while g >= 2 (per-root
    # broadcasts); at g = 1 the shares fuse into one world allgather of the
    # K-FAC layers' gradients, cheaper than the g = 2 broadcasts: the
    # K-FAC-lw share
    broadcasts = [r for r in rows if r["grad_workers"] >= 2]
    for hi, lo in zip(broadcasts, broadcasts[1:]):
        assert lo["precond_tcomm"] >= hi["precond_tcomm"]
    spec, cluster = resnet_spec(50), FRONTERA_LIKE
    kfac_lw = allgather_time(
        spec.grad_matrix_bytes, 64, cluster.net
    ) * cluster.sync_penalty(64) + cluster.op_launch * len(spec.kfac_layers)
    assert rows[-1]["precond_tcomm"] == kfac_lw


def test_grad_worker_frac_model_endpoints():
    """f=1 preconditions every layer everywhere with no second stage; f=1/P
    keeps each layer's factors and preconditioning on its owner ``i % P``
    (the K-FAC-lw loads) with no eigenbasis share."""
    im = IterationModel(resnet_spec(50), V100_LIKE, FRONTERA_LIKE)
    p = 64
    eig, precond = [0.0] * p, [0.0] * p
    for i, l in enumerate(im.model.kfac_layers):
        eig[i % p] += im._eig_seconds(l.a_dim, l.diagonal_A) + im._eig_seconds(l.g_dim)
        precond[i % p] += im._precond_layer_time(layer_precondition_flops(l))
    assert im.eig_stage_time(p, 1 / p) == max(eig)
    assert im.precondition_time(p, 1 / p) == max(precond)
    assert im.eig_comm_time(p, 1 / p) == 0.0
    assert im.precondition_time(p, 1.0) == sum(precond)
    assert im.precond_share_time(p, 1.0) == 0.0


def test_grad_worker_frac_trajectory_endpoints_bit_match():
    """Real P=4 trajectories: f=1 == COMM_OPT and f=1/P == LAYER_WISE, bitwise."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from test_grad_worker_frac import run_hybrid

    ref_opt = run_hybrid(4, strategy="comm-opt")
    ref_lw = run_hybrid(4, strategy="layer-wise")
    f_one = run_hybrid(4, grad_worker_frac=1.0)
    f_lw = run_hybrid(4, grad_worker_frac=0.25)
    for key in ref_opt:
        assert np.array_equal(f_one[key], ref_opt[key]), key
        assert np.array_equal(f_lw[key], ref_lw[key]), key
