#!/usr/bin/env python3
"""Placement policies: round-robin vs greedy LPT, and the KAISA fraction sweep.

Two placement spectra over the same factor set:

1. The paper's §VI-C4 future-work direction — round-robin factor
   assignment causes the Table VI eigendecomposition load imbalance;
   greedy longest-processing-time placement removes most of it.
2. The KAISA-style ``grad_worker_frac`` spectrum (arXiv:2107.01739)
   between the paper's two strategies: sweeping ``f`` from 1 (COMM_OPT)
   down to ``1/P`` (LAYER_WISE) trades per-rank eigenbasis memory
   against per-iteration preconditioned-gradient broadcasts.  The
   performance model prices the whole frontier.

Run:  python examples/placement_policy.py [--depth 101] [--gpus 16 32 64]
                                          [--fracs 1 0.5 0.25 0.125]
"""

from __future__ import annotations

import argparse

from repro.experiments.ablations import (
    run_grad_worker_frac_sweep,
    run_placement_ablation,
)
from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
from repro.perfmodel.iteration import IterationModel
from repro.perfmodel.specs import resnet_spec
from repro.utils.tables import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=101)
    parser.add_argument("--gpus", type=int, nargs="+", default=[16, 32, 64])
    parser.add_argument(
        "--fracs", type=float, nargs="+", default=None,
        help="grad_worker_frac sweep values (default: halving sweep 1 .. 1/P)",
    )
    args = parser.parse_args()

    print(run_placement_ablation(depths=(args.depth,), gpus=tuple(args.gpus)).render())

    im = IterationModel(resnet_spec(args.depth), V100_LIKE, FRONTERA_LIKE)
    rows = []
    for p in args.gpus:
        for policy in ("round_robin", "greedy"):
            times = im.eig_worker_times(p, policy=policy)
            rows.append(
                [
                    p,
                    policy,
                    f"{min(times) * 1e3:.1f}",
                    f"{max(times) * 1e3:.1f}",
                    f"{max(times) / max(min(times), 1e-9):.1f}x",
                ]
            )
    print()
    print(
        format_table(
            ["GPUs", "policy", "fastest worker (ms)", "slowest worker (ms)", "spread"],
            rows,
            title=f"ResNet-{args.depth} per-worker eigendecomposition load",
        )
    )

    # the KAISA memory-vs-communication frontier at the largest scale
    p = max(args.gpus)
    fracs = tuple(args.fracs) if args.fracs else ()
    print()
    print(run_grad_worker_frac_sweep(depth=args.depth, p=p, fracs=fracs).render())


if __name__ == "__main__":
    main()
