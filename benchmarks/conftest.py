"""Shared helpers for the benchmark harness.

Every paper table/figure has one bench module (see docs/architecture.md).  Bench
functions regenerate the artifact once (``benchmark.pedantic`` with a
single round — the artifact generation itself is the thing being timed)
and print the same rows/series the paper reports, so ``pytest benchmarks/
--benchmark-only -s`` doubles as the reproduction harness.

Training-based benches run the ``tiny`` preset to stay CI-fast; pass
``--scale small`` to ``python -m repro.experiments`` for the full-size runs.
"""

from __future__ import annotations

import pytest


def run_and_print(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer, print it."""
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    print()
    print(result.render())
    return result
