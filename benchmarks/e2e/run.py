#!/usr/bin/env python3
"""The wall-clock benchmark of record: one command, every metric.

Two ways to run it, from the root of a checkout::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--repeat R] [--out FILE]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The first runs every workload, each in its own fresh subprocess, one after
the other: an untraced run (the end-to-end metrics) and a traced run (the
per-layer metrics).  The second is what each of those subprocesses -- and
the perf driver -- executes: one workload in this process, ending with one
line of JSON ``{"correct", "attempted", "failed", "metrics"}``.  Both exit
non-zero if a correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> dict[str, str]:
    """Pin the BLAS pools and make ``repro`` and ``e2e`` importable.

    Must run before numpy is first imported: the pools read the thread
    variables once, at load.  Returns the variables as set.

    One thread, not ``nproc``: on the 2-core reference host a second
    OpenBLAS thread makes the K-FAC step of ``resnet_p1`` 2-3x *slower*
    (thread hand-off on small Gram matrices) and its median wander by 15%
    between runs.  A caller's own setting wins.
    """
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    for path in (ROOT / "src", HERE.parent):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return {var: os.environ[var] for var in THREAD_VARS}


def default_seconds() -> float:
    with open(ROOT / "BENCHMARK.json") as fh:
        return float(json.load(fh)["run_seconds"])


def work_dir() -> str:
    """A scratch directory inside the checkout for checkpoint files."""
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=base)


def parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="run this one workload in-process (default: all, in subprocesses)")
    ap.add_argument("--seed", type=int, default=0, help="drives dataset and batch generation only")
    ap.add_argument("--seconds", type=float, default=None, help="time box of the timed rounds (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    ap.add_argument("--steps", type=int, help="exactly this many timed K-FAC steps instead of the time box (smoke runs)")
    ap.add_argument("--sgd-steps", type=int, help="with --steps: timed SGD steps")
    ap.add_argument("--repeat", type=int, default=1, help="all-workload mode: repetitions, on seeds SEED, SEED+1, ...")
    ap.add_argument("--out", help="write the full result (samples, checks, shares, layer table) as JSON")
    ap.add_argument("--spans", help="traced run: write the raw spans as JSON")
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def print_result(result: dict[str, Any]) -> None:
    s = result["samples"]
    print(f"== {result['workload']}  seed={result['seed']}  {result['mode']}  samples: " +
          ", ".join(f"{k}={v}" for k, v in s.items()))
    for name, m in result["metrics"].items():
        print(f"  {name:<38s} {m['value']:>16.6g} {m['unit']}")
    for name, value in result.get("exact", {}).items():
        print(f"  {name:<38s} {value:>16.6g} (exact)")
    if "layer_table" in result:
        print(f"  traced step {result['traced_step_ms']:.3f} ms; share of it by layer group:")
        print("    " + "  ".join(f"{g}={share:.1%}" for g, share in result["shares"].items()))
        print(f"  {'K-FAC layer':<28s} {'a_dim':>6s} {'g_dim':>6s} {'owner':>6s} {'A ms':>8s} {'G ms':>8s} {'eig ms':>8s} {'precond':>8s}")
        for row in result["layer_table"]:
            print(f"  {row['layer']:<28s} {row['a_dim']:>6d} {row['g_dim']:>6d} {row['owner']:>6s} "
                  f"{row['A_ms']:>8.3f} {row['G_ms']:>8.3f} {row['eig_ms']:>8.3f} {row['precondition_ms']:>8.3f}")
    bad = [name for name, ok in result["checks"].items() if not ok]
    print(f"  checks: {len(result['checks']) - len(bad)}/{len(result['checks'])} pass"
          + (f"; FAILED: {', '.join(bad)}" if bad else "")
          + f"; failed {result['failed']} of {result['attempted']} attempted")


def run_one(args: argparse.Namespace) -> int:
    threads = bootstrap()
    from e2e import harness
    from e2e.workloads import BY_NAME

    if args.workload not in BY_NAME:
        print(f"unknown workload {args.workload!r}; known: {', '.join(BY_NAME)}", file=sys.stderr)
        return 2
    w = BY_NAME[args.workload]
    seconds = args.seconds if args.seconds is not None else default_seconds()
    workdir = work_dir()
    try:
        run = harness.run_traced if args.trace else harness.run_end_to_end
        extra = {"spans_path": args.spans} if args.trace else {}
        if args.steps is not None:
            extra["plan"] = harness.smoke_plan(args.steps, args.sgd_steps or 1)
        result = run(w, args.seed, seconds, workdir, **extra)
    finally:
        gc.unfreeze()  # the harness froze the heap before its timed segments
        shutil.rmtree(workdir, ignore_errors=True)
    result["threads"] = threads
    print_result(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    threads = bootstrap()
    from e2e.workloads import WORKLOADS

    import numpy
    import scipy

    seconds = args.seconds if args.seconds is not None else default_seconds()
    workdir = work_dir()
    runs: list[dict[str, Any]] = []
    status = 0
    try:
        for rep in range(args.repeat):
            for w in WORKLOADS:
                for traced in (0, 1):
                    out = os.path.join(workdir, "result.json")
                    cmd = [sys.executable, str(HERE / "run.py"), "--workload", w.name,
                           "--seed", str(args.seed + rep), "--seconds", str(seconds),
                           "--trace", str(traced), "--out", out]
                    if args.steps is not None:
                        cmd += ["--steps", str(args.steps)]
                    if args.sgd_steps is not None:
                        cmd += ["--sgd-steps", str(args.sgd_steps)]
                    # the child's stderr carries the per-layer [kfac:warn]
                    # lines: captured, shown only if the child fails
                    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                    lines = proc.stdout.splitlines()
                    if lines and lines[-1].startswith("{"):
                        lines.pop()  # the driver's JSON; --out carries more
                    print("\n".join(lines), flush=True)
                    if proc.returncode != 0:
                        status = 1
                        sys.stderr.write(proc.stderr)
                    if os.path.exists(out):
                        with open(out) as fh:
                            runs.append(json.load(fh))
                        os.unlink(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        doc = {
            "host": {
                "nproc": os.cpu_count(), "threads": threads, "machine": platform.machine(),
                "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            },
            "seed": args.seed, "seconds": seconds, "repeat": args.repeat, "runs": runs,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    failed = sum(r["failed"] for r in runs)
    print(f"{len(runs)} runs, {failed} failed operations, exit {status}")
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
