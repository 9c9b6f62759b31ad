#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two runs of the same
code), ``B`` the candidate.  Each file is what ``run.py --out`` wrote: a
whole run over every workload (any ``--repeat``), or one workload's result.
One row per (end-to-end metric, workload): both medians, the change with
``A`` as its base, the bound from ``BENCHMARK.json`` and a verdict:

- ``worse``       the median moved the wrong way by more than the bound
                  (and by more than the run-to-run spread);
- ``unresolved``  the spread between runs is wider than the bound, so the
                  metric cannot be called unchanged;
- ``ok``          otherwise.

Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: the issue's end-to-end metrics the manifest cannot bound (they are 0 on
#: some workload); exact, so any worsening beyond rounding counts
EXACT_BOUNDS = {
    "sim_comm_exposed_ms_per_step": ("lower", 0.01),
    "failed_share": ("lower", 0.0),
}


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` of a file's untraced runs."""
    with open(path) as fh:
        doc = json.load(fh)
    runs = doc["runs"] if "runs" in doc else [doc]
    out: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        if run["mode"] != "end_to_end":
            continue
        values = {name: m["value"] for name, m in run["metrics"].items()}
        values.update(run.get("exact", {}))
        values["failed_share"] = run["failed_share"]
        for name, value in values.items():
            out.setdefault(run["workload"], {}).setdefault(name, []).append(value)
    return out


def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median (0 for a single run)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(med)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def compare(a: dict, b: dict, bounds: dict[str, tuple[str, float]]) -> list[dict]:
    rows = []
    for workload in a:
        for name, (better, bound) in bounds.items():
            if workload not in b or name not in a[workload] or name not in b[workload]:
                continue
            va, vb = a[workload][name], b[workload][name]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else float("inf"))
            worsening = change if better == "lower" else -change
            noise = max(spread(va), spread(vb))
            if worsening > max(bound, noise):
                verdict = "worse"
            elif noise > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name, "a": ma, "b": mb, "runs": (len(va), len(vb)),
                "change": change, "bound": bound, "better": better, "spread": noise, "verdict": verdict,
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in manifest["end_to_end"]}
    bounds.update(EXACT_BOUNDS)
    rows = compare(load(argv[0]), load(argv[1]), bounds)
    print(f"{'workload':<24s} {'metric':<30s} {'A median':>13s} {'B median':>13s} "
          f"{'change (base A)':>16s} {'bound':>8s} {'spread':>8s}  verdict")
    for r in rows:
        sign = "+" if r["better"] == "lower" else "-"
        print(f"{r['workload']:<24s} {r['metric']:<30s} {r['a']:>13.6g} {r['b']:>13.6g} "
              f"{r['change']:>+15.2%} {sign}{r['bound']:>7.1%} {r['spread']:>8.2%}  {r['verdict']}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    unresolved = sum(r["verdict"] == "unresolved" for r in rows)
    print(f"{len(rows)} rows: {len(worse)} worse, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
