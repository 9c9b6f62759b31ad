"""Tier-1 smoke test of the end-to-end benchmark.

Runs every workload in-process for a handful of steps and holds the
benchmark's three name lists together: what ``run.py`` emits, what
``metrics.py`` / ``workloads.py`` define, and what ``BENCHMARK.json``
declares.
"""

from __future__ import annotations

import json
import re
import sys

import pytest

from . import compare, run
from .metrics import END_TO_END, PER_LAYER
from .workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def leave_no_trace(monkeypatch):
    """``run.bootstrap`` pins BLAS threads and extends ``sys.path``: undo both."""
    for var in run.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sys, "path", list(sys.path))


def result_of(capsys, *argv: str) -> dict:
    """Run ``run.py`` in-process; its last stdout line is the result."""
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_manifest_matches_the_code():
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    names = [w.name for w in WORKLOADS] + [m.name for m in END_TO_END + PER_LAYER]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert any(m.name == "setup_s" and m.unit == "s" and m.better == "lower" for m in END_TO_END)


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_every_end_to_end_metric_is_reported(workload, capsys, tmp_path):
    out = tmp_path / "run.json"
    result = result_of(capsys, "--workload", workload, "--steps", "4", "--sgd-steps", "2",
                       "--out", str(out))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    for spec in END_TO_END:
        metric = result["metrics"][spec.name]
        assert metric["unit"] == spec.unit
        assert metric["value"] > 0, spec.name
    # a run compared with itself has no worse row
    assert compare.main([str(out), str(out)]) == 0


def test_traced_run_reports_every_per_layer_metric(capsys):
    result = result_of(capsys, "--workload", "resnet_p4_hybrid", "--steps", "5", "--trace", "1")
    assert result["correct"]
    assert list(result["metrics"]) == [m.name for m in PER_LAYER]
    positive = ("nn.forward_ms", "core.factors.conv_ms", "core.inverse.eig_ms",
                "sched.executor_self_ms", "comm.group_broadcast_ms", "comm.sim_hidden_ms",
                "elastic.save_ms", "obs.tracer_spans_per_step")
    for name in positive:
        assert result["metrics"][name]["value"] > 0, name
