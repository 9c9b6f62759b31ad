"""The example scripts must run end-to-end (tiny arguments)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(script: str, *args: str, timeout: float = 400.0) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{script} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "--workers", "2", "--steps", "6")
        assert "replica parameters stayed in sync" in out

    def test_quickstart_fp16(self):
        out = run_example(
            "quickstart.py", "--workers", "2", "--steps", "6", "--precision", "fp16"
        )
        assert "replica parameters stayed in sync" in out
        assert "loss scale" in out

    def test_quickstart_save_resume_across_world_sizes(self, tmp_path):
        """--save at 3 workers, --resume at 2: the portable bundle
        redistributes for the new placement on load."""
        ckpt = tmp_path / "quickstart.ckpt"
        out = run_example(
            "quickstart.py", "--workers", "3", "--steps", "4",
            "--save", str(ckpt),
        )
        assert "saved checkpoint at step 4" in out
        assert ckpt.exists()
        out = run_example(
            "quickstart.py", "--workers", "2", "--steps", "3",
            "--resume", str(ckpt),
        )
        assert "resumed from step 4" in out
        assert "replica parameters stayed in sync" in out

    def test_quickstart_trace_export(self, tmp_path):
        trace = tmp_path / "quickstart-trace.json"
        out = run_example(
            "quickstart.py", "--workers", "2", "--steps", "6",
            "--trace", str(trace),
        )
        assert "valid Chrome trace" in out
        assert trace.exists()

    def test_trace_step(self, tmp_path):
        trace = tmp_path / "trace.json"
        out = run_example("trace_step.py", "--out", str(trace))
        assert "drift-report" in out
        assert "valid Chrome trace" in out
        assert "rank 0:" in out and "rank 3:" in out
        assert trace.exists()

    def test_imagenet_scaling_study(self):
        out = run_example("imagenet_scaling_study.py", "--depths", "50")
        assert "ResNet-50 time-to-solution" in out
        assert "Table IV" in out

    def test_approximation(self):
        out = run_example(
            "approximation.py",
            "--blocks", "1", "4", "--gpus", "8", "--drift-tol", "0.05",
        )
        # the perfmodel FLOP/byte sweep table...
        assert "diag_blocks" in out and "eig stage (ms)" in out
        assert "factor wire (MiB)" in out
        # ...and the drift/damping demo with both verdicts exercised
        assert "drift trigger" in out
        assert "| go " in out and "| skip " in out
        assert "adaptive damping" in out

    def test_transformer(self):
        out = run_example("transformer.py", "--workers", "2", "--steps", "6")
        assert "transformer-smoke" in out
        assert "loss decreased" in out
        assert "embedding A-factor is diagonal: held as a (40,) vector" in out
        assert "widest dense factor blocks.m0.fc2/A is blocked" in out
        assert "unsupported (first-order-only) layers: 0" in out

    def test_placement_policy(self):
        out = run_example(
            "placement_policy.py",
            "--depth", "50", "--gpus", "16", "32",
            "--fracs", "1", "0.5", "0.25",
        )
        assert "round-robin" in out and "greedy" in out
        # the grad_worker_frac sweep prints the perfmodel memory/comm table
        assert "grad_worker_frac sweep" in out
        assert "eig mem/rank (MiB)" in out and "bcast recv/rank (MiB)" in out
