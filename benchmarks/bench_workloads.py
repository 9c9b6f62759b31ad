"""Transformer workload costs (modeled) — emits BENCH_workloads.json.

The widest factor of a transformer is the token-embedding activation
covariance, ``vocab`` against the model dimension's few hundred — but it
is exactly diagonal, and the cost model prices it as the ``O(vocab)``
vector the preconditioner actually holds.  Over ``transformer_spec()``
(vocab 4096, dim 256, depth 4) this bench asserts:

- the embedding contributes ``4 * vocab`` bytes to the fp32 factor wire
  payload and ``O(vocab)`` seconds to the eig stage — doubling the
  vocabulary adds exactly that much and nothing quadratic or cubic;
- ``IterationModel.stage_profile(diag_blocks=k)`` at model width 1024:
  the slowest-worker eig stage time and the tri-packed factor wire
  payload both shrink strictly as the block count grows — the
  widest-first policy splits the widest *dense* factor (``fc2``'s ``A``,
  2049 wide) and leaves the diagonal one whole.  The width is not the
  spec's default 256: with the embedding priced as a vector the widest
  factor left there is 513, too narrow for four blocks to repay their
  per-factor overhead, and the claim under test is about wide factors.

Measured blocked ``eigh`` on dense factors lives in ``bench_approx.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
from repro.perfmodel.iteration import IterationModel
from repro.perfmodel.specs import transformer_spec

ARTIFACT = Path("BENCH_workloads.json")
BLOCKS = (1, 2, 4)

#: transformer_spec()'s vocabulary — the widest factor in the model.
VOCAB = 4096
#: model width at which the widest dense factor (2 * dim + 1) repays blocking
BLOCKED_DIM = 1024


def _collect_modeled(dim: int) -> dict[str, dict[str, float]]:
    im = IterationModel(transformer_spec(dim=dim), V100_LIKE, FRONTERA_LIKE)
    rows: dict[str, dict[str, float]] = {}
    for k in BLOCKS:
        sp = im.stage_profile(16, policy="greedy", diag_blocks=k)
        rows[str(k)] = {
            "eig_stage_s": sp.eig_tcomp,
            "eig_comm_s": sp.eig_tcomm,
            "factor_payload_bytes": float(
                im.factor_comm_payload_bytes(packed=True, diag_blocks=k)
            ),
        }
    return rows


def _embedding_share() -> dict[str, float]:
    """What one more vocabulary's worth of embedding adds to the model."""
    out: dict[str, float] = {}
    for label, vocab in (("v", VOCAB), ("2v", 2 * VOCAB)):
        spec = transformer_spec(vocab_size=vocab)
        im = IterationModel(spec, V100_LIKE, FRONTERA_LIKE)
        out[f"factor_payload_bytes_{label}"] = float(spec.factor_payload_bytes(packed=True))
        out[f"eig_payload_bytes_{label}"] = float(spec.eig_payload_bytes())
        out[f"eig_stage_p1_s_{label}"] = im.eig_stage_time(1)
    out["eig_flops_per_s"] = V100_LIKE.eig_flops
    return out


def _build_artifact() -> dict:
    return {
        "blocks": list(BLOCKS),
        "vocab": VOCAB,
        "embedding_share": _embedding_share(),
        "blocked_dim": BLOCKED_DIM,
        "modeled_transformer_p16": _collect_modeled(BLOCKED_DIM),
    }


def test_workloads_artifact(benchmark):
    data = benchmark.pedantic(_build_artifact, rounds=1, iterations=1)

    share = data["embedding_share"]
    # the embedding A factor is V fp32 elements on the wire and in the
    # eigenbasis store, and one O(V) pass in the eig stage
    assert share["factor_payload_bytes_2v"] - share["factor_payload_bytes_v"] == 4 * VOCAB
    assert share["eig_payload_bytes_2v"] - share["eig_payload_bytes_v"] == 4 * VOCAB
    extra_s = share["eig_stage_p1_s_2v"] - share["eig_stage_p1_s_v"]
    assert abs(extra_s - VOCAB / share["eig_flops_per_s"]) < 1e-9 * share["eig_stage_p1_s_v"]

    modeled = data["modeled_transformer_p16"]
    for prev, k in zip(BLOCKS, BLOCKS[1:]):
        # modeled: the slowest-worker eig stage and the wire both shrink
        assert modeled[str(k)]["eig_stage_s"] < modeled[str(prev)]["eig_stage_s"]
        assert (
            modeled[str(k)]["factor_payload_bytes"]
            < modeled[str(prev)]["factor_payload_bytes"]
        )

    ARTIFACT.write_text(json.dumps(data, indent=2, sort_keys=True))
    print(f"\nwrote {ARTIFACT.resolve()}")
    for k in BLOCKS:
        print(
            f"  k={k}: modeled eig stage {modeled[str(k)]['eig_stage_s'] * 1e3:.2f}ms   "
            f"factor wire {modeled[str(k)]['factor_payload_bytes'] / 1e6:.2f}MB"
        )
