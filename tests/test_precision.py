"""The mixed-precision subsystem: policies, AMP compute, loss scaling,
master weights, compressed collectives, and the end-to-end fp16 trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import World
from repro.comm.compression import (
    BF16Codec,
    ErrorFeedback,
    FP16Codec,
    get_codec,
    wire_nbytes,
)
from repro.comm.fusion import FusionBuffer
from repro.core.clipping import kl_clip_factor
from repro.core.preconditioner import KFAC, KFACHyperParams
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Parameter
from repro.nn.resnet import resnet20_cifar
from repro.optim.sgd import SGD
from repro.parallel.trainer import DataParallelTrainer, TrainerConfig
from repro.precision import (
    POLICIES,
    GradScaler,
    MasterWeightOptimizer,
    PrecisionPolicy,
    resolve_policy,
)
from repro.tensor.amp import amp_matmul, autocast, cast_compute_storage, quantize_bf16
from repro.tensor.dtypes import DEFAULT_DTYPE


class TestPolicy:
    def test_presets_and_aliases(self):
        assert resolve_policy(None).name == "fp32"
        assert resolve_policy("fp16-amp") is POLICIES["fp16"]
        assert resolve_policy("bfloat16") is POLICIES["bf16"]
        p = POLICIES["fp16"]
        assert resolve_policy(p) is p
        assert p.is_amp and p.loss_scaling and p.comm_dtype == "fp16"
        assert POLICIES["bf16"].is_amp and not POLICIES["bf16"].loss_scaling
        assert not POLICIES["fp32"].is_amp and POLICIES["fp32"].comm_dtype is None

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown precision policy"):
            resolve_policy("fp8")

    def test_autocast_scopes_compute_dtype(self):
        from repro.tensor.amp import get_compute_dtype

        assert get_compute_dtype() is None
        with POLICIES["fp16"].autocast():
            assert get_compute_dtype() == "float16"
            with POLICIES["fp32"].autocast():
                assert get_compute_dtype() is None
            assert get_compute_dtype() == "float16"
        assert get_compute_dtype() is None

    def test_autocast_is_thread_local(self):
        # SPMD rank threads each install their own policy; one thread
        # exiting its context must not flip another back to fp32 mid-step,
        # and nothing may leak past the last exit
        import threading

        from repro.tensor.amp import get_compute_dtype

        entered = threading.Barrier(2)
        observed: dict[str, str | None] = {}

        def rank(name: str, dtype: str) -> None:
            with autocast(dtype):
                entered.wait(timeout=10)
                # both threads are inside *different* autocasts right now
                observed[name] = get_compute_dtype()
            observed[name + ":after"] = get_compute_dtype()

        t1 = threading.Thread(target=rank, args=("a", "float16"))
        t2 = threading.Thread(target=rank, args=("b", "bfloat16"))
        t1.start(); t2.start(); t1.join(); t2.join()
        assert observed == {
            "a": "float16", "a:after": None,
            "b": "bfloat16", "b:after": None,
        }
        assert get_compute_dtype() is None  # main thread untouched


class TestAmpMatmul:
    def test_passthrough_bit_identical(self, rng):
        a = rng.normal(size=(8, 5)).astype(np.float32)
        b = rng.normal(size=(5, 7)).astype(np.float32)
        np.testing.assert_array_equal(amp_matmul(a, b), a @ b)

    def test_fp16_rounds_operands_accumulates_fp32(self, rng):
        a = rng.normal(size=(16, 9)).astype(np.float32)
        b = rng.normal(size=(9, 4)).astype(np.float32)
        with autocast("float16"):
            out = amp_matmul(a, b)
        assert out.dtype == np.float32
        expect = a.astype(np.float16).astype(np.float32) @ b.astype(np.float16).astype(
            np.float32
        )
        np.testing.assert_array_equal(out, expect)

    def test_fp16_accumulation_beats_half_sum(self):
        # 4096 addends of 1.0 + tiny: a pure-fp16 accumulator saturates at
        # 2048 (adding 1.0 to 2048 in fp16 is a no-op); fp32 accumulation
        # keeps every addend
        n = 4096
        a = np.ones((1, n), dtype=np.float32)
        b = np.ones((n, 1), dtype=np.float32)
        with autocast("float16"):
            out = amp_matmul(a, b)
        assert out[0, 0] == n
        # the failure mode fp32 accumulation avoids: a sequential fp16
        # accumulator saturates at 2048 (1.0 is below the ulp there)
        acc = np.float16(0.0)
        for _ in range(4096):
            acc = np.float16(acc + np.float16(1.0))
        assert float(acc) < n

    def test_bf16_quantizes_on_fp32_storage(self, rng):
        a = rng.normal(size=(6, 6)).astype(np.float32)
        b = rng.normal(size=(6, 6)).astype(np.float32)
        with autocast("bfloat16"):
            out = amp_matmul(a, b)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, quantize_bf16(a) @ quantize_bf16(b))

    def test_fp64_policy_promotes(self, rng):
        a = rng.normal(size=(3, 3)).astype(np.float32)
        with autocast("float64"):
            assert amp_matmul(a, a).dtype == np.float64

    def test_cast_compute_storage(self, rng):
        x = rng.normal(size=(4, 4)).astype(np.float32)
        assert cast_compute_storage(x) is x
        with autocast("float16"):
            assert cast_compute_storage(x).dtype == np.float16
        with autocast("bfloat16"):
            out = cast_compute_storage(x)
            assert out.dtype == np.float32
            np.testing.assert_array_equal(out, quantize_bf16(x))


class TestShiftedConvAmp:
    """The shifted-GEMM conv kernel under the fp16 compute policy: fp16
    operands, fp32 accumulation, fp32 results — as im2col + amp_matmul."""

    def test_fp16_operands_fp32_accumulation(self, rng):
        conv = Conv2d(8, 6, 3, padding=1, rng=rng)
        x = rng.normal(size=(8, 8, 16, 16)).astype(np.float32)
        assert conv.shifted(x.shape)
        with autocast("float16"):
            y = conv.forward(x)
            dy = rng.normal(size=y.shape).astype(np.float32)
            dx = conv.backward(dy)
        assert y.dtype == dx.dtype == np.float32
        assert conv.weight.grad.dtype == conv.weight.data.dtype  # the storage dtype
        # float64 reference on the fp16-rounded operands: only the fp32
        # accumulation separates it from the kernel's result
        r = lambda a: a.astype(np.float16).astype(np.float64)  # noqa: E731
        x16, w16, dy16 = r(x), r(conv.weight.data), r(dy)
        ref = Conv2d(8, 6, 3, padding=1)
        ref.weight.data, ref.weight.grad = w16, np.zeros_like(w16)
        ref.shifted = lambda x_shape: False
        want_y = ref.forward(x16)
        want_dx = ref.backward(dy16)
        eps, terms = np.finfo(np.float32).eps, 8 * 18 * 18
        for got, want in ((y, want_y), (dx, want_dx), (conv.weight.grad, ref.weight.grad)):
            assert np.abs(got - want).max() <= terms * eps * np.abs(want).max()
        # not a full-precision result: the fp16 rounding of the operands shows
        full = Conv2d(8, 6, 3, padding=1)
        full.weight.data = conv.weight.data.astype(np.float64)
        assert np.abs(full.forward(x.astype(np.float64)) - y).max() > 1e-4


class TestQuantizeBf16:
    def test_idempotent_and_lossless_on_grid(self, rng):
        x = rng.normal(size=257).astype(np.float32)
        q = quantize_bf16(x)
        np.testing.assert_array_equal(quantize_bf16(q), q)

    def test_round_to_nearest_even(self):
        # 1 + 2^-8 sits exactly between the bf16 neighbours 1.0 and
        # 1 + 2^-7; ties round to the even mantissa (1.0)
        tie = np.float32(1.0 + 2.0**-8)
        assert quantize_bf16(np.array([tie]))[0] == np.float32(1.0)
        above = np.float32(1.0 + 2.0**-8 + 2.0**-12)
        assert quantize_bf16(np.array([above]))[0] == np.float32(1.0 + 2.0**-7)

    def test_preserves_nonfinite(self):
        x = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0], dtype=np.float32)
        q = quantize_bf16(x)
        assert np.isinf(q[0]) and q[0] > 0
        assert np.isinf(q[1]) and q[1] < 0
        assert not np.isfinite(q[2])
        assert q[3] == 0.0 and q[4] == 0.0

    def test_relative_error_bound(self, rng):
        x = (rng.normal(size=1000) * 10.0**rng.integers(-20, 20, size=1000)).astype(
            np.float32
        )
        q = quantize_bf16(x)
        err = np.abs(q - x) / np.maximum(np.abs(x), 1e-30)
        assert err.max() <= 2.0**-8  # bf16 has 8 mantissa bits incl. implicit


class TestWireCodecs:
    @pytest.mark.parametrize("codec", [FP16Codec(), BF16Codec()])
    def test_roundtrip_fixed_point(self, codec, rng):
        x = rng.normal(size=128).astype(np.float32)
        q = codec.quantize(x)
        np.testing.assert_array_equal(codec.decode(codec.encode(q)), q)
        assert codec.encode(x).nbytes == x.nbytes // 2
        assert wire_nbytes(x, codec) == x.nbytes // 2
        assert wire_nbytes(x, None) == x.nbytes

    def test_get_codec_names(self):
        assert get_codec(None) is None
        assert get_codec("none") is None and get_codec("fp32") is None
        assert isinstance(get_codec("fp16"), FP16Codec)
        assert isinstance(get_codec("bf16"), BF16Codec)
        with pytest.raises(ValueError, match="unknown wire codec"):
            get_codec("int8")

    def test_compressed_allreduce_charges_wire_bytes(self):
        world = World(4)
        bufs = [np.full(256, float(r), dtype=np.float32) for r in range(4)]
        world.allreduce(bufs, phase="plain")
        world.allreduce(bufs, phase="wire", codec="fp16")
        assert world.stats.bytes_by_phase["wire"] == world.stats.bytes_by_phase["plain"] / 2

    def test_fp32_accumulators_survive_fp16_range(self):
        # summing four 20000s overflows fp16 (max 65504); with fp32
        # reduction accumulators the *average* is exact
        world = World(4)
        bufs = [np.full(8, 20000.0, dtype=np.float32) for _ in range(4)]
        out = world.allreduce(bufs, op="average", codec="fp16")
        np.testing.assert_array_equal(out[0], np.full(8, 20000.0, dtype=np.float32))

    def test_compressed_result_is_wire_precision(self):
        world = World(2)
        bufs = [np.full(4, 1.0, dtype=np.float32), np.full(4, 1.0 + 2.0**-13, dtype=np.float32)]
        out = world.allreduce(bufs, op="average", codec="fp16")
        # the mean is re-quantized: it must sit on the fp16 grid
        np.testing.assert_array_equal(
            out[0], out[0].astype(np.float16).astype(np.float32)
        )


class TestErrorFeedback:
    def test_residual_accumulates_tiny_values(self):
        # 1e-9 is far below fp16 resolution: without EF every send rounds
        # to zero forever; with EF the residual builds until it emits
        ef = ErrorFeedback(FP16Codec())
        value = np.full(4, 1e-9, dtype=np.float32)
        emitted = np.zeros(4, dtype=np.float64)
        for _ in range(100000):
            q = ef.apply("g", value)
            emitted += q
            if emitted[0] > 0:
                break
        assert emitted[0] > 0  # the quantizer eventually released the mass

    def test_total_mass_conserved(self, rng):
        ef = ErrorFeedback(FP16Codec())
        sent = np.zeros(16, dtype=np.float64)
        total = np.zeros(16, dtype=np.float64)
        for i in range(50):
            v = rng.normal(size=16).astype(np.float32) * 1e-3
            total += v
            sent += ef.apply("k", v)
        residual = ef.residual("k")
        np.testing.assert_allclose(sent + residual, total, rtol=0, atol=1e-6)

    def test_nonfinite_residuals_are_dropped(self):
        ef = ErrorFeedback(FP16Codec())
        ef.apply("g", np.array([1e30], dtype=np.float32))  # saturates to inf
        assert np.isfinite(ef.residual("g")).all()

    def test_rescale_tracks_loss_scale_changes(self):
        # residuals banked at scale S must convert to scale S/2 after a
        # backoff, or the re-injected correction is 2x its true value
        ef = ErrorFeedback(FP16Codec())
        g = np.array([1.0 + 2.0**-12], dtype=np.float32)  # below fp16 ulp@1
        ef.apply("k", g * 1024.0)  # banked in scale-1024 units
        r_before = ef.residual("k").copy()
        ef.rescale(512.0 / 1024.0)  # scaler backed off
        np.testing.assert_allclose(ef.residual("k"), r_before * 0.5)
        # unscaled residual value is identical pre/post backoff
        np.testing.assert_allclose(ef.residual("k") / 512.0, r_before / 1024.0)

    def test_fusion_buffer_rescale_residuals(self):
        world = World(1)
        fusion = FusionBuffer(world, capacity_bytes=1 << 20, codec="fp16", phase="g")
        fusion.add("grad", [np.array([3e-9], dtype=np.float32)])
        fusion.flush()
        fusion.pop("grad")
        assert fusion._error_feedback is not None
        r = fusion._error_feedback.residual(("grad", 0)).copy()
        fusion.rescale_residuals(2.0)
        np.testing.assert_allclose(fusion._error_feedback.residual(("grad", 0)), r * 2)
        # no codec -> no EF -> rescale is a harmless no-op
        plain = FusionBuffer(world, capacity_bytes=1 << 20)
        plain.rescale_residuals(2.0)

    def test_fusion_buffer_error_feedback_end_to_end(self):
        world = World(2)
        fusion = FusionBuffer(world, capacity_bytes=1 << 20, codec="fp16", phase="g")
        value = np.full(8, 3e-9, dtype=np.float32)  # below fp16 subnormal
        received = np.zeros(8, dtype=np.float64)
        rounds = 0
        for _ in range(200000):
            rounds += 1
            fusion.add("grad", [value.copy(), value.copy()])
            fusion.flush()
            received += fusion.pop("grad")[0]
            if received[0] > 0:
                break
        assert received[0] > 0, "error feedback never released the gradient mass"
        # wire accounting is at fp16 itemsize
        assert fusion.bytes_flushed == rounds * 8 * 2


class TestGradScaler:
    def test_backoff_and_growth(self):
        s = GradScaler(init_scale=16.0, growth_factor=2.0, backoff_factor=0.5,
                       growth_interval=2)
        assert s.scale == 16.0
        s.update(found_inf=True)
        assert s.scale == 8.0 and s.steps_skipped == 1
        s.update(found_inf=False)
        s.update(found_inf=False)
        assert s.scale == 16.0 and s.steps_taken == 2  # grew after interval

    def test_unscale_detects_nonfinite(self):
        s = GradScaler(init_scale=4.0)
        g_ok = np.array([4.0, 8.0], dtype=np.float32)
        assert s.unscale_([g_ok]) is False
        np.testing.assert_array_equal(g_ok, [1.0, 2.0])
        g_bad = np.array([np.inf], dtype=np.float32)
        assert s.unscale_([g_bad]) is True

    def test_disabled_is_identity(self):
        s = GradScaler(enabled=False)
        assert s.scale == 1.0
        g = np.array([2.0], dtype=np.float32)
        assert s.scale_grad(g) is g
        assert s.unscale_([g]) is False
        s.update(found_inf=True)
        assert s.steps_skipped == 0

    def test_min_scale_floor(self):
        s = GradScaler(init_scale=2.0**-13, backoff_factor=0.5, min_scale=2.0**-14)
        s.update(found_inf=True)
        s.update(found_inf=True)
        assert s.scale == 2.0**-14

    def test_state_dict_roundtrip(self):
        s = GradScaler(init_scale=32.0, growth_interval=3)
        s.update(found_inf=False)
        s.update(found_inf=True)
        state = s.state_dict()
        restored = GradScaler()
        restored.load_state_dict(state)
        assert restored.scale == s.scale
        assert restored.steps_taken == 1 and restored.steps_skipped == 1
        assert restored.state_dict() == state

    def test_validation(self):
        with pytest.raises(ValueError):
            GradScaler(init_scale=0.0)
        with pytest.raises(ValueError):
            GradScaler(growth_factor=1.0)
        with pytest.raises(ValueError):
            GradScaler(backoff_factor=1.5)
        with pytest.raises(ValueError):
            GradScaler(growth_interval=0)


class TestMasterWeights:
    def test_small_updates_accumulate_in_masters(self):
        # at weight magnitude 1.0, fp16 resolution is ~5e-4: a 1e-4 update
        # applied directly to fp16 weights rounds to nothing, forever
        w = Parameter(np.ones(4, dtype=np.float16))
        opt = MasterWeightOptimizer(lambda ps: SGD(ps, lr=1.0), [w])
        for _ in range(20):
            w.grad[...] = np.float16(1e-4)
            opt.step()
        # master accumulated 20 * 1e-4 = 2e-3, visible in fp16 too
        assert abs(float(w.data[0]) - (1.0 - 2e-3)) < 5e-4
        naked = Parameter(np.ones(4, dtype=np.float16))
        sgd = SGD([naked], lr=1.0)
        for _ in range(20):
            naked.grad[...] = np.float16(1e-4)
            sgd.step()
        assert float(naked.data[0]) == 1.0  # the failure mode masters fix

    def test_cast_module_roundtrip(self):
        model = resnet20_cifar(np.random.default_rng(0), width_multiplier=0.25,
                               num_classes=4)
        model.cast_(np.float16)
        assert all(p.data.dtype == np.float16 for p in model.parameters())
        assert all(b.dtype == np.float16 for _, b in model.named_buffers())
        model.cast_(np.float32)
        assert all(p.data.dtype == np.float32 for p in model.parameters())

    def test_state_dict_roundtrip(self):
        w = Parameter(np.ones(3, dtype=np.float16))
        opt = MasterWeightOptimizer(lambda ps: SGD(ps, lr=0.5, momentum=0.9), [w])
        w.grad[...] = np.float16(0.25)
        opt.step()
        state = opt.state_dict()
        w2 = Parameter(np.zeros(3, dtype=np.float16))
        opt2 = MasterWeightOptimizer(lambda ps: SGD(ps, lr=0.5, momentum=0.9), [w2])
        opt2.load_state_dict(state)
        np.testing.assert_array_equal(opt2.master_params[0].data,
                                      opt.master_params[0].data)
        np.testing.assert_array_equal(w2.data, w.data)


class TestClippingFp16Regression:
    def test_large_magnitude_fp16_grads(self):
        # products ~1e8 overflow fp16 (max 65504); accumulation must run
        # in fp32+ regardless of the gradient dtype
        rng = np.random.default_rng(3)
        pg16 = (rng.normal(size=(64, 64)) * 1e4).astype(np.float16)
        g16 = pg16.copy()
        nu16 = kl_clip_factor([pg16], [g16], lr=0.1, kl_clip=1e-3)
        nu64 = kl_clip_factor(
            [pg16.astype(np.float64)], [g16.astype(np.float64)], lr=0.1, kl_clip=1e-3
        )
        assert np.isfinite(nu16) and 0.0 < nu16 <= 1.0
        assert nu16 == pytest.approx(nu64, rel=1e-3)

    def test_tiny_fp16_grads_do_not_underflow_to_full_scale(self):
        # 4096 products of 4e-4^2 = 1.6e-7 each: every *individual* product
        # underflows fp16 (min subnormal 6e-8 holds, but a half-precision
        # running sum loses most of them); fp64 accumulation keeps the mass
        pg = np.full((64, 64), 4e-4, dtype=np.float16)
        nu = kl_clip_factor([pg], [pg], lr=10.0, kl_clip=1e-9)
        expect = np.sqrt(1e-9 / (64 * 64 * np.float64(np.float16(4e-4)) ** 2 * 100.0))
        assert nu == pytest.approx(float(expect), rel=1e-3)


def _tiny_dataset(seed: int = 5) -> SyntheticImageDataset:
    return SyntheticImageDataset(
        SyntheticSpec(n_train=96, n_val=48, num_classes=4, image_size=8,
                      channels=3, noise=0.5, seed=seed)
    )


def _trainer(precision, world_size=2, epochs=2, kfac=True, seed=3, **cfg_kw):
    ds = _tiny_dataset()
    tx, ty, vx, vy = ds.splits
    cfg = TrainerConfig(
        world_size=world_size,
        batch_size=16,
        epochs=epochs,
        seed=seed,
        precision=precision,
        kfac=KFACHyperParams(damping=0.003, fac_update_freq=1, kfac_update_freq=2)
        if kfac
        else None,
        **cfg_kw,
    )

    def factory(rng):
        return resnet20_cifar(rng, width_multiplier=0.25, num_classes=4)

    return DataParallelTrainer(factory, tx, ty, vx, vy, cfg)


class TestTrainerPrecisionEndToEnd:
    def test_fp16_trajectory_matches_fp32(self):
        hist32 = _trainer("fp32").train()
        # a conservative initial scale avoids warmup overflow skips, so the
        # two runs see identical update counts (skip recovery is exercised
        # separately below)
        hist16 = _trainer(
            "fp16", grad_scaler=GradScaler(init_scale=2.0**10)
        ).train()
        assert hist16.precision == "fp16"
        assert hist16.amp_skipped_steps == 0
        # documented tolerance: per-epoch training loss within 5% relative
        for e32, e16 in zip(hist32.epochs, hist16.epochs):
            assert np.isfinite(e16.train_loss)
            assert e16.train_loss == pytest.approx(e32.train_loss, rel=0.05)
        assert hist16.final_val_accuracy == pytest.approx(
            hist32.final_val_accuracy, abs=0.15
        )

    def test_fp16_wire_bytes_halved(self):
        hist32 = _trainer("fp32").train()
        hist16 = _trainer(
            "fp16", grad_scaler=GradScaler(init_scale=2.0**10)
        ).train()
        assert hist16.amp_skipped_steps == 0  # same number of updates
        # fp16 wire = 2 bytes/element vs the storage default (4, or 8
        # under REPRO_DEFAULT_DTYPE=float64)
        shrink = np.dtype(DEFAULT_DTYPE).itemsize / 2
        for phase in ("grad_allreduce", "factor_comm"):
            assert hist16.comm_bytes[phase] == pytest.approx(
                hist32.comm_bytes[phase] / shrink
            ), phase
        # the eigenbasis exchange is never codec-compressed: it travels at
        # the factor dtype, which a compressed reduce no longer narrows
        assert hist16.comm_bytes["eig_comm"] == hist32.comm_bytes["eig_comm"]

    def test_bf16_runs_without_loss_scaling(self):
        hist = _trainer("bf16", epochs=1).train()
        assert hist.precision == "bf16"
        assert hist.final_loss_scale == 1.0 and hist.amp_skipped_steps == 0
        assert np.isfinite(hist.epochs[-1].train_loss)

    def test_overflow_steps_skipped_and_scale_recovers(self):
        # an absurd initial scale overflows fp32 gradients immediately;
        # skip-step-and-rescale must back off until steps succeed, and the
        # tail of training must be overflow-free
        scaler = GradScaler(init_scale=2.0**120, growth_interval=10_000)
        trainer = _trainer("fp16", epochs=2, grad_scaler=scaler)
        hist = trainer.train()
        assert hist.amp_skipped_steps > 0
        assert hist.final_loss_scale < 2.0**120
        assert np.isfinite(hist.epochs[-1].train_loss)
        # after the warmup backoff, every remaining step succeeded: the
        # last-epoch skip count is zero
        assert scaler.steps_taken >= hist.total_iterations - hist.amp_skipped_steps
        # weights stayed finite on every replica
        for m in trainer.replicas:
            assert all(np.isfinite(p.data).all() for p in m.parameters())

    def test_skipped_steps_do_not_advance_kfac(self):
        scaler = GradScaler(init_scale=2.0**120, growth_interval=10_000)
        trainer = _trainer("fp16", epochs=1, grad_scaler=scaler)
        hist = trainer.train()
        assert trainer.kfacs is not None
        # KFAC stepped only on non-skipped iterations
        assert trainer.kfacs[0].steps == hist.total_iterations - hist.amp_skipped_steps

    def test_fp64_policy_runs(self):
        hist = _trainer("fp64", epochs=1, kfac=False, world_size=1).train()
        assert np.isfinite(hist.epochs[-1].train_loss)


class TestKfacCommDtype:
    def test_comm_dtype_validation(self):
        assert KFACHyperParams(comm_dtype="fp32").comm_dtype is None
        assert KFACHyperParams(comm_dtype="none").comm_dtype is None
        with pytest.raises(ValueError, match="comm_dtype"):
            KFACHyperParams(comm_dtype="int8")

    def test_compressed_factors_close_to_full_precision(self, rng):
        from repro.comm.backend import World as W
        from repro.core.distributed import PhaseController

        def build(comm_dtype):
            world = W(2)
            replicas = [
                resnet20_cifar(np.random.default_rng(0), width_multiplier=0.25,
                               num_classes=4)
                for _ in range(2)
            ]
            hp = KFACHyperParams(fac_update_freq=1, kfac_update_freq=1,
                                 comm_dtype=comm_dtype)
            kfacs = [KFAC(m, rank=r, world_size=2, hyper=hp)
                     for r, m in enumerate(replicas)]
            return world, replicas, PhaseController(kfacs, world)

        x = rng.normal(size=(8, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 4, size=8)
        results = {}
        for dtype in (None, "fp16", "bf16"):
            world, replicas, controller = build(dtype)
            from repro.nn.loss import CrossEntropyLoss

            for m in replicas:
                loss = CrossEntropyLoss()
                m.zero_grad()
                loss(m(x), y)
                m.backward(loss.backward())
            controller.step()
            results[dtype] = [p.grad.copy() for p in replicas[0].parameters()]
            results[(dtype, "bytes")] = world.stats.bytes_by_phase["factor_comm"]
        shrink = np.dtype(DEFAULT_DTYPE).itemsize / 2
        for dtype in ("fp16", "bf16"):
            assert results[(dtype, "bytes")] == results[(None, "bytes")] / shrink
            for g_c, g_f in zip(results[dtype], results[None]):
                # eigendecompositions amplify small factor perturbations,
                # so compare direction and magnitude, not elementwise
                a, b = g_c.ravel(), g_f.ravel()
                cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-30))
                assert cos > 0.93, (dtype, cos)
                ratio = float(np.linalg.norm(a) / (np.linalg.norm(b) + 1e-30))
                assert 0.7 < ratio < 1.4, (dtype, ratio)
