"""Symmetry-aware factor fast path: syrk Gram kernels, im2col reuse,
triangular-packed factor communication, and the workspace arena.

Covers the fast-path invariants:

1. ``gram`` (BLAS syrk) matches the GEMM ``X.T @ X`` to 1e-6 and is
   *exactly* symmetric (the property packing relies on);
2. ``tri_pack``/``tri_unpack`` round-trip losslessly for float32/float64
   (fixed cases + hypothesis property);
3. the conv patch matrix is recycled at the end of every backward, and
   the K-FAC capture builds the conv ``A`` from the layer input alone;
4. the factor allreduce payload is exactly ``d*(d+1)/2`` elements per
   ``d x d`` factor on both the synchronous and the pipelined path;
5. training with the fast path on/off produces loss trajectories that
   agree to 1e-6, and float64 models stay float64 end to end;
6. the workspace arena reaches steady state: after warm-up, the hot-path
   scratch requests all hit the pool.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.backend import World
from repro.comm.engine import symmetric_payload_nbytes
from repro.comm.fusion import WirePlan, tri_len, tri_pack, tri_unpack
from repro.core.assignment import wire_elements
from repro.core.distributed import PhaseController
from repro.core.factors import (
    conv2d_factor_A,
    conv2d_factor_G,
    ema_update,
    linear_factor_A,
)
from repro.core.preconditioner import KFAC
from repro.nn.container import Sequential
from repro.nn.layers import Conv2d, Linear, ReLU
from repro.nn.loss import CrossEntropyLoss
from repro.nn.resnet import resnet20_cifar
from repro.optim.lr_scheduler import ConstantSchedule
from repro.parallel.trainer import DataParallelTrainer, TrainerConfig
from repro.tensor.gram import gram, has_syrk, mirror_upper
from repro.tensor.im2col import im2col
from repro.tensor.workspace import Workspace, default_workspace
from tests.conftest import build_tiny_cnn

RNG = np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# 1. syrk Gram kernel
# ---------------------------------------------------------------------------
class TestGram:
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_matches_gemm(self, dtype, tol):
        x = RNG.normal(size=(200, 37)).astype(dtype)
        ref = x.T @ x
        got = gram(x)
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() <= tol * scale

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exactly_symmetric(self, dtype):
        assert has_syrk(dtype)
        x = RNG.normal(size=(64, 23)).astype(dtype)
        g = gram(x)
        assert np.array_equal(g, g.T)

    def test_out_buffer_used(self):
        x = RNG.normal(size=(50, 11)).astype(np.float32)
        out = np.empty((11, 11), dtype=np.float32)
        got = gram(x, out=out)
        assert got is out
        assert np.allclose(out, x.T @ x, atol=1e-5)

    def test_out_buffer_validated(self):
        x = RNG.normal(size=(50, 11)).astype(np.float32)
        with pytest.raises(ValueError):
            gram(x, out=np.empty((12, 12), dtype=np.float32))
        with pytest.raises(ValueError):
            gram(x, out=np.empty((11, 11), dtype=np.float64))

    def test_noncontiguous_input(self):
        x = RNG.normal(size=(100, 16)).astype(np.float32)[::2]
        assert np.allclose(gram(x), x.T @ x, atol=1e-5)
        assert np.array_equal(gram(x), gram(x).T)

    def test_gemm_fallback_dtype(self):
        """dtypes without a syrk routine fall back to symmetrized GEMM."""
        x = RNG.normal(size=(20, 5)).astype(np.float16)
        assert not has_syrk(x.dtype)
        g = gram(x)
        assert g.dtype == np.float16
        assert np.array_equal(g, g.T)

    def test_mirror_upper(self):
        m = np.triu(RNG.normal(size=(6, 6))).astype(np.float64)
        out = mirror_upper(m.copy())
        assert np.array_equal(out, out.T)
        assert np.array_equal(np.triu(out), np.triu(m))

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            gram(np.ones(4, dtype=np.float32))


# ---------------------------------------------------------------------------
# 2. triangular packing
# ---------------------------------------------------------------------------
def _random_symmetric(d: int, dtype, seed: int = 0) -> np.ndarray:
    m = np.random.default_rng(seed).normal(size=(d, d)).astype(dtype)
    return mirror_upper(m)


class TestTriPack:
    def test_tri_len(self):
        assert [tri_len(d) for d in (1, 2, 3, 10)] == [1, 3, 6, 55]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [1, 2, 7, 64])
    def test_round_trip_exact(self, dtype, d):
        m = _random_symmetric(d, dtype, seed=d)
        flat = tri_pack(m)
        assert flat.shape == (tri_len(d),)
        assert flat.dtype == m.dtype
        back = tri_unpack(flat, d)
        assert back.dtype == m.dtype
        assert np.array_equal(back, m)

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 24),
        seed=st.integers(0, 10_000),
        f64=st.booleans(),
    )
    def test_round_trip_property(self, d, seed, f64):
        dtype = np.float64 if f64 else np.float32
        m = _random_symmetric(d, dtype, seed)
        back = tri_unpack(tri_pack(m), d)
        assert back.dtype == m.dtype
        assert np.array_equal(back, m)

    def test_pack_out_buffer(self):
        m = _random_symmetric(9, np.float32, 3)
        out = np.empty(tri_len(9), dtype=np.float32)
        assert tri_pack(m, out=out) is out
        assert np.array_equal(out, tri_pack(m))

    def test_unpack_out_buffer(self):
        m = _random_symmetric(5, np.float64, 4)
        out = np.empty((5, 5), dtype=np.float64)
        assert tri_unpack(tri_pack(m), 5, out=out) is out
        assert np.array_equal(out, m)

    def test_reduce_then_unpack_equals_unpack_then_reduce(self):
        """Averaging packed triangles == averaging full matrices (the
        property that makes packed allreduce lossless)."""
        mats = [_random_symmetric(12, np.float64, s) for s in range(4)]
        full_avg = np.mean(mats, axis=0)
        packed_avg = np.mean([tri_pack(m) for m in mats], axis=0)
        assert np.array_equal(tri_unpack(packed_avg, 12), full_avg)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            tri_pack(np.ones((3, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            tri_unpack(np.ones(5, dtype=np.float32), 3)

    def test_pack_symmetric_helpers(self):
        """The wire plan packs factors as concatenated triangles and
        installs them back, both triangles, bit for bit."""
        mats = [_random_symmetric(d, np.float32, d) for d in (3, 8)]
        arena = np.concatenate([m.reshape(-1) for m in mats])
        plan = WirePlan([(0, 3, 0, 3, False), (9, 8, 0, 8, False)], symmetric=True)
        wire = plan.pack(arena)
        assert plan.offsets == (0, 6, 42)
        assert np.array_equal(wire, np.concatenate([tri_pack(m) for m in mats]))
        back = np.zeros_like(arena)
        plan.unpack(wire, back, 0, 2)
        assert np.array_equal(back, arena)
        with pytest.raises(ValueError):
            plan.unpack(wire[:6], back, 0, 2)

    def test_symmetric_payload_nbytes(self):
        assert symmetric_payload_nbytes([3, 8], itemsize=4) == [24, 144]


# ---------------------------------------------------------------------------
# 3. conv patch buffer and the capture
# ---------------------------------------------------------------------------
class TestConvCapture:
    def test_backward_recycles_patches(self):
        ws = Workspace()
        conv = Conv2d(2, 3, 3, padding=1, workspace=ws)
        x = RNG.normal(size=(2, 2, 6, 6)).astype(np.float32)
        out = conv.forward(x)
        assert conv._saved is not None
        conv.backward(np.ones_like(out))
        assert conv._saved is None
        assert ws.pooled_buffers >= 1  # the patch matrix went back to the pool

    def test_kfac_capture_builds_channel_A_from_the_input(self):
        """End to end through KFAC hooks: each conv ``A`` is the channel
        Gram of the layer input at the factor dtype, bit for bit."""
        model = build_tiny_cnn(seed=7)
        x = np.random.default_rng(5).normal(size=(8, 1, 8, 8)).astype(np.float32)
        y = np.random.default_rng(6).integers(0, 3, size=8).astype(np.int64)
        kfac = KFAC(model, damping=0.01, fac_update_freq=1, kfac_update_freq=1)
        loss = CrossEntropyLoss()
        loss(model(x), y)
        conv_handlers = [h for h in kfac.layers if isinstance(h.module, Conv2d)]
        assert conv_handlers
        expected = {
            h.name: conv2d_factor_A(h.a_input.astype(h.dtype), h.has_bias)
            for h in conv_handlers
        }
        model.backward(loss.backward())
        kfac.step()
        for h in conv_handlers:
            assert np.array_equal(h.A, expected[h.name])  # first EMA adopts
            assert h.a_input is None


# ---------------------------------------------------------------------------
# 4. packed payload on the wire (sync + pipelined)
# ---------------------------------------------------------------------------
class RecordingController(PhaseController):
    """PhaseController that records every factor_comm tensor size (and, by
    tag, which bucket it was)."""

    def __init__(self, kfacs, world):
        super().__init__(kfacs, world)
        self.factor_sizes: list[int] = []
        self.factor_tags: list[str] = []

    def _start(self, launches):
        if launches[0].phase == "factor_comm":
            self.factor_sizes.append(launches[0].tensor.size)
            self.factor_tags.append(launches[0].tag)
        return super()._start(launches)


def _run_steps_recording(world_size=2, steps=2, **kfac_kw):
    world = World(world_size)
    models = [build_tiny_cnn(seed=42) for _ in range(world_size)]
    kfacs = [
        KFAC(
            m,
            rank=r,
            world_size=world_size,
            damping=0.01,
            fac_update_freq=1,
            kfac_update_freq=1,
            **kfac_kw,
        )
        for r, m in enumerate(models)
    ]
    controller = RecordingController(kfacs, world)
    rng = np.random.default_rng(3)
    losses = [CrossEntropyLoss() for _ in range(world_size)]
    for _ in range(steps):
        for m, l in zip(models, losses):
            x = rng.normal(size=(4, 1, 8, 8)).astype(np.float32)
            y = rng.integers(0, 3, size=4).astype(np.int64)
            l(m(x), y)
            m.backward(l.backward())
        controller.step()
    return kfacs[0], controller


class TestPackedPayload:
    """Each factor_comm launch is one bucket's slice of the wire: the
    slices add up to d*(d+1)/2 elements per d x d factor (packed) or d*d."""

    def _expected(self, kfac, packed: bool) -> int:
        return sum(tri_len(m.dim) if packed else m.dim**2 for m in kfac.factor_metas)

    def test_sync_path_ships_triangles(self):
        kfac, ctrl = _run_steps_recording(symmetric_comm=True, steps=2)
        # one exchange per step, one launch per exchange
        assert ctrl.factor_sizes == [self._expected(kfac, packed=True)] * 2

    def test_sync_path_full_when_disabled(self):
        kfac, ctrl = _run_steps_recording(symmetric_comm=False, steps=1)
        assert ctrl.factor_sizes == [self._expected(kfac, packed=False)]

    def _assert_bucket_slices(self, kfac, ctrl, symmetric: bool) -> None:
        """Every launch is exactly its bucket's units: a boundary shifted by
        one unit between two buckets changes two of these sizes."""
        (plan,) = kfac._plans.values()
        assert len(ctrl.factor_sizes) == len(plan.buckets) > 1
        metas = kfac.units.metas
        for tag, size in zip(ctrl.factor_tags, ctrl.factor_sizes):
            bucket = plan.buckets[int(tag.split(":")[1])]
            assert size == sum(wire_elements(metas[i], symmetric) for i in bucket)

    def test_pipelined_path_ships_triangles(self):
        kfac, ctrl = _run_steps_recording(
            symmetric_comm=True, scheduler="graph", bucket_bytes=1 << 12, steps=1
        )
        self._assert_bucket_slices(kfac, ctrl, symmetric=True)
        assert sum(ctrl.factor_sizes) == self._expected(kfac, packed=True)

    def test_pipelined_path_full_when_disabled(self):
        kfac, ctrl = _run_steps_recording(
            symmetric_comm=False, scheduler="graph", bucket_bytes=1 << 12, steps=1
        )
        self._assert_bucket_slices(kfac, ctrl, symmetric=False)
        assert sum(ctrl.factor_sizes) == self._expected(kfac, packed=False)

    def test_packed_halves_wire_elements(self):
        kfac, ctrl = _run_steps_recording(symmetric_comm=True, steps=1)
        packed = sum(ctrl.factor_sizes)
        full = sum(m.dim**2 for m in kfac.factor_metas)
        assert packed < 0.51 * full + len(kfac.factor_metas)


# ---------------------------------------------------------------------------
# 5. numerical equivalence + dtype preservation
# ---------------------------------------------------------------------------
def _train(small_splits, symmetric: bool, world_size=2, epochs=2):
    tx, ty, vx, vy = small_splits
    cfg = TrainerConfig(
        world_size=world_size,
        batch_size=16,
        epochs=epochs,
        lr_schedule=ConstantSchedule(0.05),
        seed=0,
        kfac=None,
    )
    from repro.core.preconditioner import KFACHyperParams

    cfg.kfac = KFACHyperParams(
        damping=0.01,
        fac_update_freq=1,
        kfac_update_freq=2,
        symmetric_comm=symmetric,
    )
    factory = lambda rng: resnet20_cifar(rng, width_multiplier=0.25, num_classes=4)
    return DataParallelTrainer(factory, tx, ty, vx, vy, cfg).train()


class TestEquivalence:
    def test_cifar_trajectory_matches_unpacked(self, tiny_dataset):
        """Fast path on vs off: loss trajectories agree to 1e-6 (packed
        averaging of exactly-symmetric factors is lossless)."""
        hist_packed = _train(tiny_dataset.splits, symmetric=True)
        hist_full = _train(tiny_dataset.splits, symmetric=False)
        for ep, ef in zip(hist_packed.epochs, hist_full.epochs):
            assert abs(ep.train_loss - ef.train_loss) <= 1e-6
            assert ep.val_accuracy == pytest.approx(ef.val_accuracy, abs=1e-6)

    def test_float64_dtype_preserved_end_to_end(self):
        """A float64 model through the packed multi-worker path keeps
        float64 factors, second-order state, and gradients."""
        world_size = 2
        world = World(world_size)

        def f64_mlp(seed=11):
            r = np.random.default_rng(seed)
            model = Sequential(Linear(6, 8, rng=r), ReLU(), Linear(8, 3, rng=r))
            for p in model.parameters():
                p.data = p.data.astype(np.float64)
                p.grad = np.zeros_like(p.data)
            return model

        models = [f64_mlp() for _ in range(world_size)]
        kfacs = [
            KFAC(
                m, rank=r, world_size=world_size, damping=0.01,
                fac_update_freq=1, kfac_update_freq=1, symmetric_comm=True,
            )
            for r, m in enumerate(models)
        ]
        controller = PhaseController(kfacs, world)
        rng = np.random.default_rng(7)
        for _ in range(2):
            for m in models:
                x = rng.normal(size=(8, 6))  # float64
                y = rng.integers(0, 3, size=8).astype(np.int64)
                loss = CrossEntropyLoss()
                loss(m(x), y)
                m.backward(loss.backward())
            controller.step()
        for k in kfacs:
            for layer in k.layers:
                assert layer.A.dtype == np.float64
                assert layer.G.dtype == np.float64
                assert layer.eig_A.Q.dtype == np.float64
                assert layer.eig_G.lam.dtype == np.float64
        for m in models:
            for p in m.parameters():
                assert p.grad.dtype == np.float64


# ---------------------------------------------------------------------------
# 6. workspace arena
# ---------------------------------------------------------------------------
class TestWorkspace:
    def test_request_release_reuses_buffer(self):
        ws = Workspace()
        a = ws.request((4, 5), np.float32)
        ws.release(a)
        b = ws.request((5, 4), np.float32)  # same element count, new shape
        assert np.shares_memory(a, b)
        assert ws.hits == 1 and ws.misses == 1

    def test_exact_size_and_dtype_matching(self):
        ws = Workspace()
        ws.release(np.empty(20, dtype=np.float32))
        assert ws.misses == 0
        c = ws.request((21,), np.float32)  # size mismatch -> fresh
        d = ws.request((20,), np.float64)  # dtype mismatch -> fresh
        assert ws.misses == 2 and ws.pooled_buffers == 1
        del c, d

    def test_release_ignores_none_and_noncontiguous(self):
        ws = Workspace()
        ws.release(None)
        ws.release(np.empty((6, 6), dtype=np.float32)[::2])
        assert ws.pooled_buffers == 0

    def test_clear(self):
        ws = Workspace()
        ws.release(np.empty(8, dtype=np.float32))
        ws.request((8,), np.float32)
        ws.clear()
        assert ws.pooled_buffers == 0 and ws.hits == 0 and ws.misses == 0

    def test_default_workspace_singleton(self):
        assert default_workspace() is default_workspace()

    def test_conv_training_steady_state_reuses_patch_buffers(self):
        """After a warm-up iteration, the conv hot path stops allocating:
        every patch-matrix request hits the arena pool."""
        ws = Workspace()
        conv = Conv2d(3, 4, 3, padding=1, workspace=ws)
        x = RNG.normal(size=(4, 3, 8, 8)).astype(np.float32)
        out = conv.forward(x)
        conv.backward(np.ones_like(out))  # warm-up: miss, then recycle
        misses_after_warmup = ws.misses
        for _ in range(3):
            out = conv.forward(x)
            conv.backward(np.ones_like(out))
        assert ws.misses == misses_after_warmup
        assert ws.hits >= 3

    def test_backward_never_pools_aliased_col2im_scratch(self):
        """Single-sided padding with leading size-1 dims keeps col2im's
        trimming slice contiguous, so dx aliases the scratch buffer — that
        buffer must escape the arena, or a later request would zero it."""
        ws = Workspace()
        conv = Conv2d(1, 1, 3, padding=(1, 0), workspace=ws)
        x = RNG.normal(size=(1, 1, 6, 6)).astype(np.float32)
        out = conv.forward(x)
        dx = conv.backward(np.ones_like(out))
        expected = dx.copy()
        # drain the pool with same-sized requests; none may alias dx
        for _ in range(ws.pooled_buffers + 1):
            buf = ws.request((1, 1, 8, 6), np.float32)
            assert not np.shares_memory(buf, dx)
            buf[...] = 0.0
        assert np.array_equal(dx, expected)

    def test_unpadded_conv_grad_is_its_accumulator(self):
        """A 1x1 stride-2 shortcut conv's input gradient is col2im's fresh
        accumulator itself, C-contiguous as NHWC: backward requests nothing
        from the arena, and after warm-up forward never misses."""
        ws = Workspace()
        conv = Conv2d(4, 8, 1, stride=2, workspace=ws)
        x = RNG.normal(size=(2, 4, 6, 6)).astype(np.float32)
        conv.backward(np.ones_like(conv.forward(x)))  # warm-up
        hits, misses = ws.hits, ws.misses
        out = conv.forward(x)
        assert ws.misses == misses and ws.hits == hits + 2  # patches + staging
        dx = conv.backward(np.ones_like(out))
        assert ws.hits == hits + 2 and ws.misses == misses
        assert dx.shape == x.shape and dx.transpose(0, 2, 3, 1).flags.c_contiguous
        assert not any(np.shares_memory(dx, b) for v in ws._pool.values() for b in v)

    def test_kfac_factor_stage_steady_state(self):
        """With capture every step, the whole factor stage (patches, bias
        columns, Gram outputs, EMA scratch) recycles after one update."""
        from repro.nn.layers import Flatten

        ws = Workspace()
        model = Sequential(
            Conv2d(1, 4, 3, padding=1, bias=True, workspace=ws),
            ReLU(),
            Flatten(),
            Linear(4 * 8 * 8, 3),
        )
        kfac = KFAC(model, damping=0.01, fac_update_freq=1, kfac_update_freq=1)
        for handler in kfac.layers:
            handler.workspace = ws
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=4).astype(np.int64)
        loss = CrossEntropyLoss()

        def one_step():
            loss(model(x), y)
            model.backward(loss.backward())
            kfac.step()
            model.zero_grad()

        one_step()
        one_step()  # second warm-up: EMA scratch path now exercised
        misses = ws.misses
        for _ in range(3):
            one_step()
        assert ws.misses == misses


# ---------------------------------------------------------------------------
# 7. allocation-free helpers stay bit-identical
# ---------------------------------------------------------------------------
class TestAllocationFreeHelpers:
    def test_biased_linear_A_matches_concatenate(self):
        """The ones column is written into scratch, never concatenated;
        the factor is the concatenated matrix's Gram, bit for bit."""
        mat = RNG.normal(size=(7, 4)).astype(np.float32)
        ref = np.concatenate([mat, np.ones((7, 1), dtype=np.float32)], axis=1)
        want = gram(ref) / np.float32(7)
        assert np.array_equal(linear_factor_A(mat, True), want)
        assert np.array_equal(linear_factor_A(mat, True, Workspace()), want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ema_update_over_an_arena_equals_per_factor(self, dtype):
        """The factor sweep folds one flat arena in one call; each factor's
        slot ends bit-identical to folding that factor alone, in place."""
        new = RNG.normal(size=61).astype(dtype)
        arena = RNG.normal(size=61).astype(dtype)
        parts = [arena[:36].reshape(6, 6).copy(), arena[36:].reshape(5, 5).copy()]
        assert ema_update(arena, new, 0.95) is arena
        for part, lo, hi in zip(parts, (0, 36), (36, 61)):
            ema_update(part, new[lo:hi].reshape(part.shape), 0.95)
            assert np.array_equal(part.ravel(), arena[lo:hi])

    def test_ema_update_first_call_copies(self):
        new = RNG.normal(size=(3, 3)).astype(np.float32)
        ema = ema_update(None, new, 0.9)
        assert ema is not new and np.array_equal(ema, new)

    def test_conv_factor_G_workspace_matches(self):
        ws = Workspace()
        g = RNG.normal(size=(3, 4, 5, 5)).astype(np.float32)
        assert np.array_equal(conv2d_factor_G(g), conv2d_factor_G(g, workspace=ws))
