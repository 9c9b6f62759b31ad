"""The factor wire: one arena per KFAC, one index plan per granularity.

Locks down :class:`repro.comm.fusion.WirePlan` and the arena it reads:

1. packing equals the concatenation of per-unit ``tri_pack(factor_block)``
   for any mix of dense, diagonal and blocked units;
2. installing a packed wire, bucket by bucket over any contiguous
   partition, restores both triangles bit for bit and leaves every entry
   outside the units (a block's off-block entries) untouched;
3. the flat error-feedback residual equals one residual per unit key —
   over steps alternating a two-bucket pipelined plan with the one-bucket
   plan, in fp16 and bf16, across a switch from whole factors to blocks
   that a diagonal unit survives, and keeping a first exchange's -0.0;
4. every ``layer.A`` / ``layer.G`` is a view of the arena, at the factor
   dtype, after a step, after a load (which keeps the arena, the step plans
   and the wire plans) and after a failed exchange (which writes nothing);
   a compressed wire is cast into a float64 arena, not the other way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.backend import World
from repro.comm.compression import ErrorFeedback, get_codec
from repro.comm.faults import CollectiveFailure, FaultPlan
from repro.comm.fusion import WirePlan, tri_pack
from repro.core.distributed import PhaseController
from repro.core.preconditioner import HYBRID, KFAC
from repro.nn import MarginSoftmaxLoss, TinyTransformer
from repro.nn.loss import CrossEntropyLoss
from tests.conftest import build_tiny_cnn


# ---------------------------------------------------------------------------
# 1-2. the index plan
# ---------------------------------------------------------------------------
@st.composite
def layouts(draw):
    """Factors as ``(side, diagonal, block bounds or None)``."""
    factors = []
    for _ in range(draw(st.integers(1, 5))):
        side = draw(st.integers(1, 9))
        kind = draw(st.sampled_from(["dense", "diagonal", "blocked"]))
        bounds = None
        if kind == "blocked":
            cuts = sorted(draw(st.sets(st.integers(1, max(1, side - 1)), max_size=3)) - {side})
            bounds = list(zip([0] + cuts, cuts + [side]))
        factors.append((side, kind == "diagonal", bounds))
    return factors


def _arena(factors, dtype, seed):
    """Symmetric factors (vectors when diagonal), concatenated, and the
    units: ``(offset, side, lo, dim, diagonal)`` in wire order."""
    rng = np.random.default_rng(seed)
    parts, units, offset = [], [], 0
    for side, diagonal, bounds in factors:
        if diagonal:
            parts.append(rng.normal(size=side))
            units.append((offset, side, 0, side, True))
            offset += side
            continue
        m = rng.normal(size=(side, side))
        parts.append((np.triu(m) + np.triu(m, 1).T).reshape(-1))
        for lo, hi in bounds or [(0, side)]:
            units.append((offset, side, lo, hi - lo, False))
        offset += side * side
    return np.concatenate(parts).astype(dtype), units


def _unit_values(arena, unit):
    offset, side, lo, dim, diagonal = unit
    if diagonal:
        return arena[offset : offset + side]
    return arena[offset : offset + side * side].reshape(side, side)[lo : lo + dim, lo : lo + dim]


def _bits(a):
    return a.view(np.uint8).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    factors=layouts(),
    dtype=st.sampled_from([np.float32, np.float64]),
    cuts=st.sets(st.integers(1, 40)),
    seed=st.integers(0, 2**16),
)
def test_pack_and_install_roundtrip(factors, dtype, cuts, seed):
    src, units = _arena(factors, dtype, seed)
    plan = WirePlan(units, symmetric=True)
    expected = np.concatenate(
        [v if u[4] else tri_pack(v) for u in units for v in [_unit_values(src, u)]]
    )
    wire = plan.pack(src)
    assert wire.dtype == src.dtype and _bits(wire) == _bits(expected)
    assert plan.gather.size == plan.mirror.size == wire.size  # two intp per element

    # install bucket by bucket (an arbitrary contiguous partition) into an
    # arena of unrelated, asymmetric values
    dst = np.random.default_rng(seed + 1).normal(size=src.size).astype(dtype)
    want = dst.copy()
    for u in units:
        _unit_values(want, u)[...] = _unit_values(src, u)
    n = len(units)
    bounds = [0] + sorted(c for c in cuts if c < n) + [n]
    for first, last in zip(bounds, bounds[1:]):
        plan.unpack(wire[plan.offsets[first] : plan.offsets[last]], dst, first, last)
    assert _bits(dst) == _bits(want)


# ---------------------------------------------------------------------------
# 3. error feedback: one flat residual == one residual per unit key
# ---------------------------------------------------------------------------
def _transformer_fleet(p, **kw):
    """A float32 TinyTransformer: dense, diagonal and blocked units."""
    models = [
        TinyTransformer(24, 6, dim=16, num_heads=2, depth=1, num_classes=3,
                        rng=np.random.default_rng(5)).cast_(np.float32)
        for _ in range(p)
    ]
    kfacs = [
        KFAC(m, rank=r, world_size=p, damping=0.01, kfac_update_freq=1, **kw)
        for r, m in enumerate(models)
    ]
    rng = np.random.default_rng(17)
    return models, kfacs, rng.integers(0, 24, (8, 6)), rng.integers(0, 3, 8)


def _record_wire(kfac):
    """Wrap ``kfac._compress_factor_wire``: log (wire in, wire out, units,
    unit offsets)."""
    calls = []
    inner = kfac._compress_factor_wire

    def record(wire, units):
        before = wire.copy()
        out = inner(wire, units)
        calls.append((before, out.copy(), units, kfac._wire_plan(units).offsets))
        return out

    kfac._compress_factor_wire = record
    return calls


def _replay_per_key(calls, codec):
    """One residual per unit key."""
    ref = ErrorFeedback(get_codec(codec))
    for wire, out, units, offs in calls:
        unit = [wire[a:b] for a, b in zip(offs, offs[1:])]
        expect = np.concatenate([ref.apply(m.key, t) for m, t in zip(units.metas, unit)])
        assert _bits(expect) == _bits(out)


def _lockstep(models, kfacs, x, y, steps, loss_cls=CrossEntropyLoss):
    p = len(models)
    controller = PhaseController(kfacs, World(p))
    for _ in range(steps):
        for r, m in enumerate(models):
            m.zero_grad()
            loss_fn = loss_cls()
            loss_fn(m(x[r::p]), y[r::p])
            m.backward(loss_fn.backward())
        controller.step()
        for m in models:
            for prm in m.parameters():
                prm.data -= 0.05 * prm.grad
    return controller


def _cnn_batch():
    rng = np.random.default_rng(3)
    return rng.normal(size=(8, 1, 8, 8)).astype(np.float32), rng.integers(0, 3, 8)


@pytest.mark.parametrize("codec", ["fp16", "bf16"])
def test_flat_residual_equals_per_key_over_alternating_bucket_plans(codec):
    p = 4
    models = [build_tiny_cnn(seed=42) for _ in range(p)]
    kw = dict(damping=0.01, kfac_update_freq=2, comm_dtype=codec, scheduler="graph",
              grad_worker_frac=0.5, bucket_bytes=10000)
    kfacs = [KFAC(m, rank=r, world_size=p, **kw) for r, m in enumerate(models)]
    calls = _record_wire(kfacs[0])
    x, y = _cnn_batch()
    _lockstep(models, kfacs, x, y, steps=6)
    assert kfacs[0].hp.strategy == HYBRID
    # refresh steps ran the pipelined plan in two buckets, the others one
    buckets = {len(plan.buckets) for plan in kfacs[0]._plans.values()}
    assert buckets == {1, 2}
    assert len(calls) == 6
    _replay_per_key(calls, codec)


def test_diagonal_unit_keeps_its_residual_across_the_switch_to_blocks():
    """The embedding's diagonal A is a unit of both granularities: its
    residual survives the warmup-to-blocks switch, as a per-key one does."""
    models, kfacs, x, y = _transformer_fleet(2, comm_dtype="fp16", diag_blocks=2, diag_warmup=1)
    calls = _record_wire(kfacs[0])
    _lockstep(models, kfacs, x, y, steps=4, loss_cls=MarginSoftmaxLoss)
    exact, blocked = kfacs[0]._units
    assert [c[2] for c in calls] == [exact, blocked, blocked, blocked]
    shared = {m.key for m in exact.metas} & {m.key for m in blocked.metas}
    assert "tok_embed/A" in shared
    _replay_per_key(calls, "fp16")


@pytest.mark.parametrize("codec", ["fp16", "bf16"])
def test_first_exchange_ships_negative_zero(codec):
    kfac = KFAC(build_tiny_cnn(seed=1), rank=0, world_size=2, comm_dtype=codec)
    wire = np.array([-0.0, 0.0, 1.5, -2.25], dtype=np.float32)
    out = kfac._compress_factor_wire(wire, kfac.units)
    assert _bits(out) == _bits(ErrorFeedback(get_codec(codec)).apply("unit", wire))
    assert np.signbit(out[0]) and not np.signbit(out[1])


# ---------------------------------------------------------------------------
# 4. arena invariants
# ---------------------------------------------------------------------------
def _in_arena(kfac):
    """Every factor is a view of its slot of the arena, at the factor dtype."""
    arena = kfac._arena
    for meta in kfac.factor_metas:
        factor, lo = kfac._factor(meta), kfac._arena_slots[meta.key][0]
        if factor.dtype != kfac.factor_dtype or arena.dtype != kfac.factor_dtype:
            return False
        if factor.base is not arena or factor.ctypes.data != arena[lo:].ctypes.data:
            return False
    return True


def _cnn_fleet(p, **kw):
    models = [build_tiny_cnn(seed=42) for _ in range(p)]
    kfacs = [
        KFAC(m, rank=r, world_size=p, damping=0.01, kfac_update_freq=1, **kw)
        for r, m in enumerate(models)
    ]
    return models, kfacs


def test_single_worker_factors_are_views_of_the_arena():
    """A world of one folds its factors in the same arena a fleet
    exchanges: every running average is a view of its slot from the
    first step on, and the arena is never replaced."""
    models, kfacs = _cnn_fleet(1)
    x, y = _cnn_batch()
    arena = kfacs[0]._arena
    for _ in range(2):
        loss_fn = CrossEntropyLoss()
        loss_fn(models[0](x), y)
        models[0].backward(loss_fn.backward())
        kfacs[0].step()
        assert kfacs[0]._arena is arena and _in_arena(kfacs[0])


@pytest.mark.parametrize(
    "kw", [{}, {"diag_blocks": 4}, {"comm_dtype": "fp16", "scheduler": "graph"}]
)
def test_views_survive_steps_and_load(kw):
    models, kfacs = _cnn_fleet(2, **kw)
    x, y = _cnn_batch()
    _lockstep(models, kfacs, x, y, steps=3)
    kfac = kfacs[0]
    assert _in_arena(kfac)
    arena = kfac._arena
    plans, wire_plan = kfac._plans, kfac._wire_plan(kfac.units)
    step_plans = dict(plans)
    state = kfac.state_dict()
    before = arena.copy()
    arena[...] = 0.0
    kfac.load_state_dict(state)
    assert kfac._arena is arena and _in_arena(kfac)
    assert _bits(arena) == _bits(before)
    assert kfac._plans is plans and plans == step_plans
    assert kfac._wire_plan(kfac.units) is wire_plan


@pytest.mark.parametrize("codec", ["fp16", "bf16"])
def test_float64_factors_stay_float64_on_a_half_wire(codec):
    """A float64 model keeps float64 factors on a compressed wire: the
    codec's fp32 values are cast into the float64 arena (they used to move
    every whole factor to a float32 one)."""
    models = [build_tiny_cnn(seed=42).cast_(np.float64) for _ in range(2)]
    kfacs = [
        KFAC(m, rank=r, world_size=2, damping=0.01, kfac_update_freq=1, comm_dtype=codec)
        for r, m in enumerate(models)
    ]
    x, y = _cnn_batch()
    _lockstep(models, kfacs, x.astype(np.float64), y, steps=2)
    assert kfacs[0].factor_dtype == np.float64 and _in_arena(kfacs[0])
    assert all(l.eig_A.Q.dtype == l.eig_G.Q.dtype == np.float64 for l in kfacs[0].layers)


def test_failed_exchange_writes_nothing(monkeypatch):
    installs = []
    unpack = WirePlan.unpack
    monkeypatch.setattr(
        WirePlan, "unpack", lambda self, *a: (installs.append(a), unpack(self, *a))[1]
    )
    models, kfacs = _cnn_fleet(2)
    x, y = _cnn_batch()
    controller = _lockstep(models, kfacs, x, y, steps=1)
    assert len(installs) == 2  # one bucket per replica
    arena = kfacs[0]._arena
    controller.world.fault_plan = FaultPlan(
        failures=(CollectiveFailure(phase="factor_comm", count=None),)
    )
    for m in models:
        m.zero_grad()
        loss_fn = CrossEntropyLoss()
        loss_fn(m(x), y)
        m.backward(loss_fn.backward())
    controller.step()
    assert controller.comm_fallbacks == 1 and kfacs[0].n_factor_comm_failures == 1
    assert len(installs) == 2  # nothing scattered
    assert kfacs[0]._arena is arena and _in_arena(kfacs[0])
