"""The factor wire: one arena per factor dtype, one index plan per granularity.

Locks down :class:`repro.comm.fusion.WirePlan` and the arenas it reads:

1. packing equals the concatenation of per-unit ``tri_pack(factor_block)``
   for any mix of dense, diagonal and blocked units;
2. installing a packed wire, bucket by bucket over any contiguous
   partition, restores both triangles bit for bit and leaves every entry
   outside the units (a block's off-block entries) untouched;
3. the flat error-feedback residual equals one residual per unit key —
   over steps alternating a two-bucket pipelined plan with the one-bucket
   plan, in fp16 and bf16, across a switch from whole factors to blocks
   that a diagonal unit survives, with factors of mixed dtypes, and
   keeping a first exchange's -0.0;
4. every ``layer.A`` / ``layer.G`` is a view of the arena of its dtype
   after a step, after a load (which keeps the arenas, the step plans and
   the wire plans) and after a failed exchange (which writes nothing);
5. factors of mixed dtypes keep the dtypes a wire of one tensor per
   factor gave them: a whole factor takes the dtype its bucket was fused
   at, a block keeps its factor's.
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
    """A float32 TinyTransformer: its attention path hands some factors
    float64 readings, so the factor dtypes mix (under either default)."""
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
    """Wrap ``kfac._compress_factor_wire``: log (wire in, its widths, wire
    out, units, unit offsets)."""
    calls = []
    inner = kfac._compress_factor_wire

    def record(wire, widths, units):
        before = wire.copy()
        out = inner(wire, widths, units)
        calls.append((before, widths, out.copy(), units, kfac._wire_plan(units).offsets))
        return out

    kfac._compress_factor_wire = record
    return calls


def _replay_per_key(calls, codec):
    """One residual per unit key, each unit's payload at its own dtype."""
    ref = ErrorFeedback(get_codec(codec))
    for wire, widths, out, units, offs in calls:
        unit = [
            wire[a:b] if widths is None else wire[a:b].astype(f"f{widths[a]}")
            for a, b in zip(offs, offs[1:])
        ]
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
              grad_worker_frac=0.5, bucket_bytes=11000)
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
    residual survives the warmup-to-blocks switch, as a per-key one does.
    The attention G factors start float64 in this float32 model, so the
    wire mixes widths and the residual keeps each unit's own."""
    models, kfacs, x, y = _transformer_fleet(2, comm_dtype="fp16", diag_blocks=2, diag_warmup=1)
    calls = _record_wire(kfacs[0])
    _lockstep(models, kfacs, x, y, steps=4, loss_cls=MarginSoftmaxLoss)
    exact, blocked = kfacs[0]._units
    assert [c[3] for c in calls] == [exact, blocked, blocked, blocked]
    assert calls[0][1] is not None and set(np.unique(calls[0][1])) == {4, 8}
    assert kfacs[0]._comm_ef._widths  # float64 residuals beside float32 ones
    shared = {m.key for m in exact.metas} & {m.key for m in blocked.metas}
    assert "tok_embed/A" in shared
    _replay_per_key(calls, "fp16")


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5),
    codec=st.sampled_from(["fp16", "bf16"]),
    data=st.data(),
)
def test_mixed_width_payload_equals_one_payload_per_width(sizes, codec, data):
    """Payloads of float32 and float64 parts held at float64: every
    element sums and banks at its own and its residual's wider width, as
    one residual per part does — while the parts change width over steps
    (an fp16 install turns a float64 factor into a float32 one)."""
    flat, per_part = ErrorFeedback(get_codec(codec)), ErrorFeedback(get_codec(codec))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    for _ in range(data.draw(st.integers(1, 5))):
        wide = data.draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
        parts = [
            (rng.normal(size=n) * 10.0 ** rng.integers(-6, 3)).astype(np.float64 if w else np.float32)
            for n, w in zip(sizes, wide)
        ]
        parts[0][0] = -0.0
        widths = np.repeat([p.dtype.itemsize for p in parts], sizes).astype(np.int8)
        out = flat.apply("wire", np.concatenate(parts), widths if len(set(wide)) > 1 else None)
        expect = np.concatenate([per_part.apply(i, p) for i, p in enumerate(parts)])
        assert _bits(out) == _bits(expect)


@pytest.mark.parametrize("codec", ["fp16", "bf16"])
def test_first_exchange_ships_negative_zero(codec):
    kfac = KFAC(build_tiny_cnn(seed=1), rank=0, world_size=2, comm_dtype=codec)
    wire = np.array([-0.0, 0.0, 1.5, -2.25], dtype=np.float32)
    out = kfac._compress_factor_wire(wire, None, kfac.units)
    assert _bits(out) == _bits(ErrorFeedback(get_codec(codec)).apply("unit", wire))
    assert np.signbit(out[0]) and not np.signbit(out[1])


# ---------------------------------------------------------------------------
# 4. arena invariants
# ---------------------------------------------------------------------------
def _in_arena(kfac):
    """Every factor is a view of the arena of its dtype, where the home map
    places it."""
    for l in kfac.layers:
        for kind in "AG":
            meta = next(m for m in kfac.factor_metas if m.key == f"{l.name}/{kind}")
            factor, lo = getattr(l, kind), kfac._arena_slots[meta.key][0]
            width = factor.dtype.itemsize
            if not np.shares_memory(factor, kfac._arenas[width]):
                return False
            if set(kfac._home[lo : lo + meta.n_elements]) != {width}:
                return False
    return True


def _cnn_fleet(p, **kw):
    models = [build_tiny_cnn(seed=42) for _ in range(p)]
    kfacs = [
        KFAC(m, rank=r, world_size=p, damping=0.01, kfac_update_freq=1, **kw)
        for r, m in enumerate(models)
    ]
    return models, kfacs


def test_single_worker_builds_no_arena():
    models, kfacs = _cnn_fleet(1)
    x, y = _cnn_batch()
    for _ in range(2):
        loss_fn = CrossEntropyLoss()
        loss_fn(models[0](x), y)
        models[0].backward(loss_fn.backward())
        kfacs[0].step()
    assert kfacs[0]._arenas == {} and kfacs[0]._home.size == 0


@pytest.mark.parametrize(
    "kw", [{}, {"diag_blocks": 4}, {"comm_dtype": "fp16", "scheduler": "graph"}]
)
def test_views_survive_steps_and_load(kw):
    models, kfacs = _cnn_fleet(2, **kw)
    x, y = _cnn_batch()
    _lockstep(models, kfacs, x, y, steps=3)
    kfac = kfacs[0]
    assert _in_arena(kfac)
    arenas = dict(kfac._arenas)  # several under REPRO_DEFAULT_DTYPE=float64
    plans, wire_plan = kfac._plans, kfac._wire_plan(kfac.units)
    step_plans = dict(plans)
    state = kfac.state_dict()
    before = {w: a.copy() for w, a in arenas.items()}
    for arena in arenas.values():
        arena[...] = 0.0
    kfac.load_state_dict(state)
    assert kfac._arenas == arenas and _in_arena(kfac)
    assert all(kfac._arenas[w] is a for w, a in arenas.items())
    for w, arena in arenas.items():
        live = kfac._home == w  # a slot no factor of this dtype uses stays 0
        assert _bits(arena[live]) == _bits(before[w][live])
    assert kfac._plans is plans and plans == step_plans
    assert kfac._wire_plan(kfac.units) is wire_plan


def test_whole_factors_take_the_wire_dtype():
    """A float64 model on an fp16 wire installs fp32 factors, as the
    per-factor wire did: each whole factor moves to the float32 arena."""
    models, kfacs = _cnn_fleet(2, comm_dtype="fp16")
    for m in models:
        m.cast_(np.float64)
    x, y = _cnn_batch()
    _lockstep(models, kfacs, x.astype(np.float64), y, steps=2)
    assert list(kfacs[0]._arenas) == [4] and _in_arena(kfacs[0])


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
    arenas = dict(kfacs[0]._arenas)
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
    assert kfacs[0]._arenas == arenas and _in_arena(kfacs[0])


# ---------------------------------------------------------------------------
# 5. mixed factor dtypes: the dtypes a wire of one tensor per factor gives
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("diag_blocks", [1, 4])
def test_mixed_dtype_factors_take_their_buckets_dtype(diag_blocks):
    """The attention path hands some factors float64 readings in a float32
    model.  A bucket fuses at the widest dtype among its factors, so a
    whole factor leaves the exchange at that dtype; a block keeps its
    factor's dtype; every factor stays a view of its dtype's arena."""
    models, kfacs, x, y = _transformer_fleet(
        2, scheduler="graph", bucket_bytes=2048, diag_blocks=diag_blocks, diag_warmup=0
    )
    kfac = kfacs[0]
    seen = []
    pack = kfac._pack_factor_wire
    kfac._pack_factor_wire = lambda units: (
        seen.append({m.key: kfac._factor(m).dtype for m in units.metas}), pack(units)
    )[1]
    _lockstep(models, kfacs, x, y, steps=1, loss_cls=MarginSoftmaxLoss)
    (before,) = seen
    assert set(before.values()) == {np.dtype(np.float32), np.dtype(np.float64)}
    (plan,) = kfac._plans.values()
    assert len(plan.buckets) > 1
    metas = kfac.units.metas
    for bucket in plan.buckets:
        fused = max(before[metas[i].key] for i in bucket)
        for i in bucket:
            want = before[metas[i].key] if metas[i].block is not None else fused
            assert kfac._factor(metas[i]).dtype == want, metas[i].key
    assert len(kfac._arenas) == 2 and _in_arena(kfac)
