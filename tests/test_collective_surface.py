"""One collective surface: a blocking collective is its launch + ``wait(0)``.

Every ``World`` and ``RankView`` collective is run twice on fresh worlds,
once through the blocking call and once as ``launch(...).wait(0)``, over
the whole world, a subgroup, a singleton group and ``World(1)``.  The
results must be bit-equal and the ledgers (timers, stats, overlap and
trace spans) identical.  A latency spike exercises the fault-delay path,
which is the only cost a singleton group pays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import World
from repro.comm.faults import FaultPlan, LatencySpike
from repro.comm.handles import Handle
from repro.obs.tracer import Tracer

P = 4
#: group name -> member ranks of a P-rank world (None = the whole world)
GROUPS = {"world": None, "subgroup": (1, 3), "singleton": (2,), "all-listed": (0, 1, 2, 3)}
#: (world size, member ranks) of every RankView group case
CASES = [(1, None), (1, (0,))] + [(P, ranks) for ranks in GROUPS.values()]
CASE_IDS = ["P1-world", "P1-singleton"] + [f"P{P}-{name}" for name in GROUPS]
#: a non-member's launch: nothing to post
NOTHING = Handle(lambda overlap_seconds: None)


def fresh(size: int, spike: bool) -> World:
    world = World(size)
    world.tracer = Tracer()
    if spike:
        world.fault_plan = FaultPlan(spikes=[LatencySpike(seconds=1e-3)])
    return world


def ledger(world: World) -> tuple:
    return (
        world.timers.as_dict(),
        dict(world.stats.bytes_by_phase),
        dict(world.stats.ops_by_phase),
        world.overlap.as_dict(),
        world.tracer.spans(),
    )


def flat(value) -> list:
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in flat(v)]
    return [value]


def assert_bit_equal(a, b) -> None:
    fa, fb = flat(a), flat(b)
    assert len(fa) == len(fb)
    for x, y in zip(fa, fb):
        if x is None or y is None:
            assert x is y
            continue
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def tensors(rng, size: int, n: int = 6) -> list[np.ndarray]:
    return [rng.normal(size=n).astype(np.float32) for _ in range(size)]


def members_of(ranks, size: int) -> tuple[int, ...]:
    return tuple(range(size)) if ranks is None else ranks


@pytest.fixture(params=[False, True], ids=["clean", "spike"])
def spike(request) -> bool:
    return request.param


class TestWorld:
    @pytest.mark.parametrize("size", [1, P])
    @pytest.mark.parametrize("codec", [None, "fp16"])
    @pytest.mark.parametrize("op", ["average", "sum"])
    def test_allreduce(self, rng, spike, size, codec, op):
        bufs = tensors(rng, size)
        a, b = fresh(size, spike), fresh(size, spike)
        out_sync = a.allreduce([x.copy() for x in bufs], op=op, phase="p", codec=codec)
        out_async = b.allreduce_async(
            [x.copy() for x in bufs], op=op, phase="p", codec=codec
        ).wait(0)
        assert_bit_equal(out_sync, out_async)
        assert ledger(a) == ledger(b)

    @pytest.mark.parametrize("size", [1, P])
    def test_allgather(self, rng, spike, size):
        contribs = tensors(rng, size)
        a, b = fresh(size, spike), fresh(size, spike)
        out_sync = a.allgather(contribs, phase="p")
        out_async = b.allgather_async(contribs, phase="p").wait(0)
        assert_bit_equal(out_sync, out_async)
        assert ledger(a) == ledger(b)

    @pytest.mark.parametrize("root", [0, 3])
    def test_broadcast_is_the_group_broadcast_over_the_world(self, rng, spike, root):
        value = tensors(rng, 1)[0]
        a, b = fresh(P, spike), fresh(P, spike)
        out_sync = a.broadcast(value, root=root, phase="p")
        out_async = b.group_broadcast_async(value, root, range(P), phase="p").wait(0)
        assert_bit_equal(out_sync, out_async)
        assert ledger(a) == ledger(b)

    def test_single_rank_broadcast_records_one_op(self):
        """``World(1).broadcast`` is a world op, not a singleton group:
        it records its op and bytes and charges a zero-second span."""
        w = fresh(1, spike=False)
        value = np.arange(3.0)
        out = w.broadcast(value, phase="b")
        assert_bit_equal(out, [value])
        assert dict(w.stats.ops_by_phase) == {"b": 1}
        assert dict(w.stats.bytes_by_phase) == {"b": 24.0}
        assert w.timers.as_dict() == {"b": 0.0}
        assert w.overlap.as_dict() == {"b": {"exposed": 0.0, "hidden": 0.0}}
        (span,) = w.tracer.spans()
        assert (span.name, span.rank, span.duration) == ("b", 0, 0.0)
        assert span.attrs == {"exposed": 0.0, "hidden": 0.0, "bytes": 24.0, "owner": True}

    def test_singleton_group_charges_nothing_without_faults(self, rng):
        w = fresh(P, spike=False)
        value = tensors(rng, 1)[0]
        (out,) = w.group_broadcast_async(value, 2, (2,), phase="b").wait(0)
        (gathered,) = w.group_allgather_async([value], (2,), phase="g").wait(0)
        assert out is value and gathered == [value]
        assert ledger(w) == ({}, {}, {}, {}, [])

    @pytest.mark.parametrize("group", ["subgroup", "singleton", "all-listed"])
    def test_group_launches_match_the_rank_views(self, rng, spike, group):
        """A lockstep group launch + wait(0) is the SPMD blocking group op."""
        ranks = GROUPS[group]
        contribs = tensors(rng, len(ranks))
        root = ranks[-1]
        lockstep, spmd = fresh(P, spike), fresh(P, spike)
        gathered = lockstep.group_allgather_async(contribs, ranks, phase="g").wait(0)
        sent = lockstep.group_broadcast_async(
            contribs[-1], root, ranks, phase="b"
        ).wait(0)

        def program(view):
            if view.rank not in ranks:
                return None
            mine = contribs[ranks.index(view.rank)]
            got = view.allgather(mine, "g", phase="g", ranks=ranks)
            return got, view.broadcast(mine, "b", root=root, phase="b", ranks=ranks)

        results = [r for r in spmd.run_spmd(program, timeout=10) if r is not None]
        assert_bit_equal([g for g, _ in results], gathered)
        assert_bit_equal([s for _, s in results], sent)
        assert ledger(lockstep) == ledger(spmd)


class TestRankView:
    @staticmethod
    def run_both(size: int, spike: bool, call, launch):
        """Run ``call(view)`` and ``launch(view).wait(0)`` on fresh worlds."""
        a, b = fresh(size, spike), fresh(size, spike)
        out_sync = a.run_spmd(call, timeout=10)
        out_async = b.run_spmd(lambda view: launch(view).wait(0), timeout=10)
        assert_bit_equal(out_sync, out_async)
        assert ledger(a) == ledger(b)
        return out_sync

    @pytest.mark.parametrize("size", [1, P])
    @pytest.mark.parametrize("codec", [None, "fp16"])
    def test_allreduce(self, rng, spike, size, codec):
        data = tensors(rng, size)
        out = self.run_both(
            size, spike,
            lambda v: v.allreduce(data[v.rank], "x", phase="p", codec=codec),
            lambda v: v.allreduce_async(data[v.rank], "x", phase="p", codec=codec),
        )
        assert len(out) == size

    @pytest.mark.parametrize("size,ranks", CASES, ids=CASE_IDS)
    def test_allgather(self, rng, spike, size, ranks):
        members = members_of(ranks, size)
        data = tensors(rng, size)

        def call(v):
            if v.rank in members:
                return v.allgather(data[v.rank], "g", phase="p", ranks=ranks)
            return None

        def launch(v):
            if v.rank in members:
                return v.allgather_async(data[v.rank], "g", phase="p", ranks=ranks)
            return NOTHING

        out = self.run_both(size, spike, call, launch)
        for r in members:
            assert_bit_equal(out[r], [data[m] for m in members])

    @pytest.mark.parametrize("size,ranks", CASES, ids=CASE_IDS)
    def test_broadcast(self, rng, spike, size, ranks):
        members = members_of(ranks, size)
        root = members[-1]
        data = tensors(rng, size)

        def call(v):
            if v.rank in members:
                return v.broadcast(data[v.rank], "b", root=root, phase="p", ranks=ranks)
            return None

        def launch(v):
            if v.rank in members:
                return v.broadcast_async(data[v.rank], "b", root=root, phase="p", ranks=ranks)
            return NOTHING

        out = self.run_both(size, spike, call, launch)
        for r in members:
            assert_bit_equal(out[r], data[root])

    def test_world_broadcast_matches_lockstep(self, rng, spike):
        value = tensors(rng, 1)[0]
        lockstep, spmd = fresh(P, spike), fresh(P, spike)
        expected = lockstep.broadcast(value, root=1, phase="p")
        out = spmd.run_spmd(
            lambda v: v.broadcast(value if v.rank == 1 else np.zeros_like(value), "b", root=1, phase="p"),
            timeout=10,
        )
        assert_bit_equal(out, expected)
        assert ledger(lockstep) == ledger(spmd)
