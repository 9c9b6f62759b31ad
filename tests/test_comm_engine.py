"""Pipelining policy and launched collectives: bucketing, handles, overlap."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import World
from repro.comm.costmodel import allgather_time, allreduce_time
from repro.comm.engine import estimate_second_order_seconds, partition_buckets


class TestPartitionBuckets:
    def test_respects_capacity(self):
        # 3 x 100B items with 200B buckets -> [0,1] then [2]
        assert partition_buckets([100, 100, 100], 200) == [[0, 1], [2]]

    def test_oversized_item_gets_own_bucket(self):
        assert partition_buckets([50, 500, 50], 100) == [[0], [1], [2]]

    def test_single_bucket_when_under_capacity(self):
        assert partition_buckets([10, 10, 10], 1 << 20) == [[0, 1, 2]]

    def test_empty(self):
        assert partition_buckets([], 100) == []

    def test_order_preserved(self):
        buckets = partition_buckets([60, 60, 60, 60], 100)
        assert [i for b in buckets for i in b] == [0, 1, 2, 3]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            partition_buckets([1], 0)


class TestEstimate:
    def test_deterministic_and_monotone(self):
        small = estimate_second_order_seconds([16])
        big = estimate_second_order_seconds([64])
        assert 0 < small < big
        assert estimate_second_order_seconds([16]) == small

    def test_inverse_cheaper_than_eigen(self):
        assert estimate_second_order_seconds([64], eigen=False) < (
            estimate_second_order_seconds([64], eigen=True)
        )

    def test_empty_is_zero(self):
        assert estimate_second_order_seconds([]) == 0.0

    def test_metas_price_like_dims_and_diagonal_is_linear(self):
        from repro.core.assignment import FactorMeta

        dense = [FactorMeta("fc", "A", 64), FactorMeta("fc", "G", 16)]
        assert estimate_second_order_seconds(dense) == estimate_second_order_seconds([64, 16])
        emb = FactorMeta("tok_embed", "A", 1024, diagonal=True)
        per_element = estimate_second_order_seconds([emb]) / 1024
        assert estimate_second_order_seconds([emb, emb]) == 2 * 1024 * per_element
        assert estimate_second_order_seconds([emb]) < estimate_second_order_seconds([16])


class TestAsyncWorld:
    def test_async_allreduce_matches_sync_values(self, rng):
        w_sync, w_async = World(3), World(3)
        bufs = [rng.normal(size=8) for _ in range(3)]
        expected = w_sync.allreduce([b.copy() for b in bufs])
        handle = w_async.allreduce_async([b.copy() for b in bufs])
        out = handle.wait()
        for a, b in zip(out, expected):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_overlap_splits_exposed_and_hidden(self, rng):
        w = World(2)
        bufs = [rng.normal(size=1024) for _ in range(2)]
        handle = w.allreduce_async(bufs, phase="p")
        t = allreduce_time(bufs[0].nbytes, 2, w.net)
        assert t > 0
        handle.wait(overlap_seconds=t / 2)
        assert w.overlap.hidden("p") == pytest.approx(t / 2)
        assert w.overlap.exposed("p") == pytest.approx(t / 2)
        assert w.overlap.total("p") == pytest.approx(t)
        # exposed time is what lands in the phase timers
        assert w.timers.total("p") == pytest.approx(t / 2)

    def test_overlap_budget_capped_at_comm_time(self, rng):
        w = World(2)
        bufs = [rng.normal(size=64) for _ in range(2)]
        w.allreduce_async(bufs, phase="p").wait(overlap_seconds=1e9)
        assert w.overlap.exposed("p") == 0.0
        assert w.overlap.hidden("p") == pytest.approx(allreduce_time(bufs[0].nbytes, 2, w.net))

    def test_double_wait_settles_once(self, rng):
        w = World(2)
        handle = w.allgather_async([rng.normal(size=4) for _ in range(2)], phase="g")
        handle.wait()
        handle.wait()
        assert w.overlap.total("g") == pytest.approx(allgather_time(64, 2, w.net))
        assert w.stats.ops_by_phase["g"] == 1

    def test_sync_ops_are_fully_exposed(self, rng):
        w = World(2)
        w.allreduce([rng.normal(size=16) for _ in range(2)], phase="p")
        assert w.overlap.hidden("p") == 0.0
        assert w.overlap.exposed("p") == pytest.approx(w.timers.total("p"))
