"""Alpha-beta collective cost model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.costmodel import (
    EDR_LIKE,
    NetworkProfile,
    allgather_time,
    allreduce_time,
    broadcast_time,
)


class TestNetworkProfile:
    def test_transfer_time(self):
        net = NetworkProfile(latency=1e-3, bandwidth=1e6)
        assert net.transfer_time(1e6) == pytest.approx(1.001)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkProfile(latency=-1, bandwidth=1)
        with pytest.raises(ValueError):
            NetworkProfile(latency=0, bandwidth=0)


class TestCollectiveCosts:
    def test_single_rank_is_free(self):
        for fn in (allreduce_time, allgather_time, broadcast_time):
            assert fn(1e9, 1, EDR_LIKE) == 0.0

    def test_zero_bytes_is_free(self):
        assert allreduce_time(0, 16, EDR_LIKE) == 0.0

    def test_allreduce_is_two_phases(self):
        n, p = 1e8, 8
        ar = allreduce_time(n, p, EDR_LIKE)
        # the reduce-scatter half costs what the allgather half does: the
        # same p-1 steps of n/p-byte chunks
        assert ar == pytest.approx(2 * allgather_time(n, p, EDR_LIKE), rel=1e-9)

    def test_bandwidth_term_saturates_with_p(self):
        """Ring allreduce bandwidth term -> 2n/beta as p grows (bandwidth
        optimality, the property §II-D relies on)."""
        n = 1e9
        t64 = allreduce_time(n, 64, EDR_LIKE)
        t256 = allreduce_time(n, 256, EDR_LIKE)
        limit = 2 * n / EDR_LIKE.bandwidth
        assert t64 < t256 < limit * 1.1
        assert t256 / t64 < 1.05

    def test_broadcast_log_rounds(self):
        n = 8 << 20
        t2 = broadcast_time(n, 2, EDR_LIKE)
        t16 = broadcast_time(n, 16, EDR_LIKE)
        assert t16 == pytest.approx(4 * t2, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(nbytes=st.floats(1, 1e9), p=st.integers(2, 512))
    def test_costs_positive_and_monotone_in_bytes(self, nbytes, p):
        t1 = allreduce_time(nbytes, p, EDR_LIKE)
        t2 = allreduce_time(nbytes * 2, p, EDR_LIKE)
        assert 0 < t1 < t2

    def test_negative_bytes_raises(self):
        with pytest.raises(ValueError):
            allreduce_time(-1, 4, EDR_LIKE)
