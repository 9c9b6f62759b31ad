"""Property-based tests for the block-diagonal approximation tier.

Two promises of :mod:`repro.approx`, driven by Hypothesis over shapes a
hand-written suite would miss (d = 1, primes, k > d, ragged splits):

1. **Partition coverage** — ``plan_block_bounds`` covers every index of
   every factor exactly once, in order, for arbitrary ``(dims, k)``, and
   ``plan_units`` turns it into block metas that tile their factors and
   are placed like factors;
2. **Preconditioning equivalence** — ``precondition_eigen`` with blocked
   bases (``eigendecompose(factor, bounds=...)``) equals the same kernel
   applied to the assembled dense block-diagonal basis, and with one
   block it is *bit-identical* to the exact path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx.blocks import (
    block_boundaries,
    block_eig_elements,
    plan_block_bounds,
    widest_first_block_dim,
)
from repro.comm.fusion import tri_len
from repro.core.assignment import (
    FactorMeta,
    eig_cost,
    factor_block,
    plan_units,
    second_order_shapes,
    wire_elements,
)
from repro.core.inverse import FactorEig, eigendecompose, precondition_eigen
from repro.core.layers import KFACLayer


def _spd(d: int, seed: int, dtype=np.float64) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, d + 2)).astype(dtype)
    return x @ x.T / (d + 2) + np.eye(d, dtype=dtype)


# ---------------------------------------------------------------------------
# 1. partition coverage
# ---------------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 97), k=st.integers(1, 120))
def test_block_boundaries_cover_exactly_once(d, k):
    bounds = block_boundaries(d, k)
    # contiguous, ordered, non-empty blocks tiling [0, d)
    assert bounds[0][0] == 0 and bounds[-1][1] == d
    for (lo, hi), (lo2, hi2) in zip(bounds, bounds[1:]):
        assert hi == lo2
    assert all(hi > lo for lo, hi in bounds)
    # k > d clamps to one block per index, never an empty block
    assert len(bounds) == min(max(1, k), d)
    # near-equal split: widths differ by at most one, larger blocks first
    widths = [hi - lo for lo, hi in bounds]
    assert max(widths) - min(widths) <= 1
    assert widths == sorted(widths, reverse=True)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 64), min_size=1, max_size=8),
    k=st.integers(1, 16),
)
def test_plan_block_bounds_partitions_every_factor(dims, k):
    plans = plan_block_bounds(tuple(dims), k)
    assert len(plans) == len(dims)
    block_dim = widest_first_block_dim(tuple(dims), k)
    for d, bounds in zip(dims, plans):
        covered = [i for lo, hi in bounds for i in range(lo, hi)]
        assert covered == list(range(d))  # every index exactly once, ordered
        if k == 1:
            assert bounds == ((0, d),)
        else:
            # widest-first policy: a factor narrower than the block edge
            # stays exact; wider factors split into ceil(d / block_dim)
            assert len(bounds) == max(1, -(-d // block_dim))
        assert block_eig_elements(bounds) == sum(
            (hi - lo) ** 2 + (hi - lo) for lo, hi in bounds
        )


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(
        st.tuples(st.integers(1, 40), st.booleans()), min_size=1, max_size=6
    ),
    k=st.integers(1, 6),
    n_workers=st.integers(1, 5),
    policy=st.sampled_from(("round_robin", "greedy")),
    frac=st.sampled_from((None, 0.5, 1.0)),
)
def test_plan_units_tile_factors_and_place_them(dims, k, n_workers, policy, frac):
    factors = [
        FactorMeta(f"l{i}", "A", d, diagonal=diag) for i, (d, diag) in enumerate(dims)
    ]
    bounds = plan_block_bounds([d for d, _ in dims], k, [diag for _, diag in dims])
    units = plan_units(factors, n_workers, policy, frac, bounds)
    keys = [m.key for m in units.metas]
    assert len(set(keys)) == len(keys) and set(units.assignment) == set(keys)
    for factor, b in zip(factors, bounds):
        mine = [m for m in units.metas if m.factor_key == factor.key]
        if factor.diagonal:  # never split: one whole unit
            assert mine == [factor] and factor.key not in units.bounds
            continue
        # consecutive blocks tiling [0, d) in order
        assert [(m.lo, m.hi) for m in mine] == list(b) == list(units.bounds[factor.key])
        assert [m.block for m in mine] == list(range(len(b)))
        first = keys.index(mine[0].key)
        assert keys[first : first + len(mine)] == [m.key for m in mine]
    assert all(0 <= r < n_workers for r in units.assignment.values())
    if frac is None:
        assert units.groups == () and units.placement is None
    else:
        covered = sorted(i for _, idxs in units.groups for i in idxs)
        assert covered == list(range(len(keys)))
        for ranks, idxs in units.groups:
            for i in idxs:
                meta = units.metas[i]
                assert units.placement.groups[meta.layer] == ranks
                assert units.assignment[meta.key] in ranks


def test_block_meta_reads_like_a_factor():
    """Wire size, payload shapes, eig cost and the factor view all come
    from the block's own coordinates."""
    factor = np.arange(36.0).reshape(6, 6)
    whole = FactorMeta("fc", "A", 6)
    blk = FactorMeta("fc", "A", 4, block=1, lo=2)
    assert factor_block(factor, whole) is factor
    view = factor_block(factor, blk)
    assert np.shares_memory(view, factor)
    np.testing.assert_array_equal(view, factor[2:6, 2:6])
    assert wire_elements(blk, symmetric=True) == tri_len(4)
    assert wire_elements(blk, symmetric=False) == 16
    assert second_order_shapes(blk, eigen=True) == ((4, 4), (4,))
    assert eig_cost(blk) == 64.0
    assert (blk.key, blk.factor_key, whole.key) == ("fc/A#1", "fc/A", "fc/A")


# ---------------------------------------------------------------------------
# 2. preconditioning equivalence
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    g_dim=st.integers(1, 24),
    a_dim=st.integers(1, 24),
    k=st.integers(2, 6),
    seed=st.integers(0, 2**16),
)
def test_block_precondition_equals_dense_blockdiag_basis(g_dim, a_dim, k, seed):
    rng = np.random.default_rng(seed)
    grad = rng.normal(size=(g_dim, a_dim))
    eig_A = eigendecompose(_spd(a_dim, seed), bounds=block_boundaries(a_dim, k))
    eig_G = eigendecompose(_spd(g_dim, seed + 1), bounds=block_boundaries(g_dim, k))
    blocked = precondition_eigen(grad, eig_A, eig_G, gamma=0.01)
    # the dense reference: same math through the assembled block-diagonal
    # Q's (what a blocked basis ships) and concatenated spectra
    dense = precondition_eigen(
        grad, FactorEig(*eig_A.arrays()), FactorEig(*eig_G.arrays()), gamma=0.01
    )
    np.testing.assert_allclose(blocked, dense, rtol=1e-10, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    g_dim=st.integers(1, 24),
    a_dim=st.integers(1, 24),
    seed=st.integers(0, 2**16),
)
def test_single_block_precondition_bit_identical_to_exact(g_dim, a_dim, seed):
    rng = np.random.default_rng(seed)
    grad = rng.normal(size=(g_dim, a_dim))
    A, G = _spd(a_dim, seed), _spd(g_dim, seed + 1)
    exact = precondition_eigen(grad, eigendecompose(A), eigendecompose(G), gamma=0.01)
    one_a = eigendecompose(A, bounds=((0, a_dim),))
    one_g = eigendecompose(G, bounds=((0, g_dim),))
    assert one_a.blocked and one_g.blocked
    # a single block takes the per-block rotation loop over the same eigh
    # on the same memory layout: bit-identical to the dense path
    via_block = precondition_eigen(grad, one_a, one_g, gamma=0.01)
    np.testing.assert_array_equal(via_block, exact)
    # mixed sides (one blocked, one dense) agree bitwise too
    mixed = precondition_eigen(grad, one_a, eigendecompose(G), gamma=0.01)
    np.testing.assert_array_equal(mixed, exact)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 24), k=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_blocked_basis_decomposes_the_block_diagonal(d, k, seed):
    """The dense assembly a blocked basis ships is an orthogonal basis of
    the factor's block-diagonal part — off-block entries are dropped."""
    factor = _spd(d, seed)
    bounds = block_boundaries(d, k)
    q, lam = eigendecompose(factor, bounds=bounds).arrays()
    block_diag = np.zeros_like(factor)
    for lo, hi in bounds:
        block_diag[lo:hi, lo:hi] = factor[lo:hi, lo:hi]
    np.testing.assert_allclose(q.T @ q, np.eye(d), atol=1e-10)
    np.testing.assert_allclose(q @ np.diag(lam) @ q.T, block_diag, atol=1e-10)


def test_block_install_flips_only_when_complete():
    """Blocks arriving in any order stage until the last one lands; a
    factor never preconditions with a half-new basis."""
    layer = KFACLayer("fc", module=None, dtype=np.float64)  # no module to derive it from
    old = eigendecompose(np.eye(4))
    layer.eig_A = old
    bounds = ((0, 2), (2, 4))
    parts = [eigendecompose(np.diag([float(i + 1), float(i + 2)])) for i in (0, 2)]
    layer.install_block_eig("A", 1, parts[1], bounds)
    assert layer.eig_A is old
    layer.install_block_eig("A", 0, parts[0], bounds)
    assert layer.eig_A.blocked and layer.eig_A.bounds == bounds
    assert layer.eig_A.blocks[0] is parts[0].Q and layer.eig_A.blocks[1] is parts[1].Q
    np.testing.assert_array_equal(layer.eig_A.lam, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="out of range"):
        layer.install_block_eig("A", 2, parts[0], bounds)


def test_blocked_factor_eig_validates_bounds():
    eig = eigendecompose(np.eye(3))
    with pytest.raises(ValueError, match="bound width"):
        FactorEig(None, eig.lam, blocks=(eig.Q,), bounds=((0, 2),))
    with pytest.raises(ValueError, match="blocks for"):
        FactorEig(None, eig.lam, blocks=(eig.Q,), bounds=((0, 1), (1, 3)))
    with pytest.raises(ValueError, match="bounds cover"):
        eigendecompose(np.eye(3), bounds=((0, 2),))
