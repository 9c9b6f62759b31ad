"""Property-based tests for symmetric factor packing across dtypes.

``tri_pack``/``tri_unpack`` (and the factor wire's index plan,
``WirePlan``) promise *losslessness* — for an exactly-symmetric
matrix the packed round trip is bit-identical — and *dtype preservation*
in every precision the stack ships: fp16 working copies, bf16-on-fp32
grids, fp32 and fp64.  Hypothesis drives odd shapes (d = 1, primes,
non-multiples of the mirror tile) that hand-written cases miss.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.fusion import WirePlan, tri_len, tri_pack, tri_unpack
from repro.tensor.amp import quantize_bf16

DTYPES = ("float16", "bfloat16-as-fp32", "float32", "float64")


def _symmetric(d: int, dtype: str, seed: int) -> np.ndarray:
    """An exactly-symmetric d x d matrix in the requested precision."""
    rng = np.random.default_rng(seed)
    m = rng.normal(scale=3.0, size=(d, d))
    sym = np.triu(m) + np.triu(m, 1).T  # upper mirrored: exact symmetry
    if dtype == "bfloat16-as-fp32":
        out = quantize_bf16(sym.astype(np.float32))
    else:
        out = sym.astype(dtype)
    # symmetrize again post-cast: rounding is elementwise so mirroring the
    # rounded upper triangle keeps exactness in every dtype
    return np.triu(out) + np.triu(out, 1).T


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=37),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**16),
)
def test_tri_roundtrip_lossless_and_dtype_preserving(d, dtype, seed):
    m = _symmetric(d, dtype, seed)
    flat = tri_pack(m)
    assert flat.shape == (tri_len(d),)
    assert flat.dtype == m.dtype
    back = tri_unpack(flat, d)
    assert back.dtype == m.dtype
    np.testing.assert_array_equal(back, m)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.lists(st.integers(min_value=1, max_value=23), min_size=1, max_size=6),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**16),
)
def test_pack_symmetric_list_roundtrip(dims, dtype, seed):
    factors = [_symmetric(d, dtype, seed + i) for i, d in enumerate(dims)]
    arena = np.concatenate([f.reshape(-1) for f in factors])
    starts = np.concatenate([[0], np.cumsum([d * d for d in dims])])
    plan = WirePlan([(int(o), d, 0, d, False) for o, d in zip(starts, dims)], symmetric=True)
    wire = plan.pack(arena)
    assert wire.dtype == arena.dtype
    assert np.diff(plan.offsets).tolist() == [tri_len(d) for d in dims]
    restored = np.zeros_like(arena)
    plan.unpack(wire, restored, 0, len(dims))
    np.testing.assert_array_equal(restored, arena)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(min_value=2, max_value=29), seed=st.integers(0, 2**16))
def test_tri_pack_reads_only_upper_triangle(d, seed):
    """Asymmetry below the diagonal is silently discarded (documented)."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)).astype(np.float32)  # deliberately asymmetric
    back = tri_unpack(tri_pack(m), d)
    np.testing.assert_array_equal(np.triu(back), np.triu(m))
    np.testing.assert_array_equal(back, back.T)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=19),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 2**16),
)
def test_averaging_triangles_commutes_with_mirroring(d, dtype, seed):
    """The losslessness argument of the packed allreduce: reducing packed
    triangles then mirroring equals reducing the full matrices."""
    a = _symmetric(d, dtype, seed)
    b = _symmetric(d, dtype, seed + 1)
    via_packed = tri_unpack((tri_pack(a) + tri_pack(b)) / 2.0, d)
    full = ((a + b) / 2.0).astype(a.dtype)
    np.testing.assert_array_equal(via_packed.astype(a.dtype), full)


def test_mismatched_lengths_raise():
    plan = WirePlan([(0, 2, 0, 2, False), (4, 3, 0, 3, False)], symmetric=True)
    with pytest.raises(ValueError, match="wire elements"):
        plan.unpack(np.zeros(3, dtype=np.float32), np.zeros(13, np.float32), 0, 2)
