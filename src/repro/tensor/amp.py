"""Automatic mixed precision: compute-dtype state and cast helpers.

Models the Tensor-Core contract the paper's hardware (V100) offers —
*multiply in half precision, accumulate in FP32* — on top of NumPy:

- ``float16`` compute: operands are **rounded to fp16** (the values a real
  fp16 GEMM would see) and the product is taken in FP32, which is exactly
  the fp16-multiply / fp32-accumulate semantics of a Tensor-Core HMMA op
  (and, conveniently, runs through BLAS sgemm instead of NumPy's slow
  half-precision loops);
- ``bfloat16`` compute: NumPy has no bf16 dtype, so operands are rounded
  to the bf16 grid (round-to-nearest-even on the top 16 bits of the fp32
  encoding) while staying fp32 in storage — same multiply-rounding /
  fp32-accumulation model;
- ``float64`` compute: full double-precision operands and accumulation;
- ``None`` (default): exact pass-through — ``amp_matmul`` *is* ``@``.

The active compute dtype is thread-local state set by
:func:`repro.precision.PrecisionPolicy.autocast` (or :func:`autocast`
directly); layers consult it through :func:`amp_matmul` /
:func:`cast_compute_storage` so that forward/backward GEMMs and the
im2col lowering run in the compute dtype while parameters, activations
between layers, gradients, and factors stay in the storage dtype.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = [
    "COMPUTE_DTYPES",
    "amp_matmul",
    "amp_operand",
    "autocast",
    "bf16_pack",
    "bf16_unpack",
    "cast_compute_storage",
    "get_compute_dtype",
    "quantize_bf16",
    "set_compute_dtype",
]

#: valid compute-dtype names (``None`` = pass-through full precision)
COMPUTE_DTYPES = ("float16", "bfloat16", "float32", "float64")

#: the active compute dtype, *thread-local*: SPMD rank threads each enter
#: their own ``autocast`` per step, and sharing one global would let rank
#: A's context exit silently flip rank B back to fp32 mid-backward (and
#: leak autocast past the last exit).  Each thread that computes under a
#: policy must install it itself (the trainer and each quickstart rank do).
_STATE = threading.local()


def get_compute_dtype() -> str | None:
    """The active compute dtype name, or ``None`` outside any autocast.

    Example
    -------
    >>> from repro.tensor.amp import autocast, get_compute_dtype
    >>> get_compute_dtype() is None
    True
    >>> with autocast("float16"):
    ...     get_compute_dtype()
    'float16'
    """
    return getattr(_STATE, "dtype", None)


def set_compute_dtype(dtype: str | None) -> None:
    """Install a compute dtype for this thread (``None`` disables it).

    Example
    -------
    >>> from repro.tensor.amp import get_compute_dtype, set_compute_dtype
    >>> set_compute_dtype("bfloat16"); get_compute_dtype()
    'bfloat16'
    >>> set_compute_dtype(None)   # restore full precision
    """
    if dtype is not None and dtype not in COMPUTE_DTYPES:
        raise ValueError(f"unknown compute dtype {dtype!r}; choose from {COMPUTE_DTYPES}")
    _STATE.dtype = dtype


@contextmanager
def autocast(dtype: str | None) -> Iterator[None]:
    """Run the enclosed block with the given compute dtype installed.

    Example
    -------
    >>> import numpy as np
    >>> from repro.tensor.amp import amp_matmul, autocast
    >>> a = np.ones((2, 3), dtype=np.float32)
    >>> with autocast("float16"):
    ...     amp_matmul(a, a.T).dtype     # fp16 multiply, fp32 accumulate
    dtype('float32')
    """
    previous = get_compute_dtype()
    set_compute_dtype(dtype)
    try:
        yield
    finally:
        set_compute_dtype(previous)


def bf16_pack(x: np.ndarray) -> np.ndarray:
    """Pack fp32 values into their 16-bit bfloat16 encodings (``uint16``).

    Round-to-nearest-even on the truncated 16 mantissa bits — the rounding
    real bf16 hardware applies.  Non-float32 inputs are converted first;
    infinities survive, and NaNs stay non-finite (a payload NaN may round
    to infinity, which is all the overflow detection needs).  This is the
    single definition of the bf16 grid: the wire codec in
    :mod:`repro.comm.compression` and :func:`quantize_bf16` both build on
    it, so the transport encoding and the compute grid can never diverge.
    """
    bits = np.ascontiguousarray(x, dtype=np.float32).view(np.uint32)
    rounded = bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))
    return (rounded >> np.uint32(16)).astype(np.uint16)


def bf16_unpack(packed: np.ndarray) -> np.ndarray:
    """Expand 16-bit bfloat16 encodings back to fp32 values (lossless)."""
    return (packed.astype(np.uint32) << np.uint32(16)).view(np.float32)


def quantize_bf16(x: np.ndarray) -> np.ndarray:
    """Round fp32 values to the bfloat16 grid (storage stays float32).

    Example
    -------
    >>> import numpy as np
    >>> from repro.tensor.amp import quantize_bf16
    >>> q = quantize_bf16(np.array([1.0 + 2.0**-10], dtype=np.float32))
    >>> float(q[0]), q.dtype.name     # below bf16 resolution: back to 1.0
    (1.0, 'float32')
    """
    return bf16_unpack(bf16_pack(x))


def _round_fp16(x: np.ndarray) -> np.ndarray:
    """Round to fp16 values (as a float16 array); overflow becomes inf."""
    if x.dtype == np.float16:
        return x
    with np.errstate(over="ignore"):
        return x.astype(np.float16)


def cast_compute_storage(x: np.ndarray) -> np.ndarray:
    """Cast a tensor that *lives* in the compute dtype (e.g. im2col input).

    Under fp16 the result is a genuine float16 array (half the memory
    traffic, like the half-precision patch buffers of Osawa et al.);
    under bf16 it is fp32 storage rounded to the bf16 grid; otherwise the
    input passes through (or is cast for an explicit fp32/fp64 policy).

    Example
    -------
    >>> import numpy as np
    >>> from repro.tensor.amp import autocast, cast_compute_storage
    >>> x = np.ones(4, dtype=np.float32)
    >>> with autocast("float16"):
    ...     cast_compute_storage(x).dtype
    dtype('float16')
    >>> cast_compute_storage(x) is x     # no autocast: pass-through
    True
    """
    dt = get_compute_dtype()
    if dt is None or x.dtype.name == dt:
        return x
    if dt == "float16":
        return _round_fp16(x)
    if dt == "bfloat16":
        return quantize_bf16(x) if x.dtype == np.float32 else quantize_bf16(
            x.astype(np.float32)
        )
    return x.astype(dt)


def amp_operand(x: np.ndarray) -> np.ndarray:
    """``x`` as :func:`amp_matmul` multiplies it: on the compute grid, in
    the accumulation dtype (fp32, or fp64 for fp64 data or policy)."""
    dt = get_compute_dtype()
    if dt == "float16":
        return _round_fp16(x).astype(np.float32)
    if dt == "bfloat16":
        return quantize_bf16(x)
    if dt == "float64":
        return x.astype(np.float64, copy=False)
    return x.astype(np.float32) if x.dtype == np.float16 else x


def amp_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in the active compute dtype with fp32+ accumulation:
    :func:`amp_operand` of both operands, multiplied.

    Outside autocast (or under an explicit fp32 policy with fp32 inputs)
    this is exactly ``a @ b`` — bit-identical, zero overhead.  Under fp16
    and bf16 the *operands* are rounded to the half-precision grid and the
    product accumulates in fp32 (Tensor-Core semantics); the result is
    fp32.  Under fp64 both operands are promoted and the result is fp64.
    fp16-stored operands (cached patches) outside fp16 autocast still
    accumulate in fp32, never in numpy's half loops.

    Example
    -------
    >>> import numpy as np
    >>> from repro.tensor.amp import amp_matmul, autocast
    >>> a = np.full((1, 3), 1/3, dtype=np.float32)
    >>> np.array_equal(amp_matmul(a, a.T), a @ a.T)   # no autocast: exact
    True
    >>> with autocast("float16"):
    ...     out = amp_matmul(a, a.T)                  # rounded operands...
    >>> out.dtype                                     # ...fp32 accumulator
    dtype('float32')
    """
    if get_compute_dtype() in (None, "float32"):
        return amp_operand(a) @ amp_operand(b)
    # overflow steps under loss scaling legitimately push inf/nan through
    # these products; detection happens downstream (GradScaler), not here
    with np.errstate(invalid="ignore", over="ignore"):
        return amp_operand(a) @ amp_operand(b)
