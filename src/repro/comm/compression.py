"""Wire compression for collectives: half-precision transport codecs.

Large-scale K-FAC (Osawa et al. 2019) communicates gradients and factors
in half precision while *reducing* in FP32; this module provides that
contract for the simulated world:

- a :class:`WireCodec` turns an fp32(+) tensor into its wire form —
  ``float16`` arrays for fp16, bit-packed ``uint16`` for bf16 (NumPy has
  no bf16 dtype) — so payload byte accounting falls out of ``.nbytes``;
- :meth:`WireCodec.decode` recovers FP32 values, which is what the ring
  reduction actually sums (**fp32 reduction accumulators**: the wire
  carries half precision, the arithmetic never does).  The reduced result
  is re-quantized, because a real allreduce also returns wire-precision
  values;
- :class:`ErrorFeedback` keeps per-bucket residuals (1-bit/deep-compression
  style): what quantization rounds away this step is added back before the
  next quantization, so repeated small updates are never silently lost.

Codecs are addressed by name (``"fp16"`` / ``"bf16"``) so they can cross
the SPMD matched-op metadata, which must compare equal across ranks.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.amp import bf16_pack, bf16_unpack, quantize_bf16

__all__ = [
    "WireCodec",
    "FP16Codec",
    "BF16Codec",
    "get_codec",
    "wire_nbytes",
    "ErrorFeedback",
]


class WireCodec:
    """Encode/decode one tensor for transport; ``itemsize`` prices the wire."""

    name: str = "none"
    itemsize: int = 4

    def encode(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decode(self, wire: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """The fp32 values a round trip through the wire preserves."""
        return self.decode(self.encode(x))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class FP16Codec(WireCodec):
    """IEEE half-precision transport (overflow saturates to inf)."""

    name = "fp16"
    itemsize = 2

    def encode(self, x: np.ndarray) -> np.ndarray:
        if x.dtype == np.float16:
            return x
        with np.errstate(over="ignore"):
            return x.astype(np.float16)

    def decode(self, wire: np.ndarray) -> np.ndarray:
        return wire.astype(np.float32)


class BF16Codec(WireCodec):
    """bfloat16 transport, bit-packed into uint16 (fp32 dynamic range).

    Delegates to the grid definition in :mod:`repro.tensor.amp`, so the
    wire encoding is definitionally the compute grid.
    """

    name = "bf16"
    itemsize = 2

    def encode(self, x: np.ndarray) -> np.ndarray:
        return bf16_pack(x)

    def decode(self, wire: np.ndarray) -> np.ndarray:
        return bf16_unpack(wire)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        return quantize_bf16(x)


_CODECS: dict[str, WireCodec] = {c.name: c for c in (FP16Codec(), BF16Codec())}


def get_codec(name: "str | WireCodec | None") -> WireCodec | None:
    """Resolve a codec by name; ``None``/``"none"``/``"fp32"`` disable it."""
    if name is None or isinstance(name, WireCodec):
        return name
    if name in ("none", "fp32"):
        return None
    codec = _CODECS.get(name)
    if codec is None:
        raise ValueError(
            f"unknown wire codec {name!r}; choose from {sorted(_CODECS)} "
            "(or 'fp32'/'none' for uncompressed transport)"
        )
    return codec


def wire_nbytes(x: np.ndarray, codec: WireCodec | None) -> int:
    """Bytes ``x`` occupies on the wire under ``codec`` (its own bytes if none)."""
    if codec is None:
        return int(x.nbytes)
    return int(x.size) * codec.itemsize


class ErrorFeedback:
    """Per-key quantization residuals re-injected before the next send."""

    def __init__(self, codec: WireCodec) -> None:
        self.codec = codec
        self._residuals: dict[object, np.ndarray] = {}

    def apply(self, key: object, value: np.ndarray) -> np.ndarray:
        """Quantize ``value`` plus the key's residual; bank the new error.

        Returns a fresh array of wire-precision fp32 values — the caller's
        ``value`` is never mutated.
        """
        residual = self._residuals.get(key)
        adjusted = value if residual is None else value + residual
        with np.errstate(invalid="ignore"):
            quantized = self.codec.quantize(adjusted)
            error = adjusted - quantized
        if not np.isfinite(error).all():
            # overflow steps (scaled AMP gradients) must not bank inf/nan
            # residuals: the step will be skipped, the error forgotten
            error = np.nan_to_num(error, nan=0.0, posinf=0.0, neginf=0.0)
        self._residuals[key] = error
        return quantized

    def residual(self, key: object) -> np.ndarray | None:
        return self._residuals.get(key)

    def seed(self, key: object, residual: np.ndarray) -> None:
        """Bank ``residual`` for ``key``, as :meth:`apply` would."""
        self._residuals[key] = residual

    def rescale(self, factor: float) -> None:
        """Multiply every banked residual by ``factor``.

        Required when the values being fed through :meth:`apply` change
        units — e.g. loss-scaled gradients after a ``GradScaler``
        backoff/growth: a residual banked at scale ``S`` re-injected into
        gradients at scale ``S'`` would be mis-weighted by ``S/S'`` unless
        rescaled by ``S'/S`` first.
        """
        for residual in self._residuals.values():
            residual *= factor

    def reset(self) -> None:
        self._residuals.clear()
