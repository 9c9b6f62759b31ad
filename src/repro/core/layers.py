"""Per-layer K-FAC handlers.

A handler owns everything K-FAC knows about one supported module:

- captured activations / output-gradients (fed by module hooks);
- running-average factors ``A`` and ``G`` (views of the owning ``KFAC``'s
  factor arena, which folds each step's readings into them);
- the current second-order state (eigendecompositions, or explicit damped
  inverses when running the Table I "inverse" variant);
- gradient packing: weight grad and bias grad are fused into one
  ``(d_out, d_in + 1)`` matrix so a single pair of factors preconditions
  both, exactly as the reference implementation does.

Supported families: ``Linear``, ``Conv2d``, ``Embedding`` (diagonal
``A`` factor, held as a vector), and ``LayerNorm`` (elementwise affine on the
normalized activations).  Anything else is "ignored by the K-FAC
preconditioner and updated normally" (§V) — and reported through
``KFAC.unsupported_layers`` so the skip is never silent.
"""

from __future__ import annotations

import numpy as np

from repro.core.factors import (
    conv2d_factor_A,
    conv2d_factor_G,
    embedding_factor_A,
    linear_factor_A,
    linear_factor_G,
)
from repro.core.inverse import (
    FactorEig,
    eigendecompose,
    explicit_damped_inverse,
    precondition_eigen,
    precondition_inverse,
)
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.nn.transformer import Embedding, LayerNorm
from repro.tensor.workspace import Workspace, default_workspace

__all__ = [
    "factor_dtype",
    "KFACLayer",
    "LinearKFACLayer",
    "Conv2dKFACLayer",
    "EmbeddingKFACLayer",
    "LayerNormKFACLayer",
    "make_kfac_layer",
]


def factor_dtype(model: Module) -> np.dtype:
    """The dtype K-FAC keeps ``model``'s factors in: float32, or its widest
    parameter dtype when wider (float64 storage).  fp16 working copies and
    bf16 compute still accumulate factors in float32.

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.layers import factor_dtype
    >>> from repro.nn import Linear
    >>> factor_dtype(Linear(2, 2).cast_(np.float16))
    dtype('float32')
    """
    return np.result_type(np.float32, *(p.data.dtype for p in model.parameters()))


class KFACLayer:
    """Base K-FAC handler for one module.

    Every captured ``a`` / ``g`` reading is cast to ``dtype`` (the owning
    ``KFAC``'s :func:`factor_dtype`) before its Gram product, so factors,
    eigenbases and the factor wire have that one dtype; ``capture_casts``
    counts the readings that needed it.
    """

    #: ``A`` is exactly diagonal and held as its ``(a_dim,)`` diagonal
    #: (``FactorMeta.diagonal`` carries this to every consumer)
    diagonal_A = False

    def __init__(
        self,
        name: str,
        module: Module,
        workspace: Workspace | None = None,
        dtype: np.dtype | None = None,
    ) -> None:
        self.name = name
        self.module = module
        self.workspace = workspace if workspace is not None else default_workspace()
        self.dtype = np.dtype(dtype) if dtype is not None else factor_dtype(module)
        self.capture_casts = 0
        self.a_input: np.ndarray | None = None
        self.g_output: np.ndarray | None = None
        self.A: np.ndarray | None = None  # running-average activation factor
        self.G: np.ndarray | None = None  # running-average grad factor
        self.eig_A: FactorEig | None = None
        self.eig_G: FactorEig | None = None
        self.inv_A: np.ndarray | None = None
        self.inv_G: np.ndarray | None = None
        # per-block eigenbases staged by the distributed install path until
        # every block of a factor has arrived: kind -> {block index -> eig}
        self._pending_block_eig: dict[str, dict[int, FactorEig]] = {}

    # -- shapes ----------------------------------------------------------
    @property
    def has_bias(self) -> bool:
        return getattr(self.module, "bias", None) is not None

    @property
    def a_dim(self) -> int:
        """Width of the packed ``(g_dim, a_dim)`` gradient matrix."""
        raise NotImplementedError

    @property
    def a_side(self) -> int:
        """Side of the ``A`` factor: ``a_dim``, unless the handler applies
        ``A`` to slices of the gradient (``Conv2dKFACLayer``)."""
        return self.a_dim

    @property
    def slices(self) -> int:
        """``(g_dim, a_side)`` slices one gradient preconditions as."""
        return 1

    @property
    def g_dim(self) -> int:
        raise NotImplementedError

    # -- hook sinks -----------------------------------------------------
    def save_input(self, x: np.ndarray) -> None:
        self.a_input = x

    def save_grad_output(self, g: np.ndarray) -> None:
        self.g_output = g

    # -- factor math ------------------------------------------------------
    def _reading(self, x: np.ndarray) -> np.ndarray:
        """A captured activation / output-gradient at the factor dtype."""
        if x.dtype == self.dtype:
            return x
        self.capture_casts += 1
        return x.astype(self.dtype)

    def compute_A(self, out: np.ndarray | None = None) -> np.ndarray:
        """This step's ``A`` reading: its upper triangle into ``out`` (a
        diagonal ``A``: its vector), else a new symmetric factor."""
        raise NotImplementedError

    def compute_G(self, out: np.ndarray | None = None) -> np.ndarray:
        """This step's ``G`` reading, as :meth:`compute_A` writes ``A``."""
        raise NotImplementedError

    def update_factors(self, out_A: np.ndarray, out_G: np.ndarray) -> None:
        """Write this step's factor readings into ``out_A`` / ``out_G``.

        Each slot receives the upper triangle of its scaled reading Gram;
        the caller mirrors the lower triangles and folds the readings into
        the running averages (``KFAC`` does both once, over the fresh arena
        every layer wrote its slots of).  The captures are released.
        """
        if self.a_input is None or self.g_output is None:
            raise RuntimeError(
                f"layer {self.name}: factor update requested but no "
                "activations/gradients were captured this step"
            )
        self.compute_A(out_A)
        self.compute_G(out_G)
        # release captures; they are only valid for this iteration
        self.a_input = None
        self.g_output = None

    # -- second-order state -------------------------------------------------
    def compute_eigen(
        self,
        bounds_A: tuple[tuple[int, int], ...] | None = None,
        bounds_G: tuple[tuple[int, int], ...] | None = None,
    ) -> tuple[FactorEig, FactorEig]:
        """Eigendecompose both running-average factors (Eq. 13 inputs);
        a factor given a block partition gets a blocked basis."""
        if self.A is None or self.G is None:
            raise RuntimeError(f"layer {self.name}: factors not yet computed")
        return eigendecompose(self.A, bounds=bounds_A), eigendecompose(self.G, bounds=bounds_G)

    def compute_inverses(self, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        """Explicit damped inverses of both factors (Eq. 11)."""
        if self.A is None or self.G is None:
            raise RuntimeError(f"layer {self.name}: factors not yet computed")
        return explicit_damped_inverse(self.A, gamma), explicit_damped_inverse(self.G, gamma)

    def second_order_entry(self) -> dict[str, np.ndarray]:
        """Checkpoint keys (copies) of whatever second-order state exists;
        a diagonal factor's identity basis has no ``eig_*_Q``, a blocked
        basis stores its dense block-diagonal assembly."""
        entry: dict[str, np.ndarray] = {}
        if self.eig_A is not None and self.eig_G is not None:
            for kind, eig in (("A", self.eig_A), ("G", self.eig_G)):
                *q, lam = eig.arrays()
                if q:
                    entry[f"eig_{kind}_Q"] = q[0].copy()
                entry[f"eig_{kind}_lam"] = lam.copy()
        if self.inv_A is not None and self.inv_G is not None:
            entry["inv_A"] = self.inv_A.copy()
            entry["inv_G"] = self.inv_G.copy()
        return entry

    # -- gradient packing ---------------------------------------------------
    def get_grad_matrix(self) -> np.ndarray:
        """Weight grad as ``(g_dim, a_dim)``, bias grad in the last column.

        Always a copy — never a view of ``.grad`` — so callers can hold the
        raw gradient across a later :meth:`set_grad_matrix`.
        """
        w = self.module.weight.grad  # type: ignore[attr-defined]
        mat = w.reshape(self.g_dim, -1)
        if self.has_bias:
            b = self.module.bias.grad  # type: ignore[attr-defined]
            return np.concatenate([mat, b[:, None]], axis=1)
        return mat.copy()

    def set_grad_matrix(self, mat: np.ndarray) -> None:
        """Scatter a packed gradient matrix back into parameter ``.grad``s."""
        if mat.shape != (self.g_dim, self.a_dim):
            raise ValueError(
                f"layer {self.name}: grad matrix {mat.shape} != "
                f"({self.g_dim}, {self.a_dim})"
            )
        w = self.module.weight  # type: ignore[attr-defined]
        if self.has_bias:
            w.grad[...] = mat[:, :-1].reshape(w.grad.shape)
            self.module.bias.grad[...] = mat[:, -1]  # type: ignore[attr-defined]
        else:
            w.grad[...] = mat.reshape(w.grad.shape)

    def install_block_eig(
        self,
        kind: str,
        block: int,
        eig: FactorEig,
        bounds: tuple[tuple[int, int], ...],
    ) -> None:
        """Stage one block's eigendecomposition; assemble when all arrived.

        Blocks of one factor may arrive in any order (they are assigned to
        different workers and shipped in different buckets); the factor's
        ``eig_A``/``eig_G`` flips to the new blocked :class:`FactorEig`
        atomically once the last block lands, so preconditioning never
        sees a half-refreshed basis.
        """
        if not 0 <= block < len(bounds):
            raise ValueError(
                f"layer {self.name}: block {block} out of range for "
                f"{len(bounds)} bounds"
            )
        parts = self._pending_block_eig.setdefault(kind, {})
        parts[block] = eig
        if len(parts) == len(bounds):
            assembled = FactorEig.from_blocks([parts[j] for j in range(len(bounds))], bounds)
            if kind == "A":
                self.eig_A = assembled
            else:
                self.eig_G = assembled
            del self._pending_block_eig[kind]

    def precondition(self, grad_mat: np.ndarray, gamma: float, use_eigen: bool) -> np.ndarray:
        """Apply the current second-order state to a packed gradient."""
        if use_eigen:
            if self.eig_A is None or self.eig_G is None:
                raise RuntimeError(f"layer {self.name}: eigendecompositions not ready")
            return precondition_eigen(grad_mat, self.eig_A, self.eig_G, gamma)
        if self.inv_A is None or self.inv_G is None:
            raise RuntimeError(f"layer {self.name}: inverses not ready")
        return precondition_inverse(grad_mat, self.inv_A, self.inv_G)

    @property
    def ready(self) -> bool:
        """True once second-order state exists (first K-FAC update done)."""
        return (self.eig_A is not None and self.eig_G is not None) or (
            self.inv_A is not None and self.inv_G is not None
        )


class LinearKFACLayer(KFACLayer):
    """Handler for :class:`repro.nn.layers.Linear`."""

    @property
    def a_dim(self) -> int:
        return self.module.in_features + (1 if self.has_bias else 0)

    @property
    def g_dim(self) -> int:
        return self.module.out_features

    def compute_A(self, out: np.ndarray | None = None) -> np.ndarray:
        assert self.a_input is not None
        return linear_factor_A(self._reading(self.a_input), self.has_bias, self.workspace, out)

    def compute_G(self, out: np.ndarray | None = None) -> np.ndarray:
        assert self.g_output is not None
        return linear_factor_G(self._reading(self.g_output), True, out)


class Conv2dKFACLayer(KFACLayer):
    """Handler for :class:`repro.nn.layers.Conv2d` (KFC factors, SUA).

    ``A`` is the ``C_in x C_in`` channel covariance of the layer input
    (:func:`repro.core.factors.conv2d_factor_A`), and the layer's Fisher
    block is ``G (x) A (x) I_k`` over its ``k = kh * kw`` kernel offsets.
    The ``(C_out, C_in * k)`` gradient is therefore preconditioned as
    ``k`` stacked ``(C_out, C_in)`` slices, one per offset, against the
    one ``(G, A)`` pair.  A bias is a constant-1 input channel: its
    gradient is replicated into every slice and read back at the centre
    offset.
    """

    @property
    def a_dim(self) -> int:
        return self.module.in_channels * self.slices + (1 if self.has_bias else 0)

    @property
    def a_side(self) -> int:
        return self.module.in_channels + (1 if self.has_bias else 0)

    @property
    def slices(self) -> int:
        kh, kw = self.module.kernel_size
        return kh * kw

    @property
    def g_dim(self) -> int:
        return self.module.out_channels

    def compute_A(self, out: np.ndarray | None = None) -> np.ndarray:
        assert self.a_input is not None
        a = self._reading(self.a_input)
        return conv2d_factor_A(a, self.has_bias, self.workspace, out)

    def compute_G(self, out: np.ndarray | None = None) -> np.ndarray:
        assert self.g_output is not None
        g = self._reading(self.g_output)
        return conv2d_factor_G(g, True, self.workspace, out)

    def precondition(self, grad_mat: np.ndarray, gamma: float, use_eigen: bool) -> np.ndarray:
        """Precondition the ``k`` offset slices of ``grad_mat`` as one stack."""
        g, c, k = self.g_dim, self.module.in_channels, self.slices
        stack = np.empty((k, g, self.a_side), dtype=grad_mat.dtype)
        stack[..., :c] = grad_mat[:, : c * k].reshape(g, c, k).transpose(2, 0, 1)
        if self.has_bias:
            stack[..., c] = grad_mat[:, -1]
        out = super().precondition(stack, gamma, use_eigen)
        mat = np.empty_like(grad_mat)
        mat[:, : c * k] = out[..., :c].transpose(1, 2, 0).reshape(g, c * k)
        if self.has_bias:
            kh, kw = self.module.kernel_size
            mat[:, -1] = out[(kh // 2) * kw + kw // 2, :, c]
        return mat


class EmbeddingKFACLayer(KFACLayer):
    """Handler for :class:`repro.nn.transformer.Embedding`.

    The layer is a Linear over one-hot rows, so its ``A`` factor is
    exactly ``diag(bincount(indices)) / rows``.  The handler declares that
    (``diagonal_A``) and ``A`` holds the ``(num_embeddings,)`` diagonal
    end to end — built by :func:`repro.core.factors.embedding_factor_A`,
    decomposed as the identity basis, applied as a column scaling; no
    ``(V, V)`` array exists anywhere.  ``G`` is the ordinary Linear
    output-gradient covariance over the ``N*T`` token rows.

    The module's weight is stored ``(num_embeddings, embedding_dim)`` —
    the transpose of the pipeline's ``(g_dim, a_dim)`` packing — so the
    grad-matrix accessors transpose both ways.
    """

    diagonal_A = True

    @property
    def a_dim(self) -> int:
        return self.module.num_embeddings

    @property
    def g_dim(self) -> int:
        return self.module.embedding_dim

    def compute_A(self, out: np.ndarray | None = None) -> np.ndarray:
        assert self.a_input is not None
        return embedding_factor_A(self.a_input, self.module.num_embeddings, self.dtype, out)

    def compute_G(self, out: np.ndarray | None = None) -> np.ndarray:
        assert self.g_output is not None
        g = np.ascontiguousarray(
            self._reading(self.g_output).reshape(-1, self.module.embedding_dim)
        )
        return linear_factor_G(g, True, out)

    def get_grad_matrix(self) -> np.ndarray:
        return np.ascontiguousarray(self.module.weight.grad.T)

    def set_grad_matrix(self, mat: np.ndarray) -> None:
        if mat.shape != (self.g_dim, self.a_dim):
            raise ValueError(
                f"layer {self.name}: grad matrix {mat.shape} != "
                f"({self.g_dim}, {self.a_dim})"
            )
        self.module.weight.grad[...] = mat.T


class LayerNormKFACLayer(KFACLayer):
    """Handler for :class:`repro.nn.transformer.LayerNorm`.

    The affine part ``y = w * x_hat + b`` is an *elementwise* Linear over
    the normalized activations, so the capture uses ``x_hat`` (the
    module's cache, not the hook's pre-normalization input) with the
    standard biased Linear factors.  The full ``(d, d+1)`` natural
    gradient is then projected back onto the feasible set — the diagonal
    of the weight part plus the bias column — since LayerNorm has only
    ``2d`` free parameters (see ``docs/workloads.md``).
    """

    @property
    def a_dim(self) -> int:
        return self.module.dim + 1  # weight diagonal + bias column

    @property
    def g_dim(self) -> int:
        return self.module.dim

    def save_input(self, x: np.ndarray) -> None:
        # the hook hands us the pre-normalization input; the affine
        # parameters act on x_hat, which the module caches in forward
        x_hat = self.module.cached_normalized
        self.a_input = x_hat if x_hat is not None else x

    def compute_A(self, out: np.ndarray | None = None) -> np.ndarray:
        assert self.a_input is not None
        a = np.ascontiguousarray(self._reading(self.a_input).reshape(-1, self.module.dim))
        return linear_factor_A(a, True, self.workspace, out)

    def compute_G(self, out: np.ndarray | None = None) -> np.ndarray:
        assert self.g_output is not None
        g = np.ascontiguousarray(self._reading(self.g_output).reshape(-1, self.module.dim))
        return linear_factor_G(g, True, out)

    def get_grad_matrix(self) -> np.ndarray:
        d = self.module.dim
        w_grad = self.module.weight.grad
        mat = np.zeros((d, d + 1), dtype=w_grad.dtype)
        idx = np.arange(d)
        mat[idx, idx] = w_grad
        mat[:, d] = self.module.bias.grad
        return mat

    def set_grad_matrix(self, mat: np.ndarray) -> None:
        if mat.shape != (self.g_dim, self.a_dim):
            raise ValueError(
                f"layer {self.name}: grad matrix {mat.shape} != "
                f"({self.g_dim}, {self.a_dim})"
            )
        d = self.module.dim
        idx = np.arange(d)
        self.module.weight.grad[...] = mat[idx, idx]
        self.module.bias.grad[...] = mat[:, d]


def make_kfac_layer(
    name: str, module: Module, workspace: Workspace | None = None, dtype: np.dtype | None = None
) -> KFACLayer | None:
    """Return a handler for supported module types, else ``None``."""
    for kind, handler in (
        (Linear, LinearKFACLayer),
        (Conv2d, Conv2dKFACLayer),
        (Embedding, EmbeddingKFACLayer),
        (LayerNorm, LayerNormKFACLayer),
    ):
        if isinstance(module, kind):
            return handler(name, module, workspace, dtype)
    return None
