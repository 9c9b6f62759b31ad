"""Horovod-flavoured per-rank frontend.

Gives SPMD rank programs the API surface the paper's Listing 1 uses::

    hvd = HorovodContext(view)                     # ~ hvd.init()
    hvd.broadcast_parameters(model)                # sync initial weights
    opt = SGD(model.parameters(), lr=...)
    opt = DistributedOptimizer(opt, hvd, model.named_parameters())
    ...
    loss.backward()
    opt.synchronize()                              # grads averaged here
    preconditioner.step()                          # K-FAC on averaged grads
    with opt.skip_synchronize():
        opt.step()

``DistributedOptimizer`` mirrors Horovod's contract: gradients are averaged
across ranks on ``synchronize()`` (or implicitly in ``step()`` if the user
never synchronized), and ``skip_synchronize()`` suppresses the implicit
reduction after an explicit one — exactly the dance Listing 1 performs so
K-FAC preconditions *averaged* gradients.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np

from repro.comm.backend import RankView
from repro.comm.compression import ErrorFeedback, get_codec
from repro.nn.module import Module, Parameter
from repro.optim.base import Optimizer

__all__ = ["Average", "Sum", "HorovodContext", "DistributedOptimizer"]

#: reduction-op constants, mirroring ``horovod.torch.Average`` / ``Sum``
Average = "average"
Sum = "sum"


class HorovodContext:
    """Per-rank communication API bound to a :class:`RankView`.

    It carries only the ``hvd`` names Listing 1, :class:`DistributedOptimizer`
    and :mod:`repro.elastic` use; a driver that launches collectives
    asynchronously does so on :attr:`view`.

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.backend import World
    >>> from repro.comm.horovod import HorovodContext
    >>> def program(view):
    ...     hvd = HorovodContext(view)
    ...     out = hvd.allreduce(np.array([float(hvd.rank())]), name="r")
    ...     return float(out[0])
    >>> World(4).run_spmd(program)        # mean of ranks 0..3
    [1.5, 1.5, 1.5, 1.5]
    """

    def __init__(self, view: RankView) -> None:
        self.view = view

    def rank(self) -> int:
        return self.view.rank

    def size(self) -> int:
        return self.view.size

    def allreduce(
        self,
        tensor: np.ndarray,
        name: str,
        op: str = Average,
        phase: str = "allreduce",
        codec: str | None = None,
    ) -> np.ndarray:
        """Blocking allreduce matched across ranks by ``name``.

        ``codec`` compresses the wire (``"fp16"``/``"bf16"``, mirroring
        ``hvd.Compression.fp16``); every rank must pass the same value.
        """
        return self.view.allreduce(tensor, name=name, op=op, phase=phase, codec=codec)

    def allgather(self, tensor: np.ndarray, name: str, phase: str = "allgather") -> list[np.ndarray]:
        return self.view.allgather(tensor, name=name, phase=phase)

    def broadcast(self, tensor: np.ndarray, name: str, root: int = 0) -> np.ndarray:
        return self.view.broadcast(tensor, name=name, root=root)

    def barrier(self, name: str = "barrier") -> None:
        self.view.barrier(name)

    def broadcast_parameters(self, model: Module, root: int = 0) -> None:
        """Broadcast every parameter and buffer from ``root`` in place."""
        for name, p in model.named_parameters():
            p.data[...] = self.broadcast(p.data, name=f"param:{name}", root=root)
        owners = model._buffer_owners()
        for name, (owner, bname) in sorted(owners.items()):
            current = np.asarray(getattr(owner, bname))
            owner._set_buffer(bname, self.broadcast(current, name=f"buffer:{name}", root=root))


class DistributedOptimizer:
    """Wraps a local optimizer with gradient averaging (Horovod contract).

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.backend import World
    >>> from repro.comm.horovod import DistributedOptimizer, HorovodContext
    >>> from repro.nn.layers import Linear
    >>> from repro.optim.sgd import SGD
    >>> def program(view):
    ...     hvd = HorovodContext(view)
    ...     model = Linear(2, 1, rng=np.random.default_rng(0))
    ...     opt = DistributedOptimizer(
    ...         SGD(model.parameters(), lr=0.1), hvd, model.named_parameters()
    ...     )
    ...     model.weight.grad[...] = float(hvd.rank())   # divergent grads...
    ...     opt.synchronize()                            # ...averaged here
    ...     return float(model.weight.grad[0, 0])
    >>> World(2).run_spmd(program)
    [0.5, 0.5]
    """

    def __init__(
        self,
        optimizer: Optimizer,
        hvd: HorovodContext,
        named_parameters: Iterable[tuple[str, Parameter]],
        op: str = Average,
        compression: str | None = None,
    ) -> None:
        self.optimizer = optimizer
        self.hvd = hvd
        self.named_params = list(named_parameters)
        if not self.named_params:
            raise ValueError("DistributedOptimizer requires named parameters")
        self.op = op
        #: wire codec for the gradient exchange (~ ``hvd.Compression.fp16``),
        #: with per-parameter error-feedback residuals kept rank-locally
        self.compression = compression
        codec = get_codec(compression)
        self._error_feedback = ErrorFeedback(codec) if codec is not None else None
        self._synchronized = False
        self._skip = False

    @property
    def lr(self) -> float:
        return self.optimizer.lr

    @lr.setter
    def lr(self, value: float) -> None:
        self.optimizer.lr = value

    def zero_grad(self) -> None:
        self.optimizer.zero_grad()

    def synchronize(self) -> None:
        """Average all parameter gradients across ranks, in place.

        Each parameter's op name is the same every step: the world's
        per-name generation counter keeps consecutive steps apart.
        """
        for name, p in self.named_params:
            g = p.grad
            if self._error_feedback is not None:
                g = self._error_feedback.apply(name, g)
            p.grad[...] = self.hvd.allreduce(
                g,
                name=f"grad:{name}",
                op=self.op,
                phase="grad_allreduce",
                codec=self.compression,
            )
        self._synchronized = True

    def rescale_error_feedback(self, factor: float) -> None:
        """Rescale compression residuals after a loss-scale change.

        With ``compression`` set and gradients arriving loss-scaled, call
        with ``new_scale / old_scale`` right after ``GradScaler.update``
        changes the scale (see the quickstart example).
        """
        if self._error_feedback is not None:
            self._error_feedback.rescale(factor)

    @contextmanager
    def skip_synchronize(self) -> Iterator[None]:
        """Suppress the implicit synchronize inside the next ``step()``."""
        self._skip = True
        try:
            yield
        finally:
            self._skip = False

    def step(self) -> None:
        if not self._synchronized and not self._skip:
            self.synchronize()
        self.optimizer.step()
        self._synchronized = False

    def state_dict(self) -> dict:
        """The wrapped optimizer's snapshot (momentum buffers etc.).

        Checkpoint/resume passthrough: the wrapper itself holds no
        persistent numeric state (error-feedback residuals are transient
        within a scale window), so saving and restoring the inner
        optimizer is sufficient for an elastic resume.
        """
        return self.optimizer.state_dict()

    def load_state_dict(self, state: dict) -> None:
        """Restore the wrapped optimizer from :meth:`state_dict`."""
        self.optimizer.load_state_dict(state)
