"""Graph executor: run a :class:`repro.sched.planner.StepPlan` on a KFAC.

One executor runs every placement: the gradient-worker fraction ``f``
spans the paper's K-FAC-opt (``f = 1``) and K-FAC-lw (``f = 1/P``) as
one task graph, synchronous or pipelined.  It walks the plan's schedule
and turns each task into the launch/wait step-generator protocol of
:mod:`repro.core.comm_ops`:

- synchronous plans wait for every collective the moment it is launched
  and credit no compute as overlap;
- pipelined plans launch collectives and defer their waits until a
  dependent task needs the data, crediting the *deterministic* simulated
  compute performed in between as overlap — so factor buckets, the
  per-group eigenbasis shares and the final gradient shares all hide
  behind local eigendecomposition/preconditioning work.

Numerics never depend on the interleaving: the same reductions, the same
decompositions, the same packing — only the exposed-communication
accounting changes between ``scheduler="sync"`` and ``scheduler="graph"``.
"""

from __future__ import annotations

from typing import Any, Generator, Sequence

import numpy as np

from repro.comm.engine import (
    estimate_precondition_seconds,
    estimate_second_order_seconds,
)
from repro.comm.faults import CollectiveFailed
from repro.comm.handles import Launch
from repro.core.assignment import factor_block
from repro.core.clipping import kl_clip_factor
from repro.core.comm_ops import WaitRequest, pack_arrays, unpack_arrays
from repro.core.inverse import eigendecompose, explicit_damped_inverse
from repro.obs.tracer import NULL_TRACER

__all__ = ["GraphExecutor"]


class GraphExecutor:
    """Execute one planned K-FAC update step over the comm protocol.

    ``kfac`` is the :class:`repro.core.preconditioner.KFAC` instance whose
    layers/assignment the plan was derived from; :meth:`run` is a
    generator speaking the same request protocol as
    ``KFAC.step_generator`` (drivers cannot tell the difference).

    Example
    -------
    >>> import numpy as np
    >>> from repro.core.preconditioner import KFAC
    >>> from repro.nn import Linear, Sequential
    >>> from repro.nn.loss import CrossEntropyLoss
    >>> from repro.sched.executor import GraphExecutor
    >>> model = Sequential(Linear(4, 3))
    >>> kfac = KFAC(model, kfac_update_freq=1, damping=0.01)
    >>> loss_fn = CrossEntropyLoss()
    >>> x = np.random.default_rng(0).normal(size=(6, 4)).astype(np.float32)
    >>> _ = loss_fn(model(x), np.arange(6) % 3)
    >>> _ = model.backward(loss_fn.backward())
    >>> kfac.update_factors()
    >>> plan = kfac.build_plan(update_factors=True, update_second_order=True)
    >>> list(GraphExecutor(kfac, plan).run())   # world of one: no requests
    []
    >>> kfac.layers[0].eig_A is not None
    True
    """

    def __init__(self, kfac: Any, plan: Any) -> None:
        self.kfac = kfac
        self.plan = plan
        #: launched-but-unwaited collectives: tag -> result installer,
        #: in launch order (the order the epilogue drains them)
        self._pending: dict[str, Any] = {}
        self._task_tag: dict[str, str] = {}
        #: simulated compute seconds since the last wait (overlap budget)
        self._pending_compute = 0.0
        #: this rank's freshly decomposed second-order payloads, by factor key
        self._computed: dict[str, list[np.ndarray]] = {}
        self._pre: dict[str, np.ndarray] = {}
        self._raw: dict[str, np.ndarray] = {}
        #: the step's factor wire and its unit offsets
        self._wire: np.ndarray | None = None
        self._offsets: tuple[int, ...] = ()
        #: the plan's comm/eig units (whole factors, or their diagonal
        #: blocks): task payloads index into these metas
        self._metas = plan.units.metas
        self._assignment = plan.units.assignment
        #: span recorder (repro.obs); inherited from the preconditioner
        self.tracer = getattr(kfac, "tracer", NULL_TRACER)

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def run(self) -> Generator[Any, Any, None]:
        """Yield comm requests for every task in schedule order."""
        plan = self.plan
        graph = plan.graph
        if any(t.kind == "FactorComm" for t in graph.tasks):
            self._prepare_wire()
        for name in plan.schedule:
            task = graph[name]
            yield from self._wait_deps(task)
            yield from self._dispatch(task)
        for tag in list(self._pending):
            yield from self._wait_tag(tag)
        self._finalize()

    def _wait_deps(self, task: Any) -> Generator[Any, Any, None]:
        """Settle any in-flight collective a dependency launched."""
        for dep in task.deps:
            tag = self._task_tag.get(dep)
            if tag is not None and tag in self._pending:
                yield from self._wait_tag(tag)

    def _wait_tag(self, tag: str) -> Generator[Any, Any, None]:
        budget = self._pending_compute
        result = yield WaitRequest(tag=tag, compute_seconds=budget)
        self._pending_compute = 0.0
        install = self._pending.pop(tag)
        install(result)
        if self.tracer.enabled:
            self.tracer.wait(
                self.kfac.rank,
                tag,
                attrs={
                    "compute_seconds": budget,
                    "failed": isinstance(result, CollectiveFailed),
                },
            )

    def _collective(
        self, task: Any, launch: Any, install: Any, trace_attrs: dict
    ) -> Generator[Any, Any, None]:
        """Launch one collective; ``install`` receives its result at the wait.

        A pipelined plan leaves the wait to the first dependent task (or
        the epilogue).  A synchronous plan is the degenerate schedule:
        it waits at once, and since nothing ran between launch and wait
        the compute accumulated *before* the launch (the Eig work that
        produced an EigShare payload, the preconditioning ahead of a
        gradient broadcast) must not be credited as overlap.
        """
        tag = launch.tag
        if self.tracer.enabled:
            self.tracer.launch(
                self.kfac.rank, tag, attrs={"task": task.kind, **trace_attrs}
            )
        yield launch
        self._task_tag[task.name] = tag
        self._pending[tag] = install
        if not self.plan.pipelined:
            self._pending_compute = 0.0
            yield from self._wait_tag(tag)

    def _dispatch(self, task: Any) -> Generator[Any, Any, None]:
        kind = task.kind
        if kind == "FactorComm":
            yield from self._run_factor_comm(task)
        elif kind == "Eig":
            self._run_eig(task)
        elif kind == "EigShare":
            yield from self._run_eig_share(task)
        elif kind == "Precondition":
            self._run_precondition(task)
        elif kind == "GradShare":
            yield from self._run_grad_share(task)
        else:  # pragma: no cover - planner only emits known kinds
            raise TypeError(f"unknown task kind {kind!r}")

    def _members(self, ranks: tuple[int, ...]) -> tuple[int, ...] | None:
        """A launch's ``ranks``: ``None``, the world op, when they span it."""
        return None if len(ranks) == self.kfac.world_size else ranks

    # ------------------------------------------------------------------
    # FactorComm
    # ------------------------------------------------------------------
    def _prepare_wire(self) -> None:
        """Gather the whole factor wire from the arena, EF-compressed.

        One buffer per step: every unit's packed upper triangle (a block
        unit's block only — off-block entries never travel; a diagonal
        factor its ``dim`` elements), in unit order, so each bucket is a
        slice of it.
        """
        kfac = self.kfac
        self._offsets = kfac._wire_plan(self.plan.units).offsets
        self._wire = kfac._pack_factor_wire(self.plan.units)

    def _run_factor_comm(self, task: Any) -> Generator[Any, Any, None]:
        kfac = self.kfac
        b = task.payload["bucket"]
        idxs = self.plan.buckets[b]
        first, last = idxs[0], idxs[-1] + 1  # buckets are contiguous unit runs
        lo, hi = self._offsets[first], self._offsets[last]
        assert self._wire is not None
        tensor = self._wire[lo:hi]
        yield from self._collective(
            task,
            Launch("allreduce", tensor, f"fac:{b}", "factor_comm", codec=kfac.hp.comm_dtype),
            lambda reduced: self._install_factors(first, last, reduced),
            {"bucket": b, "bytes": float(tensor.nbytes)},
        )

    def _install_factors(self, first: int, last: int, reduced: np.ndarray) -> None:
        """Scatter a reduced bucket — units ``[first, last)`` — into the arena."""
        kfac = self.kfac
        if isinstance(reduced, CollectiveFailed):
            # exchange lost past the retry budget: keep the local running
            # averages for this refresh (graceful degradation)
            kfac._note_factor_comm_failure(self._metas[first:last])
            return
        kfac._install_factor_wire(self.plan.units, first, last, reduced)

    # ------------------------------------------------------------------
    # Eig
    # ------------------------------------------------------------------
    def _run_eig(self, task: Any) -> None:
        """Decompose one factor (or block) on the rank it is assigned to."""
        kfac = self.kfac
        eigen = kfac.hp.use_eigen_decomp
        meta = self._metas[task.payload["meta"]]
        if self._assignment[meta.key] != kfac.rank:
            return
        factor = kfac._factor(meta)
        assert factor is not None, "second-order update before factor update"
        if meta.block is not None:
            factor = np.ascontiguousarray(factor_block(factor, meta))
        if eigen:
            self._computed[meta.key] = eigendecompose(factor).arrays()
        else:
            self._computed[meta.key] = [
                explicit_damped_inverse(factor, kfac.damping)
            ]
        kfac.n_eigs_computed_locally += 1
        seconds = estimate_second_order_seconds([meta], eigen)
        self._pending_compute += seconds
        if self.tracer.enabled:
            self.tracer.span(
                f"Eig:{meta.key}",
                "task",
                kfac.rank,
                seconds,
                attrs={"layer": meta.layer, "dim": meta.dim},
            )

    # ------------------------------------------------------------------
    # EigShare
    # ------------------------------------------------------------------
    def _run_eig_share(self, task: Any) -> Generator[Any, Any, None]:
        """Allgather decompositions inside one gradient-worker group.

        A group spanning the world (``f = 1``) is a world allgather;
        singleton groups (``f = 1/P``, and every group at ``P = 1``) install
        locally with no communication; ranks outside the group
        contribute/receive nothing — they will get only the final
        preconditioned gradient.  A lost share charges staleness to the
        members, who see it fail; a successful one clears it.  The drift
        trigger reads neither (see ``KFAC.skipped_refreshes``).
        """
        kfac = self.kfac
        ranks = tuple(task.payload["ranks"])
        grp_metas = [self._metas[i] for i in task.payload["metas"]]
        member_metas = {
            r: [m for m in grp_metas if self._assignment[m.key] == r]
            for r in ranks
        }
        in_group = kfac.rank in ranks
        if len(ranks) == 1:
            kfac._clear_staleness(grp_metas)
            if in_group:
                for meta in member_metas[kfac.rank]:
                    kfac._install_factor_state(meta, self._computed[meta.key])
            return
        flat: np.ndarray | None = None
        if in_group:
            mine = [a for m in member_metas[kfac.rank] for a in self._computed[m.key]]
            # pinned: a member owning nothing here still contributes an
            # empty buffer of the matching dtype
            flat = pack_arrays(mine, dtype=kfac.factor_dtype)

        def install(gathered: Sequence[np.ndarray] | None) -> None:
            if isinstance(gathered, CollectiveFailed):
                # no rank installs a lost share (the owner included), so
                # every replica keeps the identical last-known eigenbasis;
                # only members track it: non-members never hold
                # second-order state (they receive preconditioned grads)
                if in_group:
                    kfac._note_eig_share_failure(grp_metas)
                return
            kfac._clear_staleness(grp_metas)
            if gathered is None:  # non-members receive nothing
                return
            for r, buf in zip(ranks, gathered):
                kfac._install_second_order(buf, member_metas[r])

        yield from self._collective(
            task,
            Launch(
                "allgather", flat, f"share:grp{ranks[0]}", "eig_comm",
                ranks=self._members(ranks),
            ),
            install,
            {
                "group": list(ranks),
                "member": in_group,
                "bytes": float(flat.nbytes) if flat is not None else 0.0,
            },
        )

    # ------------------------------------------------------------------
    # Precondition
    # ------------------------------------------------------------------
    def _run_precondition(self, task: Any) -> None:
        kfac = self.kfac
        name = task.payload["layer"]
        layer = kfac._layer_by_name(name)
        raw = layer.get_grad_matrix()
        self._raw[name] = raw  # every rank keeps raw grads for Eq. 18 clipping
        if not self._is_grad_worker(name):
            return
        self._pre[name] = layer.precondition(
            raw, kfac.damping, kfac.hp.use_eigen_decomp
        )
        meta_A, meta_G = kfac._metas_of[name]
        seconds = estimate_precondition_seconds([(meta_G, meta_A, layer.slices)])
        self._pending_compute += seconds
        if self.tracer.enabled:
            self.tracer.span(
                f"Precondition:{name}",
                "task",
                kfac.rank,
                seconds,
                attrs={"layer": name},
            )

    def _is_grad_worker(self, layer_name: str) -> bool:
        return self.kfac.is_grad_worker(layer_name)

    # ------------------------------------------------------------------
    # GradShare
    # ------------------------------------------------------------------
    def _run_grad_share(self, task: Any) -> Generator[Any, Any, None]:
        """Ship preconditioned grads from their roots to the non-members.

        An entry with one root is a broadcast of its fused payload.  An
        entry fusing several roots (their participant sets are equal: with
        contiguous groups, exactly ``f = 1/P``, where every set is the
        world) is one allgather of every root's payload — the paper's
        K-FAC-lw gradient allgather.
        """
        kfac = self.kfac
        ranks, roots = kfac._grad_shares[task.payload["entry"]]
        gather = len(roots) > 1
        mine = roots.get(kfac.rank)
        flat: np.ndarray | None = None
        if mine is not None or gather:  # every allgather member contributes
            flat = pack_arrays([self._pre[l.name] for l in mine or ()])
        if gather:
            launch = Launch(
                "allgather", flat, "grad:all", "precond_comm", ranks=self._members(ranks)
            )
        else:
            (root,) = roots
            launch = Launch(
                "broadcast", flat, f"grad:root{root}", "precond_comm",
                ranks=ranks, root=root,
            )

        def install(got: Any) -> None:
            if got is None:
                return
            received = dict(zip(ranks, got)) if gather else dict.fromkeys(roots, got)
            for r, layers_r in roots.items():
                if r == kfac.rank:
                    continue
                shapes = [(l.g_dim, l.a_dim) for l in layers_r]
                for l, arr in zip(layers_r, unpack_arrays(received[r], shapes)):
                    self._pre[l.name] = arr

        yield from self._collective(
            task,
            launch,
            install,
            {"roots": list(roots), "bytes": float(flat.nbytes) if flat is not None else 0.0},
        )

    # ------------------------------------------------------------------
    # epilogue
    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        """Eq. 18 clipping over the full layer set, then write the grads."""
        kfac = self.kfac
        pre = [self._pre[layer.name] for layer in kfac.layers]
        raw = [self._raw[layer.name] for layer in kfac.layers]
        nu = kl_clip_factor(pre, raw, kfac.lr, kfac.hp.kl_clip)
        kfac.kl_clip_nu = nu
        if nu < 1.0:
            kfac.n_clipped_steps += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "kl_clip", "kfac", kfac.rank, attrs={"nu": nu, "clipped": nu < 1.0}
            )
        ad = getattr(kfac, "_adaptive_damping", None)
        if ad is not None:
            # nu is computed from pre-averaged gradients, so every rank sees
            # the same value and the damping schedule stays in lockstep
            old = kfac.damping
            kfac.damping = ad.update(nu)
            if kfac.damping != old and self.tracer.enabled:
                self.tracer.instant(
                    "damping:adapt",
                    "approx",
                    kfac.rank,
                    attrs={"nu": float(nu), "damping": float(kfac.damping)},
                )
        for layer, p in zip(kfac.layers, pre):
            layer.set_grad_matrix(nu * p)
