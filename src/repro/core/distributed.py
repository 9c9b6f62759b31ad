"""Drivers binding the K-FAC step generator to a communication substrate.

Two transports, one protocol, one algorithm:

- :class:`PhaseController` — lockstep execution of P replicas' step
  generators against a :class:`repro.comm.World` (deterministic; used by
  the data-parallel trainer and all experiments).  Each matched allreduce
  launch carries one flat buffer — a bucket's slice of the factor wire,
  fused as Horovod's fusion buffer would — reduced by a single ring
  allreduce.
- :class:`SPMDDriver` — executes a single rank's generator inside a
  threaded SPMD program via matched named collectives (what the
  Listing 1-style quickstart uses).

Both speak the launch/wait protocol of :mod:`repro.core.comm_ops` and
nothing else: a launch starts the collective, the matching wait settles
it with the compute-overlap budget the generator reports.  Under
``scheduler="graph"`` factor allreduces stay in flight while the
generator eigendecomposes already-reduced factors and the driver credits
that compute as hidden communication time; under ``scheduler="sync"``
every wait follows its launch with a zero budget.  A world of one needs
no driver (``KFAC.step()``).

Failed collectives go through one retry policy, :func:`_retry`, shared by
both transports.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Sequence

import numpy as np

from repro.comm.backend import World
from repro.comm.faults import CollectiveError, CollectiveFailed, RetryPolicy
from repro.comm.handles import Handle
from repro.comm.horovod import HorovodContext
from repro.core.comm_ops import (
    AllGatherLaunch,
    AllReduceLaunch,
    GroupAllGatherLaunch,
    GroupBroadcastLaunch,
    WaitRequest,
)
from repro.core.preconditioner import KFAC
from repro.utils.logging import NULL_LOGGER, Logger

__all__ = ["PhaseController", "SPMDDriver"]

_LAUNCHES = (AllReduceLaunch, AllGatherLaunch, GroupAllGatherLaunch, GroupBroadcastLaunch)


def _advance(gen: Generator, value: Any = None, first: bool = False) -> Any | None:
    """Advance a generator; return the next request or None when finished."""
    try:
        return next(gen) if first else gen.send(value)
    except StopIteration:
        return None


def _retry(
    driver: "PhaseController | SPMDDriver",
    world: World,
    ranks: Sequence[int],
    phase: str,
    attempt_fn: Callable[[], Any],
) -> Any:
    """Run a collective with bounded retry-with-backoff.

    Returns the collective's result, or a :class:`CollectiveFailed`
    sentinel when ``driver.retry_policy``'s budget is exhausted on a
    degradable phase (the step generator then falls back to stale state);
    re-raises on any other phase.  Each retry/fallback is counted on
    ``driver``, warned through ``driver.logger`` and marked on the trace
    track of every rank in ``ranks`` — the ranks the driver speaks for:
    all of them for the lockstep controller, its own for an SPMD rank
    (the world hands an injected failure to *every* posting rank, so all
    members retry the same number of times and their matched-op
    generation counters stay aligned).  Backoff seconds are charged to
    the ``retry_backoff`` timer phase so degraded steps are visible in
    the simulated time ledger; the world ledger is shared, so only the
    driver speaking for rank 0 charges it.
    """
    policy = driver.retry_policy
    tracer = world.tracer
    charges = 0 in ranks
    attempt = 0
    while True:
        try:
            return attempt_fn()
        except CollectiveError as exc:
            if policy is None:
                raise
            if attempt < policy.max_retries:
                backoff = policy.backoff(attempt)
                if charges:
                    world.timers.charge("retry_backoff", backoff)
                    world.overlap.record("retry_backoff", backoff, 0.0)
                driver.comm_retries += 1
                attempt += 1
                driver.logger.warn(
                    f"{phase}: collective failed ({exc}); retry "
                    f"{attempt}/{policy.max_retries} after {backoff:.4g}s"
                )
                if tracer.enabled:
                    for r in ranks:
                        tracer.instant(
                            f"retry:{phase}", "fault", r,
                            attrs={"attempt": attempt},
                        )
                        if charges:
                            tracer.span(
                                "retry_backoff", "comm", r, backoff,
                                attrs={
                                    "exposed": backoff,
                                    "hidden": 0.0,
                                    "bytes": 0.0,
                                    "retry_of": phase,
                                    "owner": r == 0,
                                },
                            )
                continue
            if phase in policy.fallback_phases:
                driver.comm_fallbacks += 1
                driver.logger.warn(
                    f"{phase}: retries exhausted ({exc}); falling back "
                    "to stale state"
                )
                if tracer.enabled:
                    for r in ranks:
                        tracer.instant(f"fallback:{phase}", "fault", r)
                return CollectiveFailed(phase=phase, error=exc)
            raise


class PhaseController:
    """Lockstep driver for P replicas' preconditioners over one World.

    All replicas must be configured with the same hyper-parameters and
    ``world_size == world.size`` and ``rank == index``; the controller
    matches their yielded requests step by step and executes each matched
    request as one fused collective.

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.backend import World
    >>> from repro.core.distributed import PhaseController
    >>> from repro.core.preconditioner import KFAC
    >>> from repro.nn import Linear, Sequential
    >>> from repro.nn.loss import CrossEntropyLoss
    >>> world = World(2)
    >>> models = [Sequential(Linear(4, 3, rng=np.random.default_rng(1)))
    ...           for _ in range(2)]
    >>> kfacs = [KFAC(m, rank=r, world_size=2, kfac_update_freq=1)
    ...          for r, m in enumerate(models)]
    >>> controller = PhaseController(kfacs, world)
    >>> x = np.ones((4, 4), dtype=np.float32)
    >>> for m in models:
    ...     loss_fn = CrossEntropyLoss()
    ...     _ = loss_fn(m(x), np.arange(4) % 3)
    ...     _ = m.backward(loss_fn.backward())
    >>> controller.step()             # one lockstep K-FAC step, fused comm
    >>> world.stats.total_ops() > 0
    True
    """

    def __init__(
        self,
        kfacs: Sequence[KFAC],
        world: World,
        retry_policy: RetryPolicy | None = RetryPolicy(),
        logger: Logger = NULL_LOGGER,
    ) -> None:
        if len(kfacs) != world.size:
            raise ValueError(f"got {len(kfacs)} KFAC replicas for world size {world.size}")
        for i, k in enumerate(kfacs):
            if k.rank != i or k.world_size != world.size:
                raise ValueError(
                    f"replica {i} has rank/world {k.rank}/{k.world_size}, "
                    f"expected {i}/{world.size}"
                )
        self.kfacs = list(kfacs)
        self.world = world
        #: bounded retry-with-backoff for failed collectives; ``None``
        #: propagates the first :class:`CollectiveError` unchanged
        self.retry_policy = retry_policy
        #: degraded-path events (retries, fallbacks) surface as warnings
        self.logger = logger
        self.comm_retries = 0
        self.comm_fallbacks = 0

    def step(self) -> None:
        """Execute one K-FAC step on every replica, in lockstep.

        A launch starts the matched collective (the data moves eagerly —
        the phase-style world is deterministic) and answers every replica
        with ``None``; the matching :class:`WaitRequest` settles its
        simulated cost with the minimum compute-overlap budget across
        replicas — the least-overlapped rank sets the barrier.
        """
        gens = [k.step_generator() for k in self.kfacs]
        requests = [_advance(g, first=True) for g in gens]
        # tag -> (handle, finalize(raw) -> per-rank responses, member ranks
        # whose compute budgets bound the hidden time, or None for all)
        pending: dict[str, tuple[Handle, Any, tuple[int, ...] | None]] = {}
        while any(r is not None for r in requests):
            kinds = {type(r) for r in requests}
            if len(kinds) != 1 or None in requests:
                raise RuntimeError(
                    f"replicas diverged: mixed requests {[type(r).__name__ for r in requests]}"
                )
            first = requests[0]
            if isinstance(first, _LAUNCHES):
                responses = self._launch(requests, pending)  # type: ignore[arg-type]
            elif isinstance(first, WaitRequest):
                responses = self._wait(requests, pending)  # type: ignore[arg-type]
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown request type {type(first)}")
            requests = [_advance(g, resp) for g, resp in zip(gens, responses)]
        if pending:  # pragma: no cover - defensive
            raise RuntimeError(f"step ended with unawaited collectives: {sorted(pending)}")

    def _launch(
        self,
        reqs: Sequence[AllReduceLaunch | AllGatherLaunch | GroupAllGatherLaunch | GroupBroadcastLaunch],
        pending: dict[str, tuple[Handle, Any, tuple[int, ...] | None]],
    ) -> list[None]:
        tags = {req.tag for req in reqs}
        if len(tags) != 1:
            raise RuntimeError(f"replicas diverged: mixed launch tags {sorted(tags)}")
        first = reqs[0]
        n = len(reqs)
        tag = first.tag
        phase = first.phase
        if tag in pending:
            raise RuntimeError(f"duplicate launch tag {tag!r} within one step")

        def scatter(result: Sequence[Any], ranks: tuple[int, ...]) -> list[Any]:
            # group ops answer the listed ranks only; everyone else gets None
            by_rank = dict(zip(ranks, result))
            return [by_rank.get(r) for r in range(n)]

        members: tuple[int, ...] | None = None
        if isinstance(first, AllReduceLaunch):
            for r, req in enumerate(reqs):
                if req.tensor.shape != first.tensor.shape:
                    raise RuntimeError(f"rank {r} launch {tag!r} shapes diverged")
            start = partial(
                self.world.allreduce_async,
                [req.tensor for req in reqs], op=first.op, phase=phase,
                codec=first.comm_dtype,
            )
            finalize = lambda result: result  # noqa: E731
        elif isinstance(first, AllGatherLaunch):
            contributions = [req.tensor for req in reqs]
            start = partial(self.world.allgather_async, contributions, phase=phase)
            finalize = lambda result: result  # noqa: E731
        elif isinstance(first, GroupAllGatherLaunch):
            groups = {req.ranks for req in reqs}
            if len(groups) != 1:
                raise RuntimeError(f"replicas diverged: mixed groups {sorted(groups)}")
            members = first.ranks
            for r, req in enumerate(reqs):
                if (req.tensor is None) != (r not in members):
                    raise RuntimeError(
                        f"rank {r}: group-allgather launch {tag!r} contribution "
                        f"does not match membership of group {members}"
                    )
            start = partial(
                self.world.group_allgather_async,
                [reqs[r].tensor for r in members], members, phase=phase,
            )
            finalize = partial(scatter, ranks=members)
        else:
            keys = {(req.root, req.ranks) for req in reqs}
            if len(keys) != 1:
                raise RuntimeError(f"replicas diverged: mixed broadcast groups {sorted(keys)}")
            root = first.root
            members = first.ranks
            if reqs[root].tensor is None:
                raise RuntimeError(f"broadcast root {root} provided no tensor")
            start = partial(
                self.world.group_broadcast_async,
                reqs[root].tensor, root, members, phase=phase,
            )
            finalize = partial(scatter, ranks=members)
        # the phase-style world consults the fault plan when the op starts,
        # so the launch (not the wait) is what gets retried
        handle = _retry(self, self.world, range(n), phase, start)
        pending[tag] = (handle, finalize, members)
        return [None] * n

    def _wait(
        self,
        reqs: list[WaitRequest],
        pending: dict[str, tuple[Handle, Any, tuple[int, ...] | None]],
    ) -> list[list[np.ndarray]]:
        tags = {req.tag for req in reqs}
        if len(tags) != 1:
            raise RuntimeError(f"replicas diverged: mixed wait tags {sorted(tags)}")
        tag = reqs[0].tag
        if tag not in pending:
            raise RuntimeError(f"wait on unknown tag {tag!r} (never launched?)")
        handle, finalize, member_ranks = pending.pop(tag)
        if isinstance(handle, CollectiveFailed):
            # the launch failed past the retry budget: every replica
            # (group members and non-members alike) gets the sentinel so
            # the stale-state ledgers stay in lockstep
            return [handle] * len(reqs)
        # only participating ranks' compute can hide a group op's cost
        budgets = (
            [reqs[r].compute_seconds for r in member_ranks]
            if member_ranks is not None
            else [req.compute_seconds for req in reqs]
        )
        result = handle.wait(min(budgets))
        return finalize(result)


class SPMDDriver:
    """Per-rank driver using matched named collectives (threaded SPMD).

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.backend import World
    >>> from repro.comm.horovod import HorovodContext
    >>> from repro.core.distributed import SPMDDriver
    >>> from repro.core.preconditioner import KFAC
    >>> from repro.nn import Linear, Sequential
    >>> from repro.nn.loss import CrossEntropyLoss
    >>> def program(view):
    ...     model = Sequential(Linear(4, 3, rng=np.random.default_rng(1)))
    ...     kfac = KFAC(model, rank=view.rank, world_size=2, kfac_update_freq=1)
    ...     driver = SPMDDriver(kfac, HorovodContext(view))
    ...     loss_fn = CrossEntropyLoss()
    ...     _ = loss_fn(model(np.ones((4, 4), dtype=np.float32)), np.arange(4) % 3)
    ...     _ = model.backward(loss_fn.backward())
    ...     driver.step()
    ...     return kfac.steps
    >>> World(2).run_spmd(program)
    [1, 1]
    """

    def __init__(
        self,
        kfac: KFAC,
        hvd: HorovodContext,
        retry_policy: RetryPolicy | None = RetryPolicy(),
        logger: Logger = NULL_LOGGER,
    ) -> None:
        if kfac.world_size != hvd.size():
            raise ValueError(
                f"KFAC world_size {kfac.world_size} != hvd size {hvd.size()}"
            )
        if kfac.rank != hvd.rank():
            raise ValueError(f"KFAC rank {kfac.rank} != hvd rank {hvd.rank()}")
        self.kfac = kfac
        self.hvd = hvd
        self.retry_policy = retry_policy
        #: degraded-path events (retries, fallbacks) surface as warnings
        self.logger = logger
        self.comm_retries = 0
        self.comm_fallbacks = 0

    def step(self) -> None:
        """Execute one K-FAC step on this rank.

        A launch defers its blocking matched post to the wait, which
        forwards this rank's compute-overlap budget to the world.  A
        failed collective therefore raises at wait time, and the wait is
        what gets retried: the handle re-posts on each attempt (its
        result is not cached until a wait succeeds), keeping the ranks'
        matched-op generations aligned.
        """
        gen = self.kfac.step_generator()
        req = _advance(gen, first=True)
        world = self.hvd.view.world
        # tag -> (handle, phase)
        pending: dict[str, tuple[Handle, str]] = {}
        while req is not None:
            if isinstance(req, _LAUNCHES):
                if req.tag in pending:
                    raise RuntimeError(f"duplicate launch tag {req.tag!r} within one step")
                pending[req.tag] = self._launch(req)
                req = _advance(gen, None)
            elif isinstance(req, WaitRequest):
                if req.tag not in pending:
                    raise RuntimeError(f"wait on unknown tag {req.tag!r} (never launched?)")
                handle, phase = pending.pop(req.tag)
                result = _retry(
                    self, world, (self.kfac.rank,), phase,
                    lambda: handle.wait(req.compute_seconds),
                )
                req = _advance(gen, result)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown request type {type(req)}")
        if pending:  # pragma: no cover - defensive
            raise RuntimeError(f"step ended with unawaited collectives: {sorted(pending)}")

    def _launch(
        self,
        req: AllReduceLaunch | AllGatherLaunch | GroupAllGatherLaunch | GroupBroadcastLaunch,
    ) -> tuple[Handle, str]:
        """Start this rank's side of one collective (nothing blocks yet)."""
        view = self.hvd.view
        rank = self.kfac.rank
        phase = req.phase
        if isinstance(req, AllReduceLaunch):
            # matched op names must be identical across ranks, so key
            # world ops by tag (deterministic)
            handle = view.allreduce_async(
                req.tensor,
                name=f"kfac:{phase}:{req.tag}",
                op=req.op,
                phase=phase,
                codec=req.comm_dtype,
            )
        elif isinstance(req, AllGatherLaunch):
            handle = view.allgather_async(
                req.tensor, name=f"kfac:{phase}:{req.tag}", phase=phase
            )
        elif rank not in req.ranks:
            # only group members post.  Non-members never observe a
            # member-side failure either: degradation is member-local
            handle = Handle(lambda overlap_seconds: None)
        elif isinstance(req, GroupAllGatherLaunch):
            # the name must be stable per *logical group* (not per step
            # position) because the world's op-generation counters advance
            # per posting rank — a position-based name would desync ranks
            # whose membership differs between steps.  Contiguous groups
            # have distinct leading ranks, so the leader identifies the group.
            assert req.tensor is not None
            handle = view.allgather_async(
                req.tensor, name=f"kfac:{phase}:grp{req.ranks[0]}",
                phase=phase, ranks=req.ranks,
            )
        else:
            payload = req.tensor if rank == req.root else np.zeros(0, dtype=np.float32)
            assert payload is not None
            handle = view.broadcast_async(
                payload, name=f"kfac:{phase}:root{req.root}",
                root=req.root, phase=phase, ranks=req.ranks,
            )
        return handle, phase
