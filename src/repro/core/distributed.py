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

Both drivers run one request loop (:meth:`_Driver.step`): it matches the
replicas' requests, checks each launch's contributions against its group,
rejects duplicate and unknown tags, and fails a step that leaves a launch
unawaited.  A transport supplies only how a matched launch starts
(``_start``) and how its wait finishes (``_finish``), and every failed
collective goes through one retry policy, :meth:`_Driver._retry`.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Callable, Generator, Sequence

from repro.comm.backend import World
from repro.comm.faults import CollectiveError, CollectiveFailed, RetryPolicy
from repro.comm.handles import Handle, Launch
from repro.comm.horovod import HorovodContext
from repro.core.comm_ops import WaitRequest
from repro.core.preconditioner import KFAC
from repro.utils.logging import NULL_LOGGER, Logger

__all__ = ["PhaseController", "SPMDDriver"]


def _advance(gen: Generator, value: Any = None, first: bool = False) -> Any | None:
    """Advance a generator; return the next request or None when finished."""
    try:
        return next(gen) if first else gen.send(value)
    except StopIteration:
        return None


class _Driver:
    """The request loop and retry policy both transports share.

    ``replicas`` are the step generators' owners this driver speaks for
    (all of them in lockstep, one under SPMD), each with a ``rank``.
    """

    def __init__(
        self,
        replicas: list[Any],
        world: World,
        retry_policy: RetryPolicy | None,
        logger: Logger,
    ) -> None:
        self.replicas = replicas
        self.world = world
        #: bounded retry-with-backoff for failed collectives; ``None``
        #: propagates the first :class:`CollectiveError` unchanged
        self.retry_policy = retry_policy
        #: degraded-path events (retries, fallbacks) surface as warnings
        self.logger = logger
        self.comm_retries = 0
        self.comm_fallbacks = 0

    def step(self) -> None:
        """Execute one K-FAC step on every replica this driver speaks for.

        Requests are matched across replicas by position: launches must
        describe the same op, waits name the same tag.  Each launch is
        answered with ``None``; its wait with the collective's result.
        """
        replicas = self.replicas
        gens = [r.step_generator() for r in replicas]
        requests = [_advance(g, first=True) for g in gens]
        pending: dict[str, tuple[Launch, Any]] = {}
        while any(req is not None for req in requests):
            first = requests[0]
            tag = getattr(first, "tag", None)
            if any(
                type(req) is not type(first) or getattr(req, "tag", None) != tag
                for req in requests
            ):
                raise RuntimeError(f"replicas diverged at {tag!r}: {requests}")
            if isinstance(first, Launch):
                for replica, req in zip(replicas, requests):
                    if not first.matches(req, replica.rank):
                        raise RuntimeError(
                            f"rank {replica.rank}: launch {tag!r} diverged or does "
                            f"not match its group: {req}"
                        )
                if tag in pending:
                    raise RuntimeError(f"duplicate launch tag {tag!r} within one step")
                pending[tag] = (first, self._start(requests))
                responses: list[Any] = [None] * len(gens)
            elif isinstance(first, WaitRequest):
                if tag not in pending:
                    raise RuntimeError(f"wait on unknown tag {tag!r} (never launched?)")
                responses = self._finish(*pending.pop(tag), requests)
            else:
                raise TypeError(f"unknown request type {type(first)}")
            requests = [_advance(g, resp) for g, resp in zip(gens, responses)]
        if pending:
            raise RuntimeError(f"step ended with unawaited collectives: {sorted(pending)}")

    def _start(self, launches: list[Launch]) -> Any:
        """Start one matched launch; returns what :meth:`_finish` settles."""
        raise NotImplementedError

    def _finish(self, launch: Launch, started: Any, waits: list[WaitRequest]) -> list[Any]:
        """Settle a started launch into one response per replica."""
        raise NotImplementedError

    def _retry(self, launch: Launch, attempt_fn: Callable[[], Any]) -> Any:
        """Run a collective with bounded retry-with-backoff.

        Returns the collective's result, or a :class:`CollectiveFailed`
        sentinel when ``retry_policy``'s budget is exhausted on a
        degradable phase (the step generator then falls back to stale
        state); re-raises on any other phase.  Each retry/fallback is
        counted on this driver, warned through ``logger`` and marked on
        the trace track of every rank the driver speaks for (the world
        hands an injected failure to *every* posting rank, so all members
        retry the same number of times and their matched-op generation
        counters stay aligned).  Backoff seconds are charged to the
        ``retry_backoff`` timer phase so degraded steps are visible in
        the simulated time ledger; the world ledger is shared, so only
        the driver speaking for the op's first member charges it — the
        owner rule of the world's own comm spans.
        """
        policy = self.retry_policy
        world = self.world
        tracer = world.tracer
        phase = launch.phase
        ranks = [r.rank for r in self.replicas]
        owner = 0 if launch.ranks is None else launch.ranks[0]
        charges = owner in ranks
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
                    self.comm_retries += 1
                    attempt += 1
                    self.logger.warn(
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
                                        "owner": r == owner,
                                    },
                                )
                    continue
                if phase in policy.fallback_phases:
                    self.comm_fallbacks += 1
                    self.logger.warn(
                        f"{phase}: retries exhausted ({exc}); falling back "
                        "to stale state"
                    )
                    if tracer.enabled:
                        for r in ranks:
                            tracer.instant(f"fallback:{phase}", "fault", r)
                    return CollectiveFailed(phase=phase, error=exc)
                raise


class PhaseController(_Driver):
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
        super().__init__(list(kfacs), world, retry_policy, logger)
        self.kfacs = self.replicas

    def _start(self, launches: list[Launch]) -> Handle | CollectiveFailed:
        """Start the matched collective with every member's tensor.

        The data moves eagerly (the phase-style world is deterministic)
        and the world consults the fault plan when the op starts, so the
        launch (not the wait) is what gets retried.
        """
        launch = launches[0]
        members = range(len(launches)) if launch.ranks is None else launch.ranks
        contributions = [launches[r].tensor for r in members]
        return self._retry(launch, partial(self.world.start, launch, contributions))

    def _finish(
        self, launch: Launch, handle: Handle | CollectiveFailed, waits: list[WaitRequest]
    ) -> list[Any]:
        """Settle the op with the members' minimum compute budget.

        The least-overlapped member sets the barrier; only members'
        compute can hide a group op's cost.  Each member receives its
        result, every other replica ``None``.  A launch that failed past
        the retry budget answers *every* replica (members and non-members
        alike) with the sentinel, so the stale-state ledgers stay in
        lockstep.
        """
        n = len(waits)
        if isinstance(handle, CollectiveFailed):
            return [handle] * n
        members = range(n) if launch.ranks is None else launch.ranks
        result = handle.wait(min(waits[r].compute_seconds for r in members))
        by_rank = dict(zip(members, result))
        return [by_rank.get(r) for r in range(n)]


class SPMDDriver(_Driver):
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
        super().__init__([kfac], hvd.view.world, retry_policy, logger)
        self.kfac = kfac
        self.hvd = hvd

    def _start(self, launches: list[Launch]) -> Handle:
        """Start this rank's side of the op; nothing blocks until the wait.

        Every op is named ``kfac:{phase}:{tag}``: the step's tags are
        stable per logical op (a group share by its leader, a gradient
        broadcast by its root), as the world's per-name generation
        counters need.  A non-member of a group posts nothing and never
        observes a member-side failure: degradation is member-local.
        """
        (launch,) = launches
        if launch.ranks is not None and self.kfac.rank not in launch.ranks:
            return Handle(lambda overlap_seconds: None)
        return self.hvd.view.start(replace(launch, tag=f"kfac:{launch.phase}:{launch.tag}"))

    def _finish(self, launch: Launch, handle: Handle, waits: list[WaitRequest]) -> list[Any]:
        """Post at the wait with this rank's budget, retrying the wait.

        A failed collective raises at wait time; the handle re-posts on
        each attempt (its result is not cached until a wait succeeds),
        keeping the ranks' matched-op generations aligned.
        """
        (wait,) = waits
        return [self._retry(launch, lambda: handle.wait(wait.compute_seconds))]
