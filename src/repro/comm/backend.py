"""The simulated communication world.

Two usage styles, sharing the same collective algorithms and cost model:

1. **Phase-style (lockstep)** — the caller holds all ranks' buffers and
   invokes ``world.allreduce([buf_0, ..., buf_{p-1}])``.  Deterministic and
   fast; used by the data-parallel trainer and the distributed K-FAC
   implementation.

2. **SPMD-style (threaded)** — ``world.run_spmd(program)`` launches one
   thread per rank; each thread's :class:`RankView` offers
   ``allreduce``/``allgather``/``broadcast``/``barrier`` calls matched by
   operation name, exactly like Horovod ops are matched by tensor name.
   Mismatched or missing posts raise :class:`DeadlockError` instead of
   hanging forever.

In both styles each collective has one launch, returning a
:class:`repro.comm.handles.Handle`, and its blocking form is
``launch(...).wait()``.  A :class:`repro.comm.handles.Launch` record
describes any collective; :meth:`World.start` is the one place that maps
its kind to a world op, for the lockstep driver and the SPMD matcher alike.

Every collective charges simulated seconds (from
:mod:`repro.comm.costmodel`) and payload bytes to per-phase accounting, so
experiments can report the communication profile the paper shows in
Table V.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.comm.collectives import binomial_broadcast, ring_allgather, ring_allreduce
from repro.comm.compression import WireCodec, get_codec, wire_nbytes
from repro.comm.faults import CollectiveError, FaultPlan
from repro.comm.costmodel import (
    EDR_LIKE,
    NetworkProfile,
    allgather_time,
    allreduce_time,
    broadcast_time,
)
from repro.comm.handles import Handle, Launch
from repro.obs.tracer import NULL_TRACER
from repro.utils.timer import TimerRegistry

__all__ = ["World", "RankView", "DeadlockError", "CommStats", "OverlapStats"]


class DeadlockError(RuntimeError):
    """Raised when a matched collective cannot complete (missing ranks)."""


@dataclass
class CommStats:
    """Aggregate communication accounting for one world."""

    bytes_by_phase: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    ops_by_phase: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, phase: str, nbytes: float) -> None:
        self.bytes_by_phase[phase] += nbytes
        self.ops_by_phase[phase] += 1

    def total_bytes(self) -> float:
        return sum(self.bytes_by_phase.values())

    def total_ops(self) -> int:
        return sum(self.ops_by_phase.values())


@dataclass
class OverlapStats:
    """Exposed vs. hidden communication seconds, per phase.

    Every collective's simulated cost lands here exactly once, when its
    handle is waited on: a blocking call is fully *exposed*; a wait with an
    overlap budget splits into ``exposed = max(0, t - overlap_budget)`` plus the
    ``hidden`` remainder (comm time masked by concurrent local compute,
    the SPD-KFAC pipelining gain).

    Example
    -------
    >>> from repro.comm.backend import OverlapStats
    >>> stats = OverlapStats()
    >>> stats.record("factor_comm", exposed=0.2, hidden=0.8)
    >>> stats.total("factor_comm"), stats.total_hidden()
    (1.0, 0.8)
    """

    exposed_by_phase: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    hidden_by_phase: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def record(self, phase: str, exposed: float, hidden: float) -> None:
        self.exposed_by_phase[phase] += exposed
        self.hidden_by_phase[phase] += hidden

    def exposed(self, phase: str) -> float:
        return self.exposed_by_phase.get(phase, 0.0)

    def hidden(self, phase: str) -> float:
        return self.hidden_by_phase.get(phase, 0.0)

    def total(self, phase: str) -> float:
        return self.exposed(phase) + self.hidden(phase)

    def total_hidden(self) -> float:
        return sum(self.hidden_by_phase.values())

    def as_dict(self) -> dict[str, dict[str, float]]:
        phases = set(self.exposed_by_phase) | set(self.hidden_by_phase)
        return {
            p: {"exposed": self.exposed(p), "hidden": self.hidden(p)}
            for p in sorted(phases)
        }


class World:
    """A simulated set of ``size`` communicating workers.

    Example
    -------
    >>> import numpy as np
    >>> from repro.comm.backend import World
    >>> world = World(2)
    >>> out = world.allreduce([np.array([1.0]), np.array([3.0])])
    >>> out[0].tolist()                          # averaged across ranks
    [2.0]
    >>> world.stats.total_ops()                  # and accounted
    1
    """

    def __init__(self, size: int, net: NetworkProfile = EDR_LIKE) -> None:
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.size = size
        self.net = net
        self.timers = TimerRegistry()
        self.stats = CommStats()
        self.overlap = OverlapStats()
        # SPMD matching state
        self._lock = threading.Condition()
        self._reset_matching()
        # fault/straggler injection (repro.comm.faults); None = clean fleet
        self.fault_plan: FaultPlan | None = None
        self.current_step = 0
        # span tracing (repro.obs.tracer); the null tracer records nothing
        self.tracer = NULL_TRACER

    def begin_step(self, step: int) -> None:
        """Advance the fault-injection step clock (no-op without a plan).

        Example
        -------
        >>> from repro.comm.backend import World
        >>> w = World(2)
        >>> w.begin_step(3)
        >>> w.current_step
        3
        """
        self.current_step = int(step)

    def _fault_gate(self, phase: str, group: Sequence[int] | None = None) -> float:
        """Consult the fault plan for one collective.

        Raises :class:`~repro.comm.faults.CollectiveError` for injected
        failures/dead ranks; returns extra straggler/latency seconds to
        fold into the op's simulated cost.
        """
        if self.fault_plan is None:
            return 0.0
        members = tuple(range(self.size)) if group is None else tuple(group)
        tracer = self.tracer
        try:
            extra = self.fault_plan.apply(self.current_step, phase, members)
        except CollectiveError as exc:
            if tracer.enabled:
                for r in members:
                    tracer.instant(
                        f"fault:{phase}", "fault", r,
                        attrs={"error": type(exc).__name__, "step": self.current_step},
                    )
            raise
        if extra and tracer.enabled:
            for r in members:
                tracer.instant(
                    f"fault:{phase}", "fault", r,
                    attrs={"delay_seconds": float(extra), "step": self.current_step},
                )
        return extra

    # ------------------------------------------------------------------
    # phase-style synchronous API
    # ------------------------------------------------------------------
    def _trace_comm(
        self,
        phase: str,
        seconds: float,
        exposed: float,
        hidden: float,
        nbytes: float,
        group: Sequence[int] | None,
    ) -> None:
        """Record one comm span per participating rank (tracing enabled only).

        Spans are recorded at the *exact* ledger-charge sites with the
        same floats in the same order, so per-phase trace sums reconcile
        with ``TimerRegistry``/``OverlapStats`` without tolerance.  The
        ledgers charge each op *once* regardless of group membership, so
        only the first member's span carries ``owner=True`` — summing
        owner spans (``Tracer.phase_totals()`` with no rank) rebuilds the
        global ledger; per-rank spans all carry the timings for display.
        """
        tracer = self.tracer
        members = list(range(self.size)) if group is None else list(group)
        for r in members:
            tracer.span(
                phase,
                "comm",
                r,
                seconds,
                attrs={
                    "exposed": exposed,
                    "hidden": hidden,
                    "bytes": float(nbytes),
                    "owner": r == members[0],
                },
            )

    def _launched(
        self,
        result: Any,
        phase: str,
        seconds: float,
        nbytes: float = 0.0,
        group: Sequence[int] | None = None,
    ) -> Handle:
        """A handle whose wait settles ``seconds`` and returns ``result``.

        The wait's ``overlap_seconds`` hides up to that much of the cost;
        the rest is charged as exposed (the whole cost for a blocking call).
        """

        def settle(overlap_seconds: float) -> Any:
            hidden = min(seconds, max(0.0, overlap_seconds))
            exposed = seconds - hidden
            self.timers.charge(phase, exposed)
            self.overlap.record(phase, exposed, hidden)
            if self.tracer.enabled:
                self._trace_comm(phase, seconds, exposed, hidden, nbytes, group)
            return result

        return Handle(settle)

    def _alone(self, result: Any, phase: str, extra: float, group: tuple[int, ...]) -> Handle:
        """A singleton group's op: no data moves, only fault delay is charged.

        Only an explicit group takes this path; a world op on ``World(1)``
        still records its op and bytes.
        """
        if extra:
            return self._launched(result, phase, extra, 0.0, group)
        return Handle(lambda overlap_seconds: result)

    def _group(self, ranks: Sequence[int] | None) -> tuple[int, ...]:
        """The member ranks of an op (``None`` = the whole world), validated."""
        if ranks is None:
            return tuple(range(self.size))
        group = tuple(ranks)
        if len(set(group)) != len(group) or any(not 0 <= r < self.size for r in group):
            raise ValueError(f"invalid group ranks {group} for world size {self.size}")
        return group

    def allreduce(
        self,
        buffers: Sequence[np.ndarray],
        op: str = "average",
        phase: str = "allreduce",
        codec: WireCodec | str | None = None,
    ) -> list[np.ndarray]:
        """Ring-allreduce per-rank buffers; ``op`` is ``"sum"`` or ``"average"``."""
        return self.allreduce_async(buffers, op=op, phase=phase, codec=codec).wait()

    def allreduce_async(
        self,
        buffers: Sequence[np.ndarray],
        op: str = "average",
        phase: str = "allreduce",
        codec: WireCodec | str | None = None,
    ) -> Handle[list[np.ndarray]]:
        """Launch a ring allreduce.

        The data movement happens eagerly (the phase-style world is
        deterministic); the simulated cost is settled at
        ``handle.wait(overlap_seconds=...)``, splitting it into exposed and
        compute-hidden seconds.

        With a ``codec`` (``"fp16"``/``"bf16"``) the wire carries the
        compressed representation — bytes and seconds are charged at the
        codec's itemsize — while the reduction itself runs on decoded
        **fp32 accumulators**; the result is re-quantized to wire
        precision, exactly like an NCCL half-precision allreduce with
        fp32 arithmetic.
        """
        bufs = list(buffers)
        if len(bufs) != self.size:
            raise ValueError(f"expected {self.size} buffers, got {len(bufs)}")
        extra = self._fault_gate(phase)
        codec = get_codec(codec)
        # non-finite payloads are legitimate here: AMP overflow steps ship
        # saturated values and detect them *after* the reduce, so the ring
        # arithmetic must not warn about inf/nan propagation
        with np.errstate(invalid="ignore", over="ignore"):
            if codec is not None:
                nbytes = wire_nbytes(bufs[0], codec)
                bufs = [codec.decode(codec.encode(b)) for b in bufs]
            else:
                nbytes = bufs[0].nbytes
            out = ring_allreduce(bufs)
            if op == "average":
                out = [o / self.size for o in out]
            elif op != "sum":
                raise ValueError(f"unknown reduction op {op!r}")
            if codec is not None:
                out = [codec.quantize(o) for o in out]
        t = allreduce_time(nbytes, self.size, self.net) + extra
        self.stats.record(phase, nbytes)
        return self._launched(out, phase, t, nbytes)

    def allgather(
        self, contributions: Sequence[np.ndarray], phase: str = "allgather"
    ) -> list[list[np.ndarray]]:
        """Ring-allgather per-rank tensors (shapes may differ across ranks)."""
        return self.allgather_async(contributions, phase=phase).wait()

    def allgather_async(
        self, contributions: Sequence[np.ndarray], phase: str = "allgather"
    ) -> Handle[list[list[np.ndarray]]]:
        """Launch a ring allgather over the world (see :meth:`allreduce_async`)."""
        return self._allgather(contributions, None, phase)

    def group_allgather_async(
        self,
        contributions: Sequence[np.ndarray],
        ranks: Sequence[int],
        phase: str = "allgather",
    ) -> Handle[list[list[np.ndarray]]]:
        """Launch a ring allgather restricted to a rank subset (a worker group).

        ``contributions`` is ordered as ``ranks``; each member receives
        the full list of member contributions.  Cost and bytes are those
        of a ``len(ranks)``-rank ring — the gradient-worker-fraction
        strategy's cheaper eigenbasis exchange.  A singleton group moves
        no data and charges nothing but injected fault delay.
        """
        return self._allgather(contributions, ranks, phase)

    def _allgather(
        self, contributions: Sequence[np.ndarray], ranks: Sequence[int] | None, phase: str
    ) -> Handle[list[list[np.ndarray]]]:
        group = self._group(ranks)
        contribs = list(contributions)
        if len(contribs) != len(group):
            raise ValueError(f"expected {len(group)} contributions, got {len(contribs)}")
        extra = self._fault_gate(phase, group)
        if ranks is not None and len(group) == 1:
            return self._alone([[contribs[0]]], phase, extra, group)
        total = float(sum(c.nbytes for c in contribs))
        out = ring_allgather(contribs)
        t = allgather_time(total, len(group), self.net) + extra
        self.stats.record(phase, total)
        return self._launched(out, phase, t, total, group)

    def broadcast(
        self, value: np.ndarray, root: int = 0, phase: str = "broadcast"
    ) -> list[np.ndarray]:
        """Binomial broadcast from ``root``; returns one copy per rank."""
        return self._broadcast(value, root, None, phase).wait()

    def group_broadcast_async(
        self,
        value: np.ndarray,
        root: int,
        ranks: Sequence[int],
        phase: str = "broadcast",
    ) -> Handle[list[np.ndarray]]:
        """Launch a binomial broadcast from ``root`` to the subset ``ranks``.

        Resolves to one copy per listed rank (ordered as ``ranks``).  The
        simulated tree spans only the group, so a broadcast to few ranks
        is proportionally cheaper than a world broadcast.
        """
        return self._broadcast(value, root, ranks, phase)

    def _broadcast(
        self, value: np.ndarray, root: int, ranks: Sequence[int] | None, phase: str
    ) -> Handle[list[np.ndarray]]:
        group = self._group(ranks)
        if root not in group:
            raise ValueError(f"root {root} not in group {group}")
        extra = self._fault_gate(phase, group)
        if ranks is not None and len(group) == 1:
            return self._alone([value], phase, extra, group)
        out = binomial_broadcast(value, len(group), group.index(root))
        t = broadcast_time(value.nbytes, len(group), self.net) + extra
        self.stats.record(phase, float(value.nbytes))
        return self._launched(out, phase, t, float(value.nbytes), group)

    def start(self, launch: Launch, contributions: Sequence[np.ndarray]) -> Handle:
        """Launch the collective ``launch`` describes.

        ``contributions`` hold every member's tensor, ordered as the op's
        members (``launch.ranks``, or the whole world); the handle resolves
        to one result per member, in the same order.  The op runs through
        the public launch of its kind, so per-op accounting sees it.

        Example
        -------
        >>> import numpy as np
        >>> from repro.comm.backend import World
        >>> from repro.comm.handles import Launch
        >>> world = World(4)
        >>> launch = Launch("broadcast", None, "b", "broadcast", ranks=(2, 0), root=2)
        >>> [a.tolist() for a in world.start(launch, [np.ones(1), None]).wait()]
        [[1.0], [1.0]]
        """
        kind, ranks, phase = launch.kind, launch.ranks, launch.phase
        if kind == "allreduce":
            return self.allreduce_async(
                contributions, op=launch.op, phase=phase, codec=launch.codec
            )
        if kind == "allgather":
            if ranks is None:
                return self.allgather_async(contributions, phase=phase)
            return self.group_allgather_async(contributions, ranks, phase=phase)
        if kind == "broadcast":
            value = dict(zip(self._group(ranks), contributions)).get(launch.root)
            if ranks is None:
                return self._broadcast(value, launch.root, None, phase)
            return self.group_broadcast_async(value, launch.root, ranks, phase=phase)
        if kind == "barrier":  # matching is the whole op
            return Handle(lambda overlap_seconds: [None] * len(contributions))
        raise ValueError(f"unknown collective kind {kind!r}")

    # ------------------------------------------------------------------
    # SPMD-style threaded API
    # ------------------------------------------------------------------
    def run_spmd(
        self,
        program: Callable[["RankView"], Any],
        timeout: float = 60.0,
    ) -> list[Any]:
        """Run ``program(rank_view)`` on every rank in its own thread.

        Returns the per-rank return values.  The first exception any rank
        raises is re-raised in the caller (the other ranks are unblocked
        and drained).  The matching state is cleared when the program
        ends, so a failed program leaves nothing behind for the next one.
        """
        results: list[Any] = [None] * self.size

        def runner(r: int) -> None:
            try:
                results[r] = program(RankView(self, r, timeout))
            except BaseException as exc:  # noqa: BLE001 - propagated below
                with self._lock:
                    if self._spmd_failed is None:
                        self._spmd_failed = exc
                    self._lock.notify_all()

        threads = [threading.Thread(target=runner, args=(r,), daemon=True) for r in range(self.size)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout * 2)
            if t.is_alive():  # pragma: no cover - defensive
                with self._lock:
                    self._spmd_failed = DeadlockError("rank thread failed to terminate")
                    self._lock.notify_all()
                raise DeadlockError("SPMD program did not terminate (deadlock?)")
        with self._lock:
            failed = self._spmd_failed
            self._reset_matching()
        if failed is not None:
            raise failed
        return results

    def _reset_matching(self) -> None:
        """Forget every posted, matched and failed SPMD op."""
        self._pending: dict[str, dict[int, np.ndarray]] = {}
        self._results: dict[str, dict[int, Any]] = {}
        self._consumed: dict[str, int] = {}
        self._op_meta: dict[str, Launch] = {}
        self._overlap_budget: dict[str, float] = {}
        # per (kind, name, rank) repost counter so op names can be reused
        # across iterations without racing slow consumers
        self._generation: dict[tuple[str, str, int], int] = {}
        self._spmd_failed: BaseException | None = None

    def _post_matched(
        self, launch: Launch, rank: int, timeout: float, overlap_seconds: float = 0.0
    ) -> Any:
        """Post one rank's side of the op ``launch`` names; blocks until matched.

        Every posting rank must describe the op identically (the record's
        equality ignores the payload).  ``overlap_seconds`` is this rank's
        compute time since the op was launched; the *minimum* across ranks
        bounds how much of the op's cost counts as hidden (the
        least-overlapped rank sets the barrier).  ``launch.ranks``
        restricts the op to a worker group: only listed ranks post, and
        the op completes once all of them have.
        """
        kind, name = launch.kind, launch.tag
        group = self._group(launch.ranks)
        with self._lock:
            if rank not in group:
                raise DeadlockError(
                    f"op {name!r}: rank {rank} posted to group {group} it is not in"
                )
            gen = self._generation.get((kind, name, rank), 0)
            self._generation[(kind, name, rank)] = gen + 1
            key = f"{kind}:{name}#{gen}"
            registered = self._op_meta.setdefault(key, launch)
            if registered != launch:
                raise DeadlockError(
                    f"op {name!r}: rank {rank} posted {launch}, "
                    f"but op was registered as {registered}"
                )
            pending = self._pending.setdefault(key, {})
            if rank in pending:
                raise DeadlockError(f"op {name!r}: rank {rank} posted twice")
            pending[rank] = launch.tensor
            self._overlap_budget[key] = min(
                self._overlap_budget.get(key, float("inf")), max(0.0, overlap_seconds)
            )
            if len(pending) == len(group):
                ordered = [pending[r] for r in group]
                try:
                    values = self.start(launch, ordered).wait(
                        self._overlap_budget.pop(key, 0.0)
                    )
                except CollectiveError as exc:
                    # deliver the failure to every member in lockstep: each
                    # rank re-raises the same error on consume, so all ranks
                    # observe (and can retry) the op identically
                    self._results[key] = {r: exc for r in group}
                else:
                    self._results[key] = dict(zip(group, values))
                self._consumed[key] = 0
                self._lock.notify_all()
            else:
                deadline = threading.TIMEOUT_MAX if timeout is None else timeout
                while key not in self._results:
                    if self._spmd_failed is not None:
                        raise DeadlockError(
                            f"op {name!r} aborted: another rank failed "
                            f"({type(self._spmd_failed).__name__})"
                        )
                    if not self._lock.wait(timeout=deadline):
                        missing = [r for r in group if r not in pending]
                        raise DeadlockError(
                            f"op {name!r} timed out waiting for ranks {missing}"
                        )
            result = self._results[key][rank]
            self._consumed[key] += 1
            if self._consumed[key] == len(group):
                # whole op consumed: clear so the name can be reused next iter
                del self._results[key]
                del self._pending[key]
                del self._consumed[key]
                del self._op_meta[key]
            if isinstance(result, CollectiveError):
                raise result
            return result


class RankView:
    """One rank's view of the world (SPMD style).

    Every collective is matched across ranks by ``name``, exactly like
    Horovod ops are matched by tensor name.  ``*_async`` launches post
    nothing yet: the blocking matched post happens at
    ``handle.wait(overlap_seconds=...)``, which forwards this rank's
    compute-overlap budget (the op's hidden time is bounded by the
    minimum budget across ranks).  The blocking forms are launch + wait.
    ``ranks`` restricts an allgather or broadcast to a worker group that
    this rank belongs to; only listed ranks post, and the results are
    ordered as ``ranks``.
    """

    def __init__(self, world: World, rank: int, timeout: float = 60.0) -> None:
        self.world = world
        self.rank = rank
        self.timeout = timeout

    @property
    def size(self) -> int:
        return self.world.size

    def begin_step(self, step: int) -> None:
        """Advance the shared fault-injection step clock from this rank.

        All ranks of an SPMD program call this with the same step value
        at the same loop point, so the benign last-writer-wins race is
        invisible.
        """
        self.world.begin_step(step)

    def start(self, launch: Launch) -> Handle:
        """Launch this rank's side of the op named ``launch.tag``.

        Nothing is posted yet: the blocking matched post happens at wait.
        """
        return Handle(
            lambda overlap_seconds: self.world._post_matched(
                launch, self.rank, self.timeout, overlap_seconds
            )
        )

    def allreduce(
        self,
        tensor: np.ndarray,
        name: str,
        op: str = "average",
        phase: str = "allreduce",
        codec: str | None = None,
    ) -> np.ndarray:
        """Blocking named allreduce (matched across ranks by ``name``).

        ``codec`` names a wire compression (``"fp16"``/``"bf16"``); it is
        part of the matched metadata, so every rank must request the same
        transport precision.
        """
        return self.allreduce_async(tensor, name, op=op, phase=phase, codec=codec).wait()

    def allreduce_async(
        self,
        tensor: np.ndarray,
        name: str,
        op: str = "average",
        phase: str = "allreduce",
        codec: str | None = None,
    ) -> Handle[np.ndarray]:
        """Launch a named allreduce; the matched post happens at wait."""
        return self.start(Launch("allreduce", tensor, name, phase, op=op, codec=codec))

    def allgather(
        self,
        tensor: np.ndarray,
        name: str,
        phase: str = "allgather",
        ranks: Sequence[int] | None = None,
    ) -> list[np.ndarray]:
        """Blocking named allgather; returns the members' contributions."""
        return self.allgather_async(tensor, name, phase=phase, ranks=ranks).wait()

    def allgather_async(
        self,
        tensor: np.ndarray,
        name: str,
        phase: str = "allgather",
        ranks: Sequence[int] | None = None,
    ) -> Handle[list[np.ndarray]]:
        """Launch a named allgather (see :meth:`allreduce_async`)."""
        return self.start(Launch("allgather", tensor, name, phase, ranks=ranks))

    def broadcast(
        self,
        tensor: np.ndarray,
        name: str,
        root: int = 0,
        phase: str = "broadcast",
        ranks: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Blocking named broadcast of ``root``'s tensor."""
        return self.broadcast_async(tensor, name, root=root, phase=phase, ranks=ranks).wait()

    def broadcast_async(
        self,
        tensor: np.ndarray,
        name: str,
        root: int = 0,
        phase: str = "broadcast",
        ranks: Sequence[int] | None = None,
    ) -> Handle[np.ndarray]:
        """Launch a named broadcast (see :meth:`allreduce_async`)."""
        return self.start(Launch("broadcast", tensor, name, phase, ranks=ranks, root=root))

    def barrier(self, name: str = "barrier") -> None:
        """Block until every rank reaches the barrier."""
        self.start(Launch("barrier", None, name, "barrier")).wait()
