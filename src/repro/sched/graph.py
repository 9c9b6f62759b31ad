"""Task dependency graph for the unified K-FAC update scheduler.

One K-FAC update step decomposes into per-layer tasks (SPD-KFAC,
arXiv:2107.06533):

- ``FactorComm`` — allreduce one bucket of running-average factors;
- ``Eig`` — eigendecompose (or invert) factors this step refreshes;
- ``EigShare`` — allgather second-order state inside one gradient-worker
  group (the world at ``f = 1``; nothing for the singleton groups of
  ``f = 1/P``, where state stays local);
- ``Precondition`` — apply a layer's eigenbasis to its gradient;
- ``GradShare`` — ship preconditioned gradients to ranks that do not
  hold the eigenbasis (a root's broadcast, or at ``f = 1/P`` one
  allgather of every root's payload).

Nodes carry explicit data-dependency edges; the planner
(:mod:`repro.sched.planner`) derives the graph from the factor/layer
assignment, and the executor (:mod:`repro.sched.executor`) walks a
linearisation of it, turning comm tasks into the launch/wait protocol of
:mod:`repro.core.comm_ops`.  Every rank builds the graph from identical
metadata, so :meth:`TaskGraph.topo_order` is deterministic and
rank-independent — the property the lockstep drivers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = [
    "TASK_KINDS",
    "Task",
    "TaskGraph",
    "SchedulerError",
    "lint_schedule",
]

#: the task vocabulary, in rough pipeline order
TASK_KINDS = ("FactorComm", "Eig", "EigShare", "Precondition", "GradShare")


class SchedulerError(ValueError):
    """An invalid task graph or schedule (cycle, unknown dep, bad order).

    Example
    -------
    >>> from repro.sched.graph import SchedulerError
    >>> issubclass(SchedulerError, ValueError)
    True
    """


@dataclass(frozen=True)
class Task:
    """One schedulable unit of K-FAC work.

    ``deps`` name the tasks whose outputs this task consumes; ``layers``
    the model layers it touches (for reporting); ``payload`` carries
    planner-private execution detail (bucket index, group ranks, ...).

    Example
    -------
    >>> from repro.sched.graph import Task
    >>> t = Task("eig:conv1/A", "Eig", deps=("factor_comm:0",))
    >>> t.kind, t.deps
    ('Eig', ('factor_comm:0',))
    """

    name: str
    kind: str
    deps: tuple[str, ...] = ()
    layers: tuple[str, ...] = ()
    payload: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchedulerError("task name must be non-empty")
        if self.kind not in TASK_KINDS:
            raise SchedulerError(
                f"unknown task kind {self.kind!r}; choose from {TASK_KINDS}"
            )


class TaskGraph:
    """Insertion-ordered DAG of :class:`Task` nodes.

    Example
    -------
    >>> from repro.sched.graph import Task, TaskGraph
    >>> g = TaskGraph()
    >>> g.add(Task("factor_comm:0", "FactorComm"))
    >>> g.add(Task("eig:fc/A", "Eig", deps=("factor_comm:0",)))
    >>> g.topo_order()
    ['factor_comm:0', 'eig:fc/A']
    >>> g.reachable("factor_comm:0", "eig:fc/A")
    True
    """

    def __init__(self, tasks: Iterable[Task] = ()) -> None:
        self._tasks: dict[str, Task] = {}
        for task in tasks:
            self.add(task)

    def add(self, task: Task) -> None:
        """Insert a node; duplicate names are a scheduling bug."""
        if task.name in self._tasks:
            raise SchedulerError(f"duplicate task name {task.name!r}")
        self._tasks[task.name] = task

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __getitem__(self, name: str) -> Task:
        return self._tasks[name]

    @property
    def tasks(self) -> list[Task]:
        """All tasks, in insertion order."""
        return list(self._tasks.values())

    def validate(self) -> None:
        """Raise :class:`SchedulerError` on unknown deps or cycles."""
        for task in self._tasks.values():
            for dep in task.deps:
                if dep not in self._tasks:
                    raise SchedulerError(
                        f"task {task.name!r} depends on unknown task {dep!r}"
                    )
        self.topo_order()  # raises on cycles

    def topo_order(self) -> list[str]:
        """Deterministic topological order (Kahn's algorithm).

        Ties are broken by insertion order, which every rank derives from
        the same metadata — so the linearisation is identical across
        ranks, a requirement for lockstep launch/wait matching.
        """
        indegree = {name: 0 for name in self._tasks}
        dependents: dict[str, list[str]] = {name: [] for name in self._tasks}
        for task in self._tasks.values():
            for dep in task.deps:
                if dep in indegree:
                    indegree[task.name] += 1
                    dependents[dep].append(task.name)
        ready = [name for name in self._tasks if indegree[name] == 0]
        order: list[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            next_ready = []
            for child in dependents[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    next_ready.append(child)
            # preserve insertion order among newly-ready tasks
            ready = sorted(
                ready + next_ready, key=list(self._tasks).index
            )
        if len(order) != len(self._tasks):
            stuck = sorted(set(self._tasks) - set(order))
            raise SchedulerError(f"task graph has a cycle through {stuck}")
        return order

    def reachable(self, src: str, dst: str) -> bool:
        """True iff ``dst`` transitively depends on ``src``."""
        if src not in self._tasks or dst not in self._tasks:
            raise SchedulerError(f"unknown task in reachability query: {src!r} -> {dst!r}")
        frontier = [dst]
        seen = set()
        while frontier:
            name = frontier.pop()
            if name == src:
                return True
            if name in seen:
                continue
            seen.add(name)
            frontier.extend(self._tasks[name].deps)
        return False


def lint_schedule(graph: TaskGraph, schedule: Sequence[str]) -> None:
    """Reject schedules that could not execute the graph correctly.

    Checks, in order: duplicate entries, entries naming no graph task,
    graph tasks missing from the schedule (unreachable — they would never
    run), and dependency-order violations (a task scheduled before one of
    its deps).  Raises :class:`SchedulerError` on the first offence.

    Example
    -------
    >>> from repro.sched.graph import Task, TaskGraph, lint_schedule
    >>> g = TaskGraph([Task("a", "Eig"), Task("b", "Precondition", deps=("a",))])
    >>> lint_schedule(g, ["a", "b"])          # valid: no exception
    >>> lint_schedule(g, ["b", "a"])
    Traceback (most recent call last):
        ...
    repro.sched.graph.SchedulerError: task 'b' scheduled before its dependency 'a'
    """
    seen: set[str] = set()
    for name in schedule:
        if name in seen:
            raise SchedulerError(f"duplicate task {name!r} in schedule")
        if name not in graph:
            raise SchedulerError(f"schedule names unknown task {name!r}")
        for dep in graph[name].deps:
            if dep not in seen:
                raise SchedulerError(
                    f"task {name!r} scheduled before its dependency {dep!r}"
                )
        seen.add(name)
    missing = [t.name for t in graph.tasks if t.name not in seen]
    if missing:
        raise SchedulerError(
            f"schedule leaves tasks unreachable (never executed): {missing}"
        )
