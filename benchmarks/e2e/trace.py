"""Timing wrappers for the traced run: spans at each layer boundary.

Nothing inside ``src/`` is instrumented.  :func:`install` shadows the public
callables at every layer boundary of the objects the benchmark built
(trainer, replicas, optimizers, world, controller, preconditioners and their
layer handlers), plus three names the program resolves at call time
(``eigendecompose`` in its two calling modules, ``GraphExecutor.run`` and
``repro.elastic.gather_state_dict``), with wrappers that record a span per
call; :meth:`Recorder.uninstall` removes them again, so one trainer can
alternate traced and untraced blocks.

A span is ``[key, start, end, parent, step, tag]``, kept in one in-memory
list.  A layer's time is its *self* time: duration minus the child spans it
covers.  A callable a later refactor removes is skipped, and the metrics it
fed read 0.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from types import ModuleType
from typing import Any, Callable

__all__ = ["Recorder", "install", "summarize", "layer_table", "KEY", "START", "END", "PARENT", "STEP", "TAG"]

KEY, START, END, PARENT, STEP, TAG = range(6)

_MISSING = object()

#: KFACLayer module type -> core.factors family metric
_FAMILIES = {"conv2d": "conv", "linear": "linear", "embedding": "embedding", "layernorm": "layernorm"}


class Recorder:
    """Span store plus the install/uninstall bookkeeping of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []
        #: step id stamped on new spans; the runner sets it around each
        #: traced step and leaves -1 elsewhere (checkpoint round trips)
        self.step = -1
        #: rank whose step generator is currently running (-1 outside one)
        self.rank = -1

    # -- wrappers ---------------------------------------------------------
    def timed(self, fn: Callable, key: str, tag: Any = None) -> Callable:
        """``fn`` wrapped to record one span per call.

        A callable ``tag`` is a tagger: ``tag(args, result)`` computes the
        span's tag after the span has closed, so its cost lands in the
        parent's self time.  Any other value is the tag itself.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tagger = tag if callable(tag) else None
        constant = None if tagger is not None else tag

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = [key, clock(), 0.0, stack[-1] if stack else -1, self.step, constant]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if tagger is not None:
                span[TAG] = tagger(args, result)
            return result

        return wrapper

    def timed_generator(self, fn: Callable, key: str, rank_of: Callable[[Any], int]) -> Callable:
        """A generator function wrapped to record one span per resumption.

        The time a step generator spends between being resumed and yielding
        its next request is the generator's own work; the time between is
        the driver's.  ``rank_of(self)`` names the rank it runs for.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(owner: Any, *args: Any, **kwargs: Any) -> Any:
            gen = fn(owner, *args, **kwargs)
            rank = rank_of(owner)
            value = None
            while True:
                span = [key, clock(), 0.0, stack[-1] if stack else -1, self.step, rank]
                stack.append(len(spans))
                spans.append(span)
                self.rank = rank
                try:
                    request = gen.send(value)
                except StopIteration:
                    return
                finally:
                    span[END] = clock()
                    stack.pop()
                    self.rank = -1
                value = yield request

        return wrapper

    def patch(self, obj: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Shadow ``obj.attr`` with ``make(obj.attr)`` until :meth:`uninstall`."""
        if not hasattr(obj, attr):
            return
        own = vars(obj).get(attr, _MISSING)
        # nn.Module overrides __setattr__; classes and modules reject
        # object.__setattr__
        shared = isinstance(obj, (type, ModuleType))
        put = setattr if shared else object.__setattr__
        drop = delattr if shared else object.__delattr__
        put(obj, attr, make(getattr(obj, attr)))
        if own is _MISSING:
            self._undo.append(lambda: drop(obj, attr))
        else:
            self._undo.append(lambda: put(obj, attr, own))

    def span(self, obj: Any, attr: str, key: str, tag: Any = None) -> None:
        self.patch(obj, attr, lambda fn: self.timed(fn, key, tag))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path: str) -> None:
        """Dump the raw spans (tags stringified) as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["key", "start", "end", "parent", "step", "tag"],
                    "spans": [s[:TAG] + [None if s[TAG] is None else str(s[TAG])] for s in self.spans],
                },
                fh,
            )


def install(rec: Recorder, trainer: Any) -> None:
    """Wrap every layer boundary reachable from ``trainer``."""
    import repro.core.layers
    import repro.elastic
    import repro.sched.executor

    rec.span(trainer, "train_iteration", "parallel.step")
    rec.span(trainer, "save_checkpoint", "elastic.save")
    rec.span(trainer, "load_checkpoint", "elastic.load")
    rec.span(repro.elastic, "gather_state_dict", "elastic.gather")
    for model in trainer.replicas:
        rec.span(model, "forward", "nn.forward")
        rec.span(model, "backward", "nn.backward")
    for opt in trainer.optimizers:
        rec.span(opt, "step", "optim.step")
    for op in ("allreduce", "allgather", "group_allgather", "group_broadcast"):
        rec.span(trainer.world, op, f"comm.{op}")
        rec.span(trainer.world, f"{op}_async", f"comm.{op}")
    if trainer.kfacs is None:
        return
    rec.span(trainer.kfac_controller, "step", "core.distributed.step")
    for kfac in trainer.kfacs:
        rec.span(kfac, "build_plan", "core.preconditioner.plan",
                 lambda args, plan: len(plan.schedule))
        for layer in kfac.layers:
            for attr, key in (
                ("save_input", "core.layers.capture_fwd"),
                ("save_grad_output", "core.layers.capture_bwd"),
                ("update_factors", "core.factors.update"),
                ("compute_A", "core.factors.A"),
                ("compute_G", "core.factors.G"),
                ("compute_eigen", "core.inverse.compute_eigen"),
                ("precondition", "core.layers.precondition"),
            ):
                rec.span(layer, attr, key, layer.name)

    layers_by_rank = {k.rank: k.layers for k in trainer.kfacs}

    def eig_tag(args: tuple, result: Any) -> tuple:
        """(dim, rank, layer name, factor kind) of a decomposed factor."""
        factor = args[0]
        for layer in layers_by_rank.get(rec.rank, ()):
            if factor is layer.A:
                return factor.shape[0], rec.rank, layer.name, "A"
            if factor is layer.G:
                return factor.shape[0], rec.rank, layer.name, "G"
        return factor.shape[0], rec.rank, None, None

    # the two modules that call eigendecompose hold their own binding of it
    for module in (repro.sched.executor, repro.core.layers):
        rec.span(module, "eigendecompose", "core.inverse.eig", eig_tag)
    rec.patch(
        repro.sched.executor.GraphExecutor,
        "run",
        lambda fn: rec.timed_generator(fn, "sched.executor", lambda ex: ex.kfac.rank),
    )


def summarize(rec: Recorder, trainer: Any) -> dict[str, Any]:
    """Aggregate the recorder's spans.

    Returns per-key totals over the spans of traced steps (``step >= 0``):
    ``self_s`` / ``total_s`` / ``calls`` by key, the same by (key, tag) as
    ``by_tag``, the checkpoint spans' self time as ``offstep_self_s``, and
    the raw eigendecomposition samples ``eigs`` as (seconds, tag) pairs.
    """
    spans = rec.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[str, Any] = {
        "self_s": defaultdict(float),
        "total_s": defaultdict(float),
        "calls": defaultdict(int),
        "by_tag": defaultdict(float),
        "offstep_self_s": defaultdict(float),
        "eigs": [],
        "planned_tasks": 0,
        # wall time of collectives the trainer itself issued (the gradient
        # exchange): comm spans whose parent is the step span
        "exchange_comm_s": 0.0,
    }
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        own = dur - child[i]
        key = s[KEY]
        if s[STEP] < 0:
            out["offstep_self_s"][key] += own
            continue
        out["self_s"][key] += own
        out["total_s"][key] += dur
        out["calls"][key] += 1
        tag = s[TAG]
        if key == "core.inverse.eig":
            out["eigs"].append((dur, tag))
            tag = tag[2]
        elif key == "core.preconditioner.plan":
            out["planned_tasks"] += tag
            continue
        elif key.startswith("comm.") and s[PARENT] >= 0 and spans[s[PARENT]][KEY] == "parallel.step":
            out["exchange_comm_s"] += dur
        if isinstance(tag, str):
            out["by_tag"][key, tag] += own
    # core.factors time by layer family
    family_of = {
        layer.name: _FAMILIES.get(type(layer.module).__name__.lower())
        for layer in (trainer.kfacs[0].layers if trainer.kfacs else ())
    }
    out["family_s"] = defaultdict(float)
    for (key, name), seconds in out["by_tag"].items():
        if key.startswith("core.factors.") and family_of.get(name):
            out["family_s"][family_of[name]] += seconds
    return out


def layer_table(summary: dict[str, Any], trainer: Any, steps: int) -> list[dict[str, Any]]:
    """Per-K-FAC-layer rows (the paper's Table V / Fig. 10 at our scale).

    Times are ms per K-FAC step summed over replicas; ``owner`` is the rank
    seen decomposing the layer's A / G factor.
    """
    by_tag = summary["by_tag"]
    owners: dict[tuple[str, str], int] = {}
    for _, (_dim, rank, name, kind) in summary["eigs"]:
        if name is not None:
            owners[name, kind] = rank
    scale = 1e3 / max(steps, 1)
    rows = []
    for layer in trainer.kfacs[0].layers:
        n = layer.name
        rows.append(
            {
                "layer": n,
                "a_dim": layer.a_dim,
                "g_dim": layer.g_dim,
                "owner": f"{owners.get((n, 'A'), '-')}/{owners.get((n, 'G'), '-')}",
                "A_ms": by_tag.get(("core.factors.A", n), 0.0) * scale,
                "G_ms": by_tag.get(("core.factors.G", n), 0.0) * scale,
                "eig_ms": by_tag.get(("core.inverse.eig", n), 0.0) * scale,
                "precondition_ms": by_tag.get(("core.layers.precondition", n), 0.0) * scale,
            }
        )
    return rows
