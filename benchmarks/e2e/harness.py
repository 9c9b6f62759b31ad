"""Measurement code of the end-to-end benchmark: one workload, one process.

:func:`run_end_to_end` is the untraced run behind every end-to-end metric;
:func:`run_traced` is the shorter run with the wrappers of ``trace.py``
installed that yields the per-layer metrics.  Both drive
``DataParallelTrainer.train_iteration`` in a closed loop on batches drawn
from the benchmark seed, and both run the correctness checks.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.elastic import gather_state_dict
from repro.obs.tracer import Tracer
from repro.tensor import gram, im2col

from . import trace
from .metrics import END_TO_END, LAYER_GROUPS, PER_LAYER
from .workloads import WARMUP_STEPS, Workload

__all__ = ["Plan", "END_TO_END_PLAN", "TRACED_PLAN", "smoke_plan", "run_end_to_end", "run_traced"]

RESHARD_STEPS = 10
PROBE_REPEATS = 20


@dataclass(frozen=True)
class Plan:
    """How much one run measures."""

    #: complete set-ups timed (the last one is measured on)
    setups: int
    #: K-FAC steps per block; blocks alternate with the other segment, so
    #: slow host drift hits both
    block: int
    #: SGD steps per block (untraced run only)
    sgd_block: int
    #: rounds always run; a time-boxed run then continues until --seconds
    min_rounds: int
    #: timed checkpoint round trips, after one discarded
    ckpt_trips: int
    time_boxed: bool = True


#: 4 x 25 = 100 K-FAC steps at least, so step_ms_p90 has 10 samples beyond it
END_TO_END_PLAN = Plan(setups=3, block=25, sgd_block=12, min_rounds=4, ckpt_trips=15)
#: a traced block is one kfac_update_freq cycle
TRACED_PLAN = Plan(setups=1, block=5, sgd_block=0, min_rounds=4, ckpt_trips=3)


def smoke_plan(steps: int, sgd_steps: int = 1) -> Plan:
    """One block of exactly ``steps`` (+ ``sgd_steps``) timed steps, no time box."""
    return Plan(setups=1, block=steps, sgd_block=sgd_steps, min_rounds=1, ckpt_trips=1, time_boxed=False)

clock = time.perf_counter


class Stepper:
    """One trainer and the seeded batch stream that drives it.

    The K-FAC and the SGD stepper of a session draw identical streams, so
    step ``i`` of both trains on the same batch.
    """

    def __init__(self, trainer: Any, x: np.ndarray, y: np.ndarray, lr: float, seed: int) -> None:
        self.trainer = trainer
        self.x, self.y, self.lr = x, y, lr
        self.rng = np.random.default_rng([seed, 1])
        self.shape = (trainer.config.world_size, trainer.config.batch_size)
        self.steps = 0
        self.losses: list[float] = []
        self.step_s: list[float] = []
        self.batch_s: list[float] = []

    def step(self) -> None:
        t0 = clock()
        idx = self.rng.integers(0, len(self.x), size=self.shape)
        batches = [(self.x[i], self.y[i]) for i in idx]
        t1 = clock()
        self.trainer.world.begin_step(self.steps)
        loss = self.trainer.train_iteration(batches, self.lr)
        t2 = clock()
        self.steps += 1
        self.losses.append(loss)
        self.step_s.append(t2 - t1)
        self.batch_s.append(t1 - t0)

    def run(self, n: int) -> None:
        for _ in range(n):
            self.step()

    def timed(self, what: list[float]) -> list[float]:
        """``what`` without its warm-up entries."""
        return what[WARMUP_STEPS:]


@dataclass
class Session:
    x: np.ndarray
    y: np.ndarray
    gen_s: float
    kfac: Stepper
    sgd: Stepper | None


def set_up(w: Workload, seed: int, sgd: bool = True) -> Session:
    """Generate the data, build the trainers, run the warm-up steps."""
    t0 = clock()
    x, y = w.make_data(seed)
    gen_s = clock() - t0
    kfac = Stepper(w.trainer(x, y, w.kfac_hyper()), x, y, w.lr, seed)
    kfac.run(WARMUP_STEPS)
    control = None
    if sgd:
        control = Stepper(w.trainer(x, y, None), x, y, w.lr, seed)
        control.run(WARMUP_STEPS)
    return Session(x, y, gen_s, kfac, control)


# ----------------------------------------------------------------------
# ledgers and checks
# ----------------------------------------------------------------------
def comm_ledger(trainer: Any) -> dict[str, float]:
    """The world's public ledgers (and the trainer's stopwatches), flat."""
    world = trainer.world
    out = {f"bytes:{p}": b for p, b in world.stats.bytes_by_phase.items()}
    out.update({f"ops:{p}": float(n) for p, n in world.stats.ops_by_phase.items()})
    out["bytes"] = float(world.stats.total_bytes())
    out["ops"] = float(world.stats.total_ops())
    out["exposed_s"] = world.timers.grand_total()
    out["hidden_s"] = world.overlap.total_hidden()
    out.update({f"phase_s:{k}": sw.total for k, sw in trainer.stopwatches.items()})
    return out


def ledger_delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def replicas_equal(trainer: Any) -> bool:
    """Are every replica's parameters bitwise equal to replica 0's?"""
    ref = [p.data for p in trainer.replicas[0].parameters()]
    return all(
        np.array_equal(a, p.data)
        for model in trainer.replicas[1:]
        for a, p in zip(ref, model.parameters())
    )


def deep_equal(a: Any, b: Any) -> bool:
    """Bitwise structural equality of nested dicts / lists / arrays."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(deep_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(map(deep_equal, a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    return bool(a == b)


def portable_bundle(trainer: Any) -> dict:
    return gather_state_dict(trainer.kfacs[0], peers=trainer.kfacs)


def blocks_agree(ledgers: list[dict[str, float]]) -> dict[str, bool]:
    """Do wire bytes and exposed simulated time repeat block after block?

    Every timed block spans a whole number of ``kfac_update_freq`` cycles,
    so on a healthy fleet each moves exactly the same bytes (integers held
    in floats: compared exactly) and charges the same simulated seconds
    (differences of running float sums: compared to 1e-9 relative).
    """
    deltas = [ledger_delta(b, a) for a, b in zip(ledgers, ledgers[1:])]
    first = deltas[0]
    return {
        "wire_bytes_repeat": all(d["bytes"] == first["bytes"] for d in deltas),
        "sim_exposed_repeats": all(
            math.isclose(d["exposed_s"], first["exposed_s"], rel_tol=1e-9, abs_tol=1e-15)
            for d in deltas
        ),
    }


def checkpoint_phase(
    w: Workload, session: Session, workdir: str, trips: int, recorder: trace.Recorder | None = None
) -> tuple[list[float], dict[str, bool], dict[str, int]]:
    """Timed save + load round trips, then the restore checks.

    Returns the round-trip seconds (the first, discarded trip excluded),
    the checks, and the attempt counts they add.
    """
    src = session.kfac.trainer
    path = os.path.join(workdir, f"{w.name}.ckpt")
    if w.reshard_to is None:
        dst_stepper = session.kfac
    else:
        dst_stepper = Stepper(
            w.trainer(session.x, session.y, w.kfac_hyper(), world_size=w.reshard_to),
            session.x, session.y, w.lr, seed=0,
        )
    dst = dst_stepper.trainer
    if recorder is not None:
        trace.install(recorder, src)
        if dst is not src:
            recorder.span(dst, "load_checkpoint", "elastic.load")
    times = []
    for _ in range(trips + 1):
        t0 = clock()
        src.save_checkpoint(path)
        dst.load_checkpoint(path)
        times.append(clock() - t0)
    if recorder is not None:
        recorder.uninstall()

    checks: dict[str, bool] = {}
    saved = portable_bundle(src)
    saved_params = [p.data.copy() for p in src.replicas[0].parameters()]
    src.save_checkpoint(path)
    if w.reshard_to is None:
        # move the trainer off the saved state, so the load has to restore it
        session.kfac.step()
        src.load_checkpoint(path)
        checks["ckpt_roundtrip_bitwise"] = deep_equal(saved, portable_bundle(src)) and all(
            np.array_equal(a, p.data) for a, p in zip(saved_params, src.replicas[0].parameters())
        )
        extra_steps = 1
    else:
        dst.load_checkpoint(path)
        restored = portable_bundle(dst)
        checks["reshard_factors_equal"] = deep_equal(saved["layers"], restored["layers"]) and all(
            np.array_equal(a, p.data) for a, p in zip(saved_params, dst.replicas[0].parameters())
        )
        dst_stepper.run(RESHARD_STEPS)
        checks["reshard_steps_finite"] = all(map(math.isfinite, dst_stepper.losses))
        checks["reshard_replicas_equal"] = replicas_equal(dst)
        extra_steps = RESHARD_STEPS
    ckpt_bytes = os.path.getsize(path)
    os.unlink(path)
    return times[1:], checks, {"ckpt_trips": trips + 2, "post_restore_steps": extra_steps, "ckpt_bytes": ckpt_bytes}


def finish(
    w: Workload, seed: int, mode: str, metrics: dict[str, float], specs: tuple,
    checks: dict[str, bool], samples: dict[str, int], nonfinite: int, extra: dict[str, Any],
) -> dict[str, Any]:
    """Assemble one run's result; ``failed`` counts bad steps and checks."""
    attempted = (
        samples["kfac_steps"] + samples.get("sgd_steps", 0) + samples["ckpt_trips"]
        + samples["post_restore_steps"] + len(checks)
    )
    failed = nonfinite + sum(1 for ok in checks.values() if not ok)
    metrics = dict(metrics)
    if "failed_share" in {m.name for m in specs}:
        metrics["failed_share"] = failed / attempted
    names = [m.name for m in specs]
    if sorted(metrics) != sorted(names):
        raise RuntimeError(f"metric set drifted from metrics.py: {sorted(set(metrics) ^ set(names))}")
    return {
        "workload": w.name,
        "seed": seed,
        "mode": mode,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "metrics": {m.name: {"value": float(metrics[m.name]), "unit": m.unit} for m in specs},
        "checks": checks,
        "samples": samples,
        **extra,
    }


# ----------------------------------------------------------------------
# the untraced run
# ----------------------------------------------------------------------
def run_end_to_end(
    w: Workload, seed: int, seconds: float, workdir: str, plan: Plan = END_TO_END_PLAN
) -> dict[str, Any]:
    """Every end-to-end metric of one workload, tracing off."""
    setup_s = []
    for _ in range(plan.setups):
        session = None  # drop the previous set-up before building the next
        gc.collect()
        t0 = clock()
        session = set_up(w, seed)
        setup_s.append(clock() - t0)
    kfac, sgd = session.kfac, session.sgd

    gc.collect()
    gc.freeze()
    ledgers = [comm_ledger(kfac.trainer)]
    rounds, start = 0, clock()
    while True:
        kfac.run(plan.block)
        ledgers.append(comm_ledger(kfac.trainer))
        sgd.run(plan.sgd_block)
        rounds += 1
        if rounds >= plan.min_rounds and not (plan.time_boxed and clock() - start < seconds):
            break
    measured_s = clock() - start

    k_ms = [1e3 * t for t in kfac.timed(kfac.step_s)]
    s_ms = [1e3 * t for t in sgd.timed(sgd.step_s)]
    k_loss = kfac.timed(kfac.losses)
    # the loss and the ledger metrics cover the guaranteed rounds only,
    # however many more the time box allowed, so equal seeds give equal values
    guaranteed = plan.min_rounds * plan.block
    final_loss = statistics.fmean(k_loss[guaranteed // 2 : guaranteed])
    comm = ledger_delta(ledgers[plan.min_rounds], ledgers[0])

    checks = {"replicas_bitwise_equal": replicas_equal(kfac.trainer) and replicas_equal(sgd.trainer)}
    if plan.time_boxed:
        # a handful of smoke steps neither lowers the loss reliably nor
        # spans whole refresh cycles
        checks["loss_below_step0"] = final_loss < kfac.losses[0]
        checks.update(blocks_agree(ledgers))
    nonfinite = sum(1 for v in k_loss + sgd.timed(sgd.losses) if not math.isfinite(v))

    gc.collect()
    gc.freeze()
    trips, ckpt_checks, ckpt_counts = checkpoint_phase(w, session, workdir, plan.ckpt_trips)
    checks.update(ckpt_checks)

    metrics = {
        "setup_s": statistics.median(setup_s),
        "samples_per_s": w.global_batch * len(k_ms) / (sum(k_ms) / 1e3),
        "step_ms_p50": statistics.median(k_ms),
        "step_ms_p90": float(np.percentile(k_ms, 90)),
        "sgd_step_ms_p50": statistics.median(s_ms),
        "kfac_overhead_x": statistics.fmean(k_ms) / statistics.fmean(s_ms),
        "train_loss_final": final_loss,
        # other tenants and the disk only ever add time to a round trip, so
        # the fastest one repeats between runs (2-4%) where the median does
        # not (12-18%)
        "ckpt_stall_s": min(trips),
        "wire_bytes_per_step": comm["bytes"] / guaranteed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "kfac_steps": len(k_ms), "sgd_steps": len(s_ms), "rounds": rounds,
        "setups": len(setup_s), **ckpt_counts,
    }
    exact = {"sim_comm_exposed_ms_per_step": 1e3 * comm["exposed_s"] / guaranteed}
    return finish(
        w, seed, "end_to_end", metrics, END_TO_END, checks, samples, nonfinite,
        {"exact": exact, "measured_s": measured_s},
    )


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def kernel_probes(session: Session) -> dict[str, float]:
    """Direct ``im2col`` / ``gram`` timings on the workload's own shapes.

    One evaluation-mode forward (no K-FAC capture) records the input and
    output shape of every preconditioned module; the probes then time the
    costliest convolution lowering and the costliest activation Gram.
    """
    stepper = session.kfac
    trainer = stepper.trainer
    model = trainer.replicas[0]
    shapes: dict[str, tuple] = {}
    removers = [
        layer.module.register_forward_hook(
            lambda m, inp, out, name=layer.name: shapes.__setitem__(name, (inp.shape, out.shape))
        )
        for layer in trainer.kfacs[0].layers
    ]
    model.eval()
    model(session.x[: stepper.shape[1]])
    model.train()
    for remove in removers:
        remove()

    rng = np.random.default_rng(0)
    best_conv, best_gram = None, None
    for layer in trainer.kfacs[0].layers:
        inp, out = shapes[layer.name]
        kind = type(layer.module).__name__
        if kind == "Conv2d":
            rows = out[0] * out[2] * out[3]
            if best_conv is None or math.prod(inp) > math.prod(best_conv[0]):
                best_conv = (inp, layer.module)
        elif kind == "Embedding":
            continue  # its A factor is a bincount, not a Gram
        else:
            rows = math.prod(inp[:-1])
        cost = rows * layer.a_dim**2
        if best_gram is None or cost > best_gram[0]:
            best_gram = (cost, rows, layer.a_dim)

    def median_ms(fn: Any) -> float:
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = clock()
            fn()
            times.append(clock() - t0)
        return 1e3 * statistics.median(times)

    dtype = session.kfac.trainer.replicas[0].parameters()[0].data.dtype
    out = {"tensor.im2col_probe_ms": 0.0, "tensor.gram_probe_ms": 0.0}
    if best_conv is not None:
        inp, conv = best_conv
        data = rng.standard_normal(inp).astype(dtype)
        out["tensor.im2col_probe_ms"] = median_ms(
            lambda: im2col(data, conv.kernel_size, conv.stride, conv.padding)
        )
    if best_gram is not None:
        acts = rng.standard_normal(best_gram[1:]).astype(dtype)
        out["tensor.gram_probe_ms"] = median_ms(lambda: gram(acts))
    return out


def run_traced(
    w: Workload, seed: int, seconds: float, workdir: str,
    plan: Plan = TRACED_PLAN, spans_path: str | None = None,
) -> dict[str, Any]:
    """Every per-layer metric of one workload.

    Each round runs one block of plain steps and one block of traced steps
    on the same K-FAC trainer, then one block on a second trainer built with
    ``TrainerConfig.tracer=Tracer()``.  A block is one ``kfac_update_freq``
    cycle, so the three interleave finely enough for host drift to cancel in
    the two overhead ratios.  Rounds stop at ``seconds``.
    """
    block = plan.block
    session = set_up(w, seed, sgd=False)
    kfac = session.kfac
    trainer = kfac.trainer
    rec = trace.Recorder()
    obs_tracer = Tracer()
    obs = Stepper(
        w.trainer(session.x, session.y, w.kfac_hyper(), tracer=obs_tracer),
        session.x, session.y, w.lr, seed,
    )
    obs.run(WARMUP_STEPS)

    gc.collect()
    gc.freeze()
    first = comm_ledger(trainer)
    traced = dict.fromkeys(first, 0.0)
    plain_ms: list[float] = []
    traced_ms: list[float] = []
    batch_ms: list[float] = []
    rounds, start = 0, clock()
    while True:
        kfac.run(block)
        plain_ms += [1e3 * t for t in kfac.step_s[-block:]]
        trace.install(rec, trainer)
        before = comm_ledger(trainer)
        for _ in range(block):
            rec.step = kfac.steps
            kfac.step()
        rec.step = -1
        for key, value in ledger_delta(comm_ledger(trainer), before).items():
            traced[key] = traced.get(key, 0.0) + value
        rec.uninstall()
        traced_ms += [1e3 * t for t in kfac.step_s[-block:]]
        batch_ms += [1e3 * t for t in kfac.batch_s[-block:]]
        obs.run(block)
        rounds += 1
        if rounds >= plan.min_rounds and not (plan.time_boxed and clock() - start < seconds):
            break
    whole = ledger_delta(comm_ledger(trainer), first)
    n = len(traced_ms)
    all_steps = len(plain_ms) + n

    checks = {"replicas_bitwise_equal": replicas_equal(trainer)}
    nonfinite = sum(1 for v in kfac.timed(kfac.losses) if not math.isfinite(v))
    _, ckpt_checks, ckpt_counts = checkpoint_phase(
        w, session, workdir, plan.ckpt_trips, recorder=rec
    )
    checks.update(ckpt_checks)
    summary = trace.summarize(rec, trainer)
    off = summary["offstep_self_s"]
    # every round trip but the last (the restore check's) ran under spans
    trips = ckpt_counts["ckpt_trips"] - 1
    plain_p50 = statistics.median(plain_ms)

    def per_step_ms(key: str, field: str = "self_s") -> float:
        return 1e3 * summary[field].get(key, 0.0) / n

    # the trainer's exchange phase minus the collectives it issued: fusion
    # buffer packing, attributed to comm rather than left in the residual
    fusion_ms = 1e3 * max(0.0, traced["phase_s:exchange"] - summary["exchange_comm_s"]) / n
    eigs = summary["eigs"]
    max_dim = max((tag[0] for _, tag in eigs), default=0)
    widest = [1e3 * d for d, tag in eigs if tag[0] == max_dim]
    metrics = {
        "sim_comm_exposed_ms_per_step": 1e3 * whole["exposed_s"] / all_steps,
        "nn.forward_ms": per_step_ms("nn.forward"),
        "nn.backward_ms": per_step_ms("nn.backward"),
        **kernel_probes(session),
        "core.layers.capture_fwd_ms": per_step_ms("core.layers.capture_fwd"),
        "core.layers.capture_bwd_ms": per_step_ms("core.layers.capture_bwd"),
        "core.factors.A_ms": per_step_ms("core.factors.A"),
        "core.factors.G_ms": per_step_ms("core.factors.G"),
        "core.factors.ema_self_ms": per_step_ms("core.factors.update"),
        **{
            f"core.factors.{fam}_ms": 1e3 * summary["family_s"].get(fam, 0.0) / n
            for fam in ("conv", "linear", "embedding", "layernorm")
        },
        "core.factors.updates": summary["calls"].get("core.factors.update", 0) / n,
        "core.inverse.eig_ms": per_step_ms("core.inverse.eig") + per_step_ms("core.inverse.compute_eigen"),
        "core.inverse.eig_calls": len(eigs) / n,
        "core.inverse.eig_widest_ms": statistics.median(widest) if widest else 0.0,
        "core.inverse.eig_max_dim": max_dim,
        "core.layers.precondition_ms": per_step_ms("core.layers.precondition"),
        "core.layers.precondition_calls": summary["calls"].get("core.layers.precondition", 0) / n,
        "core.preconditioner.plan_ms": per_step_ms("core.preconditioner.plan"),
        "sched.tasks_per_step": summary["planned_tasks"] / n,
        "sched.executor_self_ms": per_step_ms("sched.executor"),
        "core.distributed.step_ms": per_step_ms("core.distributed.step", "total_s"),
        "core.distributed.self_ms": per_step_ms("core.distributed.step"),
        "comm.allreduce_ms": per_step_ms("comm.allreduce"),
        "comm.allgather_ms": per_step_ms("comm.allgather"),
        "comm.group_allgather_ms": per_step_ms("comm.group_allgather"),
        "comm.group_broadcast_ms": per_step_ms("comm.group_broadcast"),
        "comm.calls_per_step": traced["ops"] / n,
        "comm.grad_exchange_ms": 1e3 * traced["phase_s:exchange"] / n,
        "comm.fusion_flushes": traced.get("ops:grad_allreduce", 0.0) / n,
        "comm.bytes_factor": traced.get("bytes:factor_comm", 0.0) / n,
        "comm.bytes_eig": traced.get("bytes:eig_comm", 0.0) / n,
        "comm.bytes_grad": (traced.get("bytes:grad_allreduce", 0.0) + traced.get("bytes:precond_comm", 0.0)) / n,
        "comm.sim_exposed_ms": 1e3 * traced["exposed_s"] / n,
        "comm.sim_hidden_ms": 1e3 * traced["hidden_s"] / n,
        "core.distributed.retries": trainer.kfac_controller.comm_retries,
        "core.distributed.fallbacks": trainer.kfac_controller.comm_fallbacks,
        "core.preconditioner.stale_fallbacks": max(k.n_stale_fallbacks for k in trainer.kfacs),
        "optim.step_ms": per_step_ms("optim.step"),
        "parallel.step_self_ms": per_step_ms("parallel.step") - fusion_ms,
        "data.batch_ms": statistics.fmean(batch_ms),
        "data.gen_s": session.gen_s,
        "elastic.gather_ms": 1e3 * off.get("elastic.gather", 0.0) / trips,
        "elastic.save_ms": 1e3 * off.get("elastic.save", 0.0) / trips,
        "elastic.load_ms": 1e3 * off.get("elastic.load", 0.0) / trips,
        "elastic.ckpt_bytes": ckpt_counts.pop("ckpt_bytes"),
        "obs.wrapper_overhead_x": statistics.median(traced_ms) / plain_p50,
        "obs.tracer_overhead_x": 1e3 * statistics.median(obs.timed(obs.step_s)) / plain_p50,
        "obs.tracer_spans_per_step": len(obs_tracer.spans()) / obs.steps,
    }

    # share of the traced step by layer group: the groups' self times sum
    # to the step span, "parallel" being what no wrapped layer accounts for.
    # A residual above 10% means a wrapper no longer finds its callable.
    step_ms = per_step_ms("parallel.step", "total_s")
    group_ms = dict.fromkeys(LAYER_GROUPS, 0.0)
    longest_first = sorted(LAYER_GROUPS, key=len, reverse=True)  # core.layers before core
    for key, self_s in summary["self_s"].items():
        group = next(g for g in longest_first if key.startswith(g))
        group_ms[group] += 1e3 * self_s / n
    group_ms["comm"] += fusion_ms
    group_ms["parallel"] -= fusion_ms
    shares = {g: ms / step_ms for g, ms in group_ms.items()}
    checks["layers_cover_step"] = shares["parallel"] <= 0.10

    if spans_path is not None:
        rec.write(spans_path)
    samples = {
        "kfac_steps": all_steps, "traced_steps": n, "spans": len(rec.spans),
        "rounds": rounds, **ckpt_counts,
    }
    return finish(
        w, seed, "traced", metrics, PER_LAYER, checks, samples, nonfinite,
        {"traced_step_ms": step_ms, "shares": shares,
         "layer_table": trace.layer_table(summary, trainer, n)},
    )
