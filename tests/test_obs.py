"""Observability (``repro.obs``): tracer, metrics registry, drift report.

Covers the acceptance guarantees of the tracing subsystem:

1. Chrome-trace export is schema-valid for arbitrary recording sequences
   (hypothesis round-trip), with per-rank monotone timestamps and every
   flow arrow's ``"f"`` end preceded by its ``"s"`` start;
2. lockstep determinism — two runs of the same SPMD program on the
   simulated clock produce *identical* canonical span lists;
3. reconciliation — a traced P=4 HYBRID ``scheduler="graph"`` training
   run's per-phase span sums equal the ``TrainingHistory`` comm ledgers
   to 1e-9 (exactly, in fact: the spans are recorded at the ledger
   charge sites with the same floats in the same order);
4. zero cost when disabled — a run without a tracer produces a history
   equal to the traced run's, field for field;
5. the unified metrics registry and the modeled-vs-measured drift report.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.backend import OverlapStats, World
from repro.comm.engine import task_overlap_profile
from repro.comm.faults import (
    CollectiveFailure,
    ComputeJitter,
    FaultPlan,
    RetryPolicy,
)
from repro.comm.horovod import HorovodContext
from repro.core.distributed import PhaseController, SPMDDriver
from repro.core.preconditioner import KFAC, LAYER_WISE, KFACHyperParams
from repro.nn.loss import CrossEntropyLoss
from repro.obs import (
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    fig1_drift_report,
    validate_chrome_trace,
)
from repro.optim.sgd import SGD
from repro.parallel.trainer import DataParallelTrainer, TrainerConfig
from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
from repro.perfmodel.iteration import IterationModel, KfacIntervals
from repro.perfmodel.specs import resnet_spec
from repro.utils.logging import Logger
from tests.conftest import build_tiny_cnn

# ----------------------------------------------------------------------
# hypothesis: arbitrary recording sequences -> valid Chrome traces
# ----------------------------------------------------------------------

#: one recording op: ("span", rank, duration) | ("launch", rank) | ("wait", rank)
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("span"),
            st.integers(0, 3),
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
        ),
        st.tuples(st.just("launch"), st.integers(0, 3), st.just(0.0)),
        st.tuples(st.just("wait"), st.integers(0, 3), st.just(0.0)),
    ),
    max_size=60,
)


def _replay(ops) -> Tracer:
    """Replay a generated op sequence; waits fire only for open launches."""
    tr = Tracer()
    pending = {r: 0 for r in range(4)}
    for kind, rank, dur in ops:
        if kind == "span":
            tr.span("work", "task", rank, duration=dur)
        elif kind == "launch":
            tr.launch(rank, f"op:{rank}", attrs={"bytes": 128.0})
            pending[rank] += 1
        elif pending[rank] > 0:
            tr.wait(rank, f"op:{rank}", duration=dur)
            pending[rank] -= 1
    return tr


class TestChromeTraceRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(_OPS)
    def test_export_is_schema_valid(self, ops):
        tr = _replay(ops)
        trace = tr.to_chrome()
        assert validate_chrome_trace(trace) == len(trace["traceEvents"])

    @settings(max_examples=60, deadline=None)
    @given(_OPS)
    def test_json_round_trip_preserves_trace(self, ops):
        tr = _replay(ops)
        assert json.loads(tr.to_json()) == tr.to_chrome()

    @settings(max_examples=60, deadline=None)
    @given(_OPS)
    def test_per_rank_timestamps_monotone(self, ops):
        tr = _replay(ops)
        cursor: dict[int, float] = {}
        for ev in tr.to_chrome()["traceEvents"]:
            if ev["ph"] != "X":
                continue
            # same float slack as validate_chrome_trace: µs conversion of
            # exact sim-clock sums can wobble in the last bit
            assert ev["ts"] >= cursor.get(ev["pid"], 0.0) - 1e-9
            assert ev["dur"] >= 0.0
            cursor[ev["pid"]] = ev["ts"] + ev["dur"]

    @settings(max_examples=60, deadline=None)
    @given(_OPS)
    def test_flow_waits_follow_their_launches(self, ops):
        tr = _replay(ops)
        opened: set[str] = set()
        for ev in tr.to_chrome()["traceEvents"]:
            if ev["ph"] == "s":
                assert ev["id"] not in opened
                opened.add(ev["id"])
            elif ev["ph"] == "f":
                assert ev["id"] in opened

    def test_validator_rejects_broken_traces(self):
        with pytest.raises(ValueError, match="missing keys"):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError, match="closed before open"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"name": "t", "cat": "flow", "ph": "f", "pid": 0,
                         "tid": 0, "ts": 0.0, "id": "0:t:0"}
                    ]
                }
            )
        bad_order = Tracer()
        bad_order.span("a", "task", 0, duration=1.0)
        trace = bad_order.to_chrome()
        trace["traceEvents"].append(
            {"name": "b", "cat": "task", "ph": "X", "pid": 0, "tid": 0,
             "ts": 0.0, "dur": 1.0}
        )
        with pytest.raises(ValueError, match="regresses"):
            validate_chrome_trace(trace)


# ----------------------------------------------------------------------
# lockstep determinism on the simulated clock
# ----------------------------------------------------------------------


def _traced_spmd_run():
    """One fixed SPMD K-FAC program (P=4, HYBRID f=0.5, graph scheduler)."""
    rng = np.random.default_rng(99)
    x = rng.normal(size=(32, 1, 8, 8)).astype(np.float32)
    y = rng.integers(0, 3, size=32).astype(np.int64)
    idx = [np.arange(r, 32, 4) for r in range(4)]
    world = World(4)
    world.tracer = Tracer()

    def program(view):
        model = build_tiny_cnn(seed=5)
        kfac = KFAC(
            model, rank=view.rank, world_size=4, damping=0.01, lr=0.1,
            kfac_update_freq=2, fac_update_freq=1,
            grad_worker_frac=0.5, scheduler="graph",
        )
        kfac.tracer = view.world.tracer
        driver = SPMDDriver(kfac, HorovodContext(view))
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        loss_fn = CrossEntropyLoss()
        for _ in range(3):
            opt.zero_grad()
            loss_fn(model(x[idx[view.rank]]), y[idx[view.rank]])
            model.backward(loss_fn.backward())
            for name, p in model.named_parameters():
                p.grad[...] = view.allreduce(p.grad, name=f"g:{name}", op="average")
            driver.step()
            opt.step()
        return None

    world.run_spmd(program, timeout=120)
    return world.tracer


class TestLockstepDeterminism:
    def test_identical_program_identical_trace(self):
        """Two runs of the same SPMD program yield equal span lists (wall
        times are excluded from span equality by design)."""
        first = _traced_spmd_run().spans()
        second = _traced_spmd_run().spans()
        assert len(first) > 0
        assert first == second

    def test_every_rank_has_a_track(self):
        tracer = _traced_spmd_run()
        assert tracer.ranks() == [0, 1, 2, 3]
        assert validate_chrome_trace(tracer.to_chrome()) > 0

    def test_kl_clip_instant_is_lockstep(self):
        """Each rank records one ``kl_clip`` instant per step, and the
        replicas' instants are equal (ν comes from averaged gradients), so
        the lockstep canonical traces above still match."""
        tracer = _traced_spmd_run()
        per_rank = [tracer.spans(rank=r, name="kl_clip") for r in range(4)]
        assert [len(spans) for spans in per_rank] == [3] * 4
        for spans in per_rank[1:]:
            assert [s.attrs for s in spans] == [s.attrs for s in per_rank[0]]
        assert {s.cat for s in per_rank[0]} == {"kfac"}


# ----------------------------------------------------------------------
# traced training: reconciliation + zero-cost-off
# ----------------------------------------------------------------------


def _train(tracer=None, fault_plan=None, retry_policy=RetryPolicy(), placement=None):
    """One P=4 training epoch (tiny CNN), by default HYBRID f=0.5 under
    the graph scheduler; ``placement`` replaces those K-FAC settings."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 1, 8, 8)).astype(np.float32)
    y = rng.integers(0, 3, size=64).astype(np.int64)
    cfg = TrainerConfig(
        world_size=4,
        batch_size=8,
        epochs=1,
        seed=3,
        kfac=KFACHyperParams(
            damping=0.01, kfac_update_freq=2, fac_update_freq=1,
            **(placement or dict(grad_worker_frac=0.5, scheduler="graph")),
        ),
        tracer=tracer,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
    )
    trainer = DataParallelTrainer(
        model_factory=lambda r: build_tiny_cnn(seed=5),
        train_x=x, train_y=y, val_x=x[:16], val_y=y[:16], config=cfg,
    )
    return trainer.train()


class TestTracedTraining:
    def test_trace_valid_and_reconciles_with_history(self):
        """Acceptance: the per-phase span sums equal the history's comm
        ledgers to 1e-9 on the simulated clock."""
        tracer = Tracer()
        history = _train(tracer=tracer)
        assert validate_chrome_trace(tracer.to_chrome()) > 0
        totals = tracer.phase_totals()  # ledger view: one count per op
        for phase, seconds in history.comm_seconds.items():
            assert abs(totals[phase]["exposed"] - seconds) <= 1e-9, phase
        for phase, hidden in history.comm_hidden_seconds.items():
            assert abs(totals[phase]["hidden"] - hidden) <= 1e-9, phase
        for phase, nbytes in history.comm_bytes.items():
            assert abs(totals[phase]["bytes"] - nbytes) <= 1e-9, phase
        # and nothing was traced that the ledgers don't know about
        assert set(totals) <= set(history.comm_seconds)

    def test_trace_covers_every_event_family(self):
        tracer = Tracer()
        _train(tracer=tracer)
        cats = {s.cat for s in tracer.spans()}
        assert {"comm", "task", "sched", "phase"} <= cats
        names = {s.name for s in tracer.spans()}
        assert any(n.startswith("Eig:") for n in names)
        assert any(n.startswith("Precondition:") for n in names)
        assert any(n.startswith("launch:") for n in names)
        assert any(n.startswith("wait:") for n in names)
        for phase in ("io", "forward", "backward", "exchange", "update"):
            assert f"phase:{phase}" in names

    def test_fault_and_retry_events_are_traced(self):
        tracer = Tracer()
        plan = FaultPlan(
            jitter=[ComputeJitter(rank=1, seconds=0.002, start_step=1, end_step=2)],
            failures=[CollectiveFailure(phase="factor_comm", step=1, count=1)],
        )
        history = _train(tracer=tracer, fault_plan=plan)
        assert history.comm_retries >= 1
        assert history.faults_injected >= 2
        names = {s.name for s in tracer.spans(cat="fault")}
        assert "retry:factor_comm" in names
        assert "fault:factor_comm" in names
        # the retry backoff is charged and traced under its own phase,
        # so reconciliation holds on degraded runs too
        totals = tracer.phase_totals()
        assert abs(
            totals["retry_backoff"]["exposed"]
            - history.comm_seconds["retry_backoff"]
        ) <= 1e-9

    def test_disabled_tracing_leaves_history_unchanged(self):
        """NULL tracer vs. live tracer: every deterministic history field
        is identical (wall-clock stopwatches legitimately differ run to
        run, instrumented or not)."""
        import dataclasses

        baseline = _train(tracer=None)
        traced = _train(tracer=Tracer())
        assert dataclasses.replace(baseline, phase_seconds={}) == (
            dataclasses.replace(traced, phase_seconds={})
        )
        assert set(baseline.phase_seconds) == set(traced.phase_seconds)

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("x", "task", rank=0) is None
        assert NULL_TRACER.spans() == []
        assert validate_chrome_trace(NULL_TRACER.to_chrome()) == 0


# ----------------------------------------------------------------------
# satellite: task_overlap_profile stable key set
# ----------------------------------------------------------------------


class TestTaskOverlapProfile:
    def test_all_task_kinds_present_when_empty(self):
        profile = task_overlap_profile(OverlapStats())
        assert sorted(profile) == [
            "EigShare", "FactorComm", "GradAllReduce", "GradShare",
        ]
        assert all(
            entry == {"exposed": 0.0, "hidden": 0.0} for entry in profile.values()
        )

    def test_recorded_phases_fold_into_their_kind(self):
        stats = OverlapStats()
        stats.record("factor_comm", exposed=0.25, hidden=0.5)
        stats.record("grad_allreduce", exposed=1.0, hidden=0.0)
        profile = task_overlap_profile(stats)
        assert profile["FactorComm"] == {"exposed": 0.25, "hidden": 0.5}
        assert profile["GradAllReduce"]["exposed"] == 1.0
        assert profile["EigShare"] == {"exposed": 0.0, "hidden": 0.0}

    def test_history_profile_has_stable_schema(self):
        history = _train()
        assert set(history.comm_task_profile) >= {
            "EigShare", "FactorComm", "GradAllReduce", "GradShare",
        }


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_is_monotone(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2, phase="a")
        reg.counter("c").inc(3, phase="b")
        assert reg.counter("c").value(phase="a") == 2.0
        assert reg.counter("c").total() == 5.0
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.counter("c").inc(-1)

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (0.1, 0.2, 0.3):
            reg.histogram("h").observe(v, kind="Eig")
        s = reg.histogram("h").summary(kind="Eig")
        assert s["count"] == 3
        assert math.isclose(s["mean"], 0.2)
        assert s["min"] == 0.1 and s["max"] == 0.3

    def test_collect_world_matches_ledgers(self):
        world = World(2)
        world.allreduce(
            [np.ones(8, dtype=np.float32) for _ in range(2)],
            phase="grad_allreduce",
        )
        reg = MetricsRegistry()
        reg.collect_world(world)
        assert reg.gauge("comm.exposed_seconds").value(
            phase="grad_allreduce"
        ) == world.timers.as_dict()["grad_allreduce"]
        assert reg.gauge("comm.bytes").value(
            phase="grad_allreduce"
        ) == world.stats.bytes_by_phase["grad_allreduce"]

    def test_kl_clip_nu_and_clipped_steps_are_lockstep(self):
        """Every replica records the same Eq. 18 scale and clip count (nu
        comes from averaged gradients), and the registry surfaces both."""
        p = 3
        models = [build_tiny_cnn(seed=2) for _ in range(p)]
        kfacs = [
            KFAC(m, rank=r, world_size=p, damping=0.01, kfac_update_freq=2,
                 grad_worker_frac=2 / 3)
            for r, m in enumerate(models)
        ]
        tracer = Tracer()
        for k in kfacs:
            k.tracer = tracer
        controller = PhaseController(kfacs, World(p))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8 * p, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=8 * p)
        nus = []
        for step in range(6):
            # a growing lr clips the later steps, not the first
            for k in kfacs:
                k.lr = 1e-3 * 10**step
            for r, m in enumerate(models):
                m.zero_grad()
                loss = CrossEntropyLoss()
                loss(m(x[r::p]), y[r::p])
                m.backward(loss.backward())
            # the exchange the trainer runs before the preconditioner
            for params in zip(*(m.parameters() for m in models)):
                mean = sum(q.grad for q in params) / p
                for q in params:
                    q.grad[...] = mean
            controller.step()
            assert len({k.kl_clip_nu for k in kfacs}) == 1
            nus.append(kfacs[0].kl_clip_nu)
        clipped = sum(nu < 1.0 for nu in nus)
        assert 0 < clipped < len(nus), nus
        assert [k.n_clipped_steps for k in kfacs] == [clipped] * p
        # the trace carries the same nu and clip flag on every rank, each step
        for r in range(p):
            attrs = [s.attrs for s in tracer.spans(rank=r, name="kl_clip")]
            assert attrs == [{"nu": nu, "clipped": nu < 1.0} for nu in nus]
        reg = MetricsRegistry()
        reg.collect_kfacs(kfacs)
        assert reg.counter("kfac.clipped_steps").total() == clipped
        assert reg.gauge("kfac.kl_clip_nu").value() == nus[-1]

    def test_history_metrics_snapshot_is_the_single_source(self):
        """The history's scalar ledger fields round-trip the registry."""
        history = _train()
        snap = history.metrics
        assert sorted(snap) == ["counters", "gauges", "histograms"]
        assert "kfac.steps" in snap["counters"]
        assert "comm.exposed_seconds" in snap["gauges"]
        exposed = snap["gauges"]["comm.exposed_seconds"]
        for phase, seconds in history.comm_seconds.items():
            assert exposed[f"phase={phase}"] == seconds
        assert history.final_loss_scale == snap["gauges"]["amp.loss_scale"][""]


# ----------------------------------------------------------------------
# drift report
# ----------------------------------------------------------------------


def _model() -> IterationModel:
    return IterationModel(resnet_spec(50), V100_LIKE, FRONTERA_LIKE)


class TestDriftReport:
    def _history(self):
        history = _train()
        return history

    def test_every_fig1_stage_present(self):
        report = fig1_drift_report(
            self._history(), _model(), p=4,
            intervals=KfacIntervals.from_eig_interval(10), scheduler="graph",
        )
        stages = report.stages()
        assert stages[:5] == ["io", "forward", "gradient", "exchange", "update"]
        # HYBRID run: the K-FAC comm sub-stages are reported too
        assert stages[5:] == ["factor_comm", "eig_comm", "precond_comm"]
        for row in report.rows:
            assert row.modeled >= 0.0 and row.measured >= 0.0
            assert not math.isnan(row.rel_error)

    def test_render_and_dict_views_agree(self):
        report = fig1_drift_report(
            self._history(), _model(), p=4,
            intervals=KfacIntervals.from_eig_interval(10),
        )
        table = report.render()
        as_dict = report.as_dict()
        for stage in report.stages():
            assert f"| {stage}" in table
            assert set(as_dict[stage]) == {
                "modeled", "measured", "abs_error", "rel_error",
            }
        assert report.meta["p"] == 4
        assert report.meta["strategy"] == "hybrid"

    def test_layer_wise_run_is_priced_as_f_one_over_p(self):
        """A LAYER_WISE run is f = 1/P: no eigenbasis share, a gradient
        share every iteration.  The report prices the fraction the run
        resolved, not the unset ``grad_worker_frac`` hyper-parameter."""
        history = _train(placement=dict(strategy=LAYER_WISE))
        report = fig1_drift_report(
            history, _model(), p=4, intervals=KfacIntervals.from_eig_interval(10),
        )
        assert report.row("eig_comm").modeled == 0.0
        assert report.row("precond_comm").modeled > 0.0
        assert history.grad_worker_frac == report.meta["grad_worker_frac"] == 0.25

    def test_inf_error_when_model_predicts_zero(self):
        from repro.obs.report import DriftRow

        row = DriftRow(stage="update", modeled=0.0, measured=0.5)
        assert math.isinf(row.rel_error)
        assert DriftRow(stage="update", modeled=0.0, measured=0.0).rel_error == 0.0


# ----------------------------------------------------------------------
# satellite: Logger.warn and degraded-path routing
# ----------------------------------------------------------------------


class TestLoggerWarn:
    def test_warn_prefix_and_level_gate(self):
        buf = io.StringIO()
        Logger("driver", level=1, stream=buf).warn("eig_comm retry 1/2")
        assert buf.getvalue() == "[driver:warn] eig_comm retry 1/2\n"
        silent = io.StringIO()
        Logger("driver", level=0, stream=silent).warn("dropped")
        assert silent.getvalue() == ""

    def test_controller_routes_retries_through_warn(self):
        world = World(4)
        world.fault_plan = FaultPlan(
            failures=[CollectiveFailure(phase="factor_comm", step=0, count=1)]
        )
        models = [build_tiny_cnn(seed=5) for _ in range(4)]
        kfacs = [
            KFAC(m, rank=r, world_size=4, damping=0.01,
                 kfac_update_freq=2, fac_update_freq=1)
            for r, m in enumerate(models)
        ]
        buf = io.StringIO()
        controller = PhaseController(
            kfacs, world, retry_policy=RetryPolicy(),
            logger=Logger("driver", stream=buf),
        )
        rng = np.random.default_rng(1)
        x = rng.normal(size=(16, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=16).astype(np.int64)
        losses = [CrossEntropyLoss() for _ in range(4)]
        world.begin_step(0)
        for r in range(4):
            models[r].zero_grad()
            losses[r](models[r](x), y)
            models[r].backward(losses[r].backward())
        controller.step()
        out = buf.getvalue()
        assert "[driver:warn]" in out
        assert "factor_comm" in out and "retry 1/" in out
        assert controller.comm_retries == 1
