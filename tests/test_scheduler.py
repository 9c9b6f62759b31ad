"""The dependency-graph task scheduler (``repro.sched``).

Covers the unification guarantees of the graph scheduler:

1. equivalence matrix — the scheduler routes ("sync" and "graph")
   reproduce the retired hand-written pipelines' trajectories across
   {COMM_OPT, LAYER_WISE, HYBRID f in {1/P, 0.5, 1}} x
   {fp32, comm_dtype="fp16"} x symmetric on/off, P in {2, 4, 7};
2. DAG validity — plans are acyclic, every layer's ``Precondition``
   is reachable from a ``FactorComm`` node, and the topological order
   is deterministic and rank-independent;
3. the schedule linter rejects duplicate, unknown, mis-ordered, and
   unreachable task names;
4. overlap regression — HYBRID group eigenbasis shares are schedulable
   nodes: the graph route reports hidden ``eig_comm`` seconds at P >= 4
   (the retired hybrid pipeline ran the share synchronously), visible
   both in the raw overlap ledger and in ``TrainingHistory``;
5. the modeled ``kfac_iteration_time(scheduler=...)`` never prices the
   graph route above the sync route, at f in {1, 0.5, 1/P}.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.backend import World
from repro.core.assignment import FactorMeta, plan_units
from repro.core.distributed import PhaseController
from repro.core.preconditioner import COMM_OPT, HYBRID, LAYER_WISE, KFAC, KFACHyperParams
from repro.nn.loss import CrossEntropyLoss
from repro.obs.tracer import Tracer
from repro.parallel.trainer import DataParallelTrainer, TrainerConfig
from repro.optim.lr_scheduler import ConstantSchedule
from repro.sched import (
    SchedulerError,
    Task,
    TaskGraph,
    build_step_plan,
    choose_bucket_bytes,
    lint_schedule,
    plan_buckets,
)
from tests.conftest import build_tiny_cnn
from tests.test_grad_worker_frac import run_hybrid


def _strategy_kw(config: str, world_size: int) -> dict:
    """Map a matrix cell name to KFAC keyword arguments."""
    if config == "comm-opt":
        return {"strategy": COMM_OPT}
    if config == "layer-wise":
        return {"strategy": LAYER_WISE}
    frac = {"hybrid-1/p": 1.0 / world_size, "hybrid-0.5": 0.5, "hybrid-1": 1.0}[config]
    return {"strategy": HYBRID, "grad_worker_frac": frac}


CONFIGS = ["comm-opt", "layer-wise", "hybrid-1/p", "hybrid-0.5", "hybrid-1"]
COMM_VARIANTS = [
    {},
    {"comm_dtype": "fp16"},
    {"symmetric_comm": True},
    {"comm_dtype": "fp16", "symmetric_comm": True},
]


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("world_size", [2, 4, 7])
    @pytest.mark.parametrize("config", CONFIGS)
    def test_graph_matches_sync(self, world_size, config):
        """Same start, same data: the graph executor's trajectory equals the
        synchronous request stream's within reassociation noise."""
        kw = _strategy_kw(config, world_size)
        sync, w_sync = run_hybrid(
            world_size, steps=2, scheduler="sync", return_world=True, **kw
        )
        graph = run_hybrid(world_size, steps=2, scheduler="graph", **kw)
        for key in sync:
            np.testing.assert_allclose(
                graph[key], sync[key], atol=1e-6, rtol=1e-6, err_msg=f"{config}:{key}"
            )
        # a sync plan waits at once: no compute may be credited as overlap
        ledger = w_sync.overlap
        assert "factor_comm" in ledger.exposed_by_phase
        for phase in ledger.exposed_by_phase:
            assert ledger.hidden(phase) == 0.0, phase
            assert ledger.exposed(phase) == ledger.total(phase) > 0.0, phase
            assert w_sync.timers.total(phase) == ledger.exposed(phase), phase

    @pytest.mark.parametrize("variant", COMM_VARIANTS[1:], ids=["fp16", "sym", "fp16+sym"])
    @pytest.mark.parametrize("config", CONFIGS)
    def test_graph_matches_sync_comm_variants(self, config, variant):
        """Compressed and triangular-packed wire formats change the payload,
        never the math — graph and sync stay equivalent under both."""
        kw = _strategy_kw(config, 4) | variant
        sync = run_hybrid(4, steps=2, scheduler="sync", **kw)
        graph = run_hybrid(4, steps=2, scheduler="graph", **kw)
        for key in sync:
            np.testing.assert_allclose(
                graph[key], sync[key], atol=1e-6, rtol=1e-6, err_msg=f"{config}:{key}"
            )

    @pytest.mark.parametrize("world_size", [2, 7])
    @pytest.mark.parametrize("config", ["comm-opt", "hybrid-0.5"])
    def test_graph_matches_sync_fp16_sym_other_worlds(self, world_size, config):
        kw = _strategy_kw(config, world_size)
        kw.update(comm_dtype="fp16", symmetric_comm=True)
        sync = run_hybrid(world_size, steps=2, scheduler="sync", **kw)
        graph = run_hybrid(world_size, steps=2, scheduler="graph", **kw)
        for key in sync:
            np.testing.assert_allclose(
                graph[key], sync[key], atol=1e-6, rtol=1e-6, err_msg=key
            )


class _StreamRecorder(PhaseController):
    """PhaseController that logs the matched request stream."""

    def __init__(self, kfacs, world):
        super().__init__(kfacs, world)
        #: ("launch", tag) | ("wait", tag, per-rank compute_seconds)
        self.stream: list[tuple] = []

    def _start(self, launches):
        self.stream.append(("launch", launches[0].tag))
        return super()._start(launches)

    def _finish(self, launch, started, waits):
        self.stream.append(("wait", waits[0].tag, [w.compute_seconds for w in waits]))
        return super()._finish(launch, started, waits)


class TestSyncIsDegenerateLaunchWait:
    @pytest.mark.parametrize("world_size", [2, 4])
    @pytest.mark.parametrize("config", ["comm-opt", "layer-wise", "hybrid-0.5"])
    def test_sync_stream_is_launch_wait_pairs_with_zero_budget(self, world_size, config):
        """Every sync collective is ``Launch(tag)`` followed at once by
        ``WaitRequest(tag, 0.0)`` — even though Eig/Precondition compute
        (which a lazily-waiting executor would credit as overlap) ran
        before the EigShare / GradShare launches."""
        tracer = Tracer()
        world = World(world_size)
        world.tracer = tracer
        models = [build_tiny_cnn(seed=1) for _ in range(world_size)]
        kfacs = [
            KFAC(m, rank=r, world_size=world_size, scheduler="sync", kfac_update_freq=2,
                 **_strategy_kw(config, world_size))
            for r, m in enumerate(models)
        ]
        for k in kfacs:
            k.tracer = tracer
        controller = _StreamRecorder(kfacs, world)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=8).astype(np.int64)
        for _ in range(2):  # a refresh step, then a precondition-only step
            for m in models:
                loss = CrossEntropyLoss()
                m.zero_grad()
                loss(m(x), y)
                m.backward(loss.backward())
            controller.step()

        stream = controller.stream
        assert stream and len(stream) % 2 == 0
        for launch, wait in zip(stream[0::2], stream[1::2]):
            assert launch[0] == "launch" and wait[0] == "wait"
            assert wait[1] == launch[1]
            assert wait[2] == [0.0] * world_size
        # ... and that zero is not vacuous: simulated task compute preceded
        # the last launch on rank 0's track
        spans = tracer.spans(rank=0)
        last_launch = max(i for i, s in enumerate(spans) if s.name.startswith("launch:"))
        assert sum(s.duration for s in spans[:last_launch] if s.cat == "task") > 0.0
        assert world.overlap.total_hidden() == 0.0


class TestPlanValidity:
    @staticmethod
    def _capture(kfac, model):
        """One forward/backward so factors exist (the wire partition is
        derived from their dtypes)."""
        from repro.nn.loss import CrossEntropyLoss

        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=8).astype(np.int64)
        loss = CrossEntropyLoss()
        model.zero_grad()
        loss(model(x), y)
        model.backward(loss.backward())
        kfac.update_factors()

    def _plan(self, world_size=4, rank=0, scheduler="graph", **kw):
        model = build_tiny_cnn(seed=1)
        kfac = KFAC(model, rank=rank, world_size=world_size, scheduler=scheduler, **kw)
        self._capture(kfac, model)
        return kfac.build_plan()

    @pytest.mark.parametrize("config", CONFIGS)
    def test_plan_is_valid_dag(self, config):
        plan = self._plan(**_strategy_kw(config, 4))
        plan.graph.validate()  # acyclic, no dangling deps
        lint_schedule(plan.graph, plan.schedule)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_precondition_reachable_from_factor_comm(self, config):
        """Every layer's Precondition transitively depends on factor comm —
        no gradient is preconditioned with un-synchronized factors."""
        plan = self._plan(**_strategy_kw(config, 4))
        facs = [t.name for t in plan.graph.tasks if t.kind == "FactorComm"]
        pres = [t.name for t in plan.graph.tasks if t.kind == "Precondition"]
        assert facs and pres
        for pre in pres:
            assert any(plan.graph.reachable(f, pre) for f in facs), pre

    def test_topo_order_deterministic_and_rank_independent(self):
        """Collective launch order must agree across ranks: the plan's task
        names and topological order are identical on every rank."""
        plans = [
            self._plan(rank=r, strategy=HYBRID, grad_worker_frac=0.5) for r in range(4)
        ]
        ref_names = [t.name for t in plans[0].graph.tasks]
        ref_topo = plans[0].graph.topo_order()
        assert plans[0].graph.topo_order() == ref_topo  # repeatable
        for plan in plans[1:]:
            assert [t.name for t in plan.graph.tasks] == ref_names
            assert plan.graph.topo_order() == ref_topo
            assert plan.schedule == plans[0].schedule

    def test_sync_schedule_is_insertion_order(self):
        plan = self._plan(scheduler="sync")
        assert not plan.pipelined
        assert list(plan.schedule) == [t.name for t in plan.graph.tasks]

    def test_graph_schedule_launches_factors_first(self):
        plan = self._plan(bucket_bytes=1 << 8)  # force several buckets
        assert plan.pipelined
        assert len(plan.buckets) > 1
        n_fac = len(plan.buckets)
        assert all(name.startswith("factor_comm:") for name in plan.schedule[:n_fac])

    def test_plan_cached_per_update_flags(self):
        model = build_tiny_cnn(seed=1)
        kfac = KFAC(model, rank=0, world_size=2, scheduler="graph")
        self._capture(kfac, model)
        assert kfac.build_plan() is kfac.build_plan()
        assert kfac.build_plan() is not kfac.build_plan(update_second_order=False)


class TestLinter:
    def _graph(self):
        return TaskGraph(
            [Task("a", "Eig"), Task("b", "EigShare", deps=("a",)), Task("c", "Precondition", deps=("b",))]
        )

    def test_accepts_valid_schedule(self):
        lint_schedule(self._graph(), ["a", "b", "c"])

    def test_rejects_duplicate_names(self):
        with pytest.raises(SchedulerError, match="duplicate"):
            lint_schedule(self._graph(), ["a", "a", "b", "c"])

    def test_rejects_unknown_task(self):
        with pytest.raises(SchedulerError, match="unknown task"):
            lint_schedule(self._graph(), ["a", "b", "c", "ghost"])

    def test_rejects_dep_order_violation(self):
        with pytest.raises(SchedulerError, match="before its dependency"):
            lint_schedule(self._graph(), ["b", "a", "c"])

    def test_rejects_unreachable_tasks(self):
        with pytest.raises(SchedulerError, match="unreachable"):
            lint_schedule(self._graph(), ["a", "b"])  # c never runs

    def test_graph_rejects_duplicate_add(self):
        g = TaskGraph([Task("a", "Eig")])
        with pytest.raises(SchedulerError, match="duplicate"):
            g.add(Task("a", "Eig"))

    def test_graph_rejects_cycle(self):
        g = TaskGraph(
            [Task("a", "Eig", deps=("b",)), Task("b", "EigShare", deps=("a",))]
        )
        with pytest.raises(SchedulerError, match="cycle"):
            g.topo_order()


class TestPlannerPolicies:
    def test_choose_bucket_bytes_targets_buckets(self):
        total = 64 << 20
        b = choose_bucket_bytes(total, world_size=8)
        assert 1 <= b <= total
        assert len(plan_buckets([b] * 4, b)) == 4

    def test_choose_bucket_bytes_latency_floor(self):
        """Tiny payloads never split: latency-bound buckets are wasteful."""
        b = choose_bucket_bytes(1 << 10, world_size=64)
        assert len(plan_buckets([256, 256, 256, 256], b)) == 1

    def test_build_step_plan_requires_wire_sizes(self):
        with pytest.raises(ValueError, match="wire_nbytes_list"):
            build_step_plan(
                world_size=2,
                units=plan_units([FactorMeta("l0", "A", 2)], 2, frac=1.0),
                layer_names=("l0",),
            )


class TestHybridOverlapRegression:
    def test_group_share_overlaps_at_p4(self):
        """NEW capability: HYBRID group eigenbasis shares are schedulable
        nodes — eig_comm hides behind owned eigendecompositions instead of
        blocking, so hidden eig_comm seconds appear at P >= 4.  The retired
        hand-written hybrid pipeline always reported zero here."""
        _, w_sync = run_hybrid(
            4, steps=2, scheduler="sync",
            strategy=HYBRID, grad_worker_frac=0.5, return_world=True,
        )
        _, w_graph = run_hybrid(
            4, steps=2, scheduler="graph",
            strategy=HYBRID, grad_worker_frac=0.5, return_world=True,
        )
        assert w_sync.overlap.hidden("eig_comm") == 0.0
        assert w_graph.overlap.hidden("eig_comm") > 0.0
        # exposed + hidden add up: overlap never invents comm time
        assert w_graph.overlap.total("eig_comm") == pytest.approx(
            w_graph.overlap.exposed("eig_comm") + w_graph.overlap.hidden("eig_comm")
        )

    def test_trainer_history_reports_hidden_eig_comm(self, tiny_dataset):
        """The overlap surfaces end-to-end: TrainingHistory records hidden
        eig_comm seconds and the per-task-kind profile."""
        from repro.nn.resnet import resnet20_cifar

        tx, ty, vx, vy = tiny_dataset.splits
        cfg = TrainerConfig(
            world_size=4,
            batch_size=16,
            epochs=1,
            lr_schedule=ConstantSchedule(0.05),
            kfac=KFACHyperParams(
                strategy=HYBRID,
                grad_worker_frac=0.5,
                kfac_update_freq=2,
                fac_update_freq=1,
                damping=0.01,
                scheduler="graph",
            ),
        )
        tr = DataParallelTrainer(
            lambda rng: resnet20_cifar(rng, width_multiplier=0.25, num_classes=4),
            tx, ty, vx, vy, cfg,
        )
        hist = tr.train()
        assert hist.comm_hidden_seconds.get("eig_comm", 0.0) > 0.0
        profile = hist.comm_task_profile
        assert profile["EigShare"]["hidden"] > 0.0
        assert profile["FactorComm"]["exposed"] + profile["FactorComm"]["hidden"] > 0.0


class TestModeledSchedulerProfile:
    def _model(self):
        from repro.perfmodel.hardware import FRONTERA_LIKE, V100_LIKE
        from repro.perfmodel.iteration import IterationModel
        from repro.perfmodel.specs import resnet_spec

        return IterationModel(resnet_spec(50), V100_LIKE, FRONTERA_LIKE, 32)

    def test_scheduler_sync_matches_unpipelined(self):
        m = self._model()
        for f in (1.0, 0.5):
            a = m.stage_profile(8, scheduler="sync", grad_worker_frac=f)
            b = m.stage_profile(8, grad_worker_frac=f)
            assert a == b

    def test_scheduler_graph_never_worse(self):
        m = self._model()
        from repro.perfmodel.iteration import KfacIntervals

        iv = KfacIntervals(10, 100)
        for p in (4, 16, 64):
            for f in (1.0, 0.5, 1 / p):
                g = m.kfac_iteration_time(p, iv, grad_worker_frac=f, scheduler="graph")
                s = m.kfac_iteration_time(p, iv, grad_worker_frac=f, scheduler="sync")
                assert g <= s + 1e-12, (f, p)

    def test_scheduler_validated(self):
        m = self._model()
        with pytest.raises(ValueError, match="scheduler"):
            m.stage_profile(4, scheduler="bogus")
        with pytest.raises(ValueError, match="scheduler"):
            m.kfac_iteration_time(
                4,
                __import__("repro.perfmodel.iteration", fromlist=["KfacIntervals"]).KfacIntervals(10, 100),
                scheduler="bogus",
            )
