"""Elastic fleet: portable checkpoints, fault injection, degradation.

Covers the three robustness layers end to end:

- fault/straggler injection through the simulated ``World`` and both
  driver styles (phase-controller lockstep, SPMD threads);
- bounded retry + stale-eigenbasis fallback, including the
  rank-death-past-the-retry-budget scenario completing a step on the
  last-known eigenbasis with the staleness counter surfaced in
  ``TrainingHistory``;
- world-size-portable checkpoints: the gather / redistribute-on-load
  round trip, the trainer-level save/resume bit-identity matrix, and the
  hypothesis coverage properties of :func:`repro.elastic.redistribution_plan`.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.backend import World
from repro.comm.faults import CollectiveError
from repro.comm.horovod import HorovodContext
from repro.core.distributed import PhaseController, SPMDDriver
from repro.core.preconditioner import COMM_OPT, HYBRID, KFAC, KFACHyperParams, LAYER_WISE
from repro.elastic import (
    Checkpoint,
    CheckpointError,
    CollectiveFailure,
    ComputeJitter,
    FaultPlan,
    LatencySpike,
    RankDeath,
    RetryPolicy,
    StaleEigenbasisError,
    broadcast_scaler_state,
    gather_state_dict,
    redistribution_plan,
)
from repro.nn import Linear, Sequential
from repro.nn.loss import CrossEntropyLoss
from repro.parallel.trainer import DataParallelTrainer, TrainerConfig

RNG = np.random.default_rng(0)
X = RNG.normal(size=(84, 6)).astype(np.float32)
Y = (X.sum(axis=1) > 0).astype(np.int64)


def model_factory(rng: np.random.Generator) -> Sequential:
    return Sequential(Linear(6, 5, rng=rng), Linear(5, 4, rng=rng), Linear(4, 2, rng=rng))


def make_trainer(
    p: int,
    *,
    strategy: str = COMM_OPT,
    frac: float | None = None,
    epochs: int = 2,
    scheduler: str = "sync",
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = RetryPolicy(),
    max_eig_staleness: int = 3,
    kfac_update_freq: int = 1,
) -> DataParallelTrainer:
    hp = KFACHyperParams(
        strategy=strategy,
        grad_worker_frac=frac,
        kfac_update_freq=kfac_update_freq,
        fac_update_freq=1,
        damping=0.01,
        scheduler=scheduler,
        max_eig_staleness=max_eig_staleness,
    )
    return DataParallelTrainer(
        model_factory=model_factory,
        train_x=X,
        train_y=Y,
        val_x=X[:8],
        val_y=Y[:8],
        config=TrainerConfig(
            world_size=p,
            batch_size=6,
            epochs=epochs,
            kfac=hp,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
        ),
    )


def flat_params(trainer: DataParallelTrainer) -> np.ndarray:
    return np.concatenate(
        [p.data.reshape(-1) for p in trainer.replicas[0].parameters()]
    )


# ----------------------------------------------------------------------
# fault plan semantics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_jitter_fires_once_per_step_per_spec(self):
        plan = FaultPlan(jitter=(ComputeJitter(rank=0, seconds=0.5),))
        assert plan.apply(0, "eig_comm", (0, 1)) == 0.5
        assert plan.apply(0, "factor_comm", (0, 1)) == 0.0  # same step: spent
        assert plan.apply(1, "eig_comm", (0, 1)) == 0.5  # new step: fires again

    def test_jitter_rank_and_phase_filters(self):
        plan = FaultPlan(
            jitter=(ComputeJitter(rank=3, seconds=0.2, phases=("eig_comm",)),)
        )
        assert plan.apply(0, "eig_comm", (0, 1)) == 0.0  # rank 3 not in group
        assert plan.apply(0, "factor_comm", (0, 3)) == 0.0  # wrong phase
        assert plan.apply(0, "eig_comm", (2, 3)) == 0.2

    def test_failure_count_consumed_then_clean(self):
        plan = FaultPlan(failures=(CollectiveFailure(phase="factor_comm", count=2),))
        for _ in range(2):
            with pytest.raises(CollectiveError):
                plan.apply(0, "factor_comm", (0, 1))
        assert plan.apply(0, "factor_comm", (0, 1)) == 0.0
        assert plan.injected_failures == 2

    def test_rank_death_is_permanent(self):
        plan = FaultPlan(deaths=(RankDeath(rank=1, step=3),))
        assert plan.apply(2, "eig_comm", (0, 1)) == 0.0  # before death
        for step in (3, 4, 100):
            with pytest.raises(CollectiveError):
                plan.apply(step, "eig_comm", (0, 1))
        # groups that exclude the dead rank keep working
        assert plan.apply(5, "eig_comm", (0, 2)) == 0.0

    def test_spike_every(self):
        plan = FaultPlan(spikes=(LatencySpike(seconds=0.1, every=3),))
        fired = [plan.apply(s, "grad_allreduce", (0,)) for s in range(6)]
        assert fired == [0.1, 0.0, 0.0, 0.1, 0.0, 0.0]

    def test_reset_clears_consumption(self):
        plan = FaultPlan(failures=(CollectiveFailure(phase="eig_comm", count=1),))
        with pytest.raises(CollectiveError):
            plan.apply(0, "eig_comm", (0,))
        plan.reset()
        with pytest.raises(CollectiveError):
            plan.apply(0, "eig_comm", (0,))
        assert plan.injected_failures == 1  # counters restarted too


# ----------------------------------------------------------------------
# world integration
# ----------------------------------------------------------------------
class TestWorldFaultGate:
    def test_jitter_charged_into_phase_timer(self):
        world = World(2)
        world.fault_plan = FaultPlan(jitter=(ComputeJitter(rank=1, seconds=0.25),))
        world.begin_step(0)
        world.allreduce([np.ones(4, np.float32), np.ones(4, np.float32)])
        assert world.timers.as_dict()["allreduce"] >= 0.25

    def test_spmd_lockstep_failure_and_rewait_retry(self):
        """Every member observes the same failure; re-waiting re-posts."""

        def program(view):
            hvd = HorovodContext(view)
            view.world.fault_plan = FaultPlan(
                failures=(CollectiveFailure(phase="grad_allreduce", count=1),)
            )
            try:
                hvd.allreduce(np.ones(2, np.float32), name="g0", phase="grad_allreduce")
            except CollectiveError:
                pass
            else:  # pragma: no cover
                raise AssertionError("expected injected failure")
            out = hvd.allreduce(np.ones(2, np.float32), name="g1", phase="grad_allreduce")
            return float(out[0])

        assert World(2).run_spmd(program) == [1.0, 1.0]


# ----------------------------------------------------------------------
# retry + graceful degradation through the drivers
# ----------------------------------------------------------------------
class TestRetryAndDegradation:
    def test_transient_failure_is_retried_bitwise_clean(self):
        clean = make_trainer(2, epochs=1, fault_plan=None)
        h_clean = clean.train()
        plan = FaultPlan(
            failures=(CollectiveFailure(phase="factor_comm", step=1, count=1),)
        )
        faulty = make_trainer(2, epochs=1, fault_plan=plan)
        h_faulty = faulty.train()
        assert h_faulty.comm_retries == 1
        assert h_faulty.comm_fallbacks == 0
        assert np.array_equal(flat_params(clean), flat_params(faulty))
        assert [e.train_loss for e in h_clean.epochs] == [
            e.train_loss for e in h_faulty.epochs
        ]

    def test_eig_share_exhaustion_falls_back_to_stale_basis(self):
        # step 2 fails forever: all retries burn, the step completes on
        # the step-1 eigenbasis, and later refreshes clear the counter
        plan = FaultPlan(
            failures=(CollectiveFailure(phase="eig_comm", step=2, count=None),)
        )
        trainer = make_trainer(2, epochs=1, fault_plan=plan)
        history = trainer.train()
        assert history.comm_fallbacks >= 1
        assert history.kfac_stale_fallbacks >= 1
        assert history.kfac_staleness == {}  # cleared by later successes
        assert np.isfinite(history.epochs[0].train_loss)

    def test_rank_death_completes_via_stale_fallback(self):
        """Acceptance: rank death + retry exhaustion finishes the epoch on
        the last-known eigenbasis, staleness visible in TrainingHistory."""
        iters = 7  # 84 samples / 2 ranks / batch 6
        plan = FaultPlan(
            deaths=(RankDeath(rank=1, step=iters - 3, phases=("eig_comm",)),)
        )
        trainer = make_trainer(2, epochs=1, fault_plan=plan)
        history = trainer.train()
        # the last 3 eig refreshes all failed past the retry budget
        assert history.comm_fallbacks >= 3
        assert history.kfac_stale_fallbacks >= 3
        assert history.kfac_staleness  # non-empty: counters survived the run
        assert max(history.kfac_staleness.values()) == 3
        assert np.isfinite(history.epochs[0].train_loss)
        assert history.faults_injected > 0

    def test_staleness_past_bound_hard_fails(self):
        plan = FaultPlan(
            failures=(CollectiveFailure(phase="eig_comm", step=2, count=None),)
        )
        # step 2 fails forever *and* the bound is 0: first fallback raises
        trainer = make_trainer(
            2, epochs=1, fault_plan=plan, max_eig_staleness=0
        )
        with pytest.raises(StaleEigenbasisError):
            trainer.train()

    def test_no_prior_state_hard_fails(self):
        # the very first eigenbasis exchange fails: nothing to fall back to
        plan = FaultPlan(
            failures=(CollectiveFailure(phase="eig_comm", step=0, count=None),)
        )
        trainer = make_trainer(2, epochs=1, fault_plan=plan)
        with pytest.raises(StaleEigenbasisError):
            trainer.train()

    def test_non_fallback_phase_exhaustion_raises(self):
        # precond_comm (hybrid grad broadcast) is not a fallback phase:
        # losing it would diverge the replicas, so exhaustion re-raises
        plan = FaultPlan(
            failures=(CollectiveFailure(phase="precond_comm", step=1, count=None),)
        )
        trainer = make_trainer(
            4, strategy=HYBRID, frac=0.5, epochs=1, fault_plan=plan
        )
        with pytest.raises(CollectiveError):
            trainer.train()

    def test_retry_disabled_fails_fast(self):
        plan = FaultPlan(
            failures=(CollectiveFailure(phase="factor_comm", step=1, count=1),)
        )
        trainer = make_trainer(2, epochs=1, fault_plan=plan, retry_policy=None)
        with pytest.raises(CollectiveError):
            trainer.train()

    def test_hybrid_group_share_degrades(self):
        plan = FaultPlan(
            failures=(CollectiveFailure(phase="eig_comm", step=2, count=None),)
        )
        trainer = make_trainer(
            4, strategy=HYBRID, frac=0.5, epochs=1, fault_plan=plan
        )
        history = trainer.train()
        assert history.comm_fallbacks >= 1
        assert history.kfac_stale_fallbacks >= 1
        assert np.isfinite(history.epochs[0].train_loss)

    @staticmethod
    def _run_kfac_steps(
        driver: str, failures: tuple, steps: int = 1, p: int = 2, **kfac_kw
    ):
        """``steps`` K-FAC steps at P=``p`` under ``failures`` (COMM_OPT by default).

        Returns the world plus, per rank, the driver's
        ``(comm_retries, comm_fallbacks)``, the staleness ledger and the
        replica state: every eigenbasis the rank holds (all layers under
        COMM_OPT, its group's under HYBRID) followed by the preconditioned
        gradients (per-rank: each rank captured its own batch).
        """
        world = World(p)
        world.fault_plan = FaultPlan(failures=failures)

        def build(rank):
            rng = np.random.default_rng(0)
            model = Sequential(Linear(6, 4, rng=rng), Linear(4, 2, rng=rng))
            kfac = KFAC(
                model, rank=rank, world_size=p,
                kfac_update_freq=1, fac_update_freq=1, damping=0.01, **kfac_kw,
            )
            return model, kfac

        def capture(model, rank, step):
            x = np.random.default_rng(10 * step + rank).normal(size=(8, 6))
            loss = CrossEntropyLoss()
            model.zero_grad()
            loss(model(x.astype(np.float32)), np.arange(8) % 2)
            model.backward(loss.backward())

        def outcome(model, kfac, drv):
            basis = [
                a.reshape(-1)
                for l in kfac.layers
                if l.eig_A is not None
                for a in (l.eig_A.Q, l.eig_A.lam, l.eig_G.Q, l.eig_G.lam)
            ]
            grads = [q.grad.reshape(-1) for q in model.parameters()]
            state = np.concatenate(basis or [np.zeros(0)]), np.concatenate(grads)
            return (drv.comm_retries, drv.comm_fallbacks), dict(kfac.staleness), state

        if driver == "spmd":

            def program(view):
                model, kfac = build(view.rank)
                drv = SPMDDriver(kfac, HorovodContext(view))
                for step in range(steps):
                    view.begin_step(step)
                    capture(model, view.rank, step)
                    drv.step()
                return outcome(model, kfac, drv)

            return world, world.run_spmd(program)
        replicas = [build(r) for r in range(p)]
        controller = PhaseController([k for _, k in replicas], world)
        for step in range(steps):
            world.begin_step(step)
            for r, (model, _) in enumerate(replicas):
                capture(model, r, step)
            controller.step()
        return world, [outcome(m, k, controller) for m, k in replicas]

    def test_spmd_driver_retries_transient_failure(self):
        _, results = self._run_kfac_steps(
            "spmd", (CollectiveFailure(phase="factor_comm", step=0, count=1),)
        )
        assert all(retries >= 1 for (retries, _), _, _ in results)
        # replicas stayed in lockstep
        assert np.array_equal(results[0][2][0], results[1][2][0])

    @pytest.mark.parametrize(
        "p, kfac_kw, groups",
        [
            (2, {}, ((0, 1),)),
            (4, {"strategy": HYBRID, "grad_worker_frac": 0.5}, ((0, 1), (1, 2))),
        ],
        ids=["comm-opt-p2", "hybrid-0.5-p4"],
    )
    def test_drivers_agree_on_retry_and_fallback(self, p, kfac_kw, groups):
        """Both transports apply the one retry policy identically: a clean
        step establishes the eigenbasis, then step 1 loses its eigenbasis
        share for good (retries burn, stale fallback).  COMM_OPT also
        loses its factor exchange once (one retry, then clean).  ``groups``
        are the ranks of each failing share: the world under COMM_OPT, the
        two layers' gradient-worker groups under HYBRID.  The controller
        counts every group's op; an SPMD driver counts only the groups its
        rank belongs to, and the driver speaking for a group's first member
        charges its backoff — group (1, 2) included, which no rank-0 driver
        speaks for.
        """
        failures = (CollectiveFailure(phase="eig_comm", step=1, count=None),)
        if not kfac_kw:
            failures += (CollectiveFailure(phase="factor_comm", step=1, count=1),)
        w_phase, phase = self._run_kfac_steps("phase", failures, steps=2, p=p, **kfac_kw)
        w_spmd, spmd = self._run_kfac_steps("spmd", failures, steps=2, p=p, **kfac_kw)
        policy = RetryPolicy()
        factor_retries = 0 if kfac_kw else 1

        def counts(n_groups):
            # factor_comm: one retry; eig_comm: the full budget, then fallback
            return (factor_retries + n_groups * policy.max_retries, n_groups)

        for r in range(p):
            member_of = sum(r in g for g in groups)
            (c, staleness, state), (s_c, s_staleness, s_state) = phase[r], spmd[r]
            assert c == counts(len(groups)), r
            assert s_c == counts(member_of), r
            assert staleness == s_staleness, r
            assert set(staleness.values()) == ({1} if member_of else set()), r
            for mine, theirs in zip(state, s_state):
                assert np.array_equal(mine, theirs)
        backoff = factor_retries * policy.backoff(0) + len(groups) * sum(
            policy.backoff(a) for a in range(policy.max_retries)
        )
        assert w_phase.timers.total("retry_backoff") == pytest.approx(backoff)
        assert w_spmd.timers.total("retry_backoff") == w_phase.timers.total("retry_backoff")
        assert w_spmd.overlap.as_dict() == w_phase.overlap.as_dict()


# ----------------------------------------------------------------------
# straggler sensitivity: graph scheduler absorbs lateness
# ----------------------------------------------------------------------
class TestStragglerSensitivity:
    """The graph plan hides the jittered eigenbasis share behind the
    owners' eigendecompositions, so it absorbs lateness up to that share's
    slack: the least-loaded owner's eig compute minus the share transfer.
    Both tests pin the window in both storage dtypes: ``bucket_bytes``
    keeps the factor exchange one bucket (the float64 payload would
    otherwise cross ``choose_bucket_bytes``' floor and split it), and P=4
    places factors by LPT — round-robin leaves one rank a single narrow
    factor whose eig compute the float64 share outlasts, closing the
    window.  The 1e-5 s jitter then fits inside it in float32 and float64.
    """

    @staticmethod
    def _history(p: int, scheduler: str, jitter: float, assignment: str):
        plan = None
        if jitter > 0:
            plan = FaultPlan(
                jitter=(
                    ComputeJitter(rank=p - 1, seconds=jitter, phases=("eig_comm",)),
                )
            )
        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 64)).astype(np.float32)
        y = (x.sum(axis=1) > 0).astype(np.int64)
        hp = KFACHyperParams(
            kfac_update_freq=1, fac_update_freq=1, damping=0.01, scheduler=scheduler,
            bucket_bytes=1 << 20, assignment=assignment,
        )
        trainer = DataParallelTrainer(
            model_factory=lambda r: Sequential(
                Linear(64, 64, rng=r), Linear(64, 32, rng=r), Linear(32, 2, rng=r)
            ),
            train_x=x, train_y=y, val_x=x[:8], val_y=y[:8],
            config=TrainerConfig(
                world_size=p, batch_size=8, epochs=1, kfac=hp, fault_plan=plan
            ),
        )
        return trainer.train()

    def _sensitivity(self, p: int, scheduler: str, assignment: str) -> float:
        """Extra exposed comm seconds a 1e-5 s eig-share jitter causes."""
        base = self._history(p, scheduler, 0.0, assignment)
        if scheduler == "graph":
            # the window the claim rests on: the clean share is fully hidden
            assert base.comm_seconds.get("eig_comm", 0.0) == 0.0
            assert base.comm_hidden_seconds["eig_comm"] > 0.0
        late = self._history(p, scheduler, 1e-5, assignment)
        return sum(late.comm_seconds.values()) - sum(base.comm_seconds.values())

    def test_graph_strictly_less_sensitive_than_sync_at_p4(self):
        sync = self._sensitivity(4, "sync", "greedy")
        graph = self._sensitivity(4, "graph", "greedy")
        assert sync > 0.0
        assert graph < sync

    def test_graph_fully_absorbs_small_jitter_at_p2(self):
        sync = self._sensitivity(2, "sync", "round_robin")
        graph = self._sensitivity(2, "graph", "round_robin")
        assert sync > 0.0
        assert graph == 0.0


# ----------------------------------------------------------------------
# portable bundles
# ----------------------------------------------------------------------
def _warm_trainer(p: int, strategy: str = COMM_OPT, frac: float | None = None):
    trainer = make_trainer(p, strategy=strategy, frac=frac, epochs=1)
    trainer.train()
    return trainer


class TestPortableGather:
    def test_world_of_one_is_already_complete(self):
        trainer = _warm_trainer(1)
        bundle = gather_state_dict(trainer.kfacs[0])
        assert bundle["portable"] is True
        for entry in bundle["layers"].values():
            assert "eig_A_Q" in entry and "eig_G_Q" in entry

    def test_sharded_strategies_require_peers_or_hvd(self):
        trainer = _warm_trainer(2, strategy=LAYER_WISE)
        with pytest.raises(ValueError, match="peers"):
            gather_state_dict(trainer.kfacs[0])

    def test_peers_gather_completes_every_layer(self):
        for strategy, frac in ((LAYER_WISE, None), (HYBRID, 0.5)):
            trainer = _warm_trainer(4, strategy=strategy, frac=frac)
            bundle = gather_state_dict(trainer.kfacs[0], peers=trainer.kfacs)
            for name, entry in bundle["layers"].items():
                assert "eig_A_Q" in entry and "eig_G_Q" in entry, (strategy, name)

    def test_spmd_gather_matches_on_every_rank(self):
        def program(view):
            hvd = HorovodContext(view)
            rng = np.random.default_rng(0)
            model = Sequential(Linear(6, 4, rng=rng), Linear(4, 2, rng=rng))
            kfac = KFAC(
                model, rank=view.rank, world_size=view.world.size,
                kfac_update_freq=1, fac_update_freq=1, damping=0.01,
                grad_worker_frac=0.5,
            )
            driver = SPMDDriver(kfac, hvd)
            loss = CrossEntropyLoss()
            x = np.random.default_rng(1).normal(size=(8, 6)).astype(np.float32)
            loss(model(x), np.arange(8) % 2)
            model.backward(loss.backward())
            driver.step()
            return gather_state_dict(kfac, hvd=hvd)

        bundles = World(4).run_spmd(program)
        ref = bundles[0]
        for other in bundles[1:]:
            for name, entry in ref["layers"].items():
                assert set(entry) == set(other["layers"][name])
                for key, arr in entry.items():
                    got = other["layers"][name][key]
                    assert arr.dtype == got.dtype
                    assert np.array_equal(arr, got), (name, key)

    @pytest.mark.parametrize(
        "src,dst",
        [
            ((7, HYBRID, 0.5), (2, COMM_OPT, None)),
            ((2, COMM_OPT, None), (7, HYBRID, 0.5)),
        ],
    )
    def test_gather_load_regather_is_bitwise(self, src, dst):
        """Redistribute-on-load loses nothing: a fleet hydrated from a
        bundle re-gathers the identical bundle."""
        p_src, strat_src, frac_src = src
        p_dst, strat_dst, frac_dst = dst
        source = _warm_trainer(p_src, strategy=strat_src, frac=frac_src)
        bundle = gather_state_dict(source.kfacs[0], peers=source.kfacs)

        dest = make_trainer(p_dst, strategy=strat_dst, frac=frac_dst, epochs=1)
        for k in dest.kfacs:
            k.load_state_dict(bundle)
        regathered = gather_state_dict(dest.kfacs[0], peers=dest.kfacs)
        assert regathered["layers"].keys() == bundle["layers"].keys()
        for name, entry in bundle["layers"].items():
            got = regathered["layers"][name]
            assert set(entry) == set(got), name
            for key, arr in entry.items():
                assert arr.dtype == got[key].dtype, (name, key)
                assert np.array_equal(arr, got[key]), (name, key)

    def test_redistribute_hydrates_only_current_grad_workers(self):
        source = _warm_trainer(1)
        bundle = gather_state_dict(source.kfacs[0])
        dest = make_trainer(2, strategy=LAYER_WISE, epochs=1)
        for k in dest.kfacs:
            k.load_state_dict(bundle)
        for k in dest.kfacs:
            for layer in k.layers:
                owned = k.is_grad_worker(layer.name)
                assert (layer.eig_A is not None) == owned, (k.rank, layer.name)
                # running averages hydrate everywhere regardless
                assert layer.A is not None and layer.G is not None


# ----------------------------------------------------------------------
# trainer checkpoint matrix: resume == unbroken, bit for bit
# ----------------------------------------------------------------------
class TestTrainerCheckpointMatrix:
    CONFIGS = [
        (1, COMM_OPT, None),
        (2, COMM_OPT, None),
        (2, LAYER_WISE, None),
        (2, HYBRID, 0.5),
        (4, COMM_OPT, None),
        (4, LAYER_WISE, None),
        (4, HYBRID, 0.25),
        (4, HYBRID, 0.5),
        (7, HYBRID, 0.5),
    ]

    @pytest.mark.parametrize("p,strategy,frac", CONFIGS)
    def test_resume_bitwise_equals_unbroken(self, tmp_path, p, strategy, frac):
        unbroken = make_trainer(p, strategy=strategy, frac=frac, epochs=2)
        h_unbroken = unbroken.train()

        first = make_trainer(p, strategy=strategy, frac=frac, epochs=1)
        first.train()
        path = str(tmp_path / "mid.ckpt")
        first.save_checkpoint(path)

        resumed = make_trainer(p, strategy=strategy, frac=frac, epochs=2)
        step = resumed.load_checkpoint(path)
        assert step == first._global_step
        h_resumed = resumed.train()

        assert [e.epoch for e in h_resumed.epochs] == [1]
        assert h_resumed.epochs[0].train_loss == h_unbroken.epochs[1].train_loss
        assert np.array_equal(flat_params(unbroken), flat_params(resumed))

    @pytest.mark.parametrize(
        "src,dst",
        [
            ((7, HYBRID, 0.5), (2, COMM_OPT, None)),
            ((2, COMM_OPT, None), (7, HYBRID, 0.5)),
        ],
    )
    def test_cross_world_resume_is_deterministic(self, tmp_path, src, dst):
        """A HYBRID f=0.5 checkpoint at P=7 resumes at P=2 COMM_OPT (and
        vice versa): independent resumes are bit-identical, i.e. the file
        round trip adds no noise over the redistributed state."""
        p_src, strat_src, frac_src = src
        p_dst, strat_dst, frac_dst = dst
        source = make_trainer(p_src, strategy=strat_src, frac=frac_src, epochs=1)
        source.train()
        path = str(tmp_path / "cross.ckpt")
        source.save_checkpoint(path)

        runs = []
        for _ in range(2):
            dest = make_trainer(p_dst, strategy=strat_dst, frac=frac_dst, epochs=2)
            assert dest.load_checkpoint(path) == source._global_step
            history = dest.train()
            runs.append((flat_params(dest), [e.train_loss for e in history.epochs]))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_scaler_state_round_trips(self, tmp_path):
        trainer = make_trainer(2, epochs=1)
        trainer.train()
        trainer.grad_scaler.load_state_dict(
            {
                "scale": 4096.0,
                "growth_tracker": 7,
                "steps_taken": 11,
                "steps_skipped": 2,
                "enabled": True,
            }
        )
        path = str(tmp_path / "scaler.ckpt")
        trainer.save_checkpoint(path)
        fresh = make_trainer(2, epochs=2)
        fresh.load_checkpoint(path)
        assert fresh.grad_scaler.scale == 4096.0
        assert fresh.grad_scaler.steps_taken == 11
        assert fresh.grad_scaler.steps_skipped == 2
        assert fresh.grad_scaler.enabled is True

    def test_spmd_scaler_broadcast(self):
        from repro.precision import GradScaler

        def program(view):
            hvd = HorovodContext(view)
            scaler = GradScaler(init_scale=float(2 ** (10 + view.rank)))
            broadcast_scaler_state(scaler, hvd, root=0)
            return scaler.scale

        assert World(3).run_spmd(program) == [1024.0, 1024.0, 1024.0]


class TestCheckpointFile:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            Checkpoint(tmp_path / "absent.ckpt").load()

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            Checkpoint(path).load()

    def test_foreign_pickle_raises(self, tmp_path):
        path = tmp_path / "foreign.ckpt"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(CheckpointError, match="not a"):
            Checkpoint(path).load()

    def test_save_rejects_unstamped_payload(self, tmp_path):
        with pytest.raises(CheckpointError, match="capture"):
            Checkpoint(tmp_path / "x.ckpt").save({"step": 0})

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "clean.ckpt")
        ckpt.save(ckpt.capture(step=3))
        ckpt.save(ckpt.capture(step=4))  # overwrite is atomic too
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.ckpt"]
        assert ckpt.load()["step"] == 4


# ----------------------------------------------------------------------
# strict load_state_dict (satellite fix)
# ----------------------------------------------------------------------
class TestStrictLoad:
    @staticmethod
    def _warm_kfac(n_layers: int = 2, world_size: int = 1, rank: int = 0) -> KFAC:
        rng = np.random.default_rng(0)
        layers = [Linear(4, 4, rng=rng) for _ in range(n_layers)]
        model = Sequential(*layers)
        kfac = KFAC(
            model, rank=rank, world_size=world_size,
            kfac_update_freq=1, fac_update_freq=1, damping=0.01,
        )
        if world_size == 1:
            loss = CrossEntropyLoss()
            x = rng.normal(size=(8, 4)).astype(np.float32)
            loss(model(x), np.arange(8) % 4)
            model.backward(loss.backward())
            kfac.step()
        return kfac

    def test_missing_layer_raises_by_default(self):
        state = self._warm_kfac(n_layers=2).state_dict()
        del state["layers"]["m1"]
        target = self._warm_kfac(n_layers=2)
        with pytest.raises(KeyError, match="missing"):
            target.load_state_dict(state)
        target.load_state_dict(state, strict=False)  # intersection is fine

    def test_unknown_layer_raises_by_default(self):
        state = self._warm_kfac(n_layers=2).state_dict()
        state["layers"]["ghost"] = dict(state["layers"]["m0"])
        target = self._warm_kfac(n_layers=2)
        with pytest.raises(KeyError, match="unknown"):
            target.load_state_dict(state)
        target.load_state_dict(state, strict=False)

    def test_world_size_mismatch_raises_with_pointer_to_gather(self):
        state = self._warm_kfac(world_size=1).state_dict()
        assert state["portable"] is False
        assert state["placement"]["world_size"] == 1
        target = self._warm_kfac(world_size=2, rank=0)
        with pytest.raises(ValueError, match="gather_state_dict"):
            target.load_state_dict(state)
        target.load_state_dict(state, strict=False)  # escape hatch

    def test_portable_bundle_crosses_world_sizes_strictly(self):
        kfac = self._warm_kfac(world_size=1)
        bundle = gather_state_dict(kfac)
        target = self._warm_kfac(world_size=3, rank=1)
        target.load_state_dict(bundle)  # strict, but portable: accepted
        assert target.steps == kfac.steps


# ----------------------------------------------------------------------
# redistribution plan properties
# ----------------------------------------------------------------------
LAYER_NAMES = st.integers(1, 8).map(lambda n: [f"layer{i}" for i in range(n)])


class TestRedistributionPlan:
    @settings(max_examples=40, deadline=None)
    @given(names=LAYER_NAMES, p=st.integers(1, 8))
    def test_comm_opt_replicates_everywhere(self, names, p):
        plan = redistribution_plan(names, p)
        assert set(plan) == set(range(p))
        for held in plan.values():
            assert list(held) == names

    @settings(max_examples=40, deadline=None)
    @given(names=LAYER_NAMES, p=st.integers(1, 8))
    def test_layer_wise_covers_each_layer_exactly_once(self, names, p):
        plan = redistribution_plan(names, p, 1 / p)
        counts = {n: 0 for n in names}
        for held in plan.values():
            for name in held:
                counts[name] += 1
        assert all(c == 1 for c in counts.values())

    @settings(max_examples=40, deadline=None)
    @given(
        names=LAYER_NAMES,
        p=st.integers(1, 8),
        num=st.integers(1, 8),
    )
    def test_hybrid_covers_each_layer_group_size_times(self, names, p, num):
        from repro.core.assignment import grad_worker_count

        frac = min(1.0, num / p)
        plan = redistribution_plan(names, p, grad_worker_frac=frac)
        g = grad_worker_count(p, frac)
        counts = {n: 0 for n in names}
        for held in plan.values():
            for name in held:
                counts[name] += 1
        assert all(c == g for c in counts.values()), (p, frac, counts)

    @settings(max_examples=15, deadline=None)
    @given(
        n_layers=st.integers(1, 4),
        p=st.integers(1, 6),
        num=st.integers(0, 6),
    )
    def test_plan_agrees_with_kfac_is_grad_worker(self, n_layers, p, num):
        """The pure-metadata plan is exactly the hydration rule the
        redistribute-on-load path applies rank by rank."""
        rng = np.random.default_rng(0)
        model = Sequential(*[Linear(3, 3, rng=rng) for _ in range(n_layers)])
        frac = None if num == 0 else min(1.0, max(num, 1) / p)
        kfac = KFAC(
            model, rank=0, world_size=p, damping=0.01, grad_worker_frac=frac,
        )
        names = [l.name for l in kfac.layers]
        plan = redistribution_plan(names, p, kfac.hp.grad_worker_frac or 1.0)
        for rank in range(p):
            derived = tuple(
                n for n in names if kfac.is_grad_worker(n, rank=rank)
            )
            assert plan[rank] == derived, (rank, kfac.hp.strategy)
