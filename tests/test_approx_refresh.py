"""Refresh-schedule regressions: drift trigger, staleness budget, damping.

The interactions the approximation tier must never get wrong:

- the step-0 boundary refreshes under both the fixed
  ``kfac_update_freq`` schedule and the drift trigger (no basis yet);
- the ``max_eig_staleness`` budget binds even when the drift metric says
  "fresh enough" — a stale basis (whole-factor or block) never survives
  more than ``budget`` consecutive skips — and binds on every rank at
  once when a rank holds only some of the bases (``grad_worker_frac < 1``);
- a tiny tolerance refreshes on every candidate step, and the fixed
  ``kfac_update_freq`` schedule is *ignored* once the trigger owns the
  decision;
- the ``diag_warmup`` exact-to-blocked transition forces one refresh
  under the new block keys;
- :class:`~repro.approx.adaptive.AdaptiveDamping` stays within its caps
  and keeps every replica's damping in lockstep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.approx.adaptive import AdaptiveDamping, DriftTrigger
from repro.comm.backend import World
from repro.comm.faults import CollectiveFailure, FaultPlan
from repro.comm.horovod import HorovodContext
from repro.core.distributed import PhaseController, SPMDDriver
from repro.core.preconditioner import KFAC
from repro.nn import Linear, ReLU, Sequential
from repro.nn.loss import CrossEntropyLoss
from repro.optim.sgd import SGD
from tests.conftest import build_tiny_cnn
from tests.test_grad_worker_frac import run_hybrid


def _stepper(**kfac_kw):
    """Build a single-process training closure; returns (step_fn, kfac)."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(24, 1, 8, 8)).astype(np.float32)
    y = rng.integers(0, 3, size=24).astype(np.int64)
    model = build_tiny_cnn(seed=5)
    kw = dict(damping=0.01, kfac_update_freq=1, fac_update_freq=1, lr=0.1)
    kw.update(kfac_kw)
    kfac = KFAC(model, **kw)
    opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
    loss_fn = CrossEntropyLoss()

    def step():
        opt.zero_grad()
        out = model(x)
        loss_fn(out, y)
        model.backward(loss_fn.backward())
        kfac.step()
        opt.step()

    return step, kfac


class TestRefreshSchedule:
    def test_step_zero_refreshes_fixed_schedule(self):
        step, kfac = _stepper(kfac_update_freq=5)
        step()
        assert kfac.n_second_order_updates == 1
        assert all(layer.ready for layer in kfac.layers)

    def test_step_zero_refreshes_drift_trigger(self):
        step, kfac = _stepper(drift_tol=1e9)
        step()
        # no basis existed, so the trigger must refresh regardless of tol
        assert kfac.n_second_order_updates == 1
        assert kfac.n_drift_refreshes == 1 and kfac.n_drift_skips == 0

    @pytest.mark.parametrize(
        "placement", [{}, {"grad_worker_frac": 1.0}], ids=["comm-opt", "frac-1"]
    )
    def test_staleness_budget_binds_with_huge_tolerance(self, placement):
        budget = 2
        step, kfac = _stepper(drift_tol=1e9, max_eig_staleness=budget, **placement)
        refresh_steps = []
        for i in range(10):
            before = kfac.n_second_order_updates
            step()
            if kfac.n_second_order_updates > before:
                refresh_steps.append(i)
            # a stale basis never survives past the budget, even though
            # the drift metric always says "fresh enough" at tol=1e9
            assert max(kfac.skipped_refreshes.values(), default=0) <= budget
        # cadence: step 0, then exactly budget+1 steps between refreshes
        assert refresh_steps[0] == 0
        assert all(b - a == budget + 1 for a, b in zip(refresh_steps, refresh_steps[1:]))

    def test_stale_block_never_survives_past_budget(self):
        budget = 2
        step, kfac = _stepper(
            drift_tol=1e9, max_eig_staleness=budget, diag_blocks=4, diag_warmup=1
        )
        seen_keys: set[str] = set()
        for _ in range(10):
            step()
            assert max(kfac.skipped_refreshes.values(), default=0) <= budget
            seen_keys |= set(kfac.skipped_refreshes)
        assert kfac.blocks_active
        # block-granular staleness bookkeeping: keys carry block suffixes
        assert any("#" in k for k in seen_keys)

    def test_tiny_tolerance_refreshes_every_other_step(self):
        # the drift decision precedes the step's EMA fold-in and the
        # snapshot follows it, so the first candidate after a refresh
        # sees *exactly* zero drift — tiny tolerance therefore settles
        # into a refresh-every-other-step cadence, not every step
        step, kfac = _stepper(drift_tol=1e-12)
        for _ in range(6):
            step()
        assert kfac.n_second_order_updates == 3  # steps 0, 2, 4
        assert kfac.n_drift_skips == 3

    def test_fixed_schedule_ignored_under_drift_trigger(self):
        # kfac_update_freq=1000 would refresh only at step 0; the trigger
        # owns the decision and keeps the tiny-tolerance cadence instead
        step, kfac = _stepper(drift_tol=1e-12, kfac_update_freq=1000)
        for _ in range(5):
            step()
        assert kfac.n_second_order_updates == 3  # steps 0, 2, 4

    def test_warmup_transition_installs_blocked_basis(self):
        step, kfac = _stepper(drift_tol=1e-12, diag_blocks=4, diag_warmup=1)
        step()  # warmup refresh: exact whole-factor bases
        assert kfac.n_second_order_updates == 1 and kfac.blocks_active
        assert not any(l.eig_A.blocked or l.eig_G.blocked for l in kfac.layers)
        # the warmup refresh already re-keyed the drift snapshots at block
        # granularity, so the exact basis legitimately survives the
        # zero-drift candidate right after it...
        step()
        assert kfac.n_second_order_updates == 1
        # ...and the next trigger firing refreshes *blocked*: the wide
        # layers swap their exact bases for blocked ones
        step()
        assert kfac.n_second_order_updates == 2
        assert any(l.eig_A.blocked or l.eig_G.blocked for l in kfac.layers)

    def test_drift_run_spmd_matches_phase_driver(self):
        kw = dict(steps=6, drift_tol=0.05, max_eig_staleness=3)
        phase = run_hybrid(2, **kw)
        spmd = run_hybrid(2, driver="spmd", **kw)
        for name in phase:
            np.testing.assert_array_equal(phase[name], spmd[name])


class TestLockstepRefresh:
    @pytest.mark.parametrize(
        "world_size,frac", [(3, 2 / 3), (2, 1 / 2)], ids=["p3-f2/3", "p2-f1/2"]
    )
    def test_every_rank_refreshes_at_the_budget_cadence(self, world_size, frac):
        """Below f = 1 a rank holds only its groups' bases, yet the drift
        trigger must decide from state every rank shares: at a tolerance
        that never fires, every rank refreshes exactly when the staleness
        budget binds.  (At f = 2/3, P = 3 rank 1 is in both groups; at
        f = 1/2, P = 2 every group is a singleton.)"""
        budget = 2
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4 * world_size, 6)).astype(np.float32)
        y = rng.integers(0, 3, size=4 * world_size).astype(np.int64)
        models = [
            Sequential(
                Linear(6, 5, rng=np.random.default_rng(1)),
                ReLU(),
                Linear(5, 3, rng=np.random.default_rng(2)),
            )
            for _ in range(world_size)
        ]
        kfacs = [
            KFAC(
                m, rank=r, world_size=world_size, damping=0.01, drift_tol=1e9,
                max_eig_staleness=budget, grad_worker_frac=frac,
            )
            for r, m in enumerate(models)
        ]
        controller = PhaseController(kfacs, World(world_size))
        losses = [CrossEntropyLoss() for _ in range(world_size)]
        refreshes: dict[int, list[int]] = {r: [] for r in range(world_size)}
        for i in range(7):
            for r in range(world_size):
                models[r].zero_grad()
                losses[r](models[r](x[r::world_size]), y[r::world_size])
                models[r].backward(losses[r].backward())
            before = [k.n_second_order_updates for k in kfacs]
            controller.step()
            for r, k in enumerate(kfacs):
                if k.n_second_order_updates > before[r]:
                    refreshes[r].append(i)
        assert all(steps == [0, 3, 6] for steps in refreshes.values()), refreshes


def _refresh_steps_under_lost_share(driver: str, steps: int = 8) -> dict[int, tuple]:
    """Each rank's refresh steps and lost-share count: 2-layer MLP, P=3,
    f=2/3, a drift trigger
    that fires on every non-zero drift, and the first group eigenbasis
    share of step 2 lost past the retry budget (its members see the
    failure; the group's non-member does not).

    The weights never move and ``factor_decay=0`` makes each factor its
    step's reading, so the drift is exactly zero except at step 2 (batch
    1 replaced batch 0): step 2 refreshes on drift, and from step 3 on
    (batch 2 repeated) only the skip budget can refresh, in any dtype.
    """
    p = 3
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4 * p, 6)).astype(np.float32)
    y = rng.integers(0, 3, size=(3, 4 * p)).astype(np.int64)
    world = World(p)
    world.fault_plan = FaultPlan(
        failures=(CollectiveFailure(phase="eig_comm", step=2, count=3),)
    )

    def build(rank):
        model = Sequential(
            Linear(6, 5, rng=np.random.default_rng(1)),
            ReLU(),
            Linear(5, 3, rng=np.random.default_rng(2)),
        )
        kfac = KFAC(
            model, rank=rank, world_size=p, damping=0.01, factor_decay=0.0,
            drift_tol=1e-12, max_eig_staleness=3, grad_worker_frac=2 / 3,
        )
        return model, kfac, CrossEntropyLoss()

    def capture(model, loss, rank, step):
        model.zero_grad()
        b = min(step, 2)
        loss(model(x[b, rank::p]), y[b, rank::p])
        model.backward(loss.backward())

    if driver == "spmd":

        def program(view):
            model, kfac, loss = build(view.rank)
            drv = SPMDDriver(kfac, HorovodContext(view))
            refreshed = []
            for step in range(steps):
                view.begin_step(step)
                capture(model, loss, view.rank, step)
                before = kfac.n_second_order_updates
                drv.step()
                if kfac.n_second_order_updates > before:
                    refreshed.append(step)
            return refreshed, kfac.n_eig_share_failures

        return dict(enumerate(world.run_spmd(program)))
    replicas = [build(r) for r in range(p)]
    controller = PhaseController([k for _, k, _ in replicas], world)
    refreshes: dict[int, list[int]] = {r: [] for r in range(p)}
    for step in range(steps):
        world.begin_step(step)
        for r, (model, _, loss) in enumerate(replicas):
            capture(model, loss, r, step)
        before = [k.n_second_order_updates for _, k, _ in replicas]
        controller.step()
        for r, (_, k, _) in enumerate(replicas):
            if k.n_second_order_updates > before[r]:
                refreshes[r].append(step)
    return {r: (refreshes[r], k.n_eig_share_failures) for r, (_, k, _) in enumerate(replicas)}


@pytest.mark.parametrize("driver", ["phase", "spmd"])
def test_lost_group_share_keeps_every_rank_refreshing_together(driver):
    """The ledger the drift trigger reads changes only on events every rank
    sees: a lost group share charges its members' failure count, not the
    skip budget, so no rank's trigger fires alone (the phase driver would
    raise on the first diverged collective)."""
    got = _refresh_steps_under_lost_share(driver)
    # the lost share is group (0, 1)'s; step 2 refreshes on drift, then the
    # budget: three skips after the last refresh
    assert got == {0: ([0, 2, 6], 1), 1: ([0, 2, 6], 1), 2: ([0, 2, 6], 0)}, got


class TestDriftTriggerUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriftTrigger(tol=0.0, budget=3)
        with pytest.raises(ValueError):
            DriftTrigger(tol=0.1, budget=-1)

    def test_decision_table(self):
        trig = DriftTrigger(tol=0.1, budget=2)
        assert trig.should_refresh(0.0, 0, has_basis=False)  # no basis
        assert trig.should_refresh(0.2, 0, has_basis=True)  # drifted
        assert trig.should_refresh(0.0, 2, has_basis=True)  # budget spent
        assert not trig.should_refresh(0.05, 1, has_basis=True)  # fresh

    def test_drift_metric(self):
        a = np.eye(3)
        assert DriftTrigger.drift(a, a) == 0.0
        assert DriftTrigger.drift(2 * a, a) == pytest.approx(1.0)
        assert DriftTrigger.drift(a, np.zeros((3, 3))) == np.inf


class TestAdaptiveDamping:
    def test_validation_and_caps(self):
        ad = AdaptiveDamping(damping=0.01, damping_min=1e-3, damping_max=0.1, ema=0.0)
        with pytest.raises(ValueError):
            ad.update(1.5)
        for _ in range(50):  # persistent clipping saturates at the cap
            ad.update(0.0)
        assert ad.damping == pytest.approx(0.1)
        for _ in range(50):  # persistent unclipped decays to the floor
            ad.update(1.0)
        assert ad.damping == pytest.approx(1e-3)
        assert ad.n_grows > 0 and ad.n_shrinks > 0

    def test_kfac_integration_updates_damping(self):
        step, kfac = _stepper(adapt_damping=True)
        d0 = kfac.damping
        for _ in range(8):
            step()
        assert kfac.damping != d0
        ad = kfac._adaptive_damping
        assert ad is not None and (ad.n_grows + ad.n_shrinks) > 0

    def test_adaptive_damping_lockstep_across_ranks(self):
        state = run_hybrid(2, steps=6, adapt_damping=True)
        vals = np.concatenate([v.ravel() for v in state.values()])
        assert np.all(np.isfinite(vals))
        # bitwise determinism across drivers implies lockstep damping too
        spmd = run_hybrid(2, steps=6, driver="spmd", adapt_damping=True)
        for name in state:
            np.testing.assert_array_equal(state[name], spmd[name])
