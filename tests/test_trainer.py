"""Data-parallel trainer: equivalence, history integrity, accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.preconditioner import KFACHyperParams
from repro.nn.resnet import resnet20_cifar
from repro.optim.lr_scheduler import ConstantSchedule, MultiStepSchedule
from repro.parallel.trainer import DataParallelTrainer, TrainerConfig, TrainingHistory, EpochStats


def factory(rng):
    return resnet20_cifar(rng, width_multiplier=0.25, num_classes=4)


@pytest.fixture
def small_data(tiny_dataset):
    return tiny_dataset.splits


def make_trainer(small_data, world_size=2, epochs=2, kfac=None, seed=0, batch_size=16):
    tx, ty, vx, vy = small_data
    cfg = TrainerConfig(
        world_size=world_size,
        batch_size=batch_size,
        epochs=epochs,
        lr_schedule=ConstantSchedule(0.05),
        seed=seed,
        kfac=kfac,
    )
    return DataParallelTrainer(factory, tx, ty, vx, vy, cfg)


class TestTraining:
    def test_loss_decreases(self, small_data):
        tr = make_trainer(small_data, epochs=3)
        hist = tr.train()
        assert hist.epochs[-1].train_loss < hist.epochs[0].train_loss

    def test_history_structure(self, small_data):
        tr = make_trainer(small_data, epochs=2)
        hist = tr.train()
        assert len(hist.epochs) == 2
        assert hist.total_iterations == sum(e.iterations for e in hist.epochs)
        assert all(e.val_accuracy is not None for e in hist.epochs)
        assert set(hist.phase_seconds) == {"io", "forward", "backward", "exchange", "update"}
        assert hist.phase_seconds["forward"] > 0

    def test_comm_accounting_present(self, small_data):
        tr = make_trainer(small_data, world_size=2, epochs=1)
        hist = tr.train()
        assert hist.comm_bytes.get("grad_allreduce", 0) > 0
        assert hist.comm_seconds.get("grad_allreduce", 0) > 0

    def test_persistent_fusion_buffer(self, small_data):
        """One fusion buffer per trainer, reused across iterations."""
        tr = make_trainer(small_data, world_size=2, epochs=1)
        fusion_before = tr._grad_fusion
        assert fusion_before.op == "average" and fusion_before.phase == "grad_allreduce"
        assert fusion_before.capacity_bytes == tr.config.fusion_capacity_bytes
        hist = tr.train()
        assert tr._grad_fusion is fusion_before  # never rebuilt
        # at least one flush per iteration (capacity may force more)
        assert fusion_before.flush_count >= hist.total_iterations
        assert hist.grad_fusion_flushes == fusion_before.flush_count
        assert fusion_before.pending_bytes == 0  # fully drained per iteration

    def test_comm_bytes_count_true_fused_payload(self, small_data):
        """grad_allreduce bytes == what the fused flushes actually sent:
        per-iteration gradient payload x iterations, matching the
        buffer's own flushed-bytes counter exactly."""
        tr = make_trainer(small_data, world_size=2, epochs=1)
        hist = tr.train()
        assert hist.comm_bytes["grad_allreduce"] == tr._grad_fusion.bytes_flushed
        grad_bytes = sum(p.grad.nbytes for p in tr.replicas[0].parameters())
        assert hist.comm_bytes["grad_allreduce"] == grad_bytes * hist.total_iterations

    def test_small_capacity_flushes_mid_iteration(self, small_data):
        tx, ty, vx, vy = small_data
        cfg = TrainerConfig(
            world_size=2, batch_size=16, epochs=1,
            lr_schedule=ConstantSchedule(0.05),
            fusion_capacity_bytes=1 << 10,  # force capacity-triggered flushes
        )
        tr = DataParallelTrainer(factory, tx, ty, vx, vy, cfg)
        hist = tr.train()
        assert tr._grad_fusion.flush_count > hist.total_iterations
        grad_bytes = sum(p.grad.nbytes for p in tr.replicas[0].parameters())
        assert hist.comm_bytes["grad_allreduce"] == grad_bytes * hist.total_iterations

    def test_pipelined_kfac_trainer_matches_sync(self, small_data):
        """End-to-end: scheduler="graph" trains to the same weights and
        reports hidden factor-comm seconds."""
        kf_sync = KFACHyperParams(kfac_update_freq=2, fac_update_freq=1, damping=0.01)
        kf_pipe = KFACHyperParams(
            kfac_update_freq=2, fac_update_freq=1, damping=0.01,
            scheduler="graph", bucket_bytes=1 << 12,
        )
        tr_sync = make_trainer(small_data, world_size=2, epochs=1, kfac=kf_sync)
        tr_pipe = make_trainer(small_data, world_size=2, epochs=1, kfac=kf_pipe)
        h_sync = tr_sync.train()
        h_pipe = tr_pipe.train()
        assert not h_sync.comm_hidden_seconds
        assert h_pipe.comm_hidden_seconds.get("factor_comm", 0.0) > 0.0
        for (n, p_s), (_, p_p) in zip(
            tr_sync.replicas[0].named_parameters(), tr_pipe.replicas[0].named_parameters()
        ):
            np.testing.assert_allclose(p_p.data, p_s.data, atol=2e-5, rtol=2e-4, err_msg=n)

    def test_single_worker_no_comm(self, small_data):
        tr = make_trainer(small_data, world_size=1, epochs=1)
        hist = tr.train()
        assert hist.comm_seconds.get("grad_allreduce", 0.0) == 0.0

    def test_data_parallel_equivalence_sgd(self, small_data):
        """P workers with per-worker batch B == 1 worker with batch P*B.

        Uses a BatchNorm-free model: BN statistics are computed over the
        *local* batch, so exact equivalence is only defined without BN
        (the paper likewise treats distributed BN as out of scope, §III-A).
        """
        from repro.nn.container import Sequential
        from repro.nn.layers import Conv2d, Flatten, GlobalAvgPool2d, Linear, ReLU

        def bn_free_factory(rng):
            return Sequential(
                Conv2d(3, 6, 3, padding=1, bias=True, rng=rng),
                ReLU(),
                Conv2d(6, 8, 3, stride=2, padding=1, bias=True, rng=rng),
                ReLU(),
                GlobalAvgPool2d(),
                Linear(8, 4, rng=rng),
            )

        tx, ty, vx, vy = small_data

        def run(world, bs):
            cfg = TrainerConfig(
                world_size=world, batch_size=bs, epochs=1,
                lr_schedule=ConstantSchedule(0.05), seed=0,
            )
            tr = DataParallelTrainer(bn_free_factory, tx, ty, vx, vy, cfg)
            tr.train()
            return tr.replicas[0].state_dict()

        s1 = run(1, 32)
        s2 = run(2, 16)
        for key in s1:
            np.testing.assert_allclose(
                s2[key], s1[key], rtol=1e-4, atol=1e-6, err_msg=key
            )

    def test_kfac_trainer_runs(self, small_data):
        kfac = KFACHyperParams(damping=0.01, kfac_update_freq=2)
        tr = make_trainer(small_data, world_size=2, epochs=2, kfac=kfac)
        hist = tr.train()
        assert hist.comm_bytes.get("factor_comm", 0) > 0
        assert hist.epochs[-1].train_loss < hist.epochs[0].train_loss

    def test_lr_schedule_applied(self, small_data):
        tx, ty, vx, vy = small_data
        cfg = TrainerConfig(
            world_size=1, batch_size=32, epochs=2,
            lr_schedule=MultiStepSchedule(0.1, [1], gamma=0.1), seed=0,
        )
        tr = DataParallelTrainer(factory, tx, ty, vx, vy, cfg)
        hist = tr.train()
        assert hist.epochs[0].lr == pytest.approx(0.1)
        assert hist.epochs[1].lr == pytest.approx(0.01)

    def test_eval_every(self, small_data):
        tx, ty, vx, vy = small_data
        cfg = TrainerConfig(
            world_size=1, batch_size=32, epochs=3, eval_every=2,
            lr_schedule=ConstantSchedule(0.05),
        )
        tr = DataParallelTrainer(factory, tx, ty, vx, vy, cfg)
        hist = tr.train()
        evals = [e.val_accuracy is not None for e in hist.epochs]
        assert evals == [False, True, True]  # epoch 2 and final

    def test_replicas_start_identical(self, small_data):
        tr = make_trainer(small_data, world_size=3)
        s0 = tr.replicas[0].state_dict()
        for r in (1, 2):
            sr = tr.replicas[r].state_dict()
            for key in s0:
                np.testing.assert_array_equal(sr[key], s0[key])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(world_size=0)
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)


class TestHistory:
    def test_epochs_to_accuracy(self):
        hist = TrainingHistory(
            epochs=[
                EpochStats(0, 1.0, 0.3, 0.1, 10),
                EpochStats(1, 0.5, 0.7, 0.1, 10),
                EpochStats(2, 0.3, 0.9, 0.1, 10),
            ]
        )
        assert hist.epochs_to_accuracy(0.6) == 1
        assert hist.epochs_to_accuracy(0.95) is None
        assert hist.final_val_accuracy == 0.9
        assert hist.best_val_accuracy == 0.9

    def test_no_eval_raises(self):
        hist = TrainingHistory(epochs=[EpochStats(0, 1.0, None, 0.1, 5)])
        with pytest.raises(ValueError):
            _ = hist.final_val_accuracy
