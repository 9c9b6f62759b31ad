"""One dtype end to end: no NumPy promotion widens what a model computes.

Under NumPy 2's NEP 50 rules an ``np.float64`` *scalar* promotes a float32
array (a Python ``float`` does not), so one stray ``np.sqrt(...)`` constant
silently turns a float32 model into a float64 one.  These tests train every
layer family (conv, linear, embedding, LayerNorm, attention) at P=2 under
each precision policy with a profile hook on every ``repro`` function, and
fail if any of them returns a floating array wider than the policy's
widest dtype — the storage dtype, float64 only under
``REPRO_DEFAULT_DTYPE=float64``.  They then check that gradients, factors,
eigenbases, the factor arena and the packed wire all carry ``KFAC``'s one
factor dtype, and pin the two places that dtype changes numerics: data
whose dtype is not the model's is cast at capture, and a float64 model's
first conv builds ``A`` from a float64 input.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np
import pytest

from repro.core.factors import conv2d_factor_A
from repro.core.preconditioner import KFAC, KFACHyperParams
from repro.nn import TinyTransformer
from repro.nn.loss import CrossEntropyLoss
from repro.parallel.trainer import DataParallelTrainer, TrainerConfig
from repro.tensor.dtypes import resolve_default_dtype
from tests.conftest import build_tiny_cnn

STORAGE = np.dtype(resolve_default_dtype())
STEPS = 4  # two epochs of two steps per rank


def _family(name):
    """``(model_factory, train_x, train_y)`` of a layer family's model."""
    rng = np.random.default_rng(7)
    y = rng.integers(0, 3, 16)
    if name == "cnn":  # conv + linear, float32 images (as the datasets ship)
        return build_tiny_cnn, rng.normal(size=(16, 1, 8, 8)).astype(np.float32), y

    def transformer(r):  # embedding + LayerNorm + attention + linear
        return TinyTransformer(24, 6, dim=16, num_heads=2, depth=1, num_classes=3, rng=r)

    return transformer, rng.integers(0, 24, (16, 6)), y


class _WidestReturn:
    """A ``sys.setprofile`` hook: every ``repro.*`` function that returns a
    floating array wider than ``widest``, and the dtype of every packed
    factor wire (``WirePlan.pack``)."""

    def __init__(self, widest):
        self.widest = widest
        self.offenders: Counter[str] = Counter()
        self.wires: set[np.dtype] = set()

    def __call__(self, frame, event, arg):
        if event != "return" or not isinstance(arg, np.ndarray) or arg.dtype.kind != "f":
            return
        module = frame.f_globals.get("__name__", "")
        if not module.startswith("repro."):
            return
        code = frame.f_code
        where = f"{module}.{getattr(code, 'co_qualname', code.co_name)}"
        if arg.dtype.itemsize > self.widest.itemsize:
            self.offenders[f"{where} -> {arg.dtype}"] += 1
        if where == "repro.comm.fusion.WirePlan.pack":
            self.wires.add(arg.dtype)

    def __enter__(self):
        sys.setprofile(self)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)


@pytest.mark.parametrize("precision", ["fp32", "fp16", "bf16"])
@pytest.mark.parametrize("family", ["cnn", "transformer"])
def test_no_function_widens_and_kfac_keeps_one_dtype(family, precision):
    factory, x, y = _family(family)
    trainer = DataParallelTrainer(
        model_factory=factory,
        train_x=x,
        train_y=y,
        val_x=x[:4],
        val_y=y[:4],
        config=TrainerConfig(
            world_size=2,
            batch_size=4,
            epochs=2,
            precision=precision,
            kfac=KFACHyperParams(damping=0.01, kfac_update_freq=1, scheduler="graph"),
        ),
    )
    with _WidestReturn(STORAGE) as probe:
        history = trainer.train()
    assert not probe.offenders, f"wider than {STORAGE}: {dict(probe.offenders)}"

    kfac, model = trainer.kfacs[0], trainer.replicas[0]
    dtype = kfac.factor_dtype
    assert dtype == STORAGE  # float32 for fp32/fp16/bf16 storage, float64 on that leg
    assert kfac.steps > 0 and kfac._arena is not None and kfac._arena.dtype == dtype
    assert probe.wires == {dtype}  # the uncompressed pack, before any codec
    assert {p.grad.dtype for p in model.parameters()} == {dtype}
    for meta in kfac.factor_metas:
        assert kfac._factor(meta).dtype == dtype, meta.key
    for layer in kfac.layers:
        for eig in (layer.eig_A, layer.eig_G):
            assert {a.dtype for a in eig.arrays()} == {dtype}, layer.name
    casts = history.metrics["counters"]["kfac.capture_casts"][""]
    assert casts == kfac.n_capture_casts
    if precision == "fp32":
        # only the float64 leg's first conv reads data (float32 images)
        # whose dtype is not the model's: one cast per factor update
        expected = STEPS if (family == "cnn" and STORAGE == np.float64) else 0
        assert casts == expected


def test_float64_model_builds_first_conv_A_from_float64_input():
    """A float64 CNN fed float32 images: the first conv's input is cast to
    float64 before its Gram product (it used to give a float32 ``A``
    beside float64 ones), and the cast is counted once per update."""
    model = build_tiny_cnn(seed=3).cast_(np.float64)
    kfac = KFAC(model, damping=0.01, kfac_update_freq=1)
    x = np.random.default_rng(4).normal(size=(8, 1, 8, 8)).astype(np.float32)
    loss_fn = CrossEntropyLoss()
    first = kfac.layers[0]
    for step in (1, 2):
        model.zero_grad()
        loss_fn(model(x), np.arange(8) % 3)
        model.backward(loss_fn.backward())
        if step == 1:
            images = first.a_input.copy()  # the captured layer input
            assert images.dtype == np.float32  # the images' dtype
        kfac.step()
        if step == 1:  # the first reading is adopted as the running average
            expect = conv2d_factor_A(images.astype(np.float64), has_bias=True)
            np.testing.assert_array_equal(first.A, expect)
        assert kfac.n_capture_casts == step
    assert kfac.factor_dtype == np.float64
    assert {kfac._factor(m).dtype for m in kfac.factor_metas} == {np.dtype(np.float64)}


def test_fp16_working_copy_keeps_float32_factors():
    """fp16 working copies (``cast_(np.float16)``) accumulate factors in
    float32, as ``MasterWeightOptimizer``'s masters do."""
    model = build_tiny_cnn(seed=3).cast_(np.float16)
    kfac = KFAC(model, damping=0.01, kfac_update_freq=1)
    assert kfac.factor_dtype == np.float32
    assert {layer.dtype for layer in kfac.layers} == {np.dtype(np.float32)}
