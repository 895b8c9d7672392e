"""Unit tests for optimizers and learning-rate schedules.

The production :class:`repro.nn.Adam` updates one flat parameter vector in
place; ``tests/reference/optimizers.py`` keeps the per-parameter Adam it
replaced, and the flat update must reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Adam, GradualWarmup, ReduceLROnPlateau

from tests.reference.autograd import Tensor
from tests.reference.optimizers import Adam as ReferenceAdam


def flat_adam(values, lr: float, **kwargs) -> Adam:
    params = np.array(values, dtype=float)
    return Adam(params, np.zeros_like(params), lr=lr, **kwargs)


def quadratic_step(opt):
    """One GD step on f(p) = ||p||^2 (gradient 2p)."""
    np.multiply(opt.params, 2.0, out=opt.grads)
    opt.step()


def test_adam_converges_on_quadratic():
    opt = flat_adam([5.0, -3.0, 1.0], lr=0.2)
    for _ in range(300):
        quadratic_step(opt)
    assert np.linalg.norm(opt.params) < 1e-4


def test_adam_bias_correction_first_step():
    """First Adam step has magnitude ≈ lr regardless of gradient scale."""
    for scale in (1e-4, 1.0, 1e4):
        opt = flat_adam([1.0], lr=0.1)
        opt.grads[:] = scale
        opt.step()
        # Up to the eps term, the debiased first step is exactly lr.
        assert abs((1.0 - opt.params[0]) - 0.1) < 1e-4


def test_adam_rejects_mismatched_vectors():
    with pytest.raises(ValueError):
        Adam(np.zeros(3), np.zeros(4), lr=0.1)
    with pytest.raises(ValueError):
        Adam(np.zeros(3), np.zeros(3, dtype=np.float32), lr=0.1)


# --------------------------------------------------------------------- #
# Flat Adam vs the per-parameter reference, bit for bit
# --------------------------------------------------------------------- #
@given(data=st.data(), dtype=st.sampled_from([np.float64, np.float32]))
@settings(max_examples=60, deadline=None)
def test_flat_adam_matches_per_parameter_reference_bitwise(data, dtype):
    """Parameters, m and v equal the per-array update bit for bit while the
    warmup and plateau schedules reassign ``lr`` between steps."""
    size = data.draw(st.integers(1, 2000), label="P")
    k = data.draw(st.integers(1, min(30, size)), label="arrays")
    cuts = sorted(data.draw(
        st.lists(st.integers(1, size - 1), min_size=k - 1, max_size=k - 1, unique=True)
        if size > 1 else st.just([]),
        label="cuts",
    ))
    steps = data.draw(st.integers(1, 40), label="steps")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    lr = float(10.0 ** rng.uniform(-4, -1))

    params = rng.standard_normal(size).astype(dtype)
    grads = np.zeros_like(params)
    flat = Adam(params, grads, lr=lr)
    leaves = [Tensor(chunk.copy(), requires_grad=True) for chunk in np.split(params, cuts)]
    ref = ReferenceAdam(leaves, lr=lr)
    warm = data.draw(st.integers(0, 5), label="warmup_epochs")
    schedules = [
        (GradualWarmup(opt, lr, warm), ReduceLROnPlateau(opt, patience=2, factor=0.5))
        for opt in (flat, ref)
    ]

    for step in range(steps):
        for warmup, _ in schedules:
            warmup.on_epoch_begin(step)
        scale = 10.0 ** rng.integers(-6, 4)
        grads[...] = rng.standard_normal(size) * scale
        for leaf, g in zip(leaves, np.split(grads, cuts)):
            leaf.grad = g.copy()
        flat.step()
        ref.step()
        metric = float(rng.integers(0, 3))
        for _, plateau in schedules:
            plateau.on_epoch_end(metric)
        assert flat.lr == ref.lr

        assert params.dtype == dtype
        assert params.tobytes() == np.concatenate([p.data for p in leaves]).tobytes()
        assert flat._m.tobytes() == np.concatenate(ref._m).tobytes()
        assert flat._v.tobytes() == np.concatenate(ref._v).tobytes()


# --------------------------------------------------------------------- #
# The per-parameter reference itself
# --------------------------------------------------------------------- #
def test_optimizer_skips_none_gradients():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = ReferenceAdam([p], lr=0.5)
    opt.step()  # no grad installed
    np.testing.assert_allclose(p.data, [1.0])


def test_zero_grad_clears_all():
    p1 = Tensor(np.ones(2), requires_grad=True)
    p2 = Tensor(np.ones(2), requires_grad=True)
    opt = ReferenceAdam([p1, p2], lr=0.1)
    p1.grad = np.ones(2)
    p2.grad = np.ones(2)
    opt.zero_grad()
    assert p1.grad is None and p2.grad is None


def test_apply_gradients_installs_and_steps():
    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([1.0]), requires_grad=True)
    ReferenceAdam([p], lr=0.1).apply_gradients([np.array([2.0])])
    manual = ReferenceAdam([q], lr=0.1)
    q.grad = np.array([2.0])
    manual.step()
    np.testing.assert_array_equal(p.data, q.data)
    np.testing.assert_allclose(p.data, [0.9])  # debiased first step ≈ lr


def test_apply_gradients_length_mismatch():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = ReferenceAdam([p], lr=0.1)
    with pytest.raises(ValueError):
        opt.apply_gradients([np.ones(1), np.ones(1)])


@pytest.mark.parametrize("bad_lr", [0.0, -1.0])
def test_invalid_learning_rate(bad_lr):
    with pytest.raises(ValueError):
        flat_adam([1.0], lr=bad_lr)


def test_invalid_betas():
    with pytest.raises(ValueError):
        flat_adam([1.0], lr=0.1, beta1=1.0)


# --------------------------------------------------------------------- #
# Schedules
# --------------------------------------------------------------------- #
def test_warmup_ramps_linearly():
    opt = flat_adam([1.0], lr=1.0)
    warmup = GradualWarmup(opt, target_lr=1.0, warmup_epochs=5)
    lrs = [warmup.on_epoch_begin(e) for e in range(7)]
    np.testing.assert_allclose(lrs[:5], [0.2, 0.4, 0.6, 0.8, 1.0])
    assert lrs[5] == lrs[6] == 1.0  # untouched after warmup


def test_warmup_zero_epochs_noop():
    opt = flat_adam([1.0], lr=0.5)
    warmup = GradualWarmup(opt, target_lr=0.5, warmup_epochs=0)
    assert warmup.on_epoch_begin(0) == 0.5


def test_plateau_reduces_after_patience():
    opt = flat_adam([1.0], lr=1.0)
    plateau = ReduceLROnPlateau(opt, patience=3, factor=0.5)
    plateau.on_epoch_end(0.9)  # new best
    assert not plateau.on_epoch_end(0.9)  # 1 stale
    assert not plateau.on_epoch_end(0.9)  # 2 stale
    assert plateau.on_epoch_end(0.9)  # 3rd stale epoch triggers
    assert opt.lr == 0.5


def test_plateau_resets_on_improvement():
    opt = flat_adam([1.0], lr=1.0)
    plateau = ReduceLROnPlateau(opt, patience=2, factor=0.5)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.6)  # improvement resets the counter
    assert not plateau.on_epoch_end(0.6)
    assert opt.lr == 1.0


def test_plateau_respects_min_lr():
    opt = flat_adam([1.0], lr=2e-6)
    plateau = ReduceLROnPlateau(opt, patience=1, factor=0.5, min_lr=1e-6)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5)
    assert opt.lr >= 1e-6


def test_plateau_min_delta_guards_noise():
    opt = flat_adam([1.0], lr=1.0)
    plateau = ReduceLROnPlateau(opt, patience=2, factor=0.5, min_delta=1e-3)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5 + 1e-5)  # within noise: counts as stale
    assert plateau.on_epoch_end(0.5 + 2e-5)
    assert opt.lr == 0.5


def test_schedule_constructor_validation():
    opt = flat_adam([1.0], lr=1.0)
    with pytest.raises(ValueError):
        ReduceLROnPlateau(opt, patience=0)
    with pytest.raises(ValueError):
        ReduceLROnPlateau(opt, factor=1.5)
    with pytest.raises(ValueError):
        GradualWarmup(opt, 1.0, warmup_epochs=-1)
