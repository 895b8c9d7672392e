"""Unit tests for optimizers and learning-rate schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, GradualWarmup, ReduceLROnPlateau, Tensor


def quadratic_step(opt, p):
    """One GD step on f(p) = ||p||^2 (gradient 2p)."""
    p.grad = 2.0 * p.data
    opt.step()


def test_adam_converges_on_quadratic():
    p = Tensor(np.array([5.0, -3.0, 1.0]), requires_grad=True)
    opt = Adam([p], lr=0.2)
    for _ in range(300):
        quadratic_step(opt, p)
    assert np.linalg.norm(p.data) < 1e-4


def test_adam_bias_correction_first_step():
    """First Adam step has magnitude ≈ lr regardless of gradient scale."""
    for scale in (1e-4, 1.0, 1e4):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.array([scale])
        opt.step()
        # Up to the eps term, the debiased first step is exactly lr.
        assert abs((1.0 - p.data[0]) - 0.1) < 1e-4


def test_optimizer_skips_none_gradients():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=0.5)
    opt.step()  # no grad installed
    np.testing.assert_allclose(p.data, [1.0])


def test_zero_grad_clears_all():
    p1 = Tensor(np.ones(2), requires_grad=True)
    p2 = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([p1, p2], lr=0.1)
    p1.grad = np.ones(2)
    p2.grad = np.ones(2)
    opt.zero_grad()
    assert p1.grad is None and p2.grad is None


def test_apply_gradients_installs_and_steps():
    p = Tensor(np.array([1.0]), requires_grad=True)
    q = Tensor(np.array([1.0]), requires_grad=True)
    Adam([p], lr=0.1).apply_gradients([np.array([2.0])])
    manual = Adam([q], lr=0.1)
    q.grad = np.array([2.0])
    manual.step()
    np.testing.assert_array_equal(p.data, q.data)
    np.testing.assert_allclose(p.data, [0.9])  # debiased first step ≈ lr


def test_apply_gradients_length_mismatch():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    with pytest.raises(ValueError):
        opt.apply_gradients([np.ones(1), np.ones(1)])


@pytest.mark.parametrize("bad_lr", [0.0, -1.0])
def test_invalid_learning_rate(bad_lr):
    with pytest.raises(ValueError):
        Adam([Tensor(np.ones(1), requires_grad=True)], lr=bad_lr)


def test_invalid_betas():
    with pytest.raises(ValueError):
        Adam([Tensor(np.ones(1), requires_grad=True)], lr=0.1, beta1=1.0)


# --------------------------------------------------------------------- #
# Schedules
# --------------------------------------------------------------------- #
def test_warmup_ramps_linearly():
    p = Tensor(np.ones(1), requires_grad=True)
    opt = Adam([p], lr=1.0)
    warmup = GradualWarmup(opt, target_lr=1.0, warmup_epochs=5)
    lrs = [warmup.on_epoch_begin(e) for e in range(7)]
    np.testing.assert_allclose(lrs[:5], [0.2, 0.4, 0.6, 0.8, 1.0])
    assert lrs[5] == lrs[6] == 1.0  # untouched after warmup


def test_warmup_zero_epochs_noop():
    p = Tensor(np.ones(1), requires_grad=True)
    opt = Adam([p], lr=0.5)
    warmup = GradualWarmup(opt, target_lr=0.5, warmup_epochs=0)
    assert warmup.on_epoch_begin(0) == 0.5


def test_plateau_reduces_after_patience():
    p = Tensor(np.ones(1), requires_grad=True)
    opt = Adam([p], lr=1.0)
    plateau = ReduceLROnPlateau(opt, patience=3, factor=0.5)
    plateau.on_epoch_end(0.9)  # new best
    assert not plateau.on_epoch_end(0.9)  # 1 stale
    assert not plateau.on_epoch_end(0.9)  # 2 stale
    assert plateau.on_epoch_end(0.9)  # 3rd stale epoch triggers
    assert opt.lr == 0.5


def test_plateau_resets_on_improvement():
    p = Tensor(np.ones(1), requires_grad=True)
    opt = Adam([p], lr=1.0)
    plateau = ReduceLROnPlateau(opt, patience=2, factor=0.5)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.6)  # improvement resets the counter
    assert not plateau.on_epoch_end(0.6)
    assert opt.lr == 1.0


def test_plateau_respects_min_lr():
    p = Tensor(np.ones(1), requires_grad=True)
    opt = Adam([p], lr=2e-6)
    plateau = ReduceLROnPlateau(opt, patience=1, factor=0.5, min_lr=1e-6)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5)
    assert opt.lr >= 1e-6


def test_plateau_min_delta_guards_noise():
    p = Tensor(np.ones(1), requires_grad=True)
    opt = Adam([p], lr=1.0)
    plateau = ReduceLROnPlateau(opt, patience=2, factor=0.5, min_delta=1e-3)
    plateau.on_epoch_end(0.5)
    plateau.on_epoch_end(0.5 + 1e-5)  # within noise: counts as stale
    assert plateau.on_epoch_end(0.5 + 2e-5)
    assert opt.lr == 0.5


def test_schedule_constructor_validation():
    p = Tensor(np.ones(1), requires_grad=True)
    opt = Adam([p], lr=1.0)
    with pytest.raises(ValueError):
        ReduceLROnPlateau(opt, patience=0)
    with pytest.raises(ValueError):
        ReduceLROnPlateau(opt, factor=1.5)
    with pytest.raises(ValueError):
        GradualWarmup(opt, 1.0, warmup_epochs=-1)
