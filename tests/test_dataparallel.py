"""Unit tests for sharding, allreduce, the linear scaling rule and costs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataparallel import (
    TrainingCostModel,
    linear_scaled_batch_size,
    linear_scaled_lr,
    ring_transfer_stats,
    shard_indices,
)

from tests.reference import allreduce_mean, ring_allreduce


# --------------------------------------------------------------------- #
# Sharding
# --------------------------------------------------------------------- #
@given(n=st.integers(1, 200), ranks=st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_shards_partition_exactly(n, ranks):
    if n < ranks:
        return
    shards = shard_indices(n, ranks, np.random.default_rng(0))
    together = np.concatenate(shards)
    assert together.size == n
    assert np.array_equal(np.sort(together), np.arange(n))


def test_shard_sizes_balanced():
    shards = shard_indices(103, 4, np.random.default_rng(0))
    sizes = [len(s) for s in shards]
    assert max(sizes) - min(sizes) <= 1


def test_sharding_without_rng_is_contiguous():
    shards = shard_indices(10, 2)
    np.testing.assert_array_equal(shards[0], np.arange(5))
    np.testing.assert_array_equal(shards[1], np.arange(5, 10))


def test_sharding_validation():
    with pytest.raises(ValueError):
        shard_indices(3, 5)
    with pytest.raises(ValueError):
        shard_indices(10, 0)


# --------------------------------------------------------------------- #
# Allreduce
# --------------------------------------------------------------------- #
@given(ranks=st.integers(1, 8), seed=st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_ring_equals_mean(ranks, seed):
    rng = np.random.default_rng(seed)
    grads = [
        [rng.normal(size=(4, 3)), rng.normal(size=(3,)), rng.normal(size=(3, 2))]
        for _ in range(ranks)
    ]
    ring = ring_allreduce(grads)
    mean = allreduce_mean(grads)
    for a, b in zip(ring, mean):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


def test_allreduce_single_rank_is_identity():
    g = [np.arange(6.0).reshape(2, 3)]
    out = allreduce_mean([g])
    np.testing.assert_array_equal(out[0], g[0])
    out_ring = ring_allreduce([g])
    np.testing.assert_array_equal(out_ring[0], g[0])


def test_allreduce_preserves_shapes():
    rng = np.random.default_rng(0)
    grads = [[rng.normal(size=(5, 7)), rng.normal(size=(7,))] for _ in range(3)]
    out = ring_allreduce(grads)
    assert out[0].shape == (5, 7) and out[1].shape == (7,)


def test_allreduce_alignment_checks():
    a = [np.zeros((2, 2))]
    b = [np.zeros((2, 3))]
    with pytest.raises(ValueError):
        allreduce_mean([a, b])
    with pytest.raises(ValueError):
        ring_allreduce([a, a + [np.zeros(1)]])
    with pytest.raises(ValueError):
        allreduce_mean([])


def test_ring_stats_bandwidth_optimal():
    stats = ring_transfer_stats(4, 1000)
    assert stats.message_steps == 2 * 3
    assert stats.bytes_sent_per_rank == int(round(2 * 3 / 4 * 1000))


def test_ring_stats_single_rank_no_comm():
    stats = ring_transfer_stats(1, 1000)
    assert stats.message_steps == 0
    assert stats.bytes_sent_per_rank == 0


# --------------------------------------------------------------------- #
# Linear scaling rule (Eq. 2)
# --------------------------------------------------------------------- #
def test_linear_scaling_values():
    assert linear_scaled_lr(0.01, 8) == pytest.approx(0.08)
    assert linear_scaled_batch_size(256, 4) == 1024


def test_linear_scaling_identity_at_one():
    assert linear_scaled_lr(0.01, 1) == 0.01
    assert linear_scaled_batch_size(256, 1) == 256


def test_linear_scaling_validation():
    with pytest.raises(ValueError):
        linear_scaled_lr(0.0, 2)
    with pytest.raises(ValueError):
        linear_scaled_lr(0.1, 0)
    with pytest.raises(ValueError):
        linear_scaled_batch_size(0, 2)


# --------------------------------------------------------------------- #
# Cost model
# --------------------------------------------------------------------- #
def test_cost_model_table1_calibration():
    """Default constants reproduce the Table I shape on the paper scale."""
    cm = TrainingCostModel()
    t = {n: cm.training_minutes(30_000, 244_025, 256, n, 20) for n in (1, 2, 4, 8)}
    assert 20.0 < t[1] < 33.0  # paper: 26.54 ± 7.68
    assert 2.5 < t[8] < 5.0  # paper: 3.19 ± 0.29
    # Monotone decreasing with n, near-linear speedup.
    assert t[1] > t[2] > t[4] > t[8]
    assert 6.0 < t[1] / t[8] < 8.5


def test_cost_grows_with_model_size():
    cm = TrainingCostModel()
    small = cm.training_minutes(5_000, 100_000, 256, 1, 20)
    large = cm.training_minutes(80_000, 100_000, 256, 1, 20)
    assert large > small


def test_cost_larger_batch_fewer_steps_cheaper_per_epoch():
    """Bigger per-rank batches amortize per-step overhead."""
    cm = TrainingCostModel()
    t_small = cm.training_minutes(30_000, 100_000, 32, 1, 10)
    t_large = cm.training_minutes(30_000, 100_000, 512, 1, 10)
    assert t_large < t_small


def test_cost_linear_in_epochs():
    cm = TrainingCostModel(epoch_overhead_s=0.0)
    t10 = cm.training_minutes(30_000, 100_000, 256, 2, 10)
    t20 = cm.training_minutes(30_000, 100_000, 256, 2, 20)
    np.testing.assert_allclose(t20, 2 * t10, rtol=1e-9)


def test_cost_speedup_below_ideal():
    cm = TrainingCostModel()
    for n in (2, 4, 8):
        assert 1.0 < cm.speedup(30_000, 244_025, 256, n) < n + 0.01


def test_cost_allreduce_term_grows_with_ranks():
    cm = TrainingCostModel()
    assert cm.allreduce_seconds(30_000, 1) == 0.0
    assert cm.allreduce_seconds(30_000, 8) > cm.allreduce_seconds(30_000, 2)


def test_cost_steps_per_epoch_floor():
    cm = TrainingCostModel()
    # Effective batch bigger than the data set still yields one step.
    assert cm.steps_per_epoch(100, 256, 8) == 1


def test_cost_model_validation():
    cm = TrainingCostModel()
    with pytest.raises(ValueError):
        cm.training_minutes(0, 100, 32, 1, 10)
    with pytest.raises(ValueError):
        TrainingCostModel(throughput_flops=-1)
    with pytest.raises(ValueError):
        TrainingCostModel(thread_scaling_exponent=1.0)
