"""Unit tests for the data-parallel trainer (Horovod-equivalent semantics).

With ``num_ranks=1`` the same trainer is plain training, the loop the MLP
baselines use; the ``test_single_rank_*`` cases cover that case.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataparallel import DataParallelTrainer
from repro.nn import GraphNetwork
from repro.nn.graph_network import ArchitectureSpec, NodeOp
from repro.nn.metrics import accuracy

from conftest import make_blobs


def build(seed=0, d=8, classes=3):
    spec = ArchitectureSpec((NodeOp(24, "relu"), NodeOp(16, "tanh")))
    return GraphNetwork(spec, d, classes, np.random.default_rng(seed))


def test_ring_and_mean_paths_agree(rng):
    """Identical seeds: ring and naive-mean allreduce give the same run."""
    X, y = make_blobs(np.random.default_rng(0), n=400)

    def run(mode):
        net = build(seed=3)
        return DataParallelTrainer(
            num_ranks=4, epochs=3, batch_size=16, learning_rate=0.005, allreduce=mode
        ).fit(net, X[:320], y[:320], X[320:], y[320:], np.random.default_rng(9))

    a = run("ring")
    b = run("mean")
    np.testing.assert_allclose(a.epoch_train_losses, b.epoch_train_losses, rtol=1e-8)
    np.testing.assert_array_equal(a.epoch_val_accuracies, b.epoch_val_accuracies)


def test_fused_path_matches_per_rank(rng):
    """The concatenated-batch fast path equals averaged per-rank grads."""
    X, y = make_blobs(np.random.default_rng(1), n=400)

    def run(mode):
        net = build(seed=5)
        return DataParallelTrainer(
            num_ranks=2, epochs=3, batch_size=32, learning_rate=0.005, allreduce=mode
        ).fit(net, X[:320], y[:320], X[320:], y[320:], np.random.default_rng(4))

    a = run("fused")
    b = run("mean")
    np.testing.assert_allclose(a.epoch_train_losses, b.epoch_train_losses, rtol=1e-6)


def test_scaled_lr_applied():
    X, y = make_blobs(np.random.default_rng(3), n=200)
    net = build(seed=1)
    trainer = DataParallelTrainer(num_ranks=4, epochs=1, batch_size=16, learning_rate=0.01)
    trainer.fit(net, X[:160], y[:160], X[160:], y[160:], np.random.default_rng(0))
    # No public handle on the optimizer, so check via behaviour: disabling
    # linear scaling must change the trajectory.
    net2 = build(seed=1)
    t2 = DataParallelTrainer(
        num_ranks=4, epochs=1, batch_size=16, learning_rate=0.01, apply_linear_scaling=False
    )
    r2 = t2.fit(net2, X[:160], y[:160], X[160:], y[160:], np.random.default_rng(0))
    net3 = build(seed=1)
    r3 = DataParallelTrainer(num_ranks=4, epochs=1, batch_size=16, learning_rate=0.04,
                             apply_linear_scaling=False).fit(
        net3, X[:160], y[:160], X[160:], y[160:], np.random.default_rng(0)
    )
    trained = net.get_weights()
    manual = net3.get_weights()
    for a, b in zip(trained, manual):
        np.testing.assert_allclose(a, b, rtol=1e-8)  # 4 * 0.01 == 0.04
    assert r2.epoch_train_losses != r3.epoch_train_losses  # unscaled differs


def test_training_learns(rng):
    X, y = make_blobs(np.random.default_rng(4), n=500)
    net = build(seed=2)
    result = DataParallelTrainer(num_ranks=2, epochs=8, batch_size=16, learning_rate=0.005).fit(
        net, X[:400], y[:400], X[400:], y[400:], rng
    )
    assert result.best_val_accuracy > 0.8


def test_single_rank_improves_over_initialization(rng):
    X, y = make_blobs(rng)
    net = build()
    before = accuracy(net.compile().predict_logits(X[300:]), y[300:])
    result = DataParallelTrainer(num_ranks=1, epochs=10, batch_size=32, learning_rate=0.01).fit(
        net, X[:300], y[:300], X[300:], y[300:], rng
    )
    assert result.best_val_accuracy > before
    assert result.best_val_accuracy > 0.8  # separable blobs


def test_single_rank_history_lengths_match_epochs(rng):
    X, y = make_blobs(rng, n=120)
    result = DataParallelTrainer(num_ranks=1, epochs=4, batch_size=32).fit(
        build(), X[:90], y[:90], X[90:], y[90:], rng
    )
    assert len(result.epoch_val_accuracies) == 4
    assert len(result.epoch_train_losses) == 4
    assert result.final_val_accuracy == result.epoch_val_accuracies[-1]
    assert result.best_val_accuracy == max(result.epoch_val_accuracies)


def test_single_rank_keep_best_weights_restorable(rng):
    X, y = make_blobs(rng, n=200)
    net = build()
    result = DataParallelTrainer(num_ranks=1, epochs=6, batch_size=32, keep_best_weights=True).fit(
        net, X[:150], y[:150], X[150:], y[150:], rng
    )
    assert result.best_weights is not None
    net.set_weights(result.best_weights)
    restored = accuracy(net.compile().predict_logits(X[150:]), y[150:])
    np.testing.assert_allclose(restored, result.best_val_accuracy)


def test_keep_best_weights_returns_best_epoch_parameters():
    """best_weights are the parameters after the best epoch: a rerun that
    stops right after that epoch ends on exactly those arrays."""
    X, y = make_blobs(np.random.default_rng(21), n=200)
    X = X + np.random.default_rng(21).normal(size=X.shape) * 3.0  # overlapping blobs

    def train(epochs):
        net = build(seed=2)
        trainer = DataParallelTrainer(
            num_ranks=2, epochs=epochs, batch_size=16, learning_rate=0.05,
            allreduce="ring", keep_best_weights=True,
        )
        return net, trainer.fit(net, X[:150], y[:150], X[150:], y[150:],
                                np.random.default_rng(22))

    net, result = train(8)
    best = int(np.argmax(result.epoch_val_accuracies))
    assert 0 < best < 7  # the run improved, then kept training past its best epoch
    # The snapshot is not a view of the live parameters.
    assert not any(np.shares_memory(w, net.params_flat) for w in result.best_weights)
    assert [w.shape for w in result.best_weights] == [p.shape for p in net.parameters()]

    rerun, _ = train(best + 1)
    for kept, final in zip(result.best_weights, rerun.get_weights()):
        np.testing.assert_array_equal(kept, final)


def test_single_rank_deterministic_given_seed():
    X, y = make_blobs(np.random.default_rng(0), n=200)

    def run():
        return DataParallelTrainer(num_ranks=1, epochs=3, batch_size=32).fit(
            build(seed=5), X[:150], y[:150], X[150:], y[150:], np.random.default_rng(42)
        )

    a, b = run(), run()
    np.testing.assert_array_equal(a.epoch_val_accuracies, b.epoch_val_accuracies)
    np.testing.assert_array_equal(a.epoch_train_losses, b.epoch_train_losses)


def test_single_rank_empty_training_set_raises(rng):
    with pytest.raises(ValueError):
        DataParallelTrainer(num_ranks=1, epochs=1).fit(
            build(), np.zeros((0, 8)), np.zeros(0, dtype=int),
            np.zeros((2, 8)), np.zeros(2, dtype=int), rng,
        )


def test_single_rank_loss_decreases_on_average(rng):
    X, y = make_blobs(rng, n=400)
    result = DataParallelTrainer(num_ranks=1, epochs=8, batch_size=32, learning_rate=0.01).fit(
        build(), X[:300], y[:300], X[300:], y[300:], rng
    )
    first, last = result.epoch_train_losses[0], result.epoch_train_losses[-1]
    assert last < first


def test_too_many_ranks_raises(rng):
    X, y = make_blobs(np.random.default_rng(5), n=10)
    with pytest.raises(ValueError):
        DataParallelTrainer(num_ranks=8, epochs=1, batch_size=4).fit(
            build(), X[:4], y[:4], X[4:], y[4:], rng
        )


def test_constructor_validation():
    with pytest.raises(ValueError):
        DataParallelTrainer(num_ranks=0)
    with pytest.raises(ValueError):
        DataParallelTrainer(num_ranks=1, allreduce="tree")
    with pytest.raises(ValueError):
        DataParallelTrainer(num_ranks=1, batch_size=0)
    with pytest.raises(ValueError):
        DataParallelTrainer(num_ranks=1, batch_size=-4)
    with pytest.raises(ValueError):
        DataParallelTrainer(num_ranks=1, epochs=-1)


def test_epochs_zero_returns_zeroed_result(rng):
    """epochs=0 yields a zeroed TrainResult instead of an IndexError."""
    X, y = make_blobs(np.random.default_rng(8), n=200)
    net = build(seed=4)
    before = [w.copy() for w in net.get_weights()]
    result = DataParallelTrainer(num_ranks=2, epochs=0, batch_size=16).fit(
        net, X[:160], y[:160], X[160:], y[160:], rng
    )
    assert result.best_val_accuracy == 0.0
    assert result.final_val_accuracy == 0.0
    assert result.epoch_val_accuracies == []
    assert result.epoch_train_losses == []
    assert not result.diverged
    for a, b in zip(before, net.get_weights()):
        np.testing.assert_array_equal(a, b)  # no training happened


def test_epoch_end_event_reports_ring_bytes():
    """EpochEnd carries the analytic per-rank ring volume in every mode."""
    from repro.campaign.events import EpochEnd, EventBus
    from repro.dataparallel import ring_transfer_stats

    X, y = make_blobs(np.random.default_rng(9), n=300)
    net = build(seed=6)
    trainer = DataParallelTrainer(num_ranks=4, epochs=2, batch_size=16, allreduce="ring")
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append, EpochEnd)
    trainer.event_bus = bus
    trainer.fit(net, X[:240], y[:240], X[240:], y[240:], np.random.default_rng(2))
    assert len(seen) == 2
    expected = ring_transfer_stats(
        4, net.num_parameters() * net.dtype.itemsize
    ).bytes_sent_per_rank
    assert all(e.ring_bytes_per_rank == expected for e in seen)
    assert expected > 0

    # The fused reduction reports the same analytic ring volume.
    net2 = build(seed=6)
    trainer2 = DataParallelTrainer(num_ranks=4, epochs=1, batch_size=16, allreduce="fused")
    bus2 = EventBus()
    seen2 = []
    bus2.subscribe(seen2.append, EpochEnd)
    trainer2.event_bus = bus2
    trainer2.fit(net2, X[:240], y[:240], X[240:], y[240:], np.random.default_rng(2))
    assert seen2 and all(e.ring_bytes_per_rank == expected for e in seen2)


def test_large_effective_batch_degrades_accuracy():
    """The paper's core premise: past the scaling limit, accuracy suffers.

    With a small training set, n=8 (effective batch 8x256 > n_train) takes
    one noisy step per epoch with an 8x learning rate and must do worse
    than n=1 on average.
    """
    from repro.datasets import make_tabular_classification

    X, y = make_tabular_classification(
        1500, 8, 3, np.random.default_rng(6), class_sep=1.2, mixing_depth=2
    )
    accs = {}
    for n in (1, 8):
        scores = []
        for seed in range(3):
            net = build(seed=seed)
            res = DataParallelTrainer(
                num_ranks=n, epochs=6, batch_size=128, learning_rate=0.02, warmup_epochs=2
            ).fit(net, X[:1200], y[:1200], X[1200:], y[1200:], np.random.default_rng(seed))
            scores.append(res.best_val_accuracy)
        accs[n] = np.mean(scores)
    assert accs[1] > accs[8]
