"""Equivalence gates for the rank-vectorized data-parallel path.

Three layers are pinned to their references:

1. :meth:`CompiledPlan.loss_and_grads_ranked` (one fused multi-rank pass)
   against a loop of per-rank :meth:`CompiledPlan.loss_and_grad` calls;
2. :func:`allreduce_mean_flat`, the reduction the ``ring`` mode runs,
   against the chunked-list ``ring_allreduce_reference`` and the naive
   list mean, under adversarial shapes (``n`` not dividing the flattened
   parameter count, tensors smaller than ``n``, the ``n = 1`` fast path).
   This is the evidence that ``ring`` may average by the mean: the two
   differ only in round-off;
3. ``DataParallelTrainer.fit`` against the per-rank ``loop_fit``
   reference over full multi-epoch runs, reduced by the list mean and by
   the list ring.

The references live in ``tests/reference/``.

All gates are 1e-10 or tighter; the mean paths agree bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataparallel import DataParallelTrainer, allreduce_mean_flat
from repro.nn.graph_network import GraphNetwork
from repro.searchspace import ArchitectureSpace

from conftest import make_blobs
from tests.reference import (
    allreduce_mean,
    flatten_gradients,
    gradient_segments,
    loop_fit,
    ring_allreduce_reference,
)


def random_model(seed: int, d: int = 10, classes: int = 4, num_nodes: int = 4) -> GraphNetwork:
    rng = np.random.default_rng(seed)
    space = ArchitectureSpace(num_nodes=num_nodes)
    spec = space.decode(space.random_sample(rng))
    return GraphNetwork(spec, d, classes, np.random.default_rng(seed))


# --------------------------------------------------------------------- #
# 1. Batched multi-rank kernels vs the per-rank loop
# --------------------------------------------------------------------- #
@given(seed=st.integers(0, 50), num_ranks=st.sampled_from([1, 2, 3, 4, 8]))
@settings(max_examples=25, deadline=None)
def test_ranked_gradients_match_per_rank_loop(seed, num_ranks):
    """One fused multi-rank pass == n separate plan calls, per rank."""
    model = random_model(seed)
    plan = model.compile()
    rng = np.random.default_rng(seed + 1)
    bs = 16
    X = rng.standard_normal((num_ranks * bs, 10))
    y = rng.integers(0, 4, size=num_ranks * bs)

    losses, rank_grads = plan.loss_and_grads_ranked(X, y, num_ranks)
    assert losses.shape == (num_ranks,)
    assert rank_grads.shape == (num_ranks, plan.num_flat_params)
    rank_grads = rank_grads.copy()  # the plan reuses the matrix

    for r in range(num_ranks):
        lo, hi = r * bs, (r + 1) * bs
        loss_r = plan.loss_and_grad(X[lo:hi], y[lo:hi])
        packed = model.grads_flat
        assert abs(loss_r - losses[r]) < 1e-10
        np.testing.assert_allclose(rank_grads[r], packed, rtol=0, atol=1e-10)


def test_ranked_rejects_indivisible_batch():
    plan = random_model(0).compile()
    X = np.zeros((10, 10))
    y = np.zeros(10, dtype=np.int64)
    with pytest.raises(ValueError):
        plan.loss_and_grads_ranked(X, y, 3)
    with pytest.raises(ValueError):
        plan.loss_and_grads_ranked(X, y, 0)


def test_rank_grad_views_alias_flat_matrix():
    """Per-layer batched gradients are views into one (n, P) matrix."""
    plan = random_model(1).compile()
    bufs = plan.rank_buffers_for(4)
    assert bufs.flat.shape == (4, plan.num_flat_params)
    for gW, gb in bufs.layer_views.values():
        assert np.shares_memory(gW, bufs.flat)
        assert np.shares_memory(gb, bufs.flat)
    # Cached per rank count.
    assert plan.rank_buffers_for(4) is bufs


def test_mean_grad_views_are_double_buffer():
    """The reduced mean lands in the network's gradient vector, whose
    per-layer views the plan writes and which never aliases the rank matrix."""
    model = random_model(2)
    plan = model.compile()
    rank_bufs = plan.rank_buffers_for(2)
    assert not np.shares_memory(model.grads_flat, rank_bufs.flat)
    assert not np.shares_memory(model.grads_flat, model.params_flat)
    views = model.unflatten(model.grads_flat)
    for view, (o, s, shape) in zip(views, plan.param_segments):
        assert view.shape == shape
        assert np.shares_memory(view, model.grads_flat[o : o + s])
    for gW, gb in plan.param_grads.values():
        assert np.shares_memory(gW, model.grads_flat)
        assert np.shares_memory(gb, model.grads_flat)


# --------------------------------------------------------------------- #
# 2. Flat mean vs chunked-list ring vs list mean — adversarial shapes
# --------------------------------------------------------------------- #
def flat_mean(grads):
    """``allreduce_mean_flat`` over packed per-rank lists, unpacked again."""
    flat, segments = flatten_gradients(grads)
    mean = allreduce_mean_flat(flat)
    return [mean[o : o + size].reshape(shape) for o, size, shape in segments]


@given(seed=st.integers(0, 200), num_ranks=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_flat_ring_matches_reference_on_random_architectures(seed, num_ranks):
    """Gradient lists shaped like real sampled models reduce identically."""
    model = random_model(seed % 20, num_nodes=3)
    shapes = [p.shape for p in model.parameters()]
    rng = np.random.default_rng(seed)
    grads = [[rng.normal(size=s) for s in shapes] for _ in range(num_ranks)]
    fast = flat_mean(grads)
    ring = ring_allreduce_reference(grads)
    mean = allreduce_mean(grads)
    for a, b, c in zip(fast, ring, mean):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(a, c)


@pytest.mark.parametrize(
    "shapes,num_ranks",
    [
        ([(3,), (2, 2)], 4),     # P=7: n does not divide the parameter count
        ([(2,)], 7),             # a tensor smaller than the rank count
        ([(1,)], 8),             # single scalar parameter, eight ranks
        ([(5, 3), (3,)], 1),     # n=1 fast path
        ([(13,)], 5),            # prime sizes on both axes
    ],
)
def test_flat_ring_adversarial_shapes(shapes, num_ranks):
    rng = np.random.default_rng(99)
    grads = [[rng.normal(size=s) for s in shapes] for _ in range(num_ranks)]
    fast = flat_mean(grads)
    ring = ring_allreduce_reference(grads)
    mean = allreduce_mean(grads)
    for a, b, c in zip(fast, ring, mean):
        np.testing.assert_array_equal(a, c)
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


def test_allreduce_mean_flat_reuse_and_validation():
    rng = np.random.default_rng(3)
    flat = rng.normal(size=(4, 11))
    out = np.empty(11)
    for _ in range(3):  # writing into a reused ``out`` must not accumulate
        assert allreduce_mean_flat(flat, out=out) is out
        np.testing.assert_allclose(out, flat.mean(axis=0), rtol=1e-12)
    with pytest.raises(ValueError):
        allreduce_mean_flat(rng.normal(size=11))
    with pytest.raises(ValueError):
        allreduce_mean_flat(np.empty((0, 11)))


def test_allreduce_mean_flat_matches_list_mean():
    rng = np.random.default_rng(4)
    shapes = [(4, 3), (5,), (2, 2)]
    grads = [[rng.normal(size=s) for s in shapes] for _ in range(5)]
    flat, segments = flatten_gradients(grads)
    fm = allreduce_mean_flat(flat)
    packed = np.concatenate([t.ravel() for t in allreduce_mean(grads)])
    np.testing.assert_array_equal(fm, packed)
    assert segments == gradient_segments(grads[0])


# --------------------------------------------------------------------- #
# 3. Dtype stability (float32 must not silently upcast)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("reduce_fn", [allreduce_mean, ring_allreduce_reference])
def test_reductions_preserve_float32(reduce_fn):
    rng = np.random.default_rng(5)
    grads = [
        [rng.normal(size=(4, 3)).astype(np.float32), rng.normal(size=(3,)).astype(np.float32)]
        for _ in range(4)
    ]
    out = reduce_fn(grads)
    assert all(g.dtype == np.float32 for g in out)
    # float64 inputs stay float64
    grads64 = [[g.astype(np.float64) for g in rank] for rank in grads]
    assert all(g.dtype == np.float64 for g in reduce_fn(grads64))


def test_flat_reductions_preserve_float32():
    rng = np.random.default_rng(6)
    flat = rng.normal(size=(4, 9)).astype(np.float32)
    assert allreduce_mean_flat(flat).dtype == np.float32
    assert allreduce_mean_flat(flat.astype(np.float64)).dtype == np.float64


def fit(path: str, trainer: DataParallelTrainer, model, *args, **loop_kwargs):
    """``trainer.fit`` (``path="batched"``) or the per-rank ``loop_fit``."""
    if path == "batched":
        return trainer.fit(model, *args)
    return loop_fit(trainer, model, *args, **loop_kwargs)


@pytest.mark.parametrize("path", ["batched", "loop"])
def test_trainer_float32_keeps_adam_dtype_stable(path):
    """float32 training must feed float32 gradients into the update."""
    X, y = make_blobs(np.random.default_rng(7), n=200)
    model = random_model(3, d=8, classes=3)
    trainer = DataParallelTrainer(
        num_ranks=2, epochs=2, batch_size=16, learning_rate=0.005,
        allreduce="ring", dtype=np.float32,
    )
    fit(path, trainer, model, X[:160], y[:160], X[160:], y[160:], np.random.default_rng(8))
    assert model.params_flat.dtype == model.grads_flat.dtype == model.dtype
    assert all(p.dtype == model.dtype for p in model.parameters())


# --------------------------------------------------------------------- #
# 4. DataParallelTrainer vs the per-rank loop reference
# --------------------------------------------------------------------- #
# The loop reference reduces its per-rank lists by the list mean (what
# the trainer's ``ring`` mode computes) or by the chunked-list ring.
LOOP_REDUCTIONS = {"mean": allreduce_mean, "ring": ring_allreduce_reference}


@pytest.mark.parametrize("reduction", ["ring", "mean"])
@pytest.mark.parametrize("num_ranks", [1, 2, 4, 8])
def test_batched_trainer_matches_loop_reference(reduction, num_ranks):
    """Multi-epoch runs agree on losses, accuracies and final weights."""
    X, y = make_blobs(np.random.default_rng(10), n=600)

    def run(path):
        model = random_model(5, d=8, classes=3)
        trainer = DataParallelTrainer(
            num_ranks=num_ranks, epochs=4, batch_size=16, learning_rate=0.005,
            allreduce="ring",
        )
        result = fit(path, trainer, model, X[:480], y[:480], X[480:], y[480:],
                     np.random.default_rng(12), reduce_fn=LOOP_REDUCTIONS[reduction])
        return result, model.get_weights()

    batched, w_batched = run("batched")
    loop, w_loop = run("loop")
    np.testing.assert_allclose(
        batched.epoch_train_losses, loop.epoch_train_losses, rtol=0, atol=1e-10
    )
    assert batched.epoch_val_accuracies == loop.epoch_val_accuracies
    for a, b in zip(w_batched, w_loop):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)


def test_batched_trainer_matches_loop_on_eager_backend():
    """The trainer's batched ranked pass against the per-rank loop driven
    by eager-tape gradients, the list mean and the per-parameter Adam."""
    X, y = make_blobs(np.random.default_rng(13), n=300)

    def run(path):
        model = random_model(6, d=8, classes=3)
        trainer = DataParallelTrainer(
            num_ranks=2, epochs=2, batch_size=16, learning_rate=0.005, allreduce="ring",
        )
        args = (X[:240], y[:240], X[240:], y[240:], np.random.default_rng(14))
        if path == "batched":
            result = trainer.fit(model, *args)
        else:
            result = loop_fit(trainer, model, *args, gradients="tape")
        return result, model.get_weights()

    a, wa = run("batched")
    b, wb = run("tape")
    np.testing.assert_allclose(a.epoch_train_losses, b.epoch_train_losses, rtol=0, atol=1e-10)
    assert a.epoch_val_accuracies == b.epoch_val_accuracies
    for x, z in zip(wa, wb):
        np.testing.assert_allclose(x, z, rtol=0, atol=1e-10)


def test_batched_trainer_degenerate_shards_fall_back():
    """Shards shorter than one micro-batch take the per-rank gradient loop."""
    X, y = make_blobs(np.random.default_rng(15), n=60)

    def run(path):
        model = random_model(7, d=8, classes=3)
        trainer = DataParallelTrainer(
            num_ranks=4, epochs=2, batch_size=32, learning_rate=0.005, allreduce="ring",
        )
        return fit(path, trainer, model, X[:48], y[:48], X[48:], y[48:],
                   np.random.default_rng(16))

    a = run("batched")
    b = run("loop")
    assert a.epoch_train_losses == b.epoch_train_losses
