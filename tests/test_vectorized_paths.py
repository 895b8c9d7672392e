"""Vectorized hot paths vs their references, and precision plumbing.

Covers the three satellite guarantees of the perf work: the batched
forest walks are bit-identical to the per-row recursive reference (and
presorted split search grows the exact same trees as per-node argsort;
both references live in ``tests/reference/forest.py``),
``no_grad`` stays thread-local so a concurrent inference pass cannot
disable taping on another thread, and float32 survives end-to-end
through tensors, networks and compiled plans (no silent float64
upcasts on the training path).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.bo.forest import RandomForestRegressor, RegressionTree
from repro.nn import GraphNetwork, Tensor, is_grad_enabled, no_grad, softmax_cross_entropy
from repro.nn.graph_network import ArchitectureSpec, NodeOp

from tests.reference import (
    ArgsortForest,
    ArgsortTree,
    forest_predict_reference,
    predict_recursive,
)


def _forest_data(seed: int = 0, n: int = 250, d: int = 3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X[:, -1] = np.round(X[:, -1] * 2) / 2  # ties stress stable ordering
    y = np.sin(X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(n)
    return X, y


# --------------------------------------------------------------------- #
# Forest: vectorized vs reference
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "seed, d, max_features, tied",
    [
        pytest.param(0, 3, None, False, id="0"),
        pytest.param(1, 3, None, False, id="1"),
        pytest.param(2, 3, None, False, id="2"),
        # Fewer features per split than columns.
        pytest.param(3, 6, 2, False, id="d6-k2"),
        pytest.param(4, 9, 1, False, id="d9-k1"),
        # Many equal values in every column.
        pytest.param(5, 5, 3, True, id="d5-k3-tied"),
        pytest.param(6, 4, None, True, id="d4-tied"),
    ],
)
def test_presort_grows_identical_trees(seed, d, max_features, tied):
    X, y = _forest_data(seed, d=d)
    if tied:
        X = np.round(X * 2) / 2
    fast = RegressionTree(max_depth=9, max_features=max_features).fit(
        X, y, np.random.default_rng(seed)
    )
    ref = ArgsortTree(max_depth=9, max_features=max_features).fit(
        X, y, np.random.default_rng(seed)
    )
    assert fast.node_count == ref.node_count
    np.testing.assert_array_equal(fast.feature_, ref.feature_)
    np.testing.assert_array_equal(fast.threshold_, ref.threshold_)
    np.testing.assert_array_equal(fast.left_, ref.left_)
    np.testing.assert_array_equal(fast.right_, ref.right_)
    np.testing.assert_array_equal(fast.value_, ref.value_)


def test_tree_levelwalk_matches_recursive():
    X, y = _forest_data(3)
    tree = RegressionTree(max_depth=9).fit(X, y, np.random.default_rng(3))
    Xq = np.random.default_rng(4).standard_normal((333, 3))
    np.testing.assert_array_equal(tree.predict(Xq), predict_recursive(tree, Xq))


def test_forest_batched_predict_matches_reference():
    X, y = _forest_data(5)
    forest = RandomForestRegressor(n_trees=25, max_depth=9).fit(X, y, np.random.default_rng(5))
    Xq = np.random.default_rng(6).standard_normal((1024, 3))
    mu, sigma = forest.predict(Xq)
    mu_ref, sigma_ref = forest_predict_reference(forest, Xq)
    np.testing.assert_array_equal(mu, mu_ref)
    np.testing.assert_array_equal(sigma, sigma_ref)


def test_forest_presort_toggle_identical_predictions():
    X, y = _forest_data(7)
    Xq = np.random.default_rng(8).standard_normal((100, 3))
    fast = RandomForestRegressor(n_trees=10).fit(X, y, np.random.default_rng(9))
    ref = ArgsortForest(n_trees=10).fit(X, y, np.random.default_rng(9))
    for a, b in zip(fast.predict(Xq), ref.predict(Xq)):
        np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------- #
# no_grad thread isolation
# --------------------------------------------------------------------- #
def test_no_grad_is_thread_local():
    entered = threading.Event()
    release = threading.Event()
    seen_inside_other_thread = []

    def inference_thread():
        with no_grad():
            entered.set()
            release.wait(timeout=10)
            seen_inside_other_thread.append(is_grad_enabled())

    t = threading.Thread(target=inference_thread)
    t.start()
    assert entered.wait(timeout=10)
    # The other thread is inside no_grad(); this thread must still tape.
    assert is_grad_enabled()
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    (x * 2.0).sum().backward()
    assert x.grad is not None
    release.set()
    t.join(timeout=10)
    assert seen_inside_other_thread == [False]


# --------------------------------------------------------------------- #
# dtype preservation
# --------------------------------------------------------------------- #
def test_tensor_ops_preserve_float32():
    x = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
    for t in (x + 1.0, x * 0.5, x - 2.0, 1.0 - x, x.relu(), x.tanh(), x.sigmoid(),
              x @ x, x.sum(), x.mean()):
        assert t.data.dtype == np.float32, t.data.dtype
    loss = (x * 3.0).sum()
    loss.backward()
    assert x.grad.dtype == np.float32


def test_network_and_plan_preserve_float32():
    spec = ArchitectureSpec(
        node_ops=(NodeOp(16, "swish"), NodeOp(None, None), NodeOp(24, "relu")),
        skips=frozenset({(0, 2), (1, 4)}),
    )
    model = GraphNetwork(spec, 8, 3, np.random.default_rng(0), dtype=np.float32)
    assert all(p.data.dtype == np.float32 for p in model.parameters())

    rng = np.random.default_rng(1)
    X = rng.standard_normal((32, 8)).astype(np.float32)
    y = rng.integers(0, 3, size=32)

    logits = model.forward(X)
    assert logits.data.dtype == np.float32
    loss = softmax_cross_entropy(logits, y)
    loss.backward()
    assert all(p.grad.dtype == np.float32 for p in model.parameters())

    plan = model.compile()
    plan.loss_and_grad(X, y)
    assert all(g.dtype == np.float32 for g in plan.grad_buffers)
    assert plan.predict_logits(X).dtype == np.float32


def test_float32_initializers_match_float64_draws():
    """Same seed gives the same weights at either precision (cast, not redrawn)."""
    spec = ArchitectureSpec(node_ops=(NodeOp(16, "relu"),))
    m64 = GraphNetwork(spec, 8, 3, np.random.default_rng(2), dtype=np.float64)
    m32 = GraphNetwork(spec, 8, 3, np.random.default_rng(2), dtype=np.float32)
    for p64, p32 in zip(m64.parameters(), m32.parameters()):
        np.testing.assert_array_equal(p64.data.astype(np.float32), p32.data)
