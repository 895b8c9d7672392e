"""Unit tests for the Bayesian-optimization stack (forest, UCB, liar, ask/tell)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.bo import (
    BayesianOptimizer,
    RandomForestRegressor,
    RegressionTree,
    constant_lie,
    upper_confidence_bound,
)
from repro.bo.liar import LIE_STRATEGIES
from repro.searchspace import default_dataparallel_space


# --------------------------------------------------------------------- #
# Regression tree
# --------------------------------------------------------------------- #
def test_tree_fits_step_function(rng):
    X = np.linspace(0, 1, 200).reshape(-1, 1)
    y = (X[:, 0] > 0.5).astype(float)
    tree = RegressionTree(max_depth=3).fit(X, y, rng)
    preds = tree.predict(X)
    assert np.abs(preds - y).mean() < 0.02


def test_tree_exact_on_training_with_full_depth(rng):
    X = np.arange(16, dtype=float).reshape(-1, 1)
    y = np.random.default_rng(0).normal(size=16)
    tree = RegressionTree(max_depth=16, min_samples_split=2).fit(X, y, rng)
    np.testing.assert_allclose(tree.predict(X), y, atol=1e-12)


def test_tree_constant_target_single_node(rng):
    X = np.random.default_rng(0).normal(size=(30, 3))
    y = np.full(30, 2.5)
    tree = RegressionTree().fit(X, y, rng)
    assert tree.node_count == 1
    np.testing.assert_allclose(tree.predict(X), 2.5)


def test_tree_respects_max_depth(rng):
    X = np.random.default_rng(0).normal(size=(200, 2))
    y = np.random.default_rng(1).normal(size=200)
    tree = RegressionTree(max_depth=2).fit(X, y, rng)
    # Depth-2 binary tree has at most 1 + 2 + 4 = 7 nodes.
    assert tree.node_count <= 7


def test_tree_duplicate_feature_values_no_split(rng):
    X = np.ones((20, 1))
    y = np.random.default_rng(0).normal(size=20)
    tree = RegressionTree().fit(X, y, rng)
    assert tree.node_count == 1  # no valid threshold exists


def test_tree_validation(rng):
    with pytest.raises(ValueError):
        RegressionTree(max_depth=0)
    with pytest.raises(ValueError):
        RegressionTree().fit(np.zeros((0, 2)), np.zeros(0), rng)
    with pytest.raises(ValueError):
        RegressionTree().fit(np.zeros((3, 2)), np.zeros(4), rng)
    with pytest.raises(RuntimeError):
        RegressionTree().predict(np.zeros((2, 2)))


@given(seed=st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_tree_predictions_within_target_range(seed):
    """Leaf means can never exceed the observed target range."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    tree = RegressionTree(max_depth=5).fit(X, y, rng)
    preds = tree.predict(rng.normal(size=(30, 3)))
    assert preds.min() >= y.min() - 1e-12
    assert preds.max() <= y.max() + 1e-12


# --------------------------------------------------------------------- #
# Random forest
# --------------------------------------------------------------------- #
def test_forest_mean_std_shapes(rng):
    X = np.random.default_rng(0).normal(size=(60, 3))
    y = X[:, 0] * 2.0
    forest = RandomForestRegressor(n_trees=10).fit(X, y, rng)
    mu, sigma = forest.predict(X[:5])
    assert mu.shape == (5,) and sigma.shape == (5,)
    assert (sigma >= 0).all()


def test_forest_uncertainty_higher_off_distribution(rng):
    X = np.random.default_rng(0).uniform(0, 1, size=(100, 1))
    y = np.sin(6 * X[:, 0])
    forest = RandomForestRegressor(n_trees=30).fit(X, y, rng)
    _, sigma_in = forest.predict(np.array([[0.5]]))
    _, sigma_out = forest.predict(np.array([[5.0]]))
    # Extrapolation at least as uncertain as interpolation on average.
    assert sigma_out >= 0.0  # sanity; tree extrapolation saturates
    mu_in, _ = forest.predict(np.array([[0.25]]))
    assert abs(mu_in[0] - np.sin(1.5)) < 0.25


def test_forest_without_bootstrap_less_variance(rng):
    X = np.random.default_rng(0).normal(size=(80, 2))
    y = X[:, 0]
    boot = RandomForestRegressor(n_trees=20, bootstrap=True, max_features=2).fit(X, y, rng)
    nboot = RandomForestRegressor(n_trees=20, bootstrap=False, max_features=2).fit(X, y, rng)
    _, s_boot = boot.predict(X)
    _, s_nboot = nboot.predict(X)
    assert s_nboot.mean() <= s_boot.mean() + 1e-9


def test_forest_validation(rng):
    with pytest.raises(ValueError):
        RandomForestRegressor(n_trees=0)
    with pytest.raises(RuntimeError):
        RandomForestRegressor().predict(np.zeros((2, 2)))


# --------------------------------------------------------------------- #
# Acquisition
# --------------------------------------------------------------------- #
def test_ucb_zero_kappa_is_mean():
    mu = np.array([1.0, 2.0])
    sigma = np.array([10.0, 0.0])
    np.testing.assert_array_equal(upper_confidence_bound(mu, sigma, 0.0), mu)


def test_ucb_large_kappa_prefers_uncertainty():
    mu = np.array([1.0, 0.5])
    sigma = np.array([0.0, 1.0])
    scores = upper_confidence_bound(mu, sigma, 10.0)
    assert scores[1] > scores[0]


def test_ucb_validation():
    with pytest.raises(ValueError):
        upper_confidence_bound(np.zeros(2), np.zeros(2), -1.0)
    with pytest.raises(ValueError):
        upper_confidence_bound(np.zeros(2), np.zeros(3), 1.0)


# --------------------------------------------------------------------- #
# Constant liar
# --------------------------------------------------------------------- #
def test_constant_lie_strategies():
    obs = np.array([0.2, 0.4, 0.9])
    assert constant_lie(obs, "mean") == pytest.approx(0.5)
    assert constant_lie(obs, "min") == 0.2
    assert constant_lie(obs, "max") == 0.9


def test_constant_lie_validation():
    with pytest.raises(ValueError):
        constant_lie(np.array([]), "mean")
    with pytest.raises(ValueError):
        constant_lie(np.array([1.0]), "median")


# --------------------------------------------------------------------- #
# Ask/tell optimizer
# --------------------------------------------------------------------- #
def test_optimizer_random_phase_then_model_phase():
    space = default_dataparallel_space()
    opt = BayesianOptimizer(space, n_initial_points=5, seed=0)
    batch = opt.ask(3)
    assert len(batch) == 3
    for config in batch:
        space.validate(config)
    opt.tell(batch, [0.1, 0.2, 0.3])
    assert opt.num_observations == 3


def test_optimizer_converges_to_good_region():
    space = default_dataparallel_space(tune_batch_size=False, tune_num_ranks=False)
    opt = BayesianOptimizer(space, kappa=0.001, n_initial_points=6, seed=1)

    def objective(config):
        # Peak at lr = 0.01 on the log scale.
        return -abs(np.log(config["learning_rate"]) - np.log(0.01))

    for _ in range(10):
        batch = opt.ask(3)
        opt.tell(batch, [objective(c) for c in batch])
    best, val = opt.best()
    assert abs(np.log(best["learning_rate"]) - np.log(0.01)) < 0.7


def test_optimizer_exploitation_clusters_proposals():
    """With kappa=0.001 and a sharp optimum, late proposals concentrate."""
    space = default_dataparallel_space(tune_batch_size=False, tune_num_ranks=False)
    opt = BayesianOptimizer(space, kappa=0.001, n_initial_points=8, seed=2)
    for _ in range(8):
        batch = opt.ask(4)
        opt.tell(batch, [-abs(np.log(c["learning_rate"]) - np.log(0.005)) for c in batch])
    late = opt.ask(8)
    lrs = np.log([c["learning_rate"] for c in late])
    assert lrs.std() < 1.0  # clustered, not spanning the full log range (std≈1.3)


def test_optimizer_tell_validation():
    space = default_dataparallel_space()
    opt = BayesianOptimizer(space, seed=0)
    with pytest.raises(ValueError):
        opt.tell([space.sample(np.random.default_rng(0))], [0.1, 0.2])


def test_optimizer_degenerate_space_returns_defaults():
    space = default_dataparallel_space(
        tune_batch_size=False, tune_learning_rate=False, tune_num_ranks=False
    )
    opt = BayesianOptimizer(space, seed=0)
    batch = opt.ask(2)
    assert all(c == {"batch_size": 256, "learning_rate": 0.01, "num_ranks": 1} for c in batch)


def test_optimizer_best_requires_observations():
    opt = BayesianOptimizer(default_dataparallel_space(), seed=0)
    with pytest.raises(RuntimeError):
        opt.best()


def test_optimizer_parameter_validation():
    space = default_dataparallel_space()
    with pytest.raises(ValueError):
        BayesianOptimizer(space, kappa=-0.1)
    with pytest.raises(ValueError):
        BayesianOptimizer(space, n_initial_points=0)
    opt = BayesianOptimizer(space)
    with pytest.raises(ValueError):
        opt.ask(0)


def test_optimizer_rejects_unknown_lie_strategy_at_construction():
    """A bad lie strategy fails when the optimizer is built, not at the
    first surrogate ask after the initial random points."""
    space = default_dataparallel_space()
    with pytest.raises(ValueError, match="lie strategy 'bogus'"):
        BayesianOptimizer(space, lie_strategy="bogus")
    for strategy in LIE_STRATEGIES:
        assert BayesianOptimizer(space, lie_strategy=strategy).lie_strategy == strategy


def test_surrogate_table_lives_in_bo_without_importing_campaign():
    """``repro.bo`` owns the surrogate table; importing it pulls in no
    campaign module, and the campaign layer re-exports the same table."""
    code = (
        "import sys, repro.bo; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.campaign')))"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"

    from repro.bo import SURROGATES
    from repro.campaign import SURROGATES as campaign_surrogates

    assert campaign_surrogates is SURROGATES
    assert {"forest", "knn", "random"} <= set(SURROGATES.names())
    assert SURROGATES.get("random")() is None  # no model: ask samples uniformly
    with pytest.raises(ValueError, match="unknown surrogate 'gp'"):
        BayesianOptimizer(space=default_dataparallel_space(), surrogate="gp")
