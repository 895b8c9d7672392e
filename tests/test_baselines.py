"""Unit tests for the classical baseline learners and ensembles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    ClassificationTree,
    ExtraTreesClassifier,
    GradientBoostingClassifier,
    KNeighborsClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
    WeightedEnsemble,
)

from conftest import make_blobs


@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(0)
    X, y = make_blobs(rng, n=600, d=6, classes=3)
    return X[:450], y[:450], X[450:], y[450:]


ALL_LEARNERS = [
    lambda: ClassificationTree(3, max_depth=8),
    lambda: RandomForestClassifier(3, n_trees=15),
    lambda: ExtraTreesClassifier(3, n_trees=15),
    lambda: GradientBoostingClassifier(3, n_rounds=10),
    lambda: KNeighborsClassifier(3, k=7),
    lambda: LogisticRegression(3),
    lambda: MLPClassifier(3, 6, hidden=(32,), epochs=8),
]


@pytest.mark.parametrize("factory", ALL_LEARNERS)
def test_learner_beats_chance_on_blobs(factory, blobs):
    X_tr, y_tr, X_te, y_te = blobs
    model = factory().fit(X_tr, y_tr, np.random.default_rng(0))
    assert model.score(X_te, y_te) > 0.85  # well-separated blobs


@pytest.mark.parametrize("factory", ALL_LEARNERS)
def test_learner_proba_rows_sum_to_one(factory, blobs):
    X_tr, y_tr, X_te, y_te = blobs
    model = factory().fit(X_tr, y_tr, np.random.default_rng(0))
    proba = model.predict_proba(X_te[:20])
    assert proba.shape == (20, 3)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, rtol=1e-8)
    assert (proba >= 0).all()


def test_tree_pure_node_stops(blobs):
    X_tr, y_tr, _, _ = blobs
    tree = ClassificationTree(3, max_depth=30).fit(X_tr, y_tr, np.random.default_rng(0))
    # Fully grown CART memorizes the training set.
    assert tree.score(X_tr, y_tr) > 0.99


def test_tree_min_samples_leaf_limits_growth(rng):
    # Random labels force deep growth unless min_samples_leaf intervenes.
    X = rng.normal(size=(300, 4))
    y = rng.integers(0, 3, size=300)
    small = ClassificationTree(3, min_samples_leaf=1).fit(X, y, np.random.default_rng(0))
    big = ClassificationTree(3, min_samples_leaf=50).fit(X, y, np.random.default_rng(0))
    assert big.node_count < small.node_count


def test_tree_label_out_of_range(blobs):
    X_tr, y_tr, _, _ = blobs
    with pytest.raises(ValueError):
        ClassificationTree(2).fit(X_tr, y_tr, np.random.default_rng(0))  # labels go to 2


def test_tree_unfitted_predict_raises():
    with pytest.raises(RuntimeError):
        ClassificationTree(3).predict_proba(np.zeros((2, 4)))


def test_forest_more_trees_smoother(blobs):
    """Forest averaging should be at least as good as a single tree."""
    X_tr, y_tr, X_te, y_te = blobs
    tree = ClassificationTree(3, max_depth=6, max_features=2).fit(
        X_tr, y_tr, np.random.default_rng(0)
    )
    forest = RandomForestClassifier(3, n_trees=30, max_depth=6).fit(
        X_tr, y_tr, np.random.default_rng(0)
    )
    assert forest.score(X_te, y_te) >= tree.score(X_te, y_te) - 0.02


def test_extra_trees_differ_from_rf(blobs):
    X_tr, y_tr, X_te, _ = blobs
    rf = RandomForestClassifier(3, n_trees=5).fit(X_tr, y_tr, np.random.default_rng(0))
    xt = ExtraTreesClassifier(3, n_trees=5).fit(X_tr, y_tr, np.random.default_rng(0))
    assert not np.allclose(rf.predict_proba(X_te), xt.predict_proba(X_te))


def test_gbm_improves_with_rounds(blobs):
    X_tr, y_tr, X_te, y_te = blobs
    short = GradientBoostingClassifier(3, n_rounds=1).fit(X_tr, y_tr, np.random.default_rng(0))
    long = GradientBoostingClassifier(3, n_rounds=15).fit(X_tr, y_tr, np.random.default_rng(0))
    assert long.score(X_te, y_te) >= short.score(X_te, y_te)


def test_gbm_validation():
    with pytest.raises(ValueError):
        GradientBoostingClassifier(3, n_rounds=0)
    with pytest.raises(ValueError):
        GradientBoostingClassifier(3, learning_rate=0.0)
    with pytest.raises(ValueError):
        GradientBoostingClassifier(3, subsample=1.5)


def test_knn_k1_memorizes_training(blobs):
    X_tr, y_tr, _, _ = blobs
    knn = KNeighborsClassifier(3, k=1).fit(X_tr, y_tr, np.random.default_rng(0))
    assert knn.score(X_tr, y_tr) == 1.0


def test_knn_blocked_prediction_matches_full(blobs):
    X_tr, y_tr, X_te, _ = blobs
    a = KNeighborsClassifier(3, k=5, block_size=7).fit(X_tr, y_tr, np.random.default_rng(0))
    b = KNeighborsClassifier(3, k=5, block_size=10_000).fit(X_tr, y_tr, np.random.default_rng(0))
    np.testing.assert_allclose(a.predict_proba(X_te), b.predict_proba(X_te))


def test_knn_k_clamped_to_train_size():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0, 1, 1])
    knn = KNeighborsClassifier(2, k=50).fit(X, y, np.random.default_rng(0))
    proba = knn.predict_proba(np.array([[0.5]]))
    np.testing.assert_allclose(proba, [[1 / 3, 2 / 3]])


def test_logistic_on_linear_boundary(rng):
    X = rng.normal(size=(400, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
    model = LogisticRegression(2).fit(X[:300], y[:300], rng)
    assert model.score(X[300:], y[300:]) > 0.95


def test_mlp_records_val_accuracy(blobs):
    X_tr, y_tr, X_te, y_te = blobs
    model = MLPClassifier(3, 6, hidden=(32,), epochs=12, learning_rate=0.01)
    model.fit(X_tr, y_tr, np.random.default_rng(0), X_te, y_te)
    assert model.val_accuracy_ is not None
    assert model.val_accuracy_ > 0.8


def test_mlp_holds_out_validation_when_not_given(blobs):
    X_tr, y_tr, _, _ = blobs
    model = MLPClassifier(3, 6, hidden=(16,), epochs=3)
    model.fit(X_tr, y_tr, np.random.default_rng(0))
    assert model.val_accuracy_ is not None


def test_base_classifier_validation():
    with pytest.raises(ValueError):
        LogisticRegression(1)
    with pytest.raises(ValueError):
        LogisticRegression(3).fit(np.zeros((0, 2)), np.zeros(0, dtype=int), np.random.default_rng(0))
    with pytest.raises(ValueError):
        LogisticRegression(3).fit(np.zeros((3, 2)), np.zeros(3, dtype=float), np.random.default_rng(0))


# --------------------------------------------------------------------- #
# Ensembles
# --------------------------------------------------------------------- #
def fit_base_models(blobs):
    X_tr, y_tr, _, _ = blobs
    rng = np.random.default_rng(0)
    return [
        RandomForestClassifier(3, n_trees=10).fit(X_tr, y_tr, rng),
        KNeighborsClassifier(3, k=7).fit(X_tr, y_tr, rng),
        LogisticRegression(3).fit(X_tr, y_tr, rng),
    ]


def test_weighted_ensemble_at_least_best_member(blobs):
    X_tr, y_tr, X_te, y_te = blobs
    models = fit_base_models(blobs)
    ens = WeightedEnsemble(3, models, n_rounds=15).fit_weights(X_te, y_te)
    member_scores = [m.score(X_te, y_te) for m in models]
    # Greedy selection on the same data can't end below the best member.
    assert ens.score(X_te, y_te) >= max(member_scores) - 1e-9
    np.testing.assert_allclose(ens.weights_.sum(), 1.0)


def test_weighted_ensemble_unfitted_raises(blobs):
    models = fit_base_models(blobs)
    with pytest.raises(RuntimeError):
        WeightedEnsemble(3, models).predict_proba(np.zeros((2, 6)))


def test_weighted_ensemble_validation():
    with pytest.raises(ValueError):
        WeightedEnsemble(3, [])
    with pytest.raises(ValueError):
        WeightedEnsemble(3, [LogisticRegression(3)], n_rounds=0)
