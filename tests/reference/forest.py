"""Reference twins of the vectorized forest surrogate.

- :class:`ArgsortTree` grows a :class:`~repro.bo.forest.RegressionTree`
  with a fresh per-node argsort of every sampled column, never the
  presorted index cache the production tree reuses when splits consider
  every feature;
- :class:`ArgsortForest` fits a forest out of such trees;
- :func:`predict_recursive` / :func:`forest_predict_reference` route one
  row at a time through Python recursion instead of the level walks.
"""

from __future__ import annotations

import numpy as np

from repro.bo.forest import RandomForestRegressor, RegressionTree


class ArgsortTree(RegressionTree):
    """A tree whose every node re-argsorts its rows per sampled feature."""

    def _build(self, X, y, idx, sorted_idx, depth, rng):
        return super()._build(X, y, idx, None, depth, rng)


class ArgsortForest(RandomForestRegressor):
    """A forest of :class:`ArgsortTree` trees, fitted in the same RNG order."""

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> "ArgsortForest":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, d = X.shape
        max_features = self.max_features
        if max_features is None and d > 1:
            max_features = d if d <= 3 else max(1, int(np.sqrt(d)))
        self._trees = []
        for _ in range(self.n_trees):
            tree = ArgsortTree(self.max_depth, self.min_samples_split, max_features)
            if self.bootstrap and n > 1:
                sample = rng.integers(0, n, size=n)
                tree.fit(X[sample], y[sample], rng)
            else:
                tree.fit(X, y, rng)
            self._trees.append(tree)
        self._finalize_ensemble()
        return self


def predict_recursive(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Per-row walk of a fitted tree's frozen node arrays."""
    X = np.asarray(X, dtype=float)
    if tree.value_ is None or tree.value_.size == 0:
        raise RuntimeError("tree is not fitted")

    def walk(node: int, row: np.ndarray) -> float:
        while tree.feature_[node] >= 0:
            if row[tree.feature_[node]] <= tree.threshold_[node]:
                node = tree.left_[node]
            else:
                node = tree.right_[node]
        return float(tree.value_[node])

    return np.array([walk(0, row) for row in X])


def forest_predict_reference(
    forest: RandomForestRegressor, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-tree, per-row (mean, std) of a fitted forest."""
    if not forest._trees:
        raise RuntimeError("forest is not fitted")
    preds = np.stack([predict_recursive(t, X) for t in forest._trees])
    return preds.mean(axis=0), preds.std(axis=0)
