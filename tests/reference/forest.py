"""Reference twins of the vectorized forest surrogate.

- :class:`ArgsortTree` grows a :class:`~repro.bo.forest.RegressionTree`
  with a fresh per-node argsort of every sampled column and a per-feature
  split loop, never the presorted index cache and batched split scoring
  of the production tree;
- :class:`ArgsortForest` fits a forest out of such trees;
- :func:`predict_recursive` / :func:`forest_predict_reference` route one
  row at a time through Python recursion instead of the level walks.
"""

from __future__ import annotations

import numpy as np

from repro.bo.forest import RandomForestRegressor, RegressionTree


class ArgsortTree(RegressionTree):
    """A tree whose every node re-argsorts its rows per sampled feature.

    It grows nodes in the production order and draws the same
    ``rng.choice`` per split, ignoring the sorted index cache ``fit``
    passes in.
    """

    def _build(self, X, y, idx, sorted_idx, depth, rng):
        y_node = y[idx]
        node = self._new_node(float(y_node.mean()))
        if (
            depth >= self.max_depth
            or idx.size < self.min_samples_split
            or np.ptp(y_node) == 0.0
        ):
            return node
        split = self._argsort_split(X, idx, y_node, rng)
        if split is None:
            return node
        feature, threshold = split
        mask = X[idx, feature] <= threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if left_idx.size == 0 or right_idx.size == 0:
            return node
        self._feature[node] = feature
        self._threshold[node] = threshold
        self._left[node] = self._build(X, y, left_idx, None, depth + 1, rng)
        self._right[node] = self._build(X, y, right_idx, None, depth + 1, rng)
        return node

    def _argsort_split(self, X, idx, y_node, rng):
        """Best (feature, threshold) by one argsort and cumsum per feature."""
        n_features = X.shape[1]
        k = n_features if self.max_features is None else min(self.max_features, n_features)
        features = rng.choice(n_features, size=k, replace=False)
        n = idx.size
        total_sum = y_node.sum()
        best_score = np.inf  # weighted child SSE; parent SSE is constant
        best = None
        counts = np.arange(1, n)  # left sizes (shared across features)
        right_counts = n - counts
        for f in features:
            col = X[idx, f]
            order = np.argsort(col, kind="stable")
            xs = col[order]
            ys = y_node[order]
            # Candidate split after position i (1..n-1) only where x changes.
            csum = np.cumsum(ys)
            csum2 = np.cumsum(ys * ys)
            left_sum = csum[:-1]
            left_sum2 = csum2[:-1]
            right_sum = total_sum - left_sum
            right_sum2 = csum2[-1] - left_sum2
            sse = (
                left_sum2
                - left_sum * left_sum / counts
                + right_sum2
                - right_sum * right_sum / right_counts
            )
            valid = xs[1:] > xs[:-1]
            if not valid.any():
                continue
            sse = np.where(valid, sse, np.inf)
            pos = int(np.argmin(sse))
            if sse[pos] < best_score:
                best_score = float(sse[pos])
                best = (int(f), float(0.5 * (xs[pos] + xs[pos + 1])))
        return best


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
