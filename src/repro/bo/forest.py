"""Regression trees and random forests for the BO surrogate.

A small, vectorized CART implementation built for surrogate latency: the
freshness of the liar-augmented model when workers request new configs is
gated by how fast ``fit``/``predict`` run (Klein et al., model-based
asynchronous HPO), so both paths avoid per-row Python work.

``fit`` evaluates every threshold of a feature in one pass using cumulative
sums of ``y`` and ``y²`` over the sorted column (variance reduction in
O(n) per feature per node).  When every split considers every feature (the
BO spaces, which have a handful of dimensions), columns are argsorted
**once** per tree and the sorted index cache is partitioned into the child
nodes at every split, so no node below the root pays an argsort; otherwise
each node argsorts the columns it samples.  The partition is stable, which
keeps the chosen splits bit-identical between the two.

After ``fit`` the tree's node lists freeze into contiguous numpy arrays
(:meth:`RegressionTree._finalize`) and ``predict`` is an iterative,
fully-vectorized level-walk routing all candidate rows at once.  The
forest stacks every tree's frozen arrays into one node table so
:meth:`RandomForestRegressor.predict` walks **all trees × all candidates**
simultaneously — no per-tree Python loop on the BO ``ask`` hot path.
Both walks are gated against a per-row recursive reference in
``tests/reference/``.  ``predict`` returns per-candidate mean and standard
deviation across trees, which is exactly the (μ, σ) pair skopt's forest
surrogate feeds into UCB.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RegressionTree", "RandomForestRegressor"]


class RegressionTree:
    """CART regression tree with random feature subsampling per split.

    Parameters
    ----------
    max_depth:
        Depth cap (root at depth 0).
    min_samples_split:
        Nodes with fewer samples become leaves.
    max_features:
        Number of candidate features per split; ``None`` uses all.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 4,
        max_features: int | None = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        # Flat node arrays, appended during fit, frozen by _finalize().
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[float] = []
        # Frozen contiguous views (valid after fit).
        self.feature_: np.ndarray | None = None
        self.threshold_: np.ndarray | None = None
        self.left_: np.ndarray | None = None
        self.right_: np.ndarray | None = None
        self.value_: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> "RegressionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(f"bad shapes: X {X.shape}, y {y.shape}")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        self._feature.clear()
        self._threshold.clear()
        self._left.clear()
        self._right.clear()
        self._value.clear()
        if self.max_features is None or self.max_features >= X.shape[1]:
            # One stable argsort per column; children inherit partitions.
            # Cache upkeep scales with the full feature count while the
            # benefit scales with features-per-split, so the cache only pays
            # when splits consider every column (true for the BO spaces,
            # which have a handful of dimensions).
            sorted_idx = np.argsort(X, axis=0, kind="stable")
        else:
            sorted_idx = None
        self._build(X, y, np.arange(X.shape[0]), sorted_idx, depth=0, rng=rng)
        self._finalize()
        return self

    def _finalize(self) -> None:
        """Freeze the append-lists into contiguous arrays for predict."""
        self.feature_ = np.asarray(self._feature, dtype=np.intp)
        self.threshold_ = np.asarray(self._threshold, dtype=float)
        self.left_ = np.asarray(self._left, dtype=np.intp)
        self.right_ = np.asarray(self._right, dtype=np.intp)
        self.value_ = np.asarray(self._value, dtype=float)

    def _new_node(self, value: float) -> int:
        idx = len(self._value)
        self._feature.append(-1)
        self._threshold.append(0.0)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(value)
        return idx

    def _build(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        sorted_idx: np.ndarray | None,
        depth: int,
        rng: np.random.Generator,
    ) -> int:
        y_node = y[idx]
        node = self._new_node(float(y_node.mean()))
        if (
            depth >= self.max_depth
            or idx.size < self.min_samples_split
            or np.ptp(y_node) == 0.0
        ):
            return node
        split = self._best_split(X, y, idx, y_node, sorted_idx, rng)
        if split is None:
            return node
        feature, threshold = split
        mask = X[idx, feature] <= threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if left_idx.size == 0 or right_idx.size == 0:
            return node
        if sorted_idx is not None:
            left_sorted, right_sorted = self._partition_sorted(
                X, sorted_idx, left_idx, feature, threshold
            )
        else:
            left_sorted = right_sorted = None
        self._feature[node] = feature
        self._threshold[node] = threshold
        self._left[node] = self._build(X, y, left_idx, left_sorted, depth + 1, rng)
        self._right[node] = self._build(X, y, right_idx, right_sorted, depth + 1, rng)
        return node

    @staticmethod
    def _partition_sorted(
        X: np.ndarray,
        sorted_idx: np.ndarray,
        left_idx: np.ndarray,
        feature: int,
        threshold: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split the per-column sorted index cache into the two children.

        Every index keeps its rank among its sibling group, so each child
        column stays stably sorted.  One ``put_along_axis`` scatter moves
        all columns at once: destination row = rank-so-far among lefts for
        left members, ``n_left`` + rank-so-far among rights otherwise.
        """
        member = np.zeros(X.shape[0], dtype=bool)
        member[left_idx] = True
        in_left = member[sorted_idx]  # (n_node, d) membership in sorted order
        n, d = sorted_idx.shape
        n_left = left_idx.size
        cl = np.cumsum(in_left, axis=0)  # lefts seen up to each row, per column
        rows = np.arange(n).reshape(-1, 1)
        dest = np.where(in_left, cl - 1, n_left + rows - cl)
        out = np.empty_like(sorted_idx)
        out[dest, np.arange(d)] = sorted_idx
        return out[:n_left], out[n_left:]

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        y_node: np.ndarray,
        sorted_idx: np.ndarray | None,
        rng: np.random.Generator,
    ) -> tuple[int, float] | None:
        if sorted_idx is not None:
            return self._best_split_sorted(X, y, y_node, sorted_idx, rng)
        n_features = X.shape[1]
        k = n_features if self.max_features is None else min(self.max_features, n_features)
        features = rng.choice(n_features, size=k, replace=False)
        n = idx.size
        total_sum = y_node.sum()
        best_score = np.inf  # weighted child SSE; parent SSE is constant
        best: tuple[int, float] | None = None
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

    def _best_split_sorted(
        self,
        X: np.ndarray,
        y: np.ndarray,
        y_node: np.ndarray,
        sorted_idx: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[int, float] | None:
        """All candidate features scored in one (n, k) cumsum batch.

        Column-wise ``cumsum`` accumulates sequentially per column, so the
        SSE floats match the reference loop bit for bit; the flat argmin
        over the feature-major (k, n-1) matrix reproduces its tie
        breaking (first sampled feature, then first position, wins).
        """
        n_features = X.shape[1]
        k = n_features if self.max_features is None else min(self.max_features, n_features)
        features = rng.choice(n_features, size=k, replace=False)
        n = y_node.size
        total_sum = y_node.sum()
        order = sorted_idx[:, features]  # (n, k) per-feature sorted indices
        ys = y[order]
        xs = X[order, features]
        csum = np.cumsum(ys, axis=0)
        csum2 = np.cumsum(ys * ys, axis=0)
        left_sum = csum[:-1]
        left_sum2 = csum2[:-1]
        right_sum = total_sum - left_sum
        right_sum2 = csum2[-1] - left_sum2
        counts = np.arange(1, n).reshape(-1, 1)  # left sizes
        right_counts = n - counts
        sse = (
            left_sum2
            - left_sum * left_sum / counts
            + right_sum2
            - right_sum * right_sum / right_counts
        )
        np.copyto(sse, np.inf, where=xs[1:] <= xs[:-1])  # splits only where x changes
        flat = int(np.argmin(sse.T.ravel()))  # feature-major: first feature wins ties
        j, pos = divmod(flat, n - 1)
        if not np.isfinite(sse[pos, j]):
            return None
        return int(features[j]), float(0.5 * (xs[pos, j] + xs[pos + 1, j]))

    # ------------------------------------------------------------------ #
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorized prediction: route all rows level by level."""
        X = np.asarray(X, dtype=float)
        if self.value_ is None or self.value_.size == 0:
            raise RuntimeError("tree is not fitted")
        feature = self.feature_
        threshold = self.threshold_
        left = self.left_
        right = self.right_

        nodes = np.zeros(X.shape[0], dtype=np.intp)
        active = feature[nodes] >= 0
        while active.any():
            cur = nodes[active]
            feats = feature[cur]
            go_left = X[active, feats] <= threshold[cur]
            nodes[active] = np.where(go_left, left[cur], right[cur])
            active = feature[nodes] >= 0
        return self.value_[nodes]

    @property
    def node_count(self) -> int:
        return len(self._value)


class RandomForestRegressor:
    """Bootstrap ensemble of regression trees with (μ, σ) prediction."""

    def __init__(
        self,
        n_trees: int = 25,
        max_depth: int = 12,
        min_samples_split: int = 4,
        max_features: int | None = None,
        bootstrap: bool = True,
    ) -> None:
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.bootstrap = bootstrap
        self._trees: list[RegressionTree] = []
        # Concatenated node table over all trees (built post-fit).
        self._ens_feature: np.ndarray | None = None
        self._ens_threshold: np.ndarray | None = None
        self._ens_left: np.ndarray | None = None
        self._ens_right: np.ndarray | None = None
        self._ens_value: np.ndarray | None = None
        self._ens_roots: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        n = X.shape[0]
        max_features = self.max_features
        if max_features is None and X.shape[1] > 1:
            # skopt-style default: use all features for small dims, else sqrt.
            max_features = X.shape[1] if X.shape[1] <= 3 else max(1, int(np.sqrt(X.shape[1])))
        self._trees = []
        for _ in range(self.n_trees):
            tree = RegressionTree(self.max_depth, self.min_samples_split, max_features)
            if self.bootstrap and n > 1:
                sample = rng.integers(0, n, size=n)
                tree.fit(X[sample], y[sample], rng)
            else:
                tree.fit(X, y, rng)
            self._trees.append(tree)
        self._finalize_ensemble()
        return self

    def _finalize_ensemble(self) -> None:
        """Stack all trees' frozen node arrays into one offset table."""
        counts = [t.node_count for t in self._trees]
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.intp)
        self._ens_roots = offsets
        self._ens_feature = np.concatenate([t.feature_ for t in self._trees])
        self._ens_threshold = np.concatenate([t.threshold_ for t in self._trees])
        self._ens_value = np.concatenate([t.value_ for t in self._trees])
        # Child pointers shift by each tree's offset; leaves stay -1 but
        # are never followed (feature < 0 stops the walk first).
        self._ens_left = np.concatenate(
            [t.left_ + off for t, off in zip(self._trees, offsets)]
        )
        self._ens_right = np.concatenate(
            [t.right_ + off for t, off in zip(self._trees, offsets)]
        )

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (mean, std) across the ensemble, all trees at once.

        One level-synchronous walk routes the full (trees × candidates)
        pointer matrix; numerically identical to stacking per-tree
        predictions (same floats, same reductions).
        """
        if not self._trees:
            raise RuntimeError("forest is not fitted")
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        t = len(self._trees)
        feature = self._ens_feature
        threshold = self._ens_threshold
        left = self._ens_left
        right = self._ens_right

        nodes = np.repeat(self._ens_roots, n)       # (t * n,) current node ids
        rows = np.tile(np.arange(n), t)             # candidate row per walker
        active = feature[nodes] >= 0
        while active.any():
            cur = nodes[active]
            feats = feature[cur]
            go_left = X[rows[active], feats] <= threshold[cur]
            nodes[active] = np.where(go_left, left[cur], right[cur])
            active = feature[nodes] >= 0
        preds = self._ens_value[nodes].reshape(t, n)
        return preds.mean(axis=0), preds.std(axis=0)
